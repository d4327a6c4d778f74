"""Shared-memory janitor: cleanup that survives interrupted owners.

Both owners of POSIX shared-memory segments in this repository — the
process backend's per-run graph segments and the mining service's
resident graph segment (docs/service.md) — must not leak them past an
interrupted process: a SIGINT/SIGTERM mid-run, or a plain interpreter
exit, has to unlink whatever is still mapped. This module is the one
implementation of that contract (extracted from the process backend so
the service can reuse it verbatim):

- ``install_janitor(cleanup)`` registers ``cleanup`` with ``atexit``
  and chains it in front of the current SIGINT/SIGTERM handlers; the
  chained handler runs the cleanup, restores whoever was installed
  before, and re-raises the signal so default semantics
  (KeyboardInterrupt, termination exit status) are preserved.
- ``remove_janitor(cleanup, previous)`` undoes both on the normal exit
  path.

``cleanup`` must be idempotent: the signal path, the ``atexit`` hook,
and the owner's own ``finally`` block may race, and each tolerates the
segments already being gone. A SIGKILL defeats any in-process hook by
definition — that case is covered by the on-disk ``shm.json`` ledger
(:mod:`repro.faults.durability`), which lets the *next* run reap what
this one leaked.
"""

from __future__ import annotations

import atexit
import os
import signal


def install_janitor(cleanup) -> dict:
    """Arm ``cleanup`` for atexit and SIGINT/SIGTERM; returns the
    previous signal handlers for :func:`remove_janitor`."""
    atexit.register(cleanup)
    previous: dict = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            def handler(received, frame, signum=signum):
                cleanup()
                # restore whoever was installed before us, then
                # re-raise so default semantics (KeyboardInterrupt,
                # termination exit status) are preserved
                prior = previous.get(received)
                signal.signal(
                    received,
                    prior if prior is not None else signal.SIG_DFL,
                )
                os.kill(os.getpid(), received)
            previous[signum] = signal.signal(signum, handler)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    return previous


def remove_janitor(cleanup, previous) -> None:
    """Disarm a janitor installed by :func:`install_janitor`."""
    atexit.unregister(cleanup)
    for signum, handler in previous.items():
        try:
            signal.signal(
                signum, handler if handler is not None else signal.SIG_DFL
            )
        except (ValueError, TypeError):  # pragma: no cover
            pass
