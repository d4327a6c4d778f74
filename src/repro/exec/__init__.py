"""repro.exec — pluggable execution backends for the engine.

The engine's simulated semantics stay identical across backends; a
backend only chooses *where* the per-machine schedulers run:

- ``inline`` (default): every machine's scheduler in the calling
  process.
- ``process``: one OS process per group of simulated machines, each
  mapping the whole graph from one ``.kcsr`` store file (a RAM graph
  is written as one once, :mod:`repro.graph.csr`), so no edge list
  crosses a process boundary. Its worker fleets are
  resident: a fleet that finished a run cleanly waits in a
  process-wide pool for the next run of its shape, and
  :func:`shutdown` (also run at interpreter exit) releases them.

See docs/execution.md for the interface, the lane protocol, and the
determinism contract (bit-identical counts across backends).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.exec.backend import Backend, InlineBackend
from repro.exec.process import ProcessBackend, shutdown

#: backend names accepted by ``make_backend`` and the CLI ``--backend``
BACKENDS = ("inline", "process")


def make_backend(
    name: str,
    workers: Optional[int] = None,
    heartbeat: Optional[float] = None,
    on_worker_death: Optional[str] = None,
):
    """Build the backend for a CLI/config name.

    Returns ``None`` for ``inline`` — attaching no backend at all *is*
    the inline backend (``InlineBackend.execute`` is the engine's own
    ``run_plan``).

    ``heartbeat`` and ``on_worker_death`` tune the process backend's
    liveness detection (``None`` keeps the backend defaults); the
    inline backend has no worker processes to watch, so they are
    silently ignored there.
    """
    if name == "inline":
        return None
    if name == "process":
        kwargs = {}
        if heartbeat is not None:
            kwargs["heartbeat"] = heartbeat
        if on_worker_death is not None:
            kwargs["on_worker_death"] = on_worker_death
        return ProcessBackend(workers=workers, **kwargs)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {BACKENDS}"
    )


__all__ = [
    "BACKENDS",
    "Backend",
    "InlineBackend",
    "ProcessBackend",
    "make_backend",
    "shutdown",
]
