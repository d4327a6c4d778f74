"""Wire types of the process backend's lanes.

Everything that crosses a process boundary here travels on a worker's
two private pipes (:mod:`repro.exec.lane`): four message kinds up the
result pipe, one command down the command pipe. Edge lists never
travel — every worker maps the whole graph (docs/execution.md).
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------
# result-pipe message kinds: every message a worker sends the parent
# is a (kind, worker_id, payload) triple with one of these tags
# ---------------------------------------------------------------------
#: compute finished — payload carries partial/udf/obs/busy seconds
RESULT = "result"
#: unexpected failure — payload is the formatted traceback text
ERROR = "error"
#: completed-root-chunk delta — payload is ``(pattern, machine, roots,
#: matches)`` with the *absolute* cursor. Workers ship one per root
#: chunk so the parent always knows the fleet's progress: with a
#: checkpoint directory it appends them to the durable log, and on a
#: worker death the redistribution pass uses them to skip the dead
#: worker's completed chunks (docs/execution.md)
CKPT = "ckpt"
#: a redistributed-recovery replay finished — payload has the same
#: shape as a RESULT payload, restricted to the replayed machines
RECOVERY = "recovery"


@dataclass(frozen=True)
class RecoverAssignment:
    """Replay these machines on the receiving (surviving) worker.

    The one command of the fleet's command pipes (parent -> worker,
    after the worker's RESULT; releasing the lane ends them), sent to
    a survivor when a peer died under
    ``--on-worker-death recover``. ``resume`` is the parent's progress
    ledger — ``(pattern, machine)`` to the last shipped cursor
    ``(roots, matches)`` — so the survivor skips chunks the dead worker
    already completed — the same resume mechanism durable checkpoints
    use (docs/faults.md).
    """

    machines: tuple[int, ...]
    resume: dict
