"""Wire types of the process backend's lanes.

Everything that crosses a process boundary here travels on a worker's
two private pipes (:mod:`repro.exec.lane`): four message kinds up the
result pipe, two commands down the command pipe. Edge lists never
travel — every worker maps the whole graph (docs/execution.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# ---------------------------------------------------------------------
# result-pipe message kinds: every message a worker sends the parent
# is a (kind, worker_id, payload) triple with one of these tags
# ---------------------------------------------------------------------
#: compute finished — payload carries partial/udfs/obs/busy seconds
RESULT = "result"
#: unexpected failure — payload is the formatted traceback text
ERROR = "error"
#: completed-root-chunk delta — payload is ``(machine, roots,
#: {pattern: matches}, udf_state)``: the group's *absolute* cursor and
#: the pickled state of the machine's UDF copy there (None without a
#: UDF). The parent's ledger records one per root chunk: with a
#: checkpoint directory in the durable log, and on a worker death the
#: dead worker's machines restart from it (docs/execution.md)
CKPT = "ckpt"
#: a redistributed-recovery replay finished — payload has the same
#: shape as a RESULT payload, restricted to the replayed machines
RECOVERY = "recovery"


@dataclass(frozen=True)
class Job:
    """Run this worker's share of one job, then answer ``RESULT``.

    The command a resident fleet's worker gets once per run
    (docs/execution.md, "Worker topology"): the graph ``handle`` to
    run against, the job ``plan``, the hosted machines' ``resume``
    cursors and ``udfs`` copies (``DurableRun.start``), whether to
    ship an observability dump, and the ``REPRO_CHAOS`` spec the
    parent read for this run ("" when unset).
    """

    handle: object
    plan: object
    resume: dict
    udfs: Optional[dict]
    obs_enabled: bool
    chaos: str


@dataclass(frozen=True)
class RecoverAssignment:
    """Replay these machines on the receiving (surviving) worker.

    The fleet's second command (parent -> worker, after the worker's
    RESULT for the current :class:`Job`), sent to a survivor when a
    peer died under ``--on-worker-death recover``.
    ``resume`` and ``udfs`` are the last shipped cursors and each
    machine's UDF copy at them (``DurableRun.start``), so the survivor
    skips chunks the dead worker already completed (docs/faults.md).
    """

    machines: tuple[int, ...]
    resume: dict
    udfs: Optional[dict]
