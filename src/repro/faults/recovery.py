"""Recovery primitives: outcomes, failure summaries, checkpoints.

These are the data types the engine uses to *survive* what the
injector does. They live in the leaf ``repro.faults`` package so that
``core.runtime`` (the :class:`RunReport`) can carry a
:class:`FailureSummary` without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

import numpy as np


class Outcome(str, Enum):
    """How a run that met a fault ended (Table 2/3's cell vocabulary,
    extended with the recovery outcomes this engine adds)."""

    #: a machine died and recovery was off (or no survivors remained)
    CRASHED = "CRASHED"
    #: a simulated machine exceeded its memory capacity
    OUTOFMEM = "OUTOFMEM"
    #: the simulated-time budget was exceeded
    TIMEOUT = "TIMEOUT"
    #: a remote fetch exhausted its retries; counts are partial
    DEGRADED = "DEGRADED"
    #: the mining service declined to run the query at all (admission
    #: cap exceeded, malformed request, or shutdown drain); no partial
    #: work exists (docs/service.md)
    REJECTED = "REJECTED"
    #: faults were injected, work was reassigned, counts are complete
    RECOVERED = "RECOVERED"

    def __str__(self) -> str:  # json/format friendliness
        return self.value


@dataclass
class FailureSummary:
    """Structured account of what went wrong (and what survived).

    Attached to :class:`~repro.core.runtime.RunReport` instead of
    raising, so callers always get the partial measurements. ``partial``
    is ``False`` only for :data:`Outcome.RECOVERED`, whose counts are
    provably complete (the determinism tests pin this).
    """

    outcome: Outcome
    machine_id: Optional[int] = None
    message: str = ""
    simulated_seconds: float = 0.0
    partial: bool = True
    #: one dict per fault event ({"kind", "machine", "trigger", ...})
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def fatal(self) -> bool:
        return self.outcome is not Outcome.RECOVERED

    def to_dict(self) -> dict[str, Any]:
        return {
            "outcome": self.outcome.value,
            "machine_id": self.machine_id,
            "message": self.message,
            "simulated_seconds": self.simulated_seconds,
            "partial": self.partial,
            "events": list(self.events),
        }


@dataclass
class Checkpoint:
    """A machine's enumeration cursor at the last completed root chunk.

    Khuzdul's DFS-between-chunks discipline empties the whole stack
    every time a root chunk's subtree is exhausted, so the root-chunk
    boundary is the natural recovery point: nothing below it is live.
    ``roots_completed`` counts fully-explored roots (a prefix of the
    scheduler's root array), ``matches`` holds the match total of each
    slot of the scheduler's pattern group *at that boundary* — work
    past the checkpoint is discarded on a crash and replayed by the
    survivors, which is what keeps recovered counts exact.
    """

    machine_id: int = 0
    roots_completed: int = 0
    matches: tuple[int, ...] = ()
    #: cumulative chunks the scheduler had created at the boundary
    chunk_index: int = 0
    simulated_seconds: float = 0.0


def worker_death_event(
    worker: int, machines: list[int], reason: str, reexecuted: bool
) -> dict[str, Any]:
    """Event-log entry for one real worker-process death.

    Same vocabulary as the simulated ``crash`` events: a dict on
    ``FailureSummary.events``. ``machines`` are the simulated machines
    the worker hosted; ``reexecuted`` records whether their work was
    replayed (the process backend's ``on_worker_death=recover`` path)
    or lost with the run (``fail``).
    """
    return {
        "kind": "worker_death",
        "worker": int(worker),
        "machines": [int(m) for m in machines],
        "reason": reason,
        "reexecuted": bool(reexecuted),
    }


def worker_loss_summary(
    events: list[dict[str, Any]], recovered: bool
) -> FailureSummary:
    """The :class:`FailureSummary` for real worker-process deaths.

    ``recovered=True`` (the ``on_worker_death=recover`` policy
    re-executed every lost worker's hosted machines — on surviving
    workers, or in the parent for machines no survivor covered) yields :data:`Outcome.RECOVERED` with
    ``partial=False`` — the counts are provably complete, exactly like
    simulated crash recovery. ``recovered=False`` yields a partial
    :data:`Outcome.CRASHED` report.
    """
    lost = sorted({e["worker"] for e in events})
    machine_id = None
    for event in events:
        if event["machines"]:
            machine_id = event["machines"][0]
            break
    if recovered:
        return FailureSummary(
            Outcome.RECOVERED,
            machine_id=machine_id,
            message=(
                f"recovered: worker process(es) {lost} died; their "
                f"hosted machines were re-executed deterministically; "
                f"counts are complete"
            ),
            partial=False,
            events=list(events),
        )
    reasons = "; ".join(
        f"worker {e['worker']}: {e['reason']}" for e in events
    )
    return FailureSummary(
        Outcome.CRASHED,
        machine_id=machine_id,
        message=f"worker process(es) {lost} died ({reasons})",
        partial=True,
        events=list(events),
    )


def split_roots(
    roots: np.ndarray, survivors: list[int]
) -> list[tuple[int, np.ndarray]]:
    """Deterministic round-robin reassignment of orphaned roots.

    Survivor ``survivors[i]`` receives ``roots[i::len(survivors)]``;
    the list order (ascending machine id) makes the decision a pure
    function of (roots, survivor set), which the determinism test
    relies on.
    """
    if len(roots) == 0:
        return []
    ordered = sorted(survivors)
    return [
        (machine, roots[i::len(ordered)])
        for i, machine in enumerate(ordered)
        if len(roots[i::len(ordered)])
    ]
