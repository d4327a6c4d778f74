"""The pluggable execution-backend interface.

A backend decides *where* a job's per-machine schedulers run; it never
decides *what* they compute. ``KhuzdulEngine`` hands its
:class:`~repro.core.plan.JobPlan` to ``engine.backend.execute(...)``
when a backend is attached and to its own ``run_plan`` otherwise, so
the engine itself never imports this package (``repro.exec`` sits above ``repro.core``
in the layer map — see docs/architecture.md).

The hard contract every backend must honour (docs/execution.md): for
any (graph, schedules, configuration), the returned pattern counts are
bit-identical to the inline path's, at any worker count.

Failure semantics are part of the contract too: a backend whose
workers are real OS processes must never let a worker death wedge the
run or escape as a raw traceback — it converts deaths and wall-clock
expiry into a structured
:class:`~repro.faults.recovery.FailureSummary` on the returned report
(``CRASHED``/``RECOVERED``/``TIMEOUT``), the same vocabulary the
simulated fault injector uses (docs/faults.md).
"""

from __future__ import annotations

import abc

from repro.core.runtime import RunReport


class Backend(abc.ABC):
    """Executes one engine job and returns ``(counts, report)``."""

    #: backend name as shown by ``--backend`` and the outcome line
    name: str = "backend"

    @abc.abstractmethod
    def execute(self, engine, plan, udf) -> tuple[list[int], RunReport]:
        """Run the job ``plan`` describes on ``engine``'s cluster.

        ``engine`` is the calling :class:`~repro.core.engine.KhuzdulEngine`;
        backends read its cluster and observability bundle from it
        rather than holding state of their own, so one backend object
        can serve many engines. Every backend runs machines through
        ``engine.execute`` (here or in a worker) and assembles the
        result with :func:`repro.core.plan.finalize`.
        """


class InlineBackend(Backend):
    """The default: every machine in the calling process.

    Attaching ``InlineBackend()`` is byte-identical to attaching no
    backend at all (``backend=None``), durable checkpoints included —
    it exists so code can treat "which backend" uniformly as an object.
    """

    name = "inline"

    def execute(self, engine, plan, udf):
        return engine.run_plan(plan, udf)
