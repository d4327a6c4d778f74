"""Exception hierarchy for the repro package.

Engines raise these instead of returning sentinel values so that the
benchmark harness can report the same failure modes the paper's Table 2
and Figure 18 record (``CRASHED`` / ``OUTOFMEM`` / ``TIMEOUT``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """An edge list or graph file could not be parsed."""


class PatternError(ReproError):
    """A pattern graph is malformed (disconnected, self-loop, ...)."""


class ScheduleError(ReproError):
    """A matching order / extension schedule could not be constructed."""


class OutOfMemoryError(ReproError):
    """A simulated machine exceeded its configured memory capacity.

    Mirrors the OUTOFMEM / CRASHED outcomes in the paper's Tables 2-3 and
    the OOM point in Figure 18.
    """

    def __init__(self, machine_id: int, needed_bytes: int, capacity_bytes: int):
        self.machine_id = machine_id
        self.needed_bytes = needed_bytes
        self.capacity_bytes = capacity_bytes
        super().__init__(
            f"machine {machine_id} needs {needed_bytes} bytes "
            f"but has capacity {capacity_bytes}"
        )


class SimTimeoutError(ReproError):
    """A simulated run exceeded the configured simulated-time budget.

    Named ``Sim...`` so it cannot shadow the :class:`TimeoutError`
    builtin: the old name made a bare ``except TimeoutError`` in code
    that imported this module silently catch the wrong class.
    """

    def __init__(self, simulated_seconds: float, budget_seconds: float):
        self.simulated_seconds = simulated_seconds
        self.budget_seconds = budget_seconds
        super().__init__(
            f"simulated runtime {simulated_seconds:.1f}s exceeded "
            f"budget {budget_seconds:.1f}s"
        )


class MachineCrashError(ReproError):
    """A simulated machine was killed by an injected fault.

    Raised out of the scheduler's chunk loop when a
    :class:`~repro.faults.FaultInjector` crash trigger fires; the engine
    converts it into recovery (work reassignment) or a partial report.
    """

    def __init__(self, machine_id: int, trigger: str):
        self.machine_id = machine_id
        self.trigger = trigger
        super().__init__(f"machine {machine_id} crashed ({trigger})")


class FetchFailedError(ReproError):
    """A remote edge-list fetch kept failing after every retry."""

    def __init__(self, requester: int, owner: int, attempts: int):
        self.requester = requester
        self.owner = owner
        self.attempts = attempts
        super().__init__(
            f"fetch {requester} -> {owner} failed after "
            f"{attempts} attempts"
        )


class ConfigurationError(ReproError):
    """An engine or cluster was configured inconsistently."""
