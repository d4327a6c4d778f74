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


class PeerDeadError(ReproError):
    """A process-backend worker's peer died before replying.

    Raised out of a bounded transport wait
    (:meth:`repro.exec.transport.WorkerTransport.collect`) when the
    parent's liveness watcher marks the serving worker dead, or when
    the fleet-wide stop event is set during teardown. The worker turns
    it into a ``peer_dead`` message so the parent can re-execute or
    fail fast with a structured report — never a deadlock.
    """

    def __init__(self, worker_id: int, peer_worker: int,
                 server_machine: int):
        self.worker_id = worker_id
        self.peer_worker = peer_worker
        self.server_machine = server_machine
        super().__init__(
            f"worker {worker_id}: peer worker {peer_worker} (hosting "
            f"machine {server_machine}) died before replying"
        )


class TransportCorruptionError(ReproError):
    """A reply-ring frame failed magic/sequence validation.

    Every frame the process backend's responder publishes starts with a
    magic word and a per-pair monotone sequence number
    (:mod:`repro.exec.transport`); a reader that finds anything else is
    consuming a corrupt or misframed ring. The worker reports it as an
    uncaught error, so the parent returns a structured ``CRASHED``
    report — never silently garbled counts.
    """

    def __init__(self, worker_id: int, peer_worker: int, detail: str):
        self.worker_id = worker_id
        self.peer_worker = peer_worker
        self.detail = detail
        super().__init__(
            f"worker {worker_id}: corrupt reply ring from worker "
            f"{peer_worker}: {detail}"
        )


class ConfigurationError(ReproError):
    """An engine or cluster was configured inconsistently."""
