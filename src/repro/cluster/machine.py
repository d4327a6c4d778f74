"""Simulated machine: clock buckets, thread model, memory accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.costmodel import CostModel
from repro.errors import OutOfMemoryError


@dataclass
class ClockBuckets:
    """Per-machine simulated time, split by the paper's breakdown
    categories (Figure 15): computation, scheduling, cache maintenance,
    and time exposed to the network (not hidden by overlap)."""

    compute: float = 0.0
    scheduler: float = 0.0
    cache: float = 0.0
    network: float = 0.0

    def total(self) -> float:
        return self.compute + self.scheduler + self.cache + self.network

    def add(self, other: "ClockBuckets") -> None:
        self.compute += other.compute
        self.scheduler += other.scheduler
        self.cache += other.cache
        self.network += other.network

    def as_dict(self) -> dict[str, float]:
        return {
            "compute": self.compute,
            "scheduler": self.scheduler,
            "cache": self.cache,
            "network": self.network,
        }

    def fractions(self) -> dict[str, float]:
        """Bucket shares of the machine's total time (Figure 15 bars)."""
        total = self.total()
        if total <= 0.0:
            return {k: 0.0 for k in self.as_dict()}
        return {k: v / total for k, v in self.as_dict().items()}


@dataclass
class MachineState:
    """One simulated cluster node.

    ``cores`` is the node's core count; the paper reserves communication
    threads at a 1:3 ratio (Section 6), so ``compute_threads`` is what
    the chunk extension work divides across.

    Memory accounting tracks the resident partition plus the engine's
    live structures; exceeding ``memory_bytes`` raises
    :class:`~repro.errors.OutOfMemoryError`, which benches report the way
    the paper reports CRASHED/OOM cells.
    """

    machine_id: int
    cores: int
    memory_bytes: int
    sockets: int = 1
    cost: CostModel = field(default_factory=CostModel)
    clock: ClockBuckets = field(default_factory=ClockBuckets)
    resident_bytes: int = 0
    peak_bytes: int = 0
    #: bytes served to other machines (responder load, Figure 19)
    served_bytes: int = 0
    served_requests: int = 0
    #: cleared when an injected fault kills the machine mid-run
    alive: bool = True

    # ------------------------------------------------------------------
    @property
    def comm_threads(self) -> int:
        """Cores dedicated to communication (at least 1)."""
        return max(1, int(round(self.cores * self.cost.comm_thread_ratio)))

    @property
    def compute_threads(self) -> int:
        """Cores left for computation (at least 1)."""
        return max(1, self.cores - self.comm_threads)

    @property
    def serve_seconds(self) -> float:
        """Time the communication threads spend serving remote requests;
        concurrent with the machine's own pipeline (Section 6), so it
        bounds the machine's finish time via max(), not a sum. Priced
        once from the integer served tallies, so it does not depend on
        the order (or the process) the fetches were recorded in."""
        return (
            self.served_requests * self.cost.serve_per_request
            + self.served_bytes * self.cost.serve_per_byte
        ) / self.comm_threads

    @property
    def compute_pool(self) -> float:
        """What the compute pool divides serial work by: its threads at
        their parallel efficiency (1.0 for a single thread)."""
        threads = self.compute_threads
        if threads == 1:
            return 1.0
        return threads * self.cost.thread_efficiency

    def parallel_compute_time(self, serial_seconds: float) -> float:
        """Wall time of ``serial_seconds`` of work over the compute pool."""
        return serial_seconds / self.compute_pool

    # ------------------------------------------------------------------
    def allocate(self, num_bytes: int) -> None:
        """Reserve memory, raising OutOfMemoryError if over capacity."""
        self.resident_bytes += num_bytes
        if self.resident_bytes > self.memory_bytes:
            raise OutOfMemoryError(
                self.machine_id, self.resident_bytes, self.memory_bytes
            )
        self.peak_bytes = max(self.peak_bytes, self.resident_bytes)

    def release(self, num_bytes: int) -> None:
        """Return memory to the pool (never below zero)."""
        self.resident_bytes = max(0, self.resident_bytes - num_bytes)

    def busy_seconds(self) -> float:
        """Finish time: own pipeline and responder duties run in
        parallel on disjoint thread pools, so the later one wins."""
        return max(self.clock.total(), self.serve_seconds)

    def reset_clock(self) -> None:
        self.clock = ClockBuckets()
        self.served_bytes = 0
        self.served_requests = 0
        self.alive = True
