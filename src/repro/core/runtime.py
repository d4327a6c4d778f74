"""Run reports: what one engine execution measured.

Every engine and baseline returns a :class:`RunReport`; the benchmark
harness turns collections of them into the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.faults.recovery import FailureSummary


def format_seconds(seconds: float) -> str:
    """Human-readable simulated time (the paper mixes ms/s/h units)."""
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 3600.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 3600.0:.2f}h"


def format_bytes(num_bytes: float) -> str:
    """Human-readable data volume."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


@dataclass
class RunReport:
    """Everything measured during one simulated GPM run."""

    system: str
    app: str
    graph_name: str
    #: embedding count, or per-pattern counts for motif/FSM workloads
    counts: Any
    simulated_seconds: float
    #: total bytes crossing machine boundaries
    network_bytes: int = 0
    #: breakdown of the *slowest* machine's time (Figure 15 categories)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: every machine's clock buckets plus responder-side serve seconds
    #: (``--metrics table`` and Figure 15's per-machine bars read this)
    machine_breakdowns: list[dict[str, float]] = field(default_factory=list)
    #: per-machine total clocks
    machine_seconds: list[float] = field(default_factory=list)
    cache_hit_rate: float = 0.0
    cache_entries: int = 0
    #: peak network link utilization (Figure 19)
    network_utilization: float = 0.0
    peak_memory_bytes: int = 0
    num_machines: int = 1
    #: free-form extras (hds stats, chunk counts, ...)
    extra: dict[str, Any] = field(default_factory=dict)
    #: structured account of faults met during the run; None = clean.
    #: ``RECOVERED`` failures carry complete counts, every other
    #: outcome means the counts are partial.
    failure: Optional[FailureSummary] = None

    # ------------------------------------------------------------------
    @property
    def outcome(self) -> str:
        """``OK``, ``RECOVERED``, or a failure outcome (Table 2 cells)."""
        return self.failure.outcome.value if self.failure else "OK"

    # ------------------------------------------------------------------
    def breakdown_fractions(self) -> dict[str, float]:
        """Bucket shares of the critical-path machine's time."""
        total = sum(self.breakdown.values())
        if total <= 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / total for k, v in self.breakdown.items()}

    def describe(self) -> str:
        """One-line summary used by the examples."""
        line = (
            f"{self.system:<14} {self.app:<8} {self.graph_name:<12} "
            f"time={format_seconds(self.simulated_seconds):>9} "
            f"traffic={format_bytes(self.network_bytes):>9} "
            f"count={self.counts}"
        )
        if self.failure is not None:
            line += f" [{self.outcome}]"
        return line

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dump of every field (``--metrics json``)."""
        counts = self.counts
        if isinstance(counts, dict):
            # motif censuses key counts by (labels, edges) tuples
            counts = {str(k): v for k, v in counts.items()}
        document = {
            "system": self.system,
            "app": self.app,
            "graph_name": self.graph_name,
            "counts": counts,
            "simulated_seconds": self.simulated_seconds,
            "network_bytes": int(self.network_bytes),
            "breakdown": dict(self.breakdown),
            "machine_breakdowns": [dict(b) for b in self.machine_breakdowns],
            "machine_seconds": list(self.machine_seconds),
            "cache_hit_rate": self.cache_hit_rate,
            "cache_entries": self.cache_entries,
            "network_utilization": self.network_utilization,
            "peak_memory_bytes": int(self.peak_memory_bytes),
            "num_machines": self.num_machines,
            "extra": self.extra,
        }
        if self.failure is not None:
            # fault-free documents keep their pre-fault shape (pinned
            # by the golden-file test); failed runs add the summary
            document["outcome"] = self.outcome
            document["failure"] = self.failure.to_dict()
        return document
