"""Structured span tracer keyed by (machine, level, chunk, batch).

The scheduler emits one span per chunk (carrying that chunk's
compute/scheduler/cache/exposed-network seconds — the Figure 15
categories — plus overlap accounting) and one span per circulant
communication batch (payload bytes, request count, wire seconds —
Figure 19's raw material). Start times are simulated seconds on the
owning machine's clock, so spans order correctly within a machine.

Spans exist for *attribution*: aggregating a machine's chunk spans by
their time attributes reproduces its clock buckets exactly, which is
what lets ``fig15``/``fig19`` compute breakdowns from real trace data
instead of from the single pre-aggregated clock. The tracer keeps the
per-machine phase aggregation (:meth:`Tracer.phase_seconds`) exact
even when the raw span list is capped (``max_spans``), so memory stays
bounded on large runs without losing the breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Span attribute keys that carry simulated seconds and feed the
#: per-machine phase aggregation (Figure 15 categories).
PHASE_ATTRS = ("compute", "scheduler", "cache", "network")


@dataclass
class Span:
    """One traced unit of engine work.

    ``level``/``chunk``/``batch`` are -1 when the dimension does not
    apply (e.g. an engine-startup span has no chunk).
    """

    name: str
    machine: int
    level: int = -1
    chunk: int = -1
    batch: int = -1
    #: simulated seconds on the machine clock when the span began
    start: float = 0.0
    #: measurements attached to the span (seconds, bytes, counts)
    attrs: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "machine": self.machine,
            "level": self.level,
            "chunk": self.chunk,
            "batch": self.batch,
            "start": self.start,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans and maintains exact per-machine phase totals."""

    enabled: bool = True

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        #: machine -> phase -> simulated seconds (exact, never capped)
        self._phase: dict[int, dict[str, float]] = {}

    def record(self, span: Span) -> Span:
        """Record one finished span (aggregation happens here)."""
        phases = self._phase.get(span.machine)
        if phases is None:
            phases = self._phase[span.machine] = {
                key: 0.0 for key in PHASE_ATTRS
            }
        attrs = span.attrs
        for key in PHASE_ATTRS:
            value = attrs.get(key)
            if value:
                phases[key] += value
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def absorb(self, spans: list[Span], dropped: int = 0) -> None:
        """Replay spans recorded by a worker-process tracer
        (``repro.exec``). Going through :meth:`record` keeps the exact
        per-machine phase aggregation; ``dropped`` carries over spans
        the worker's own cap already shed."""
        for span in spans:
            self.record(span)
        self.dropped += dropped

    # -- reading -------------------------------------------------------
    def phase_seconds(self) -> dict[int, dict[str, float]]:
        """Per-machine simulated seconds by Figure 15 phase."""
        return {
            machine: dict(phases)
            for machine, phases in sorted(self._phase.items())
        }

    def summary(self) -> dict[str, Any]:
        """Aggregate view used by ``RunReport.extra['obs']``."""
        by_name: dict[str, int] = {}
        for span in self.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        return {
            "num_spans": len(self.spans),
            "dropped_spans": self.dropped,
            "spans_by_name": dict(sorted(by_name.items())),
            "phase_seconds": {
                str(machine): phases
                for machine, phases in self.phase_seconds().items()
            },
        }

    def export(self) -> list[dict[str, Any]]:
        """Full span dump (JSON-friendly), in record order."""
        return [span.as_dict() for span in self.spans]

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._phase.clear()


class NullTracer(Tracer):
    """Tracer that drops everything (the default)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=0)

    def record(self, span: Span) -> Span:
        return span


#: Shared do-nothing tracer.
NULL_TRACER = NullTracer()
