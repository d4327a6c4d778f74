"""Common interface of every GPM system in this repository.

All systems — the two Khuzdul-based ones and every baseline — implement
this small surface, so the applications in :mod:`repro.systems.apps`
and the benchmark harness treat them interchangeably.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.core.runtime import RunReport
from repro.patterns.pattern import Pattern


class GPMSystem(abc.ABC):
    """A system that can count patterns and compute MNI supports."""

    #: human-readable system name used in reports
    name: str = "gpm-system"
    #: name of the input graph used in reports
    graph_name: str = "graph"

    @abc.abstractmethod
    def count_pattern(
        self,
        pattern: Pattern,
        induced: bool = False,
        oriented: bool = False,
        app: str = "pattern",
    ) -> RunReport:
        """Count embeddings of one pattern.

        ``oriented=True`` applies the degree-orientation preprocessing
        (valid for cliques only — each clique then appears exactly once
        on the DAG without symmetry restrictions).
        """

    @abc.abstractmethod
    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        """Count several patterns in one job; ``counts`` is a list."""

    @abc.abstractmethod
    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        """MNI supports of labeled patterns (for FSM)."""


class MniDomainCollector:
    """Accumulates MNI domains from engine match callbacks.

    The engine reports matches in matching-order positions under
    symmetry restrictions, so the raw per-position domains must be
    closed under the pattern's automorphism group before taking the
    minimum (see DESIGN.md, Semantics decisions).
    """

    def __init__(self, patterns: Sequence[Pattern], orders, automorphism_sets):
        self.patterns = list(patterns)
        self.orders = list(orders)
        self.automorphisms = list(automorphism_sets)
        self.domains: list[list[set[int]]] = [
            [set() for _ in range(p.num_vertices)] for p in self.patterns
        ]

    def __call__(
        self, index: int, prefix: tuple[int, ...], candidates: np.ndarray
    ) -> None:
        order = self.orders[index]
        domains = self.domains[index]
        for pos, data_vertex in enumerate(prefix):
            domains[order[pos]].add(int(data_vertex))
        domains[order[len(prefix)]].update(int(c) for c in candidates)

    def merge(self, other: "MniDomainCollector") -> "MniDomainCollector":
        """Union another collector's domains into this one.

        Domains are per-position vertex sets, so merging worker-process
        copies (``repro.exec``) is a plain set union — supports computed
        from the merged collector equal the single-process result.
        """
        for mine, theirs in zip(self.domains, other.domains):
            for position, domain in enumerate(theirs):
                mine[position] |= domain
        return self

    def supports(self) -> list[int]:
        """Automorphism-closed minimum-image supports per pattern."""
        result = []
        for pattern, domains, autos in zip(
            self.patterns, self.domains, self.automorphisms
        ):
            closed: list[set[int]] = [set() for _ in range(pattern.num_vertices)]
            for sigma in autos:
                for v in range(pattern.num_vertices):
                    closed[sigma[v]].update(domains[v])
            result.append(min(len(s) for s in closed) if closed else 0)
        return result


def merge_reports(
    reports: Sequence[RunReport],
    system: str,
    app: str,
    graph_name: str,
    counts=None,
) -> RunReport:
    """Aggregate the reports of *sequential* phases (e.g. FSM rounds)
    into one: simulated times, traffic and per-machine clocks add up.
    (Concurrent shards of one job never reach this function — they are
    partials folded by :func:`repro.core.plan.finalize`.)
    """
    if not reports:
        return RunReport(system, app, graph_name, counts, 0.0)
    failures = [r.failure for r in reports if r.failure is not None]
    total_breakdown: dict[str, float] = {}
    for report in reports:
        for key, value in report.breakdown.items():
            total_breakdown[key] = total_breakdown.get(key, 0.0) + value
    machine_breakdowns: list[dict[str, float]] = []
    if all(r.machine_breakdowns for r in reports):
        for buckets in zip(*(r.machine_breakdowns for r in reports)):
            merged: dict[str, float] = {}
            for bucket in buckets:
                for key, value in bucket.items():
                    merged[key] = merged.get(key, 0.0) + value
            machine_breakdowns.append(merged)
    return RunReport(
        system=system,
        app=app,
        graph_name=graph_name,
        counts=counts,
        simulated_seconds=sum(r.simulated_seconds for r in reports),
        network_bytes=sum(r.network_bytes for r in reports),
        breakdown=total_breakdown,
        machine_breakdowns=machine_breakdowns,
        machine_seconds=[
            sum(values)
            for values in zip(*(r.machine_seconds for r in reports))
        ]
        if all(r.machine_seconds for r in reports)
        else [],
        cache_hit_rate=reports[-1].cache_hit_rate,
        peak_memory_bytes=max(r.peak_memory_bytes for r in reports),
        num_machines=reports[0].num_machines,
        extra={"phases": len(reports)},
        # fatal phases abort the job, so the last failure dominates;
        # all-RECOVERED phases merge into one RECOVERED summary
        failure=failures[-1] if failures else None,
    )
