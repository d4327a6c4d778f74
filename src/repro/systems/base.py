"""Common interface of every GPM system in this repository.

All systems — the two Khuzdul-based ones and every baseline — answer
queries through one surface, :class:`GPMSystem`'s ``count_pattern``,
``count_patterns`` and ``mni_supports``, so the applications in
:mod:`repro.systems.apps` and the benchmark harness treat them
interchangeably. A system supplies two hooks: ``build_schedule`` (its
matching-order compiler) and ``_run`` (one job over a list of
schedules); docs/architecture.md, "The query surface".
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.patterns.catalog import clique
from repro.patterns.isomorphism import are_isomorphic, automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule

#: why a system refuses ``oriented=True``
ORIENTATION_REFUSAL = ("orientation only applies to non-induced clique "
                       "counting on a system with orientation preprocessing")


class GPMSystem:
    """A system that can count patterns and compute MNI supports."""

    #: human-readable system name used in reports
    name: str = "gpm-system"
    #: name of the input graph used in reports
    graph_name: str = "graph"
    #: the input graph
    graph: Graph
    #: how counting jobs count: ``"enumerate"``, or ``"iep"`` where a
    #: port's engine applies inclusion-exclusion plans
    counting: str = "enumerate"
    #: whether the system has the degree-orientation preprocessing
    orients: bool = True

    # -- the hooks ------------------------------------------------------
    def build_schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        """The system's matching-order compiler."""
        raise NotImplementedError

    def _run(self, schedules: Sequence[Schedule], app: str, udf=None,
             oriented: bool = False) -> RunReport:
        """Run ``schedules`` as one job (on the degree-oriented graph if
        ``oriented``); the report's ``counts`` is aligned with them.

        The default runs pattern by pattern: :meth:`_run_schedule` per
        schedule, handed ``udf.chunk`` bound to the pattern's index,
        with matches, seconds, traffic and breakdown summed in pattern
        order into :meth:`_report`.
        """
        counts, seconds, traffic, breakdown = [], 0.0, 0, {}
        for index, schedule in enumerate(schedules):
            matches, spent, moved, buckets = self._run_schedule(
                schedule, oriented,
                None if udf is None else partial(udf.chunk, index))
            counts.append(matches)
            seconds += spent
            traffic += moved
            for key, value in buckets.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        return self._report(app, counts, seconds, traffic, breakdown)

    def _run_schedule(self, schedule: Schedule, oriented: bool, udf):
        """One pattern of the default :meth:`_run`: ``(matches,
        seconds, traffic bytes, breakdown)``."""
        raise NotImplementedError

    def _report(self, app: str, counts, seconds: float, traffic: int,
                breakdown: dict[str, float]) -> RunReport:
        """The default :meth:`_run`'s report of the summed job."""
        raise NotImplementedError

    # -- the query surface ------------------------------------------------
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
        if oriented:
            if not self.orients or induced or not are_isomorphic(
                    pattern, clique(pattern.num_vertices)):
                raise ConfigurationError(ORIENTATION_REFUSAL)
            schedule = self.build_schedule(pattern, False,
                                           use_restrictions=False)
        else:
            schedule = self.build_schedule(pattern, induced)
        report = self._run([schedule], app, oriented=oriented)
        report.counts = report.counts[0]
        return report

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        """Count several patterns in one job; ``counts`` is a list."""
        return self._run([self.build_schedule(p, induced) for p in patterns],
                         app)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        """MNI supports of labeled patterns (one FSM round)."""
        schedules = [self.build_schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            self.graph.num_vertices, patterns, schedules)
        report = self._run(schedules, "fsm-round", udf=collector)
        return collector.supports(), report


class MniDomainCollector:
    """Accumulates MNI domains from the engine's drains (a chunk UDF):
    per pattern, one length-``num_vertices`` boolean mask per pattern
    vertex, allocated when the pattern first drains, set by scatter.

    The engine reports matches in matching-order positions under
    symmetry restrictions, so the raw per-position domains must be
    closed under the pattern's automorphism group before taking the
    minimum (see DESIGN.md, Semantics decisions).
    """

    def __init__(self, num_vertices: int, patterns: Sequence[Pattern],
                 schedules):
        self.num_vertices = num_vertices
        self.patterns = list(patterns)
        self.orders = [schedule.order for schedule in schedules]
        self.automorphisms = [automorphisms(p) for p in self.patterns]
        self.masks: list[Optional[np.ndarray]] = [None] * len(self.patterns)

    def chunk(self, pattern: int, prefixes: np.ndarray, offsets: np.ndarray,
              values: np.ndarray) -> None:
        masks = self.masks[pattern]
        if masks is None:
            masks = self.masks[pattern] = np.zeros(
                (self.patterns[pattern].num_vertices, self.num_vertices),
                dtype=bool)
        order = self.orders[pattern]
        emitting = prefixes[offsets[1:] != offsets[:-1]]
        for position in range(prefixes.shape[1]):
            masks[order[position], emitting[:, position]] = True
        masks[order[prefixes.shape[1]], values] = True

    def merge(self, other: "MniDomainCollector") -> "MniDomainCollector":
        """OR another collector's masks into this one: worker-process
        (``repro.exec``) and checkpointed copies merge to the
        single-process domains."""
        for index, theirs in enumerate(other.masks):
            if theirs is not None:
                mine = self.masks[index]
                self.masks[index] = theirs.copy() if mine is None else (
                    mine | theirs)
        return self

    def supports(self) -> list[int]:
        """Per pattern, the smallest popcount of its masks ORed over a
        vertex's automorphism orbit (0 if it never drained)."""
        return [
            0 if masks is None else min(
                int(np.count_nonzero(
                    masks[sorted({sigma[v] for sigma in autos})].any(0)))
                for v in range(len(masks)))
            for masks, autos in zip(self.masks, self.automorphisms)
        ]


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
