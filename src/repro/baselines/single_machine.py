"""Single-machine pattern-aware GPM systems (AutomineIH, Peregrine-like).

These run the same enumeration as the Khuzdul ports but with the
execution model of a compiled single-machine system: the whole graph in
one machine's memory, no communication, no per-task engine overhead,
and coarse root-level parallelism — threads take embedding-tree roots
round-robin, so skewed graphs leave the thread holding a hub's tree as
the straggler (the effect that lets k-Automine's fine-grained tasks win
on uk/tw in Table 3).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.patterns.catalog import clique
from repro.patterns.isomorphism import are_isomorphic
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, automine_schedule, graphpi_schedule
from repro.baselines.common import (
    MATCHES, compute_seconds, fold, tree_roots, walk,
)
from repro.systems.base import GPMSystem, MniDomainCollector, merge_reports

ScheduleFn = Callable[..., Schedule]


class SingleMachine(GPMSystem):
    """AutomineIH-style single-machine GPM system.

    Parameters
    ----------
    graph:
        Input graph (must fit in ``memory_bytes``).
    cores:
        Worker threads; all cores compute (no communication threads).
    memory_bytes:
        Machine memory; exceeded capacity raises
        :class:`~repro.errors.OutOfMemoryError` (Table 3's OUTOFMEM).
    schedule_fn:
        Matching-order compiler; AutomineIH uses the Automine heuristic,
        the Peregrine-like variant the GraphPi-style search.
    per_match_cost:
        Extra seconds charged per completed embedding (Peregrine's
        match-callback overhead; zero for compiled AutomineIH loops).
    """

    name = "automine-ih"

    def __init__(
        self,
        graph: Graph,
        cores: int = 16,
        memory_bytes: int = 64 << 20,
        cost: CostModel = DEFAULT_COST_MODEL,
        schedule_fn: ScheduleFn = automine_schedule,
        per_match_cost: float = 0.0,
        graph_name: str = "graph",
    ):
        if graph.size_bytes() > memory_bytes:
            raise OutOfMemoryError(0, graph.size_bytes(), memory_bytes)
        self.graph = graph
        self.cores = cores
        self.memory_bytes = memory_bytes
        self.cost = cost
        self.schedule_fn = schedule_fn
        self.per_match_cost = per_match_cost
        self.graph_name = graph_name

    # ------------------------------------------------------------------
    def _schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        return self.schedule_fn(
            pattern, induced, use_restrictions=use_restrictions
        )

    def _run_schedule(
        self,
        graph: Graph,
        schedule: Schedule,
        udf=None,
    ) -> tuple[int, float]:
        """Explore all roots; returns (matches, runtime).

        Roots are assigned to threads round-robin (static coarse
        partitioning); the runtime is the slowest thread's bin.
        """
        roots = tree_roots(graph, schedule)
        tallies = np.zeros((4, len(roots)), dtype=np.int64)
        for level in walk(graph, schedule, roots, vcs=True,
                          udf=udf):
            fold(tallies, level, level.trees)
        seconds = compute_seconds(tallies, self.cost)
        seconds += tallies[MATCHES] * self.per_match_cost
        thread_bins = np.zeros(max(1, self.cores), dtype=np.float64)
        np.add.at(thread_bins, np.arange(len(roots)) % len(thread_bins),
                  seconds)
        runtime = float(thread_bins.max())
        return int(tallies[MATCHES].sum()), runtime

    def _report(
        self, app: str, counts, runtime: float
    ) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=runtime,
            breakdown={"compute": runtime},
            machine_seconds=[runtime],
            peak_memory_bytes=self.graph.size_bytes(),
            num_machines=1,
        )

    # ------------------------------------------------------------------
    def count_pattern(
        self,
        pattern: Pattern,
        induced: bool = False,
        oriented: bool = False,
        app: str = "pattern",
    ) -> RunReport:
        if oriented:
            if induced or not are_isomorphic(pattern, clique(pattern.num_vertices)):
                raise ConfigurationError("orientation is for non-induced cliques")
            schedule = self._schedule(pattern, False, use_restrictions=False)
            matches, runtime = self._run_schedule(
                self.graph.oriented(), schedule
            )
        else:
            schedule = self._schedule(pattern, induced)
            matches, runtime = self._run_schedule(self.graph, schedule)
        return self._report(app, matches, runtime)

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        counts, runtime = [], 0.0
        for pattern in patterns:
            schedule = self._schedule(pattern, induced)
            matches, seconds = self._run_schedule(self.graph, schedule)
            counts.append(matches)
            runtime += seconds
        return self._report(app, counts, runtime)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        schedules = [self._schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            self.graph.num_vertices, patterns, schedules)
        runtime = 0.0
        for index, schedule in enumerate(schedules):
            _, seconds = self._run_schedule(
                self.graph, schedule, partial(collector.chunk, index))
            runtime += seconds
        report = self._report("fsm-round", None, runtime)
        return collector.supports(), report


def peregrine_like(
    graph: Graph,
    cores: int = 16,
    memory_bytes: int = 64 << 20,
    cost: CostModel = DEFAULT_COST_MODEL,
    graph_name: str = "graph",
) -> SingleMachine:
    """Peregrine-style system: pattern-aware with cost-model orders.

    Peregrine explores with good (GraphPi-like) matching orders but
    dispatches every completed embedding through a match callback, which
    its paper and Table 3 show as overhead on clique-heavy workloads.
    """
    system = SingleMachine(
        graph,
        cores=cores,
        memory_bytes=memory_bytes,
        cost=cost,
        schedule_fn=graphpi_schedule,
        per_match_cost=6.0e-9,
        graph_name=graph_name,
    )
    system.name = "peregrine"
    return system
