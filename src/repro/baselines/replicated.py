"""GraphPi's distributed mode: replicated graph, coarse parallelism.

GraphPi distributes work by replicating the input graph on every node
and splitting the outermost enumeration loop across nodes and threads.
That avoids all communication but (paper Section 7.2) pays a
task-partitioning start-up cost and parallelizes only coarsely, so one
hub's embedding tree leaves its thread the straggler — both effects are
modelled here and produce Table 2's small-workload losses and Figure
13's sub-linear scaling. Replication also caps the graph size at one
machine's memory (Table 5: massive graphs "cannot be processed by graph
replication based systems").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.common import (
    CREATED, MERGE, ROWS, SCANNED, compute_seconds, fold, tree_roots,
    walk,
)
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.patterns.catalog import clique
from repro.patterns.isomorphism import are_isomorphic, automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, graphpi_schedule
from repro.systems.base import GPMSystem, MniDomainCollector


class GraphPiReplicated(GPMSystem):
    """GraphPi running distributed with a replicated graph."""

    name = "graphpi"

    def __init__(
        self,
        graph: Graph,
        num_machines: int = 8,
        cores: int = 16,
        memory_bytes: int = 64 << 20,
        cost: CostModel = DEFAULT_COST_MODEL,
        graph_name: str = "graph",
    ):
        # every machine must hold the whole graph
        if graph.size_bytes() > memory_bytes:
            raise OutOfMemoryError(0, graph.size_bytes(), memory_bytes)
        self.graph = graph
        self.num_machines = num_machines
        self.cores = cores
        self.memory_bytes = memory_bytes
        self.cost = cost
        self.graph_name = graph_name
        self.partitioner = HashPartitioner(num_machines)

    # ------------------------------------------------------------------
    def _schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        avg_degree = max(
            1.0, self.graph.num_directed_edges / max(1, self.graph.num_vertices)
        )
        return graphpi_schedule(
            pattern,
            induced,
            avg_degree=avg_degree,
            num_vertices=max(2.0, float(self.graph.num_vertices)),
            use_restrictions=use_restrictions,
        )

    def _startup(self) -> float:
        return (
            self.cost.graphpi_startup
            + self.cost.graphpi_startup_per_node * self.num_machines
        )

    def _run_schedule(
        self, graph: Graph, schedule: Schedule, on_match=None
    ) -> tuple[int, float]:
        """Roots hashed to machines; level-1 subtrees binned to threads.

        GraphPi "parallelizes the first or first few loops ... in a
        coarse-grained fashion" (paper Section 7.2): the outermost loop
        is split across machines and the first two loop levels across a
        machine's threads, so whole level-1 subtrees are the indivisible
        work units — finer than one-tree-per-thread, still far coarser
        than Khuzdul's per-extension tasks.
        """
        roots = tree_roots(graph, schedule)
        bins = np.zeros((self.num_machines, max(1, self.cores)))
        thread_cursor = np.zeros(self.num_machines, dtype=np.int64)
        matches = 0
        for start in range(0, len(roots), ROWS):
            batch = roots[start:start + ROWS]
            units = None
            for level in walk(graph, schedule, batch, vcs=True,
                              on_match=on_match):
                if level.final:
                    matches += int(level.counts.sum())
                if level.level == 1:
                    # a batch's roots are one level-1 call. A unit of
                    # work is a root's first level or one of its level-1
                    # subtrees, numbered in call order
                    branch_roots = (level.parents if not level.final
                                    else np.zeros(0, dtype=np.int64))
                    n, m = len(batch), len(branch_roots)
                    firsts = np.arange(n) + np.searchsorted(
                        branch_roots, np.arange(n))
                    branch_at = np.arange(m) + branch_roots + 1
                    units = np.zeros((4, n + m), dtype=np.int64)
                    units[MERGE, firsts] = level.merge
                    units[SCANNED, firsts] = level.scanned
                    units[CREATED, branch_at] = 1
                    unit_roots = np.empty(n + m, dtype=np.int64)
                    unit_roots[firsts] = np.arange(n)
                    unit_roots[branch_at] = branch_roots
                elif level.level > 1:
                    fold(units, level, branch_at[level.branches])
            if units is None:  # single-vertex pattern: nothing binned
                continue
            # threads take a machine's units round-robin, in call order
            owner = self.partitioner.owners(batch)[unit_roots]
            threads = np.empty(n + m, dtype=np.int64)
            for machine in range(self.num_machines):
                calls = np.flatnonzero(owner == machine)
                threads[calls] = (
                    thread_cursor[machine] + np.arange(len(calls))
                ) % self.cores
                thread_cursor[machine] += len(calls)
            np.add.at(bins, (owner, threads),
                      compute_seconds(units, self.cost))
        # static binning has no work stealing; threads also pay the same
        # parallel-efficiency loss the Khuzdul engine's workers do
        runtime = float(bins.max(axis=1).max()) / self.cost.thread_efficiency
        return matches, runtime

    def _report(self, app: str, counts, runtime: float) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=runtime,
            network_bytes=0,  # replication: no enumeration-time traffic
            breakdown={"compute": runtime - self._startup(),
                       "scheduler": self._startup()},
            machine_seconds=[runtime] * self.num_machines,
            peak_memory_bytes=self.graph.size_bytes(),
            num_machines=self.num_machines,
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
            matches, runtime = self._run_schedule(self.graph.oriented(),
                                                  schedule)
        else:
            schedule = self._schedule(pattern, induced)
            matches, runtime = self._run_schedule(self.graph, schedule)
        return self._report(app, matches, runtime + self._startup())

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
            runtime += seconds + self._startup()
        return self._report(app, counts, runtime)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        schedules = [self._schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            patterns,
            [s.order for s in schedules],
            [automorphisms(p) for p in patterns],
        )
        runtime = 0.0
        for index, schedule in enumerate(schedules):
            def on_match(prefix, candidates, _index=index):
                collector(_index, prefix, candidates)

            _, seconds = self._run_schedule(self.graph, schedule, on_match)
            runtime += seconds + self._startup()
        return collector.supports(), self._report("fsm-round", None, runtime)
