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

from typing import Callable

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.errors import OutOfMemoryError
from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, automine_schedule, graphpi_schedule
from repro.baselines.common import (
    MATCHES, compute_seconds, fold, tree_roots, walk,
)
from repro.systems.base import GPMSystem

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
    def build_schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        return self.schedule_fn(
            pattern, induced, use_restrictions=use_restrictions
        )

    def _run_schedule(self, schedule: Schedule, oriented: bool, udf):
        """Explore all roots; the runtime is the slowest thread's bin.

        Roots are assigned to threads round-robin (static coarse
        partitioning).
        """
        graph = self.graph.oriented() if oriented else self.graph
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
        return int(tallies[MATCHES].sum()), runtime, 0, {"compute": runtime}

    def _report(self, app, counts, seconds, traffic, breakdown) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=seconds,
            breakdown=breakdown,
            machine_seconds=[seconds],
            peak_memory_bytes=self.graph.size_bytes(),
            num_machines=1,
        )


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
