"""G-thinker: distributed GPM with partitioned graph and coarse tasks.

Reimplements G-thinker's execution model (paper Sections 1-2.3): one
task per embedding-tree root; before computing, the task prefetches the
k-hop subgraph containing every edge list the tree may touch; a general
software cache shared by all tasks dedups those fetches, maintaining a
task<->data map updated on *every* request; a scheduler periodically
polls each task for data readiness; the cache is periodically scanned
for garbage-collectable entries. The map updates and polls are the
overhead the paper's Figure 15 shows devouring ~86% of G-thinker's
runtime, and the per-task k-hop memory footprint is what limits its
concurrency and crashes it on skewed graphs (Table 2's CRASHED cells).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.baselines.common import (
    MATCHES, ROWS, compute_seconds, fold, tree_roots, walk,
)
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, automine_schedule
from repro.systems.base import GPMSystem, MniDomainCollector


class _GeneralCache:
    """G-thinker's general software cache: LRU with task<->data map.

    Every request — hit or miss — updates the map between tasks and the
    edge lists they depend on; that bookkeeping cost is the point.
    """

    def __init__(self, capacity_bytes: int, cost: CostModel):
        self.capacity_bytes = capacity_bytes
        self.cost = cost
        self._entries: OrderedDict[int, int] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.map_cost = 0.0

    def request(self, vertex: int, num_bytes: int) -> bool:
        """Request one edge list for a task; returns cache hit."""
        self.map_cost += self.cost.gthinker_map_update
        if vertex in self._entries:
            self._entries.move_to_end(vertex)
            self.hits += 1
            return True
        self.misses += 1
        if num_bytes <= self.capacity_bytes:
            while self.used_bytes + num_bytes > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.used_bytes -= evicted
            self._entries[vertex] = num_bytes
            self.used_bytes += num_bytes
        return False

    def __len__(self) -> int:
        return len(self._entries)


def _tasks(graph: Graph, schedule: Schedule, roots: np.ndarray, on_match):
    """Each task's tally column and prefetch set, in root order.

    The prefetch set holds every vertex whose edge list the tree
    exploration reads ("a k-hop subgraph containing all necessary data
    for the tree exploration"): the root if a step reads its list, then
    the fetch-level children as the exploration creates them — the
    set's iteration order is the task's request order. Roots are
    explored in batches, so a task that does not fit stops the walk
    near its root. G-thinker has no intermediate-result reuse across
    levels.
    """
    root_active = schedule.root_active()
    for start in range(0, len(roots), ROWS):
        batch = roots[start:start + ROWS]
        tallies = np.zeros((4, len(batch)), dtype=np.int64)
        fetched = []
        for level in walk(graph, schedule, batch, vcs=False,
                          on_match=on_match):
            fold(tallies, level, level.trees)
            if not level.final and schedule.needs_edge_list(level.level):
                fetched.append((level.trees[level.parents], level.children))
        for root, tally, fetches in zip(batch.tolist(), tallies.T,
                                        _preorder(fetched, len(batch))):
            accessed = {root} if root_active else set()
            accessed.update(fetches)
            yield tally, accessed


def _preorder(fetched, trees: int) -> list[list[int]]:
    """Each tree's fetch-level vertices in the depth-first preorder of
    its exploration, from ``(tree, child prefix rows)`` pairs.

    Candidates come out sorted, so preorder is the lexicographic order
    of the vertex paths, a path before its extensions (padding -1).
    """
    if not fetched:
        return [[] for _ in range(trees)]
    width = max(paths.shape[1] for _, paths in fetched)
    padded = np.full((sum(len(paths) for _, paths in fetched), width), -1,
                     dtype=np.int64)
    vertices = np.empty(len(padded), dtype=np.int64)
    at = 0
    for _, paths in fetched:
        padded[at:at + len(paths), :paths.shape[1]] = paths
        vertices[at:at + len(paths)] = paths[:, -1]
        at += len(paths)
    tree = np.concatenate([tree for tree, _ in fetched])
    order = np.lexsort(np.vstack([padded.T[::-1], tree]))
    bounds = np.concatenate(([0], np.bincount(tree, minlength=trees)))
    bounds = np.cumsum(bounds).tolist()
    ordered = vertices[order].tolist()
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class GThinker(GPMSystem):
    """G-thinker execution model over the simulated cluster."""

    name = "g-thinker"

    def __init__(
        self,
        graph: Graph,
        num_machines: int = 8,
        cores: int = 8,
        memory_bytes: int = 64 << 20,
        cache_fraction: float = 0.35,
        cost: CostModel = DEFAULT_COST_MODEL,
        graph_name: str = "graph",
    ):
        self.graph = graph
        self.num_machines = num_machines
        self.cores = cores
        self.memory_bytes = memory_bytes
        self.cache_fraction = cache_fraction
        self.cost = cost
        self.graph_name = graph_name
        self.partitioner = HashPartitioner(num_machines)
        self.partitioned = PartitionedGraph(graph, self.partitioner)

    # ------------------------------------------------------------------
    def _run_schedule(
        self, schedule: Schedule, on_match=None
    ) -> tuple[int, float, dict[str, float], int]:
        """Run all machines; returns (matches, runtime, breakdown, bytes)."""
        graph = self.graph
        cost = self.cost
        cache_capacity = int(self.cache_fraction * graph.size_bytes())

        matches = 0
        traffic_bytes = 0
        worst_runtime = 0.0
        worst_breakdown: dict[str, float] = {}
        for machine in range(self.num_machines):
            roots = tree_roots(
                graph, schedule, self.partitioned.local_vertices(machine))
            cache = _GeneralCache(cache_capacity, cost)
            partition_bytes = self.partitioned.partition_bytes(machine)
            task_budget = self.memory_bytes - partition_bytes - cache_capacity
            if task_budget <= 0:
                raise OutOfMemoryError(machine, partition_bytes + cache_capacity,
                                       self.memory_bytes)

            compute_serial = 0.0
            scheduler_serial = 0.0
            fetch_bytes = 0
            fetch_requests = 0
            ball_bytes_max = 0
            for tally, accessed in _tasks(graph, schedule, roots, on_match):
                matches += int(tally[MATCHES])
                ball_bytes = 0
                for v in accessed:
                    num_bytes = graph.edge_list_bytes(v)
                    ball_bytes += num_bytes
                    hit = cache.request(v, num_bytes)
                    if not hit and self.partitioned.owner(v) != machine:
                        fetch_bytes += num_bytes
                        fetch_requests += 1
                ball_bytes_max = max(ball_bytes_max, ball_bytes)
                # the per-task k-hop subgraph must fit alongside the
                # minimum task concurrency G-thinker needs to pipeline
                if ball_bytes * cost.gthinker_min_concurrency > task_budget:
                    raise OutOfMemoryError(
                        machine,
                        ball_bytes * cost.gthinker_min_concurrency,
                        task_budget,
                    )
                compute_serial += (
                    float(compute_seconds(tally, cost))
                    * cost.gthinker_compute_multiplier
                )
                scheduler_serial += (
                    cost.gthinker_poll_rounds * cost.gthinker_task_poll
                    + len(accessed) * cost.gthinker_readiness_check
                )

            concurrency = min(
                cost.gthinker_max_concurrency,
                max(1, int(task_budget / max(1, ball_bytes_max))),
            )
            # periodic cache GC: one full scan per scheduling round, with
            # rounds proportional to task waves (tasks / concurrency)
            gc_serial = (
                (len(roots) / max(1, concurrency))
                * cost.gthinker_poll_rounds
                * len(cache)
                * cost.gthinker_gc_per_entry
            )
            # communication wall time; overlap improves with concurrency
            network_time = (
                fetch_bytes / cost.network_bandwidth
                + fetch_requests * cost.batch_latency / 16  # batched requests
            )
            compute_threads = max(1, self.cores - 1)
            compute_time = compute_serial / (
                compute_threads * cost.thread_efficiency
            )
            overlap = min(1.0, concurrency / 128.0)
            hidden = min(network_time, compute_time) * overlap
            cache_time = cache.map_cost + gc_serial  # serialized on the map
            runtime = (
                compute_time + scheduler_serial + cache_time
                + network_time - hidden
            )
            traffic_bytes += fetch_bytes
            if runtime > worst_runtime:
                worst_runtime = runtime
                worst_breakdown = {
                    "compute": compute_time,
                    "scheduler": scheduler_serial,
                    "cache": cache_time,
                    "network": network_time - hidden,
                }
        return matches, worst_runtime, worst_breakdown, traffic_bytes

    def _report(
        self, app: str, counts, runtime: float, breakdown, traffic: int
    ) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=runtime,
            network_bytes=traffic,
            breakdown=breakdown,
            machine_seconds=[],
            peak_memory_bytes=self.memory_bytes,
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
            raise ConfigurationError(
                "G-thinker has no orientation preprocessing"
            )
        schedule = automine_schedule(pattern, induced)
        matches, runtime, breakdown, traffic = self._run_schedule(schedule)
        return self._report(app, matches, runtime, breakdown, traffic)

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        counts = []
        runtime, traffic = 0.0, 0
        breakdown: dict[str, float] = {}
        for pattern in patterns:
            schedule = automine_schedule(pattern, induced)
            matches, seconds, machine_breakdown, fetched = self._run_schedule(
                schedule
            )
            counts.append(matches)
            runtime += seconds
            traffic += fetched
            for key, value in machine_breakdown.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        return self._report(app, counts, runtime, breakdown, traffic)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        schedules = [automine_schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            patterns,
            [s.order for s in schedules],
            [automorphisms(p) for p in patterns],
        )
        runtime, traffic = 0.0, 0
        for index, schedule in enumerate(schedules):
            def on_match(prefix, candidates, _index=index):
                collector(_index, prefix, candidates)

            _, seconds, _, fetched = self._run_schedule(schedule, on_match)
            runtime += seconds
            traffic += fetched
        report = self._report("fsm-round", None, runtime, {}, traffic)
        return collector.supports(), report
