"""Pangolin-like single-machine system.

Pangolin's signature strengths and weaknesses (paper Table 3):

- For triangle/clique counting it applies *orientation* — the input
  graph is converted to a degree-ordered DAG so each clique is found
  once — which makes TC on skewed graphs extremely fast.
- It materializes embeddings level by level (BFS expansion), so wide
  intermediate levels exhaust memory (the OUTOFMEM cells for 4-CC/5-CC
  on Friendster).
- For general patterns (motif counting) its extension+filter model pays
  an isomorphism-classification cost per enumerated embedding, which is
  why 3-MC on large graphs times out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.common import ExploreStats, RecursiveExplorer
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.extend import ScheduleExtender
from repro.core.runtime import RunReport
from repro.errors import OutOfMemoryError
from repro.graph.graph import Graph
from repro.patterns.catalog import clique
from repro.patterns.isomorphism import are_isomorphic, automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, automine_schedule
from repro.systems.base import GPMSystem, MniDomainCollector

#: Pangolin's per-embedding isomorphism-classification cost for general
#: (non-clique) patterns.
_ISO_CLASSIFY_COST = 6.0e-8
#: Bytes per materialized embedding in the BFS level storage.
_EMBEDDING_BYTES = 16


class PangolinLike(GPMSystem):
    """Single-machine BFS-expansion system with orientation."""

    name = "pangolin"

    def __init__(
        self,
        graph: Graph,
        cores: int = 16,
        memory_bytes: int = 64 << 20,
        cost: CostModel = DEFAULT_COST_MODEL,
        graph_name: str = "graph",
    ):
        if graph.size_bytes() > memory_bytes:
            raise OutOfMemoryError(0, graph.size_bytes(), memory_bytes)
        self.graph = graph
        self.cores = cores
        self.memory_bytes = memory_bytes
        self.cost = cost
        self.graph_name = graph_name

    # ------------------------------------------------------------------
    def _run(
        self, graph: Graph, schedule: Schedule, iso_cost: float, on_match=None
    ) -> tuple[int, float]:
        extender = ScheduleExtender(schedule, vcs=True)
        explorer = RecursiveExplorer(graph, extender, on_match=on_match)
        stats = ExploreStats()
        for root in range(graph.num_vertices):
            if (
                schedule.root_label() is not None
                and graph.labels is not None
                and graph.label(root) != schedule.root_label()
            ):
                continue
            explorer.explore_root(root, stats)
        # BFS materialization: two consecutive embedding levels are live
        # at once (parents + children). The final level is not stored for
        # counting apps — matches go straight to the reducer.
        final = extender.final_level
        live_widths = [
            width for level, width in stats.level_widths.items()
            if level < final
        ]
        widest_pair = 0
        for level in range(1, final):
            pair = stats.level_widths.get(level, 0)
            if level + 1 < final:
                pair += stats.level_widths.get(level + 1, 0)
            widest_pair = max(widest_pair, pair)
        if not live_widths:
            widest_pair = 0
        level_bytes = widest_pair * _EMBEDDING_BYTES
        if graph.size_bytes() + level_bytes > self.memory_bytes:
            raise OutOfMemoryError(
                0, graph.size_bytes() + level_bytes, self.memory_bytes
            )
        serial = stats.compute_seconds(self.cost)
        serial += (stats.created + stats.matches) * iso_cost
        runtime = serial / (self.cores * self.cost.thread_efficiency)
        return stats.matches, runtime

    def _report(self, app: str, counts, runtime: float) -> RunReport:
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
        oriented: bool = True,
        app: str = "pattern",
    ) -> RunReport:
        is_clique = not induced and are_isomorphic(
            pattern, clique(pattern.num_vertices)
        )
        if oriented and is_clique:
            schedule = automine_schedule(pattern, False, use_restrictions=False)
            matches, runtime = self._run(self.graph.oriented(), schedule, 0.0)
        else:
            schedule = automine_schedule(pattern, induced)
            matches, runtime = self._run(
                self.graph, schedule, _ISO_CLASSIFY_COST
            )
        return self._report(app, matches, runtime)

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        counts, runtime = [], 0.0
        for pattern in patterns:
            schedule = automine_schedule(pattern, induced)
            matches, seconds = self._run(
                self.graph, schedule, _ISO_CLASSIFY_COST
            )
            counts.append(matches)
            runtime += seconds
        return self._report(app, counts, runtime)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        schedules = [automine_schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            patterns,
            [s.order for s in schedules],
            [automorphisms(p) for p in patterns],
        )
        runtime = 0.0
        for index, schedule in enumerate(schedules):
            def on_match(prefix, candidates, _index=index):
                collector(_index, prefix, candidates)

            _, seconds = self._run(
                self.graph, schedule, _ISO_CLASSIFY_COST, on_match
            )
            runtime += seconds
        return collector.supports(), self._report("fsm-round", None, runtime)
