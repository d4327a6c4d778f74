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

from repro.baselines.common import (
    CREATED, MATCHES, compute_seconds, fold, tree_roots, walk,
)
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
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
        final = schedule.pattern.num_vertices - 1
        tallies = np.zeros(4, dtype=np.int64)
        level_widths = np.zeros(final + 1, dtype=np.int64)
        for level in walk(graph, schedule, tree_roots(graph, schedule),
                          vcs=True, on_match=on_match):
            fold(tallies, level)
            level_widths[level.level] += level.counts.sum()
        # BFS materialization: two consecutive embedding levels are live
        # at once (parents + children). The final level is not stored for
        # counting apps — matches go straight to the reducer.
        live = np.append(level_widths[:final], 0)
        widest_pair = int((live[1:-1] + live[2:]).max(initial=0))
        level_bytes = widest_pair * _EMBEDDING_BYTES
        if graph.size_bytes() + level_bytes > self.memory_bytes:
            raise OutOfMemoryError(
                0, graph.size_bytes() + level_bytes, self.memory_bytes
            )
        serial = float(compute_seconds(tallies, self.cost))
        serial += int(tallies[CREATED] + tallies[MATCHES]) * iso_cost
        runtime = serial / (self.cores * self.cost.thread_efficiency)
        return int(tallies[MATCHES]), runtime

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
