"""Shared machinery of systems ported onto Khuzdul.

Porting a compilation-based single-machine GPM system onto Khuzdul
(paper Section 3.2) means teaching its compiler to emit EXTEND functions
instead of nested loops. Here a port therefore only supplies
``build_schedule`` — the matching-order compiler — and inherits the
whole distributed execution from :class:`PortedSystem`, mirroring the
~500-line porting effort the paper reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.engine import EngineConfig, KhuzdulEngine
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.obs import NULL_OBS, Observability
from repro.patterns.catalog import clique
from repro.patterns.isomorphism import automorphisms, are_isomorphic
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule
from repro.systems.base import GPMSystem, MniDomainCollector


class PortedSystem(GPMSystem):
    """A single-machine GPM system running distributed via Khuzdul."""

    name = "khuzdul-port"

    def __init__(
        self,
        graph: Graph,
        cluster_config: Optional[ClusterConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        graph_name: str = "graph",
        obs: Optional[Observability] = None,
        backend=None,
    ):
        self.graph = graph
        self.graph_name = graph_name
        self.cluster_config = cluster_config or ClusterConfig()
        self.engine_config = engine_config or EngineConfig()
        #: observability bundle shared by every engine this system builds
        self.obs = obs
        #: execution backend shared by every engine this system builds
        #: (duck-typed — see repro.exec; None = the inline path)
        self.backend = backend
        self.cluster = Cluster(graph, self.cluster_config)
        self.engine = KhuzdulEngine(
            self.cluster, self.engine_config, obs=obs, backend=backend
        )
        self._oriented: Optional[tuple[Cluster, KhuzdulEngine]] = None

    def reconfigure(
        self,
        engine_config: Optional[EngineConfig] = None,
        obs: Optional[Observability] = None,
    ) -> "PortedSystem":
        """Rebind the per-run tunables of a *resident* system.

        The mining service (docs/service.md) keeps one system instance
        alive across queries so the expensive state — the partitioned
        cluster, and the lazily built oriented-DAG cluster — is paid
        once; what differs between two served queries is exactly the
        engine config (time budget, chunk size, counting strategy) and the
        observability bundle (a fresh registry per query, for tenant
        isolation). ``obs=None`` disables observability, mirroring the
        constructor.
        """
        if engine_config is not None:
            self.engine_config = engine_config
            self.engine.config = engine_config
            if self._oriented is not None:
                self._oriented[1].config = engine_config
        self.obs = obs
        bound = obs if obs is not None else NULL_OBS
        self.engine.obs = bound
        if self._oriented is not None:
            self._oriented[1].obs = bound
        return self

    # -- the port-specific part -----------------------------------------
    def build_schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        """The matching-order compiler of the ported system."""
        raise NotImplementedError

    # --------------------------------------------------------------------
    def _oriented_engine(self) -> KhuzdulEngine:
        """Engine over the degree-oriented DAG (built lazily, cached)."""
        if self._oriented is None:
            cluster = Cluster(self.graph.oriented(), self.cluster_config)
            self._oriented = (
                cluster,
                KhuzdulEngine(
                    cluster, self.engine_config,
                    obs=self.obs, backend=self.backend,
                ),
            )
        return self._oriented[1]

    def count_pattern(
        self,
        pattern: Pattern,
        induced: bool = False,
        oriented: bool = False,
        app: str = "pattern",
    ) -> RunReport:
        if oriented:
            if induced:
                raise ConfigurationError(
                    "orientation only applies to non-induced clique counting"
                )
            if not are_isomorphic(pattern, clique(pattern.num_vertices)):
                raise ConfigurationError(
                    "orientation preprocessing is only valid for cliques"
                )
            schedule = self.build_schedule(pattern, False, use_restrictions=False)
            engine = self._oriented_engine()
            return engine.run(
                schedule, system=self.name, app=app, graph_name=self.graph_name
            )
        schedule = self.build_schedule(pattern, induced)
        return self.engine.run(
            schedule, system=self.name, app=app, graph_name=self.graph_name
        )

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        schedules = [self.build_schedule(p, induced) for p in patterns]
        return self.engine.run_many(
            schedules, system=self.name, app=app, graph_name=self.graph_name
        )

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        schedules = [self.build_schedule(p, induced=False) for p in patterns]
        collector = MniDomainCollector(
            patterns,
            [s.order for s in schedules],
            [automorphisms(p) for p in patterns],
        )
        report = self.engine.run_many(
            schedules,
            udf=collector,
            system=self.name,
            app="fsm-round",
            graph_name=self.graph_name,
        )
        return collector.supports(), report
