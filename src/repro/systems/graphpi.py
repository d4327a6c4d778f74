"""k-GraphPi: GraphPi (single-node mode) ported onto the Khuzdul engine.

GraphPi's contribution is its cost-model-driven search over matching
orders and restriction sets; the port feeds that search with the input
graph's degree statistics and hands the winning order to Khuzdul as an
EXTEND schedule. Its better orders are why k-GraphPi beats k-Automine
on 3-motif counting in Table 2.
"""

from __future__ import annotations

from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, graphpi_schedule
from repro.systems.ported import PortedSystem


class KGraphPi(PortedSystem):
    """Distributed GraphPi on Khuzdul."""

    name = "k-graphpi"

    def build_schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        graph = self.graph
        avg_degree = (
            graph.num_directed_edges / graph.num_vertices
            if graph.num_vertices
            else 1.0
        )
        return graphpi_schedule(
            pattern,
            induced,
            avg_degree=max(avg_degree, 1.0),
            num_vertices=max(float(graph.num_vertices), 2.0),
            use_restrictions=use_restrictions,
            counting=self.engine_config.counting,
        )
