"""aDFS-like baseline: "moving computation to data" (paper Section 2.3).

Instead of fetching remote edge lists, this execution model ships the
partially-constructed embedding to the machine owning the data needed
for its next extension — together with the active edge lists the
destination does not hold (the paper's example ships N(v0) alongside
(v0, v2)). That forecloses every data-reuse optimization: each tree
edge whose next extension is remote costs a shipment, so communication
volume scales with the number of partial embeddings rather than with
the number of distinct edge lists. Figure 10's order-of-magnitude gap
on triangle counting follows directly.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    MATCHES, Level, compute_seconds, fold, tree_roots, walk,
)
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import Schedule, graphpi_schedule
from repro.systems.base import GPMSystem

#: fraction of shipping time hidden behind computation (aDFS pipelines
#: its sends, but cannot batch per-destination like circulant chunks)
_OVERLAP = 0.5


def _shipments(
    schedule: Schedule,
    level: Level,
    owners: np.ndarray,
    edge_list_bytes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The shipments a walk call's children cause: the sending machine
    and the payload bytes of each child that moves.

    A partial embedding sits on the owner of its last vertex whose edge
    list a step reads (the root's to begin with). A child placed at
    such a position moves to its new vertex's owner, shipping the
    partial embedding plus the active edge lists the destination does
    not hold.
    """
    placed = level.level
    if level.final or not schedule.needs_edge_list(placed):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    located = max(
        position for position in range(placed)
        if position == 0 or schedule.needs_edge_list(position)
    )
    children = level.children
    source = owners[children[:, located]]
    destination = owners[children[:, placed]]
    moved = source != destination
    children, destination = children[moved], destination[moved]
    payloads = np.full(len(children), 4 * (placed + 1), dtype=np.int64)
    for position in schedule.steps[placed - 1].active_after:
        carried = children[:, min(position, placed)]
        payloads += np.where(owners[carried] != destination,
                             edge_list_bytes[carried], 0)
    return source[moved], payloads


class MovingComputation(GPMSystem):
    """Distributed GPM that migrates tasks to where the data lives."""

    name = "adfs"
    #: aDFS has no orientation preprocessing
    orients = False

    def __init__(
        self,
        graph: Graph,
        num_machines: int = 8,
        cores: int = 16,
        cost: CostModel = DEFAULT_COST_MODEL,
        graph_name: str = "graph",
    ):
        self.graph = graph
        self.num_machines = num_machines
        self.cores = cores
        self.cost = cost
        self.graph_name = graph_name
        self.partitioner = HashPartitioner(num_machines)
        self.partitioned = PartitionedGraph(graph, self.partitioner)

    # ------------------------------------------------------------------
    def build_schedule(
        self, pattern: Pattern, induced: bool, use_restrictions: bool = True
    ) -> Schedule:
        return graphpi_schedule(pattern, induced,
                                use_restrictions=use_restrictions)

    def _run_schedule(self, schedule: Schedule, oriented: bool, udf):
        graph = self.graph
        cost = self.cost
        ship_bytes_by_machine = np.zeros(self.num_machines, dtype=np.int64)
        shipments = 0
        owners = self.partitioned.owners_all()
        edge_list_bytes = graph.edge_list_bytes_all()
        tallies = np.zeros(4, dtype=np.int64)
        for level in walk(graph, schedule, tree_roots(graph, schedule),
                          vcs=False, udf=udf):  # no reuse
            fold(tallies, level)
            sources, payloads = _shipments(
                schedule, level, owners, edge_list_bytes)
            np.add.at(ship_bytes_by_machine, sources, payloads)
            shipments += len(payloads)

        total_ship = int(ship_bytes_by_machine.sum())
        compute_threads = max(1, int(self.cores * 0.75))
        compute = float(compute_seconds(tallies, cost)) / (
            self.num_machines * compute_threads * cost.thread_efficiency
        )
        serialization = total_ship * cost.ship_per_byte / self.num_machines
        busiest = float(ship_bytes_by_machine.max())
        network = busiest / cost.network_bandwidth + shipments / max(
            1, self.num_machines
        ) * cost.batch_latency / 64.0  # sends are batched 64 at a time
        hidden = min(network, compute) * _OVERLAP
        runtime = compute + serialization + network - hidden
        return int(tallies[MATCHES]), runtime, total_ship, {}

    def _report(self, app, counts, seconds, traffic, breakdown) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=seconds,
            network_bytes=traffic,
            breakdown=breakdown,
            num_machines=self.num_machines,
        )
