"""Cluster assembly: machines + partitioned graph + network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineState
from repro.cluster.network import NetworkModel
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner, PartitionedGraph


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    Defaults model the paper's main testbed (8 nodes, two 8-core sockets
    per node) with memory scaled to the synthetic-analogue world: the
    default 64 MiB per node plays the role of the paper's 64 GB against
    graphs that are ~1000x smaller.
    """

    num_machines: int = 8
    cores_per_machine: int = 16
    sockets_per_machine: int = 2
    memory_bytes: int = 64 << 20
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        if self.num_machines < 1:
            raise ConfigurationError("need at least one machine")
        if self.cores_per_machine < 2:
            raise ConfigurationError("need at least two cores per machine")
        if self.sockets_per_machine < 1:
            raise ConfigurationError("need at least one socket")


class Cluster:
    """A partitioned graph living on a set of simulated machines.

    Creating the cluster charges each machine's memory with its graph
    partition, so configurations that cannot hold the graph fail the
    same way the paper's do (e.g. replicating a >memory graph).
    """

    def __init__(self, graph: Graph, config: ClusterConfig):
        self.graph = graph
        self.config = config
        self.cost = config.cost
        self.partitioner = HashPartitioner(
            config.num_machines, config.sockets_per_machine
        )
        self.partitioned = PartitionedGraph(graph, self.partitioner)
        self.machines = [
            MachineState(
                machine_id=m,
                cores=config.cores_per_machine,
                memory_bytes=config.memory_bytes,
                sockets=config.sockets_per_machine,
                cost=config.cost,
            )
            for m in range(config.num_machines)
        ]
        self.network = NetworkModel(config.num_machines, config.cost)
        #: machines lost to injected crashes during the current run;
        #: written only by :meth:`mark_dead` and :meth:`reset_clocks`
        self.dead: set[int] = set()
        #: :meth:`vertex_hops` per machine, under the current ``dead``
        self._vertex_hops: dict[int, np.ndarray] = {}
        for machine in self.machines:
            machine.allocate(self.partitioned.partition_bytes(machine.machine_id))
            machine.baseline_bytes = machine.resident_bytes

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.config.num_machines

    def machine(self, m: int) -> MachineState:
        return self.machines[m]

    def owner(self, v: int) -> int:
        """Machine owning vertex ``v``."""
        return self.partitioned.owner(v)

    # -- failure state --------------------------------------------------
    def mark_dead(self, machine_id: int) -> None:
        """Record a machine loss; its partition fails over (replicated
        storage assumption) to the next live machine in id order."""
        self.dead.add(machine_id)
        self._vertex_hops.clear()

    def live_ids(self) -> list[int]:
        return [m.machine_id for m in self.machines if m.machine_id not in self.dead]

    def failover_owner(self, machine_id: int) -> int:
        """The live machine serving a dead machine's partition: the next
        live id cyclically after it (deterministic replica placement)."""
        for step in range(1, self.num_machines):
            candidate = (machine_id + step) % self.num_machines
            if candidate not in self.dead:
                return candidate
        raise ConfigurationError("no live machine left to serve partition")

    def vertex_hops(self, machine_id: int) -> np.ndarray:
        """Read-only circulant hop from ``machine_id`` to each vertex's
        serving owner (0: local; a dead owner's replica holder), in the
        narrowest unsigned type; built once per machine and dead set."""
        hops = self._vertex_hops.get(machine_id)
        if hops is None:
            serving = np.arange(self.num_machines)
            for dead in self.dead:
                serving[dead] = self.failover_owner(dead)
            hop = (serving - machine_id) % self.num_machines
            hops = hop.astype(np.min_scalar_type(self.num_machines)).take(
                self.partitioned.owners_all())
            hops.flags.writeable = False
            self._vertex_hops[machine_id] = hops
        return hops

    def runtime(self) -> float:
        """Simulated job runtime: the slowest machine's finish time."""
        return max(m.busy_seconds() for m in self.machines)

    def reset_clocks(self) -> None:
        for machine in self.machines:
            machine.reset_clock()
        if self.dead:
            self.dead.clear()
            self._vertex_hops.clear()
        self.network = NetworkModel(self.num_machines, self.cost)
