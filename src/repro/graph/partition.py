"""1-D hash graph partitioning (Section 2.2) with NUMA sub-partitions.

Vertices are assigned to machines by a multiplicative hash; machine ``i``
keeps the adjacency of every vertex it owns (all edges with at least one
endpoint in its vertex set, stored from the owned endpoint's side). With
NUMA support enabled (Section 5.4), each machine's partition is further
split into one sub-partition per socket by a second-level hash.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph

_KNUTH = 2654435761  # multiplicative hashing constant
_MASK = 0xFFFFFFFF


def _mix(v: int) -> int:
    """32-bit multiplicative hash; spreads consecutive ids across bins."""
    return ((v + 1) * _KNUTH) & _MASK


class HashPartitioner:
    """Maps vertices to machines (and sockets) by hashing.

    Parameters
    ----------
    num_machines:
        Number of cluster machines ``N``.
    sockets_per_machine:
        NUMA sockets per machine ``M``; each machine's partition is split
        into ``M`` sub-partitions when NUMA-aware mode is on.
    """

    def __init__(self, num_machines: int, sockets_per_machine: int = 1):
        if num_machines < 1:
            raise ConfigurationError("num_machines must be >= 1")
        if sockets_per_machine < 1:
            raise ConfigurationError("sockets_per_machine must be >= 1")
        self.num_machines = num_machines
        self.sockets_per_machine = sockets_per_machine

    def owner(self, v: int) -> int:
        """Machine id owning vertex ``v``."""
        return _mix(v) % self.num_machines

    def socket(self, v: int) -> int:
        """Socket id (within its machine) of vertex ``v``."""
        return (_mix(v) // self.num_machines) % self.sockets_per_machine

    def owners(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` over an id array."""
        mixed = ((np.asarray(vs, dtype=np.int64) + 1) * _KNUTH) & _MASK
        return (mixed % self.num_machines).astype(np.int32)


class PartitionedGraph:
    """A graph plus its machine (and socket) assignment.

    The simulation keeps a single shared :class:`Graph`; machines consult
    this object to know which accesses are local, remote-socket, or
    remote-machine, and the cluster charges network traffic accordingly.
    """

    def __init__(self, graph: Graph, partitioner: HashPartitioner):
        self.graph = graph
        self.partitioner = partitioner
        owners = partitioner.owners(np.arange(graph.num_vertices))
        self._vertices_by_machine = [
            np.flatnonzero(owners == m).astype(np.int64)
            for m in range(partitioner.num_machines)
        ]
        self._owners = owners

    @property
    def num_machines(self) -> int:
        return self.partitioner.num_machines

    def owner(self, v: int) -> int:
        """Machine owning vertex ``v``."""
        return int(self._owners[v])

    def owners_all(self) -> np.ndarray:
        """Per-vertex owner machine ids (the scheduler's bulk view)."""
        return self._owners

    def socket(self, v: int) -> int:
        """Socket (within the owner machine) holding vertex ``v``."""
        return self.partitioner.socket(v)

    def local_vertices(self, machine: int) -> np.ndarray:
        """Vertex ids owned by ``machine`` (ascending)."""
        return self._vertices_by_machine[machine]

    def partition_bytes(self, machine: int) -> int:
        """Memory footprint of ``machine``'s partition (CSR slice)."""
        local = self._vertices_by_machine[machine]
        degrees = self.graph.degrees()
        edge_entries = int(degrees[local].sum()) if len(local) else 0
        return 8 * (len(local) + 1) + 4 * edge_entries

    def machines(self) -> Iterator[int]:
        return iter(range(self.num_machines))

    def __repr__(self) -> str:
        sizes = [len(vs) for vs in self._vertices_by_machine]
        return (
            f"PartitionedGraph(machines={self.num_machines}, "
            f"partition_sizes={sizes})"
        )
