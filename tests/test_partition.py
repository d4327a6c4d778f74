"""Tests for 1-D hash partitioning and NUMA sub-partitions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import HashPartitioner, PartitionedGraph
from repro.graph.generators import erdos_renyi
from tests.reference import socket_vertices


@pytest.fixture(scope="module")
def parts():
    graph = erdos_renyi(200, 600, seed=1)
    partitioner = HashPartitioner(4, sockets_per_machine=2)
    return graph, partitioner, PartitionedGraph(graph, partitioner)


def test_owner_in_range(parts):
    _, partitioner, _ = parts
    for v in range(200):
        assert 0 <= partitioner.owner(v) < 4


def test_partitions_cover_all_vertices(parts):
    graph, _, pg = parts
    seen = np.concatenate([pg.local_vertices(m) for m in pg.machines()])
    assert sorted(seen.tolist()) == list(range(graph.num_vertices))


def test_partitions_disjoint(parts):
    _, _, pg = parts
    for m1 in pg.machines():
        for m2 in pg.machines():
            if m1 < m2:
                overlap = np.intersect1d(
                    pg.local_vertices(m1), pg.local_vertices(m2)
                )
                assert len(overlap) == 0


def test_partition_balance(parts):
    """Multiplicative hashing keeps partitions roughly even."""
    _, _, pg = parts
    sizes = [len(pg.local_vertices(m)) for m in pg.machines()]
    assert max(sizes) < 2 * min(sizes)


def test_vectorized_owners_match_scalar(parts):
    _, partitioner, _ = parts
    ids = np.arange(200)
    vector = partitioner.owners(ids)
    scalar = np.array([partitioner.owner(int(v)) for v in ids])
    assert np.array_equal(vector, scalar)


def test_socket_split_covers_machine_partition(parts):
    _, _, pg = parts
    for m in pg.machines():
        by_socket = np.concatenate(
            [socket_vertices(pg, m, s) for s in range(2)]
        )
        assert sorted(by_socket.tolist()) == sorted(
            pg.local_vertices(m).tolist()
        )


def test_partition_bytes_positive_and_additive(parts):
    graph, _, pg = parts
    total_edge_entries = sum(
        int(graph.degrees()[pg.local_vertices(m)].sum())
        for m in pg.machines()
    )
    # each directed adjacency entry is stored exactly once (at its owner)
    assert total_edge_entries == graph.num_directed_edges


def test_owner_deterministic():
    p1 = HashPartitioner(8)
    p2 = HashPartitioner(8)
    assert all(p1.owner(v) == p2.owner(v) for v in range(100))


def test_single_machine_owns_everything():
    p = HashPartitioner(1)
    assert all(p.owner(v) == 0 for v in range(50))


def test_invalid_configs():
    with pytest.raises(ConfigurationError):
        HashPartitioner(0)
    with pytest.raises(ConfigurationError):
        HashPartitioner(2, sockets_per_machine=0)


def test_socket_in_range(parts):
    _, partitioner, _ = parts
    for v in range(200):
        assert 0 <= partitioner.socket(v) < 2


def test_repr(parts):
    _, _, pg = parts
    assert "machines=4" in repr(pg)
