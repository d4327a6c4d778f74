"""Tests for the BFS-DFS hybrid scheduler mechanics (chunking, states)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine
from repro.graph.generators import erdos_renyi
from repro.patterns import chain, clique
from repro.patterns.schedule import automine_schedule


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(80, 400, seed=6)


def _run(graph, **config):
    cluster = Cluster(
        graph, ClusterConfig(num_machines=2, memory_bytes=64 << 20)
    )
    engine = KhuzdulEngine(cluster, EngineConfig(**config))
    return engine.run(automine_schedule(clique(4))), cluster


def test_small_chunks_create_more_chunks(graph):
    big, _ = _run(graph, chunk_bytes=1 << 20)
    small, _ = _run(graph, chunk_bytes=2048)
    assert small.counts == big.counts
    assert small.extra["chunks"] > big.extra["chunks"]


def test_chunk_memory_released(graph):
    report, cluster = _run(graph, chunk_bytes=4096)
    for machine in cluster.machines:
        # after the run only the partition remains resident (cache pool
        # is released by the engine)
        assert machine.resident_bytes == cluster.partitioned.partition_bytes(
            machine.machine_id
        )


def test_peak_memory_bounded_by_chunks(graph):
    """DFS-over-chunks bounds live memory to ~levels x chunk size."""
    report_small, cluster_small = _run(graph, chunk_bytes=2048,
                                       cache_fraction=0.0)
    report_big, cluster_big = _run(graph, chunk_bytes=1 << 20,
                                   cache_fraction=0.0)
    assert report_small.peak_memory_bytes <= report_big.peak_memory_bytes


def test_network_counts_only_remote(graph):
    """Every recorded fetch must target a remote owner."""
    _, cluster = _run(graph, hds=False, cache_fraction=0.0)
    traffic = cluster.network.traffic_bytes
    assert np.all(np.diag(traffic) == 0)


def test_serve_time_charged_to_owners(graph):
    report, cluster = _run(graph)
    served = [m.serve_seconds for m in cluster.machines]
    assert any(s > 0 for s in served)
    assert report.extra["serve_seconds"] == max(served)


def test_breakdown_buckets_positive(graph):
    report, _ = _run(graph)
    assert report.breakdown["compute"] > 0
    assert report.breakdown["scheduler"] > 0
    assert report.breakdown["cache"] >= 0
    assert report.breakdown["network"] >= 0


def test_two_vertex_pattern_no_level_chunks(graph):
    """Single-edge patterns extend roots directly to matches."""
    cluster = Cluster(graph, ClusterConfig(num_machines=2))
    engine = KhuzdulEngine(cluster, EngineConfig())
    report = engine.run(automine_schedule(chain(2)))
    assert report.counts == graph.num_edges
    assert report.network_bytes == 0  # roots are local; no fetch needed


def test_hds_stats_reported(graph):
    report, _ = _run(graph, hds=True)
    assert report.extra["hds"]["probes"] >= report.extra["hds"]["hits"]


def test_fetch_source_accounting(graph):
    """Every active-list need is satisfied by exactly one source."""
    report, _ = _run(graph, hds=True, cache_fraction=0.2, chunk_bytes=4096)
    sources = report.extra["fetch_sources"]
    assert set(sources) == {"local", "remote", "cache", "shared"}
    assert sources["local"] > 0
    assert sources["remote"] > 0
    assert sum(sources.values()) > 0


def test_cache_source_appears_with_small_chunks(graph):
    report, _ = _run(graph, hds=False, cache_fraction=0.3, chunk_bytes=2048)
    assert report.extra["fetch_sources"]["cache"] > 0


def test_shared_source_appears_with_hds(graph):
    report, _ = _run(graph, hds=True, cache_fraction=0.0)
    assert report.extra["fetch_sources"]["shared"] > 0
