"""Property-based tests (hypothesis) on cross-cutting invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import count_embeddings_brute_force
from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine
from repro.core.cache import CachePolicy, EdgeCache
from repro.core.hds import HorizontalShareTable
from repro.core.pipeline import pipeline_time
from repro.cluster.costmodel import CostModel
from repro.graph import HashPartitioner, from_edge_array
from repro.graph.generators import erdos_renyi
from repro.graph.orientation import orient_by_degree
from repro.patterns import chain, clique, cycle
from repro.patterns.schedule import automine_schedule

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# engine invariance: configuration must never change counts
# ----------------------------------------------------------------------
@st.composite
def _engine_configs(draw):
    return EngineConfig(
        chunk_bytes=draw(st.sampled_from([1024, 4096, 64 << 10, 1 << 20])),
        vcs=draw(st.booleans()),
        hds=draw(st.booleans()),
        hds_slots=draw(st.sampled_from([1, 16, 4096])),
        cache_fraction=draw(st.sampled_from([0.0, 0.05, 0.3])),
        cache_policy=draw(st.sampled_from(list(CachePolicy))),
        numa_aware=draw(st.booleans()),
    )


@given(
    seed=st.integers(min_value=0, max_value=1000),
    machines=st.integers(min_value=1, max_value=6),
    config=_engine_configs(),
)
@_slow
def test_engine_counts_invariant_to_configuration(seed, machines, config):
    graph = erdos_renyi(30, 90, seed=seed)
    expected = count_embeddings_brute_force(graph, clique(3))
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=64 << 20)
    )
    report = KhuzdulEngine(cluster, config).run(automine_schedule(clique(3)))
    assert report.counts == expected


@given(seed=st.integers(min_value=0, max_value=1000))
@_slow
def test_engine_matches_brute_force_on_random_graphs(seed):
    graph = erdos_renyi(25, 60, seed=seed)
    cluster = Cluster(graph, ClusterConfig(num_machines=3))
    engine = KhuzdulEngine(cluster)
    for pattern in (chain(3), cycle(4)):
        expected = count_embeddings_brute_force(graph, pattern)
        assert engine.run(automine_schedule(pattern)).counts == expected


# ----------------------------------------------------------------------
# orientation preserves cliques
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=1000))
@_slow
def test_orientation_preserves_clique_counts(seed):
    graph = erdos_renyi(25, 90, seed=seed)
    expected = count_embeddings_brute_force(graph, clique(3))
    dag = orient_by_degree(graph)
    cluster = Cluster(dag, ClusterConfig(num_machines=2))
    schedule = automine_schedule(clique(3), use_restrictions=False)
    assert KhuzdulEngine(cluster).run(schedule).counts == expected


# ----------------------------------------------------------------------
# builder normalization
# ----------------------------------------------------------------------
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60
    )
)
@settings(max_examples=80, deadline=None)
def test_builder_normalization_properties(edges):
    graph = from_edge_array(
        np.array(edges, dtype=np.int64).reshape(len(edges), 2),
        num_vertices=20,
    )
    # adjacency is sorted, unique, loop-free, and symmetric
    for v in graph.vertices():
        nbrs = graph.neighbors(v).tolist()
        assert nbrs == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert graph.has_edge(u, v)
    assert graph.num_directed_edges == 2 * graph.num_edges


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@given(
    machines=st.integers(min_value=1, max_value=12),
    vertices=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_partitioner_total_and_deterministic(machines, vertices):
    p = HashPartitioner(machines)
    owners = p.owners(np.arange(vertices))
    assert owners.min() >= 0 and owners.max() < machines
    assert np.array_equal(owners, p.owners(np.arange(vertices)))


# ----------------------------------------------------------------------
# pipeline bounds
# ----------------------------------------------------------------------
@given(
    comm=st.lists(st.floats(0, 10), min_size=1, max_size=8),
    pad=st.lists(st.floats(0, 10), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_pipeline_sandwich_bounds(comm, pad):
    compute = pad[: len(comm)]
    total = pipeline_time(comm, compute)
    assert total >= max(sum(comm), sum(compute)) - 1e-9
    assert total <= sum(comm) + sum(compute) + 1e-9


# ----------------------------------------------------------------------
# cache: static policy never evicts; capacity always respected
# ----------------------------------------------------------------------
@given(
    policy=st.sampled_from(list(CachePolicy)),
    ops=st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 400)), max_size=100
    ),
)
@settings(max_examples=100, deadline=None)
def test_cache_capacity_invariant(policy, ops):
    cache = EdgeCache(1000, 0, policy, CostModel(), num_vertices=31)
    for vertex, size in ops:
        cache.query(vertex)
        cache.admit(vertex, size, degree=10)
        assert cache.used_bytes <= 1000
    if policy is CachePolicy.STATIC:
        assert cache.evictions == 0


# ----------------------------------------------------------------------
# HDS: a vertex never hits before it was inserted
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 50), max_size=200))
@settings(max_examples=100, deadline=None)
def test_hds_hit_implies_prior_insert(probes):
    table = HorizontalShareTable(32)
    hit = table.share(np.array(probes, dtype=np.int64))
    seen = set()
    for v, shared in zip(probes, hit.tolist()):
        if shared:
            assert v in seen
        seen.add(v)
    # every probe is exactly one of hit / insert / drop
    assert table.hits + table.inserts + table.drops == len(probes)