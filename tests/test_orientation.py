"""Tests for degree-orientation (DAG) preprocessing."""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.baselines.common import ExploreStats, RecursiveExplorer
from repro.core.extend import ScheduleExtender
from repro.graph import DATASETS, dataset
from repro.graph.generators import erdos_renyi, random_labels, star_graph
from repro.graph.graph import Graph
from repro.graph.orientation import orient_by_degree, orientation_rank
from repro.patterns import clique
from repro.patterns.schedule import automine_schedule


def test_orientation_halves_directed_entries(small_random_graph):
    dag = orient_by_degree(small_random_graph)
    assert dag.num_directed_edges * 2 == small_random_graph.num_directed_edges
    assert dag.directed


def test_orientation_is_acyclic(small_random_graph):
    dag = orient_by_degree(small_random_graph)
    rank = orientation_rank(small_random_graph)
    for u in dag.vertices():
        for v in dag.neighbors(u):
            assert rank[u] < rank[int(v)]


def test_orientation_points_to_higher_degree(star10):
    dag = orient_by_degree(star10)
    # all leaves point at the hub, never the reverse
    assert dag.degree(0) == 0
    for leaf in range(1, 11):
        assert list(dag.neighbors(leaf)) == [0]


def test_orientation_preserves_triangle_count(small_random_graph):
    expected = count_embeddings_brute_force(small_random_graph, clique(3))
    dag = orient_by_degree(small_random_graph)
    schedule = automine_schedule(clique(3), use_restrictions=False)
    explorer = RecursiveExplorer(dag, ScheduleExtender(schedule))
    stats = ExploreStats()
    for root in dag.vertices():
        explorer.explore_root(root, stats)
    assert stats.matches == expected


def test_orientation_preserves_4clique_count(small_random_graph):
    expected = count_embeddings_brute_force(small_random_graph, clique(4))
    dag = orient_by_degree(small_random_graph)
    schedule = automine_schedule(clique(4), use_restrictions=False)
    explorer = RecursiveExplorer(dag, ScheduleExtender(schedule))
    stats = ExploreStats()
    for root in dag.vertices():
        explorer.explore_root(root, stats)
    assert stats.matches == expected


def test_orientation_keeps_labels():
    g = erdos_renyi(20, 40, seed=0).with_labels(list(range(20)))
    dag = orient_by_degree(g)
    assert np.array_equal(dag.labels, g.labels)


def test_orientation_rank_is_permutation(small_random_graph):
    rank = orientation_rank(small_random_graph)
    assert sorted(rank.tolist()) == list(range(small_random_graph.num_vertices))


def _orient_row_by_row(graph):
    """The per-vertex reference the vectorized pass replaced."""
    degrees = graph.degrees()
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    kept = []
    for u in graph.vertices():
        nbrs = graph.neighbors(u)
        du = degrees[u]
        dn = degrees[nbrs]
        keep = nbrs[(dn > du) | ((dn == du) & (nbrs > u))]
        kept.append(keep)
        indptr[u + 1] = indptr[u] + len(keep)
    indices = (
        np.concatenate(kept) if kept else np.empty(0, dtype=np.int32)
    ).astype(np.int32)
    return Graph(indptr, indices, graph.labels, directed=True)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_vectorized_orientation_matches_row_by_row(name):
    graph = random_labels(dataset(name), 4, seed=1)
    got, expected = orient_by_degree(graph), _orient_row_by_row(graph)
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.indices.dtype == expected.indices.dtype
    assert np.array_equal(got.labels, expected.labels)
    assert got.edge_labels is None and expected.edge_labels is None
    assert got.directed


def test_orientation_of_an_empty_graph():
    dag = orient_by_degree(Graph(np.zeros(4, dtype=np.int64), []))
    assert dag.num_vertices == 3 and dag.num_directed_edges == 0
