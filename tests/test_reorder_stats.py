"""Tests for vertex reordering and graph statistics."""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import Cluster, ClusterConfig
from repro.core import KhuzdulEngine
from repro.graph import DATASETS, dataset, from_edge_array, from_edges
from repro.graph.generators import (
    erdos_renyi,
    power_law_graph,
    random_labels,
    star_graph,
)
from repro.graph.orientation import orient_by_degree
from repro.patterns import clique
from repro.patterns.schedule import automine_schedule
from tests.reference import (
    apply_order,
    degree_stats,
    hot_vertices,
    reorder_by_degree,
    restore_ids,
    traffic_concentration,
)


# ----------------------------------------------------------------------
# reordering
# ----------------------------------------------------------------------
def test_reorder_is_permutation(small_random_graph):
    reordered, old_of_new = reorder_by_degree(small_random_graph)
    assert sorted(old_of_new.tolist()) == list(
        range(small_random_graph.num_vertices)
    )
    assert reordered.num_edges == small_random_graph.num_edges


def test_reorder_descending_puts_hubs_first(skewed_graph):
    reordered, _ = reorder_by_degree(skewed_graph, descending=True)
    degrees = reordered.degrees()
    assert degrees[0] == skewed_graph.max_degree()
    assert np.all(degrees[:-1] >= degrees[1:]) or True  # sorted by construction
    # in fact it must be exactly non-increasing:
    assert all(int(degrees[i]) >= int(degrees[i + 1])
               for i in range(len(degrees) - 1))


def test_reorder_ascending(skewed_graph):
    reordered, _ = reorder_by_degree(skewed_graph, descending=False)
    degrees = reordered.degrees()
    assert all(int(degrees[i]) <= int(degrees[i + 1])
               for i in range(len(degrees) - 1))


def test_reorder_preserves_counts(skewed_graph):
    expected = count_embeddings_brute_force(skewed_graph, clique(3))
    reordered, _ = reorder_by_degree(skewed_graph)
    cluster = Cluster(reordered, ClusterConfig(num_machines=2))
    report = KhuzdulEngine(cluster).run(automine_schedule(clique(3)))
    assert report.counts == expected


def test_reorder_preserves_labels():
    g = from_edges([(0, 1), (1, 2), (1, 3)], labels=[9, 8, 7, 6])
    reordered, old_of_new = reorder_by_degree(g)
    for new_id in range(4):
        assert reordered.label(new_id) == g.label(int(old_of_new[new_id]))


def test_reorder_preserves_edge_labels():
    g = from_edges([(0, 1), (1, 2)], edge_labels=[4, 5])
    reordered, old_of_new = reorder_by_degree(g)
    new_of_old = {int(o): n for n, o in enumerate(old_of_new)}
    assert reordered.edge_label(new_of_old[0], new_of_old[1]) == 4
    assert reordered.edge_label(new_of_old[1], new_of_old[2]) == 5


def test_apply_order_validates():
    g = from_edges([(0, 1)])
    for order in ([0, 0], [0, 2], [-1, 0], [0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(ValueError):
            apply_order(g, np.array(order))


def _apply_order_per_edge(graph, old_of_new):
    """The per-edge implementation ``apply_order`` replaced, kept as
    its reference: one Python tuple and one binary-searched label
    lookup per edge."""
    new_of_old = np.empty_like(old_of_new)
    new_of_old[old_of_new] = np.arange(graph.num_vertices)
    edges = np.array(
        [(new_of_old[u], new_of_old[v]) for u, v in graph.edges()],
        dtype=np.int64,
    ).reshape(-1, 2)
    edge_labels = None
    if graph.edge_labels is not None:
        edge_labels = [graph.edge_label(u, v) for u, v in graph.edges()]
    return from_edge_array(
        edges, num_vertices=graph.num_vertices,
        labels=None if graph.labels is None else graph.labels[old_of_new],
        directed=graph.directed, edge_labels=edge_labels,
    )


def _reorder_inputs():
    for name in DATASETS:
        yield name, dataset(name, scale=0.1)
    yield "labeled", random_labels(erdos_renyi(50, 160, seed=11), 3, seed=2)
    rng = np.random.default_rng(8)
    edges = [(u, v) for u in range(30) for v in range(u + 1, 30)
             if rng.random() < 0.3]
    yield "edge-labeled", from_edges(
        edges, labels=rng.integers(0, 3, size=30),
        edge_labels=rng.integers(0, 4, size=len(edges)))
    yield "oriented", orient_by_degree(dataset("mico", scale=0.1))
    yield "edgeless", from_edges([], num_vertices=5)


@pytest.mark.parametrize(
    "name,graph", _reorder_inputs(), ids=lambda value: (
        value if isinstance(value, str) else ""))
def test_apply_order_matches_per_edge_reference(name, graph):
    orders = [
        reorder_by_degree(graph)[1],
        np.random.default_rng(1).permutation(graph.num_vertices),
    ]
    for old_of_new in orders:
        got = apply_order(graph, old_of_new)
        expected = _apply_order_per_edge(graph, old_of_new)
        assert got == expected  # indptr, indices, labels, edge labels
        assert got.indices.dtype == expected.indices.dtype
        assert (got.edge_labels is None) == (graph.edge_labels is None)


def test_restore_ids_roundtrip(skewed_graph):
    reordered, old_of_new = reorder_by_degree(skewed_graph)
    new_of_old = np.empty_like(old_of_new)
    new_of_old[old_of_new] = np.arange(len(old_of_new))
    embedding_new = (3, 7, 11)
    original = restore_ids(embedding_new, old_of_new)
    assert tuple(int(new_of_old[v]) for v in original) == embedding_new


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_degree_stats_star():
    stats = degree_stats(star_graph(20))
    assert stats.max_degree == 20
    assert stats.median_degree == 1.0
    assert stats.gini > 0.4  # extremely unequal


def test_degree_stats_regular():
    # ER graphs are near-uniform: low Gini
    stats = degree_stats(erdos_renyi(200, 800, seed=1))
    assert stats.gini < 0.35
    assert stats.avg_degree == pytest.approx(8.0, rel=0.01)


def test_skewed_more_concentrated_than_uniform():
    uniform = erdos_renyi(300, 1500, seed=2)
    skewed = power_law_graph(300, 1500, exponent=1.9, seed=2)
    assert (
        degree_stats(skewed).top5_degree_share
        > degree_stats(uniform).top5_degree_share
    )
    assert traffic_concentration(skewed) > traffic_concentration(uniform)


def test_paper_skew_ordering_in_analogues():
    """patents must be the least skewed analogue; uk among the most."""
    gini = {
        name: degree_stats(dataset(name)).gini
        for name in ("patents", "livejournal", "uk")
    }
    assert gini["patents"] < gini["livejournal"] < gini["uk"]


def test_hot_vertices_are_highest_degree(skewed_graph):
    hot = hot_vertices(skewed_graph, 0.05)
    degrees = skewed_graph.degrees()
    threshold = min(degrees[v] for v in hot)
    cold = np.setdiff1d(np.arange(skewed_graph.num_vertices), hot)
    assert all(degrees[v] <= threshold for v in cold)


def test_empty_graph_stats():
    stats = degree_stats(from_edges([], num_vertices=0))
    assert stats.avg_degree == 0.0
    assert stats.gini == 0.0
