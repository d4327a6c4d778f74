"""Tests for the brute-force reference counter itself."""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.graph import from_edges
from repro.graph.generators import complete_graph, cycle_graph, star_graph
from repro.patterns import Pattern, chain, clique, cycle, star
from repro.patterns.generation import connected_patterns
from tests.reference import count_embeddings_unpruned


def test_triangle_in_k4():
    assert count_embeddings_brute_force(complete_graph(4), clique(3)) == 4


def test_cliques_in_kn():
    # C(6, k) k-cliques in K6
    k6 = complete_graph(6)
    assert count_embeddings_brute_force(k6, clique(3)) == 20
    assert count_embeddings_brute_force(k6, clique(4)) == 15
    assert count_embeddings_brute_force(k6, clique(5)) == 6


def test_edges_counted_once():
    g = from_edges([(0, 1), (1, 2)])
    assert count_embeddings_brute_force(g, chain(2)) == 2


def test_wedges_in_star():
    # star with n leaves has C(n,2) wedges centered at the hub
    assert count_embeddings_brute_force(star_graph(5), chain(3)) == 10


def test_chains_in_cycle():
    # a cycle of length n contains n paths of any fixed length < n
    c6 = cycle_graph(6)
    assert count_embeddings_brute_force(c6, chain(3)) == 6
    assert count_embeddings_brute_force(c6, chain(4)) == 6
    assert count_embeddings_brute_force(c6, cycle(6)) == 1


def test_no_triangles_in_cycle():
    assert count_embeddings_brute_force(cycle_graph(8), clique(3)) == 0


def test_induced_vs_non_induced():
    k4 = complete_graph(4)
    # every 3-subset of K4 induces a triangle, so no induced wedges
    assert count_embeddings_brute_force(k4, chain(3)) == 12
    assert count_embeddings_brute_force(k4, chain(3), induced=True) == 0


def test_induced_cycle():
    # K4 has 3 four-cycles, none induced (chords everywhere)
    k4 = complete_graph(4)
    assert count_embeddings_brute_force(k4, cycle(4)) == 3
    assert count_embeddings_brute_force(k4, cycle(4), induced=True) == 0


def test_labeled_matching():
    g = from_edges([(0, 1), (1, 2)], labels=[7, 8, 7])
    hit = Pattern(2, [(0, 1)], labels=(7, 8))
    miss = Pattern(2, [(0, 1)], labels=(9, 8))
    assert count_embeddings_brute_force(g, hit) == 2
    assert count_embeddings_brute_force(g, miss) == 0


def test_labeled_symmetric_pattern():
    g = from_edges([(0, 1)], labels=[5, 5])
    p = Pattern(2, [(0, 1)], labels=(5, 5))
    assert count_embeddings_brute_force(g, p) == 1


def test_star_pattern_counts():
    assert count_embeddings_brute_force(star_graph(4), star(3)) == 4  # C(4,3)


def test_single_vertex_pattern():
    g = from_edges([(0, 1)], num_vertices=5)
    assert count_embeddings_brute_force(g, Pattern(1, [])) == 5


# ======================================================================
# the counter's candidates come from a placed pattern neighbor's list:
# it must count what trying every vertex everywhere counts
# ======================================================================
try:  # Hypothesis draws (and shrinks) the seeds where it is installed
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def _seeds(test):
        return settings(max_examples=40, deadline=None)(
            given(seed=st.integers(0, 2**32 - 1))(test)
        )
except ImportError:  # a bare container: the same body over a fixed sweep
    _seeds = pytest.mark.parametrize("seed", range(40))


def _drawn_graph(rng):
    """Up to 9 vertices, any density, vertex and edge labels from two
    values each. Undirected: on an oriented graph the assignments of a
    symmetric pattern need not divide by its automorphisms."""
    n = int(rng.integers(1, 10))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < rng.uniform(0.2, 0.9)]
    return from_edges(
        edges, num_vertices=n, labels=rng.integers(0, 2, size=n),
        edge_labels=rng.integers(0, 2, size=len(edges)),
    )


def _drawn_pattern(rng):
    """A connected pattern of up to 4 vertices — its vertex order, which
    the counter follows, drawn too — with labels on some draws."""
    k = int(rng.integers(1, 5))
    shapes = connected_patterns(k)
    pattern = shapes[rng.integers(len(shapes))]
    relabel = rng.permutation(k).tolist()
    edges = [(relabel[u], relabel[v]) for u, v in pattern.edges]
    labels = (tuple(rng.integers(0, 2, size=k).tolist())
              if rng.random() < 0.5 else None)
    edge_labels = ({edge: int(rng.integers(0, 2)) for edge in edges}
                   if rng.random() < 0.3 else None)
    return Pattern(k, edges, labels=labels, edge_labels=edge_labels)


@_seeds
def test_pruned_search_counts_what_the_full_search_does(seed):
    rng = np.random.default_rng(seed)
    graph, pattern = _drawn_graph(rng), _drawn_pattern(rng)
    induced = bool(rng.random() < 0.5)
    assert count_embeddings_brute_force(graph, pattern, induced) == \
        count_embeddings_unpruned(graph, pattern, induced)
