"""Tests for edge-label support.

The paper notes Khuzdul "supports vertex labels, but the edge label
support can be added without fundamental difficulty" — this extension
adds it end to end: graph storage, pattern definition, isomorphism,
canonical codes, schedules, and the candidate kernel.
"""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import Cluster, ClusterConfig
from repro.core import KhuzdulEngine
from repro.errors import GraphFormatError, PatternError
from repro.graph import from_edges
from repro.patterns import Pattern, are_isomorphic, automorphisms
from repro.patterns.canonical import canonical_code
from repro.patterns.schedule import automine_schedule, graphpi_schedule
from tests.reference import canonical_form


@pytest.fixture(scope="module")
def elabeled_graph():
    rng = np.random.default_rng(3)
    edges = [
        (u, v) for u in range(40) for v in range(u + 1, 40)
        if rng.random() < 0.22
    ]
    labels = [int(rng.integers(0, 3)) for _ in edges]
    return from_edges(edges, edge_labels=labels)


# ----------------------------------------------------------------------
# graph storage
# ----------------------------------------------------------------------
def test_edge_label_lookup_symmetric():
    g = from_edges([(0, 1), (1, 2)], edge_labels=[5, 7])
    assert g.edge_label(0, 1) == 5
    assert g.edge_label(1, 0) == 5
    assert g.edge_label(2, 1) == 7


def test_edge_label_missing_edge_raises():
    g = from_edges([(0, 1)], edge_labels=[1])
    with pytest.raises(KeyError):
        g.edge_label(0, 2)


def test_unlabeled_graph_edge_label_zero():
    g = from_edges([(0, 1)])
    assert g.edge_label(0, 1) == 0
    assert g.edge_label_slice(0) is None


def test_edge_label_slice_alignment(elabeled_graph):
    g = elabeled_graph
    for v in range(0, 40, 7):
        nbrs = g.neighbors(v)
        slice_ = g.edge_label_slice(v)
        for i, u in enumerate(nbrs):
            assert slice_[i] == g.edge_label(v, int(u))


def test_edge_labels_survive_duplicate_collapse():
    g = from_edges([(0, 1), (1, 0)], edge_labels=[4, 9])
    assert g.edge_label(0, 1) == 4  # first occurrence wins


def test_edge_labels_length_validation():
    with pytest.raises(GraphFormatError):
        from_edges([(0, 1), (1, 2)], edge_labels=[1])


def test_edge_labels_in_size_bytes():
    plain = from_edges([(0, 1), (1, 2)])
    labeled = from_edges([(0, 1), (1, 2)], edge_labels=[1, 2])
    assert labeled.size_bytes() > plain.size_bytes()


def test_edge_labels_in_equality():
    a = from_edges([(0, 1)], edge_labels=[1])
    b = from_edges([(0, 1)], edge_labels=[2])
    c = from_edges([(0, 1)])
    assert a != b
    assert a != c


# ----------------------------------------------------------------------
# patterns
# ----------------------------------------------------------------------
def test_pattern_edge_labels_normalized():
    p = Pattern(3, [(0, 1), (1, 2)], edge_labels={(1, 0): 5, (1, 2): 7})
    assert p.edge_label(0, 1) == 5
    assert p.edge_label(2, 1) == 7


def test_pattern_edge_label_validation():
    with pytest.raises(PatternError):
        Pattern(3, [(0, 1)], edge_labels={(0, 2): 1})  # non-existent edge
    with pytest.raises(PatternError):
        Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 1})  # missing


def test_pattern_edge_labels_in_equality_and_hash():
    a = Pattern(2, [(0, 1)], edge_labels={(0, 1): 1})
    b = Pattern(2, [(0, 1)], edge_labels={(0, 1): 1})
    c = Pattern(2, [(0, 1)], edge_labels={(0, 1): 2})
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_edge_labels_break_automorphisms():
    unlabeled = Pattern(3, [(0, 1), (1, 2)])
    labeled = Pattern(3, [(0, 1), (1, 2)],
                      edge_labels={(0, 1): 1, (1, 2): 2})
    symmetric = Pattern(3, [(0, 1), (1, 2)],
                        edge_labels={(0, 1): 1, (1, 2): 1})
    assert len(automorphisms(unlabeled)) == 2
    assert len(automorphisms(labeled)) == 1
    assert len(automorphisms(symmetric)) == 2


def test_edge_labeled_isomorphism():
    a = Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 1, (1, 2): 2})
    b = Pattern(3, [(0, 2), (2, 1)], edge_labels={(0, 2): 1, (2, 1): 2})
    c = Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 2, (1, 2): 2})
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, c)


def test_edge_labeled_canonical_codes():
    a = Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 1, (1, 2): 2})
    b = a.relabel([2, 1, 0])
    c = Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 2, (1, 2): 2})
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(a) != canonical_code(c)
    assert are_isomorphic(a, canonical_form(a))


def test_relabel_moves_edge_labels():
    p = Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 5, (1, 2): 9})
    q = p.relabel([2, 0, 1])  # 0->2, 1->0, 2->1
    assert q.edge_label(2, 0) == 5
    assert q.edge_label(0, 1) == 9


def test_growth_of_edge_labeled_patterns_rejected():
    p = Pattern(2, [(0, 1)], edge_labels={(0, 1): 1})
    with pytest.raises(PatternError):
        p.add_vertex([0])
    with pytest.raises(PatternError):
        Pattern(3, [(0, 1), (1, 2)],
                edge_labels={(0, 1): 1, (1, 2): 1}).add_edge(0, 2)


# ----------------------------------------------------------------------
# end-to-end counting
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "edges,edge_labels",
    [
        ([(0, 1)], {(0, 1): 1}),
        ([(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 2}),
        ([(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 1}),
        ([(0, 1), (1, 2), (0, 2)], {(0, 1): 0, (1, 2): 1, (0, 2): 2}),
        ([(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, 2): 1, (0, 2): 1}),
    ],
    ids=["edge", "path-12", "path-11", "tri-012", "tri-111"],
)
def test_engine_counts_edge_labeled_patterns(elabeled_graph, edges, edge_labels):
    size = max(max(e) for e in edges) + 1
    pattern = Pattern(size, edges, edge_labels=edge_labels)
    expected = count_embeddings_brute_force(elabeled_graph, pattern)
    cluster = Cluster(elabeled_graph, ClusterConfig(num_machines=3))
    for schedule_fn in (automine_schedule, graphpi_schedule):
        report = KhuzdulEngine(cluster).run(schedule_fn(pattern))
        assert report.counts == expected


def test_edge_label_counts_partition_plain_count(elabeled_graph):
    """Summing over all label combinations recovers the unlabeled count."""
    cluster = Cluster(elabeled_graph, ClusterConfig(num_machines=3))
    engine = KhuzdulEngine(cluster)
    plain = engine.run(automine_schedule(Pattern(2, [(0, 1)]))).counts
    total = 0
    for label in range(3):
        pattern = Pattern(2, [(0, 1)], edge_labels={(0, 1): label})
        total += engine.run(automine_schedule(pattern)).counts
    assert total == plain


def test_required_label_on_unlabeled_graph_matches_nothing(small_random_graph):
    pattern = Pattern(2, [(0, 1)], edge_labels={(0, 1): 3})
    cluster = Cluster(small_random_graph, ClusterConfig(num_machines=2))
    report = KhuzdulEngine(cluster).run(automine_schedule(pattern))
    assert report.counts == 0
