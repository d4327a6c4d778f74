"""Unit tests for the CSR graph type and builders."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph, from_edge_array, from_edges, read_edge_list, write_edge_list
from repro.graph.generators import complete_graph, cycle_graph, star_graph


def test_from_edges_basic():
    g = from_edges([(0, 1), (1, 2), (0, 2)])
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.num_directed_edges == 6


def test_neighbors_sorted_unique():
    g = from_edges([(0, 3), (0, 1), (0, 2), (0, 1)])
    nbrs = g.neighbors(0)
    assert list(nbrs) == [1, 2, 3]


def test_self_loops_removed():
    g = from_edges([(0, 0), (0, 1), (1, 1)])
    assert g.num_edges == 1
    assert not g.has_edge(0, 0)


def test_duplicate_edges_removed():
    g = from_edges([(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    assert g.degree(0) == 1


def test_has_edge_symmetry():
    g = from_edges([(0, 1), (2, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_degrees_and_max_degree(star10):
    assert star10.degree(0) == 10
    assert star10.max_degree() == 10
    assert int(star10.degrees().sum()) == 2 * star10.num_edges


def test_isolated_vertices_allowed():
    g = from_edges([(0, 1)], num_vertices=5)
    assert g.num_vertices == 5
    assert g.degree(4) == 0
    assert list(g.neighbors(4)) == []


def test_empty_graph():
    g = from_edges([], num_vertices=3)
    assert g.num_vertices == 3
    assert g.num_edges == 0
    assert g.max_degree() == 0


def test_edges_iteration_each_once():
    g = from_edges([(0, 1), (1, 2), (0, 2)])
    edges = sorted(g.edges())
    assert edges == [(0, 1), (0, 2), (1, 2)]


def test_edge_endpoint_out_of_range():
    with pytest.raises(GraphFormatError):
        from_edges([(0, 5)], num_vertices=3)


def test_negative_vertex_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_array(np.array([[-1, 2]]))


def test_bad_shape_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_array(np.array([1, 2, 3]))


def test_ids_beyond_31_bits_rejected_before_building():
    """The adjacency is int32: an id >= 2**31 is refused by name, from
    a check of the input alone (no key array is allocated)."""
    edges = np.zeros((200_000, 2), dtype=np.int64)
    edges[:, 1] = np.arange(200_000)
    edges[-1, 1] = 1 << 31
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="31 bits"):
            from_edge_array(edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < edges.nbytes // 16


def test_labels_attach_and_lookup():
    g = from_edges([(0, 1), (1, 2)], labels=[5, 6, 7])
    assert g.label(0) == 5
    assert g.label(2) == 7
    assert g.with_labels([1, 1, 1]).label(0) == 1


def test_unlabeled_label_is_zero():
    g = from_edges([(0, 1)])
    assert g.label(0) == 0


def test_labels_length_mismatch_rejected():
    with pytest.raises(GraphFormatError):
        from_edges([(0, 1)], labels=[1, 2, 3])


def test_size_bytes_accounting():
    g = from_edges([(0, 1), (1, 2)])
    expected = 8 * 4 + 4 * 4  # indptr(4 entries) + 4 directed entries
    assert g.size_bytes() == expected


def test_derived_bytes_sums_what_has_been_built(monkeypatch):
    """Nothing before a kernel asks; then the keys, the hub rows and
    rank table, the one-byte ``loop_free`` flag, and the hub columns: on
    a graph whose every vertex has a row they are the rows (a view,
    counted once) and ``below``; over the row budget their own words
    and the tail lists, each once."""
    dense = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    keys = dense.adjacency_keys()
    rows, rank = dense.adjacency_matrix()
    columns = dense.hub_columns()
    assert len(rows) == 4 and columns.words.base is rows
    assert dense.derived_bytes() == (
        keys.nbytes + rows.nbytes + rank.nbytes + columns.below.nbytes + 1)
    g = star_graph(99)  # 100 vertices, 198 entries: one 16-byte row
    assert g.derived_bytes() == 0
    keys = g.adjacency_keys()
    assert g.derived_bytes() == keys.nbytes == 8 * 198
    monkeypatch.setattr(Graph, "DENSE_ADJACENCY_BYTES", 5 * 16)
    rows, rank = g.adjacency_matrix()
    columns = g.hub_columns()
    assert len(rows) == 5 and columns.words.shape == (100, 1)
    # the center and four leaves are hubs: only the center has
    # neighbors that are not
    assert len(columns.tail_indices) == 99 - 4
    assert g.derived_bytes() == (
        keys.nbytes + rows.nbytes + rank.nbytes + 1
        + sum(array.nbytes for array in columns)
    )


def test_edge_list_bytes():
    g = star_graph(6)
    assert g.edge_list_bytes(0) == 8 + 4 * 6
    assert g.edge_list_bytes(1) == 8 + 4


def test_equality_and_inequality():
    g1 = from_edges([(0, 1), (1, 2)])
    g2 = from_edges([(1, 2), (0, 1)])
    g3 = from_edges([(0, 1), (0, 2)])
    assert g1 == g2
    assert g1 != g3
    assert g1 != g1.with_labels([1, 2, 3])


def test_directed_graph_counts():
    g = from_edges([(0, 1), (1, 2)], directed=True)
    assert g.num_edges == 2
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)


def test_repr_mentions_shape(k5):
    assert "|V|=5" in repr(k5)
    assert "|E|=10" in repr(k5)


def test_edge_list_file_roundtrip(tmp_path, k5):
    path = tmp_path / "g.txt"
    write_edge_list(k5, path)
    loaded = read_edge_list(path)
    assert loaded == k5


def test_read_edge_list_skips_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n% other\n0 1\n\n1 2\n")
    g = read_edge_list(path)
    assert g.num_edges == 2


def test_read_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 x\n")
    with pytest.raises(GraphFormatError):
        read_edge_list(path)


def test_read_edge_list_rejects_single_column(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("42\n")
    with pytest.raises(GraphFormatError):
        read_edge_list(path)


def test_cycle_graph_degrees(c8):
    assert all(c8.degree(v) == 2 for v in c8.vertices())
    assert c8.num_edges == 8


def test_complete_graph_edges(k5):
    assert k5.num_edges == 10
    assert all(k5.degree(v) == 4 for v in k5.vertices())
