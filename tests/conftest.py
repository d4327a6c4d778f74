"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.graph import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    power_law_graph,
    random_labels,
    star_graph,
)


@pytest.fixture(scope="session")
def comparable():
    """The whole ``RunReport`` minus its only wall-clock / per-attempt
    parts (``extra.exec``, ``extra.checkpoint``): what every backend,
    worker count and resume must agree on."""

    def strip(report) -> dict:
        document = report.to_dict()
        document["extra"] = {
            key: value for key, value in document["extra"].items()
            if key not in ("exec", "checkpoint")
        }
        return document

    return strip


@pytest.fixture
def count_calls():
    """``count(function, *args)``: how many Python- and C-level calls
    happen while ``function(*args)`` runs (``sys.setprofile``). A pass
    over a column makes the same calls whatever the column's length, so
    comparing two lengths is a stopwatch-free tripwire for per-row work
    creeping back into a chunk pass. ``only={names}`` counts just the
    calls of Python functions so named — a tripwire for work a memo
    should have taken off a path."""

    def count(function, *args, only=None):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if only is None:
                calls += event in ("call", "c_call")
            elif event == "call":
                calls += frame.f_code.co_name in only

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            function(*args)
        finally:
            sys.setprofile(previous)
        return calls

    return count


@pytest.fixture(params=["dense", "rows+tail", "keys"])
def membership_regime(request, monkeypatch):
    """The three ways ``kernels.adjacency_member`` can be answered.

    Returns ``apply(graph)``, which rebuilds the graph's adjacency rows
    under the regime's byte budget for the rest of the test: every
    vertex has a bit-packed row (``dense`` — the default budget on a
    small graph; the rows are then the hub columns of every vertex, and
    the kernels run set operations on packed words alone), only the top
    fifth by degree do and the composite-key search answers the rest
    (``rows+tail`` — what a graph over the budget gets; the same fifth
    are packed columns of every vertex beside a tail list, and a
    counting set operation runs on both), or none does (``keys`` — no
    columns either: sorted lists throughout).
    """
    regime = request.param

    def apply(graph):
        n = graph.num_vertices
        rows = {"dense": n, "rows+tail": n // 5, "keys": 0}[regime]
        if regime != "dense":
            monkeypatch.setattr(
                Graph, "DENSE_ADJACENCY_BYTES",
                rows * graph.adjacency_row_bytes)
        # the hub columns are built with the rows: drop both
        monkeypatch.setattr(graph, "_adjacency_matrix", None)
        monkeypatch.setattr(graph, "_hub_columns", None)
        matrix, rank = graph.adjacency_matrix()
        if graph.num_directed_edges:
            assert int((rank >= 0).sum()) == rows
            columns = graph.hub_columns()
            assert (columns is None) == (regime == "keys")
            if regime == "dense":
                # the rows themselves: no copy, no tail, a column is
                # its vertex
                assert columns.words.base is matrix
                assert columns.tail_indptr is None
                assert columns.below.tolist() == list(range(n + 1))
            elif regime == "rows+tail":
                assert int(columns.below[-1]) == rows
                assert 0 < len(columns.tail_indices) < len(graph.indices)
        return graph

    return apply


@pytest.fixture(scope="session")
def small_random_graph():
    """A reusable 60-vertex random graph (dense enough for cliques)."""
    return erdos_renyi(60, 240, seed=3)


@pytest.fixture(scope="session")
def skewed_graph():
    """A power-law graph with pronounced hubs."""
    return power_law_graph(200, 1200, exponent=2.0, seed=7)


@pytest.fixture(scope="session")
def labeled_graph():
    """A small labeled graph for FSM and label-constraint tests."""
    return random_labels(erdos_renyi(50, 160, seed=11), 3, seed=2)


@pytest.fixture
def tiny_cluster(small_random_graph):
    """A 4-machine cluster over the small random graph."""
    return Cluster(
        small_random_graph,
        ClusterConfig(num_machines=4, memory_bytes=32 << 20),
    )


@pytest.fixture(scope="session")
def k5():
    return complete_graph(5)


@pytest.fixture(scope="session")
def c8():
    return cycle_graph(8)


@pytest.fixture(scope="session")
def star10():
    return star_graph(10)
