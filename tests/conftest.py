"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import hashlib
import sys

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force

from repro.cluster import Cluster, ClusterConfig
from repro.exec import shutdown
from repro.graph import Graph
from repro.graph.graph import DERIVED
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    power_law_graph,
    random_labels,
    star_graph,
)


@pytest.fixture(autouse=True)
def _no_idle_fleets():
    """Every test starts and ends with an empty process-backend pool
    (docs/execution.md, "Worker topology"). An idle fleet runs the code
    and class attributes it was forked with: a test that monkeypatches
    ``repro.exec.process.worker_main``, or a budget such as
    ``Graph.DENSE_ADJACENCY_BYTES``, must get fresh workers, and forked
    workers must not pile up the memory of a whole session."""
    shutdown()
    yield
    shutdown()


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


@pytest.fixture(scope="session")
def brute_force():
    """``count_embeddings_brute_force(graph, pattern, induced=False)``
    memoized for the session, keyed by the graph's content, the pattern
    and ``induced``: the oracle is the slow half of the tests that hold
    a system to it, and many hold several systems to the same count."""
    memo = {}

    def count(graph, pattern, induced=False):
        content = hashlib.sha256()
        for array in (graph.indptr, graph.indices, graph.labels,
                      graph.edge_labels):
            if array is not None:
                array = np.ascontiguousarray(array)
                content.update(f"{array.dtype}{array.shape}".encode())
                content.update(array.tobytes())
            content.update(b"|")
        key = (content.hexdigest(), graph.directed, pattern, induced)
        if key not in memo:
            memo[key] = count_embeddings_brute_force(graph, pattern, induced)
        return memo[key]

    return count


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

        # a collection inside the window would count the callbacks in
        # gc.callbacks (Hypothesis installs one), not the function's calls
        collecting = gc.isenabled()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            function(*args)
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
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
        # drop every derived array (the table, repro.graph.graph.DERIVED):
        # the next lookup builds them under the regime's budget
        for name in DERIVED._fields:
            monkeypatch.setattr(graph, "_" + name, None)
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
