"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
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
