"""Tests for the ported systems (k-Automine / k-GraphPi), the query
surface every system shares, and the apps."""

import ast
from pathlib import Path

import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.errors import ConfigurationError
from repro.patterns import Pattern, chain, clique
from repro.patterns.canonical import canonical_code
from repro.patterns.catalog import motifs
from repro.systems import (
    KAutomine,
    KGraphPi,
    clique_count,
    motif_count,
    triangle_count,
)
from repro.systems.base import ORIENTATION_REFUSAL
from tests.reference import SYSTEM_FLAVOURS

SRC = Path(__file__).resolve().parents[1] / "src"
SURFACE = {"count_pattern", "count_patterns", "mni_supports"}


@pytest.fixture(scope="module")
def systems(small_random_graph):
    config = ClusterConfig(num_machines=4, memory_bytes=64 << 20)
    return (
        KAutomine(small_random_graph, config, graph_name="rnd"),
        KGraphPi(small_random_graph, config, graph_name="rnd"),
    )


def test_triangle_count_both_systems(systems, small_random_graph):
    expected = count_embeddings_brute_force(small_random_graph, clique(3))
    for system in systems:
        report = triangle_count(system)
        assert report.counts == expected
        assert report.app == "TC"
        assert report.graph_name == "rnd"


def test_clique_count(systems, small_random_graph):
    expected = count_embeddings_brute_force(small_random_graph, clique(4))
    for system in systems:
        assert clique_count(system, 4).counts == expected


def test_oriented_clique_count_matches(systems, small_random_graph):
    expected = count_embeddings_brute_force(small_random_graph, clique(3))
    for system in systems:
        report = triangle_count(system, oriented=True)
        assert report.counts == expected


def test_oriented_reduces_traffic(systems):
    """Orientation halves adjacency and shrinks candidate sets."""
    system = systems[0]
    plain = triangle_count(system)
    oriented = triangle_count(system, oriented=True)
    assert oriented.network_bytes < plain.network_bytes


def test_query_surface_is_defined_once():
    """``GPMSystem`` owns the query surface; a system supplies hooks.
    The two overrides: Fractal is pattern-oblivious (all three), and
    Pangolin orients cliques by default (``count_pattern``)."""
    defined = {
        (node.name, item.name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in SURFACE
    }
    assert defined == {
        *((cls, method) for method in SURFACE
          for cls in ("GPMSystem", "FractalLike")),
        ("PangolinLike", "count_pattern"),
    }


def test_orientation_rejected_for_non_cliques(small_random_graph):
    """Every system refuses to orient an induced count or a non-clique
    with a ``ConfigurationError`` (Pangolin counts them unoriented
    instead), and those without the preprocessing refuse any
    orientation."""
    for flavour, build in SYSTEM_FLAVOURS.items():
        system = build(small_random_graph)
        refused = [(chain(3), False), (clique(3), True)]
        if flavour in ("g-thinker", "adfs", "fractal"):
            refused.append((clique(3), False))
        else:
            assert triangle_count(system, oriented=True).counts == \
                triangle_count(system).counts, flavour
        for pattern, induced in refused:
            if flavour == "pangolin":
                assert system.count_pattern(
                    pattern, induced, oriented=True).counts == \
                    system.count_pattern(pattern, induced).counts
                continue
            with pytest.raises(ConfigurationError) as refusal:
                system.count_pattern(pattern, induced, oriented=True)
            if flavour != "fractal":  # Fractal refuses with its own message
                assert str(refusal.value) == ORIENTATION_REFUSAL, flavour


def test_motif_count_matches_brute_force(systems, small_random_graph):
    per_pattern = {
        canonical_code(p): count_embeddings_brute_force(
            small_random_graph, p, induced=True
        )
        for p in motifs(3)
    }
    for system in systems:
        report = motif_count(system, 3)
        assert report.counts == per_pattern


def test_motif_counts_sum_rule(systems, small_random_graph):
    """Induced size-3 motif counts sum to C(n,3) connected triples."""
    report = motif_count(systems[0], 3)
    total = sum(report.counts.values())
    # triangles + wedges = all connected 3-vertex subsets
    tri = count_embeddings_brute_force(small_random_graph, clique(3))
    wedge = count_embeddings_brute_force(
        small_random_graph, chain(3), induced=True
    )
    assert total == tri + wedge


def test_systems_agree_with_each_other(systems):
    a, g = systems
    assert triangle_count(a).counts == triangle_count(g).counts
    assert motif_count(a, 3).counts == motif_count(g, 3).counts


def test_mni_supports(systems, small_random_graph):
    patterns = [Pattern(2, [(0, 1)])]
    for system in systems:
        supports, report = system.mni_supports(patterns)
        # unlabeled single edge: every non-isolated vertex is in the image
        non_isolated = sum(
            1 for v in small_random_graph.vertices()
            if small_random_graph.degree(v) > 0
        )
        assert supports == [non_isolated]
        assert report.simulated_seconds > 0


def test_engine_config_respected(small_random_graph):
    system = KAutomine(
        small_random_graph,
        ClusterConfig(num_machines=2),
        EngineConfig(vcs=False, hds=False),
    )
    assert system.engine.config.vcs is False
    report = triangle_count(system)
    assert report.counts == count_embeddings_brute_force(
        small_random_graph, clique(3)
    )


def test_system_names():
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(20, 40, seed=0)
    assert KAutomine(g).name == "k-automine"
    assert KGraphPi(g).name == "k-graphpi"


def test_oriented_engine_cached(systems):
    system = systems[0]
    engine1 = system._oriented_engine()
    engine2 = system._oriented_engine()
    assert engine1 is engine2
