"""Tests for symmetry-breaking restrictions.

The central property: enumerating with restrictions yields exactly
(unrestricted ordered assignments) / |Aut| embeddings — each embedding
counted once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import count_embeddings_brute_force
from repro.graph.generators import erdos_renyi
from repro.patterns import (
    automorphisms,
    chain,
    clique,
    cycle,
    star,
    symmetry_restrictions,
    tailed_triangle,
)
from repro.patterns.schedule import automine_schedule
from tests.reference import (
    ExploreStats,
    RecursiveExplorer,
    ScheduleExtender,
    satisfies_restrictions,
)


def _count(graph, pattern, use_restrictions):
    schedule = automine_schedule(pattern, use_restrictions=use_restrictions)
    explorer = RecursiveExplorer(graph, ScheduleExtender(schedule))
    stats = ExploreStats()
    for root in graph.vertices():
        explorer.explore_root(root, stats)
    return stats.matches


@pytest.mark.parametrize(
    "pattern",
    [clique(3), clique(4), chain(3), chain(4), cycle(4), star(3),
     tailed_triangle()],
    ids=lambda p: f"{p.num_vertices}v{p.num_edges}e",
)
def test_restriction_factor_equals_automorphism_count(pattern):
    graph = erdos_renyi(40, 150, seed=8)
    restricted = _count(graph, pattern, True)
    unrestricted = _count(graph, pattern, False)
    assert unrestricted == restricted * len(automorphisms(pattern))


def test_restricted_count_matches_brute_force(small_random_graph):
    for pattern in (clique(3), chain(4), cycle(4)):
        expected = count_embeddings_brute_force(small_random_graph, pattern)
        assert _count(small_random_graph, pattern, True) == expected


def test_asymmetric_pattern_has_no_restrictions():
    assert symmetry_restrictions(tailed_triangle()) != ()
    # a genuinely asymmetric pattern: path with a distinguishing branch
    from repro.patterns import Pattern

    asym = Pattern(5, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 3), (0, 4)])
    if len(automorphisms(asym)) == 1:
        assert symmetry_restrictions(asym) == ()


def test_clique_restrictions_form_total_order():
    restrictions = symmetry_restrictions(clique(4))
    # a 4-clique needs its 4 vertices totally ordered: 3 chained pairs
    # (or more); every vertex pair must be comparable transitively
    assert len(restrictions) >= 3


def test_satisfies_restrictions():
    r = ((0, 1), (1, 2))
    assert satisfies_restrictions((1, 5, 9), r)
    assert not satisfies_restrictions((5, 1, 9), r)
    assert satisfies_restrictions((0,), ())


def test_restriction_pairs_reference_pattern_vertices():
    for pattern in (clique(5), cycle(6), star(4)):
        for a, b in symmetry_restrictions(pattern):
            assert 0 <= a < pattern.num_vertices
            assert 0 <= b < pattern.num_vertices
            assert a != b


def test_exactly_one_representative_per_orbit():
    """For each automorphism orbit of assignments, exactly one survives."""
    pattern = cycle(4)
    restrictions = symmetry_restrictions(pattern)
    autos = automorphisms(pattern)
    assignment = (3, 7, 11, 15)  # distinct data vertices
    survivors = 0
    for sigma in autos:
        permuted = tuple(assignment[sigma[v]] for v in range(4))
        if satisfies_restrictions(permuted, restrictions):
            survivors += 1
    assert survivors == 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_restriction_factor_on_random_graphs(seed):
    graph = erdos_renyi(25, 70, seed=seed)
    pattern = clique(3)
    restricted = _count(graph, pattern, True)
    unrestricted = _count(graph, pattern, False)
    assert unrestricted == 6 * restricted
