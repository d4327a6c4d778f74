"""Tests for exhaustive pattern generation."""

from itertools import combinations

import pytest

from repro.errors import PatternError
from repro.patterns import Pattern, connected_patterns
from repro.patterns.canonical import canonical_code
from repro.patterns.generation import grow_pattern, single_edge_patterns


@pytest.mark.parametrize(
    "k,expected", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_connected_pattern_counts(k, expected):
    """Known sequence: connected graphs on k vertices up to isomorphism
    (one canonical code per edge subset took k = 6 three minutes)."""
    assert len(connected_patterns(k)) == expected


def _connected_patterns_per_mask(k):
    """``connected_patterns`` as it was: every connected edge subset of
    K_k keyed by its canonical code, first subset of a class kept."""
    all_edges = list(combinations(range(k), 2))
    seen = {}
    for mask in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        if len(edges) < k - 1:
            continue
        pattern = Pattern(k, edges)
        if pattern.is_connected():
            seen.setdefault(canonical_code(pattern), pattern)
    return list(seen.values())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_orbit_marking_finds_the_per_mask_representatives(k):
    """Same representatives, same order: motif indices, census keys and
    every ``motifs(k)``-derived golden depend on both."""
    assert connected_patterns(k) == _connected_patterns_per_mask(k)


def test_patterns_are_connected_and_distinct():
    patterns = connected_patterns(4)
    codes = {canonical_code(p) for p in patterns}
    assert len(codes) == len(patterns)
    assert all(p.is_connected() for p in patterns)


def test_motif_set_contains_extremes():
    patterns = connected_patterns(4)
    edge_counts = sorted(p.num_edges for p in patterns)
    assert edge_counts[0] == 3  # trees
    assert edge_counts[-1] == 6  # the 4-clique


def test_generation_cached():
    assert connected_patterns(4) is connected_patterns(4)


def test_invalid_size():
    with pytest.raises(PatternError):
        connected_patterns(0)


def test_single_edge_patterns_count():
    # unordered label pairs with repetition: C(3,2)+3 = 6
    seeds = single_edge_patterns({0, 1, 2})
    assert len(seeds) == 6
    assert all(p.num_edges == 1 and p.labels is not None for p in seeds)


def test_single_edge_patterns_canonical_labels():
    seeds = single_edge_patterns({2, 5})
    label_pairs = {p.labels for p in seeds}
    assert label_pairs == {(2, 2), (2, 5), (5, 5)}


def test_grow_pattern_adds_one_edge():
    seed = Pattern(2, [(0, 1)], labels=(0, 1))
    grown = grow_pattern(seed, {0, 1})
    assert all(p.num_edges == 2 for p in grown)
    assert all(p.is_connected() for p in grown)


def test_grow_pattern_dedups_isomorphic():
    seed = Pattern(2, [(0, 1)], labels=(0, 0))
    grown = grow_pattern(seed, {0})
    codes = [canonical_code(p) for p in grown]
    assert len(codes) == len(set(codes))
    # attaching a 0-labeled vertex to either endpoint is the same pattern
    assert len(grown) == 1


def test_grow_pattern_closes_triangles():
    wedge = Pattern(3, [(0, 1), (1, 2)], labels=(0, 0, 0))
    grown = grow_pattern(wedge, {0})
    shapes = {frozenset(p.edges) for p in grown}
    assert frozenset({(0, 1), (1, 2), (0, 2)}) in shapes
