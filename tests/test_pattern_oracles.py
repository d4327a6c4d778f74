"""Differential oracles for the pattern algebra on bitmasks.

``Pattern`` answers ``has_edge`` / ``edge_label`` from per-vertex masks
and a ready mapping, ``canonical_code`` ranks permutations by one
integer over cached tables, and ``_connected_orders`` walks the masks
depth first. The bodies they replaced live on here as the references:
on random patterns of up to six vertices, with and without vertex and
edge labels, old and new must give equal answers.
"""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import Pattern, automorphisms, canonical_code
from repro.patterns.schedule import _connected_orders


@st.composite
def random_patterns(draw, connected=False):
    n = draw(st.integers(min_value=1, max_value=6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(possible), max_size=15))
                if possible else ())
    if connected:
        edges.update((i, i + 1) for i in range(n - 1))
    labels = draw(st.one_of(st.none(), st.lists(
        st.integers(min_value=0, max_value=2), min_size=n, max_size=n)))
    edge_labels = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {edge: st.integers(min_value=0, max_value=2) for edge in edges})))
    pattern = Pattern(n, edges, labels, edge_labels)
    return pattern.relabel(draw(st.permutations(range(n))))


# ----------------------------------------------------------------------
# the references
# ----------------------------------------------------------------------
def _edge_label(pattern, u, v):
    """``edge_label`` as it was: a fresh dict of the frozenset."""
    return dict(pattern.edge_labels or ()).get((min(u, v), max(u, v)), 0)


def _scan_canonical_code(pattern):
    """``canonical_code`` as it was: build and compare every encoding."""
    n = pattern.num_vertices
    best = None
    for perm in permutations(range(n)):
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        code = (
            tuple(pattern.label(inverse[new]) for new in range(n)),
            tuple(sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]),
                 _edge_label(pattern, u, v))
                for u, v in pattern.edges
            )),
        )
        if best is None or code < best:
            best = code
    return best


def _scan_automorphisms(pattern):
    """Every vertex permutation that keeps edges, labels and edge labels."""
    return {
        perm for perm in permutations(range(pattern.num_vertices))
        if all(pattern.label(v) == pattern.label(perm[v])
               for v in range(pattern.num_vertices))
        and all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in pattern.edges
            and _edge_label(pattern, u, v)
            == _edge_label(pattern, perm[u], perm[v])
            for u, v in pattern.edges
        )
    }


def _scan_connected_orders(pattern):
    """``_connected_orders`` as it was: filter every permutation."""
    n = pattern.num_vertices
    return [
        perm for perm in permutations(range(n))
        if all(
            any((min(perm[i], perm[j]), max(perm[i], perm[j])) in pattern.edges
                for j in range(i))
            for i in range(1, n)
        )
    ]


# ----------------------------------------------------------------------
@given(random_patterns())
@settings(max_examples=150, deadline=None)
def test_canonical_code_equals_the_permutation_scan(pattern):
    assert canonical_code(pattern) == _scan_canonical_code(pattern)


@given(random_patterns())
@settings(max_examples=150, deadline=None)
def test_automorphism_group_equals_the_permutation_scan(pattern):
    group = automorphisms(pattern)
    assert isinstance(group, tuple)
    assert len(set(group)) == len(group)
    assert set(group) == _scan_automorphisms(pattern)


@given(random_patterns())
@settings(max_examples=150, deadline=None)
def test_mask_accessors_equal_the_frozenset_answers(pattern):
    n = pattern.num_vertices
    for u in range(n):
        around = {v for v in range(n)
                  if (min(u, v), max(u, v)) in pattern.edges}
        assert pattern.neighbors(u) == around
        assert pattern.degree(u) == len(around)
        assert pattern.masks[u] == sum(1 << v for v in around)
        for v in range(n):
            assert pattern.has_edge(u, v) is (v in around)
            if v in around:
                assert pattern.edge_label(u, v) == _edge_label(pattern, u, v)


@given(random_patterns(connected=True))
@settings(max_examples=100, deadline=None)
def test_connected_orders_equal_the_permutation_filter(pattern):
    orders = list(_connected_orders(pattern))
    assert orders == sorted(orders)  # lexicographic, as the filter was
    assert orders == _scan_connected_orders(pattern)


def test_disconnected_pattern_has_no_connected_order():
    assert list(_connected_orders(Pattern(4, [(0, 1), (2, 3)]))) == []


def test_edge_label_is_one_lookup(count_calls):
    """The label mapping is built once, at construction: answering for
    an edge-labeled pattern makes the calls answering for an unlabeled
    one does (it rebuilt ``dict(self.edge_labels)`` per call)."""
    plain = Pattern(3, [(0, 1), (1, 2)])
    labeled = plain.with_edge_labels({(0, 1): 4, (1, 2): 9})
    assert (plain.edge_label(2, 1), labeled.edge_label(2, 1)) == (0, 9)
    assert count_calls(labeled.edge_label, 1, 0) == count_calls(
        plain.edge_label, 1, 0)
