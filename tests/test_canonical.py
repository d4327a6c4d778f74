"""Tests for canonical pattern codes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import Pattern, canonical_code, chain, clique, cycle, star
from repro.patterns.generation import connected_patterns
from repro.patterns.isomorphism import are_isomorphic
from tests.reference import canonical_form


def test_isomorphic_patterns_same_code():
    p = cycle(4)
    q = p.relabel([3, 0, 2, 1])
    assert canonical_code(p) == canonical_code(q)


def test_distinct_patterns_distinct_codes():
    codes = {canonical_code(p) for p in connected_patterns(4)}
    assert len(codes) == 6  # 6 connected 4-vertex graphs


def test_labels_enter_the_code():
    a = Pattern(2, [(0, 1)], labels=(1, 2))
    b = Pattern(2, [(0, 1)], labels=(2, 1))
    c = Pattern(2, [(0, 1)], labels=(1, 1))
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(a) != canonical_code(c)


def test_canonical_form_is_isomorphic():
    for pattern in (clique(4), chain(4), star(3), cycle(5)):
        assert are_isomorphic(pattern, canonical_form(pattern))


def test_canonical_form_is_fixed_point():
    for pattern in (clique(3), cycle(4), star(3)):
        form = canonical_form(pattern)
        assert canonical_code(form) == canonical_code(pattern)


def test_labeled_canonical_form_keeps_labels():
    p = Pattern(3, [(0, 1), (1, 2)], labels=(5, 1, 5))
    form = canonical_form(p)
    assert form.labels is not None
    assert sorted(form.labels) == [1, 5, 5]
    assert are_isomorphic(p, form)


@st.composite
def _small_pattern_and_permutation(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # always include a spanning path so the pattern is connected
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=6))
    labels = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=n, max_size=n
            ),
        )
    )
    pattern = Pattern(n, edges + extra, labels)
    perm = draw(st.permutations(list(range(n))))
    return pattern, list(perm)


@given(_small_pattern_and_permutation())
@settings(max_examples=150, deadline=None)
def test_code_invariant_under_relabeling(case):
    """Property: canonical codes are permutation invariant."""
    pattern, perm = case
    assert canonical_code(pattern) == canonical_code(pattern.relabel(perm))


@given(_small_pattern_and_permutation())
@settings(max_examples=60, deadline=None)
def test_equal_codes_imply_isomorphism(case):
    pattern, perm = case
    relabeled = pattern.relabel(perm)
    assert are_isomorphic(pattern, relabeled)
