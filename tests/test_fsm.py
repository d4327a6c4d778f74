"""Tests for frequent subgraph mining with MNI support."""

from itertools import product

import pytest

from repro.analysis.brute_force import count_embeddings_brute_force
from repro.baselines import FractalLike, SingleMachine
from repro.errors import ConfigurationError
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, random_labels
from repro.patterns import Pattern, catalog
from repro.patterns.canonical import canonical_code
from repro.systems import run_fsm
from repro.systems.fsm import _shrink_codes
from tests.reference import SYSTEM_FLAVOURS, mni_support_brute_force


def _labeled_triangle_graph():
    """Two labeled triangles sharing structure, plus a pendant edge.

    Vertices 0,1,2 labeled (0,0,1) form a triangle; vertices 3,4,5
    labeled (0,0,1) form another; vertex 6 (label 2) hangs off vertex 0.
    """
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 6)]
    labels = [0, 0, 1, 0, 0, 1, 2]
    return from_edges(edges, labels=labels)


def test_fsm_known_small_graph():
    g = _labeled_triangle_graph()
    result = run_fsm(SingleMachine(g), threshold=2)
    frequent_codes = {canonical_code(p): s for p, s in result.frequent}
    # the 0-0 edge appears in both triangles: MNI support 4
    edge_00 = canonical_code(Pattern(2, [(0, 1)], (0, 0)))
    assert frequent_codes[edge_00] == 4
    # the labeled triangle (0,0,1) appears twice: support 2
    tri = canonical_code(Pattern(3, [(0, 1), (0, 2), (1, 2)], (0, 0, 1)))
    assert frequent_codes[tri] == 2
    # the pendant (0,2) edge appears once: not frequent at threshold 2
    edge_02 = canonical_code(Pattern(2, [(0, 1)], (0, 2)))
    assert edge_02 not in frequent_codes


def test_fsm_threshold_monotonicity(labeled_graph):
    system = SingleMachine(labeled_graph)
    low = run_fsm(system, threshold=4)
    high = run_fsm(system, threshold=10)
    low_codes = {canonical_code(p) for p, _ in low.frequent}
    high_codes = {canonical_code(p) for p, _ in high.frequent}
    assert high_codes <= low_codes


def test_fsm_supports_anti_monotone(labeled_graph):
    """A pattern's support never exceeds any subpattern's support."""
    result = run_fsm(SingleMachine(labeled_graph), threshold=3)
    by_code = {canonical_code(p): s for p, s in result.frequent}
    all_supports = result.all_supports
    for pattern, support in result.frequent:
        if pattern.num_edges < 2:
            continue
        for sub_code in _shrink_codes(pattern):
            if sub_code in all_supports:
                assert all_supports[sub_code] >= support


def test_fsm_max_edges_respected(labeled_graph):
    result = run_fsm(SingleMachine(labeled_graph), threshold=3, max_edges=2)
    assert all(p.num_edges <= 2 for p, _ in result.frequent)


#: every connected shape with at most three edges
_SHAPES = [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)],
           [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 3)]]


@pytest.fixture(scope="module")
def mni_oracle(labeled_graph):
    """Canonical code -> brute-force MNI support of every labeled
    pattern with at most three edges over the graph's labels."""
    labels = sorted({int(x) for x in labeled_graph.labels})
    patterns = {}
    for edges in _SHAPES:
        n = 1 + max(v for edge in edges for v in edge)
        for labeling in product(labels, repeat=n):
            pattern = Pattern(n, edges, labeling)
            patterns.setdefault(canonical_code(pattern), pattern)
    return {code: mni_support_brute_force(labeled_graph, pattern)
            for code, pattern in patterns.items()}


def test_fsm_cross_system_agreement(labeled_graph, mni_oracle):
    """Every system's FSM equals the brute-force one: the frequent set
    with its supports, and the support of every evaluated candidate
    (Fractal also through its one-filter ``all_frequent``)."""
    threshold = 6
    expected = {(code, support) for code, support in mni_oracle.items()
                if support >= threshold}
    for flavour, build in SYSTEM_FLAVOURS.items():
        result = run_fsm(build(labeled_graph), threshold)
        assert result.all_supports == {
            code: mni_oracle[code] for code in result.all_supports}, flavour
        assert {(canonical_code(p), s)
                for p, s in result.frequent} == expected, flavour
    frequent = FractalLike(labeled_graph).all_frequent(threshold)
    assert {(canonical_code(p), s) for p, s in frequent} == expected


def test_unlabeled_pattern_supports_match_across_labels():
    """An unlabeled pattern on a labeled graph matches whatever the
    labels, on every system: supports and round counts equal the
    brute force over the graph's labels ignored. A system that read the
    all-label-0 labeling instead would report supports [14, 11] and
    counts [19, 42]."""
    graph = random_labels(erdos_renyi(50, 160, seed=11), 3, seed=2)
    patterns = [catalog.chain(2), catalog.chain(3)]
    supports = [mni_support_brute_force(graph, p) for p in patterns]
    counts = [count_embeddings_brute_force(graph, p) for p in patterns]
    assert (supports, counts) == ([50, 49], [160, 975])
    for flavour, build in SYSTEM_FLAVOURS.items():
        got, report = build(graph).mni_supports(patterns)
        assert (got, report.counts) == (supports, counts), flavour


def test_fsm_requires_labels(small_random_graph):
    with pytest.raises(ConfigurationError):
        run_fsm(SingleMachine(small_random_graph), threshold=3)


def test_fsm_report_aggregates(labeled_graph):
    result = run_fsm(SingleMachine(labeled_graph), threshold=6)
    assert result.report.simulated_seconds > 0
    assert result.report.counts == len(result.frequent)
    assert result.rounds >= 1
    assert result.candidates_evaluated >= len(result.frequent)


def test_fsm_impossible_threshold(labeled_graph):
    result = run_fsm(SingleMachine(labeled_graph), threshold=10**9)
    assert result.frequent == []
    assert result.rounds == 1  # nothing frequent: no growth rounds


def test_shrink_codes_drop_isolated_vertex():
    # removing the pendant edge of a tailed triangle must drop vertex 3
    p = Pattern(4, [(0, 1), (0, 2), (1, 2), (2, 3)], (0, 0, 0, 1))
    codes = _shrink_codes(p)
    triangle = canonical_code(Pattern(3, [(0, 1), (0, 2), (1, 2)], (0, 0, 0)))
    assert triangle in codes


def test_shrink_codes_keep_connected_only():
    # removing the middle edge of a path disconnects it: not a candidate
    p = Pattern(4, [(0, 1), (1, 2), (2, 3)], (0, 0, 0, 0))
    codes = _shrink_codes(p)
    assert len(codes) == 2  # only the two end-edge removals survive
