"""Tests for the EXTEND interface and the candidate kernel."""

import numpy as np
import pytest

from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph import from_edges
from repro.patterns import chain, clique, cycle
from repro.patterns.schedule import automine_schedule, compile_schedule
from tests.reference import ScheduleExtender, compute_candidates


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 160, seed=2)


def _naive_candidates(graph, step, vertices):
    """Reference implementation with plain Python sets."""
    base = None
    for position in step.connected:
        nbrs = set(int(x) for x in graph.neighbors(vertices[position]))
        base = nbrs if base is None else base & nbrs
    assert base is not None
    for position in step.disconnected:
        base -= set(int(x) for x in graph.neighbors(vertices[position]))
    base -= set(vertices)
    for position in step.larger_than:
        base = {v for v in base if v > vertices[position]}
    for position in step.smaller_than:
        base = {v for v in base if v < vertices[position]}
    return sorted(base)


def _check_all_levels(graph, schedule):
    """Drive the schedule level by level, comparing with the naive set."""
    extender = ScheduleExtender(schedule)

    def recurse(vertices, level, intermediates):
        if level > extender.final_level:
            return
        step = extender.step_for(level)
        result = compute_candidates(
            graph,
            step,
            vertices,
            intermediates.get(step.reuse_level),
            vcs=True,
        )
        naive = _naive_candidates(graph, step, vertices)
        assert sorted(int(x) for x in result.candidates) == naive
        if result.raw is not None:
            intermediates = dict(intermediates)
            intermediates[level] = result.raw
        for v in result.candidates[:5]:  # bounded fan-out for test speed
            recurse(vertices + (int(v),), level + 1, intermediates)

    for root in range(0, graph.num_vertices, 7):
        recurse((root,), 1, {})


@pytest.mark.parametrize(
    "pattern", [clique(3), clique(4), chain(4), cycle(4)],
    ids=["tri", "4cc", "chain4", "cyc4"],
)
def test_candidates_match_naive_sets(graph, pattern):
    _check_all_levels(graph, automine_schedule(pattern))


def test_induced_candidates_match_naive(graph):
    _check_all_levels(graph, automine_schedule(cycle(4), induced=True))


def test_vcs_and_no_vcs_agree(graph):
    """Reusing the stored intersection must not change candidates."""
    schedule = automine_schedule(clique(4))
    extender = ScheduleExtender(schedule)
    step2, step3 = extender.step_for(2), extender.step_for(3)
    for root in range(0, 40, 5):
        n_root = graph.neighbors(root)
        for v1 in n_root[:3]:
            vertices = (root, int(v1))
            with_raw = compute_candidates(graph, step2, vertices, None, True)
            if with_raw.raw is None or not len(with_raw.candidates):
                continue
            v2 = int(with_raw.candidates[0])
            tri = vertices + (v2,)
            reused = compute_candidates(graph, step3, tri, with_raw.raw, True)
            fresh = compute_candidates(graph, step3, tri, None, False)
            assert np.array_equal(reused.candidates, fresh.candidates)
            # reuse must stream fewer elements through merges
            assert reused.merge_elements <= fresh.merge_elements


def test_label_filtering():
    g = from_edges([(0, 1), (0, 2), (0, 3)], labels=[9, 1, 2, 1])
    from repro.patterns import Pattern

    pattern = Pattern(2, [(0, 1)], labels=(9, 1))
    schedule = automine_schedule(pattern)
    extender = ScheduleExtender(schedule)
    step = extender.step_for(1)
    result = compute_candidates(g, step, (0,), None, True)
    assert sorted(int(x) for x in result.candidates) == [1, 3]


def test_used_vertices_excluded():
    g = complete_graph(4)
    schedule = compile_schedule(chain(3), (0, 1, 2), use_restrictions=False)
    step = schedule.steps[1]
    result = compute_candidates(g, step, (0, 1), None, True)
    assert 0 not in result.candidates
    assert 1 not in result.candidates


def test_merge_elements_counts_streaming(graph):
    schedule = automine_schedule(clique(3))
    extender = ScheduleExtender(schedule)
    step = extender.step_for(2)
    root = int(np.argmax(graph.degrees()))
    v1 = int(graph.neighbors(root)[0])
    result = compute_candidates(graph, step, (root, v1), None, True)
    expected = len(graph.neighbors(root)) + len(graph.neighbors(v1))
    assert result.merge_elements == expected


def test_extender_accessors():
    schedule = automine_schedule(clique(4))
    extender = ScheduleExtender(schedule)
    assert extender.num_levels == 3
    assert extender.final_level == 3
    assert extender.step_for(1).level == 1
    assert extender.needs_edge_list(0) == schedule.needs_edge_list(0)


def test_empty_candidates_are_empty_array():
    g = from_edges([(0, 1)], num_vertices=3)
    schedule = automine_schedule(clique(3))
    step = schedule.steps[1]
    result = compute_candidates(g, step, (0, 1), None, True)
    assert len(result.candidates) == 0
    assert isinstance(result.candidates, np.ndarray)
