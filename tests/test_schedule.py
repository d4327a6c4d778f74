"""Tests for extension-schedule compilation and matching orders."""

from itertools import product

import pytest

from repro.errors import ScheduleError
from repro.patterns import (
    Pattern,
    automine_schedule,
    chain,
    clique,
    cycle,
    graphpi_schedule,
    star,
)
from repro.patterns.generation import connected_patterns
from repro.patterns.schedule import (
    _connected_orders,
    _order_cost,
    _score_order,
    compile_schedule,
)


def test_connected_prefix_enforced():
    # chain 0-1-2: order (0, 2, 1) places 2 before any neighbor
    with pytest.raises(ScheduleError):
        compile_schedule(chain(3), (0, 2, 1))


def test_order_must_be_permutation():
    with pytest.raises(ScheduleError):
        compile_schedule(chain(3), (0, 1, 1))


def test_disconnected_pattern_rejected():
    with pytest.raises(ScheduleError):
        compile_schedule(Pattern(3, [(0, 1)]), (0, 1, 2))


def test_clique_steps_intersect_all_priors():
    schedule = automine_schedule(clique(4))
    for step in schedule.steps:
        assert step.connected == tuple(range(step.level))


def test_chain_steps_intersect_only_previous():
    schedule = compile_schedule(chain(4), (0, 1, 2, 3))
    for step in schedule.steps:
        assert step.connected == (step.level - 1,)


def test_active_sets_anti_monotone():
    """Once a position goes inactive it never becomes active again."""
    for pattern in (clique(5), cycle(5), star(4), chain(5)):
        schedule = automine_schedule(pattern)
        previous = None
        for step in reversed(schedule.steps):
            active = set(step.active_after)
            if previous is not None:
                # positions active later must be active earlier (among
                # positions that already exist at this step)
                later_restricted = {p for p in previous if p <= step.level}
                assert later_restricted <= active | {step.level + 1} - {step.level + 1} or later_restricted <= active
            previous = active


def test_active_after_matches_future_use():
    schedule = automine_schedule(clique(4))
    # after level 2 of a 4-clique, the final step intersects 0, 1, 2
    assert schedule.steps[1].active_after == (0, 1, 2)
    # after the last step nothing stays active
    assert schedule.steps[-1].active_after == ()


def test_needs_edge_list():
    schedule = compile_schedule(chain(4), (0, 1, 2, 3))
    assert schedule.needs_edge_list(0) is False or schedule.root_active()
    # the last chain position is never intersected
    assert not schedule.needs_edge_list(3)
    # middle positions are intersected by their successor
    assert schedule.needs_edge_list(1)
    assert schedule.needs_edge_list(2)


def test_root_active_for_clique_not_for_chain_tail():
    assert automine_schedule(clique(3)).root_active()
    schedule = compile_schedule(chain(3), (0, 1, 2))
    # chain: level-2 intersects only position 1, so root inactive after
    assert not schedule.needs_edge_list(0) or schedule.root_active()


def test_vcs_reuse_on_cliques():
    """k-clique schedules reuse the previous level's intersection."""
    schedule = automine_schedule(clique(5))
    # steps 3 and 4 (placing positions 3, 4) must reuse earlier results
    assert schedule.steps[2].reuse_level is not None
    assert schedule.steps[3].reuse_level is not None
    # the reused result is extended by exactly one extra list
    assert len(schedule.steps[2].extra_connected) == 1


def test_vcs_store_flags_match_reuse():
    schedule = automine_schedule(clique(5))
    reused = {s.reuse_level for s in schedule.steps if s.reuse_level}
    stored = {s.level for s in schedule.steps if s.store_intermediate}
    assert reused == stored


def test_no_reuse_on_chains():
    schedule = compile_schedule(chain(5), (0, 1, 2, 3, 4))
    assert all(s.reuse_level is None for s in schedule.steps)
    assert all(not s.store_intermediate for s in schedule.steps)


def test_reuse_connected_subset_invariant():
    for pattern in (clique(5), cycle(5), star(4)):
        schedule = automine_schedule(pattern)
        for step in schedule.steps:
            if step.reuse_level is not None:
                source = schedule.steps[step.reuse_level - 1]
                assert set(source.connected) <= set(step.connected)
                assert set(step.extra_connected) == set(step.connected) - set(
                    source.connected
                )


def test_induced_mode_adds_disconnected_sets():
    induced = automine_schedule(chain(3), induced=True)
    plain = automine_schedule(chain(3), induced=False)
    assert any(s.disconnected for s in induced.steps)
    assert all(not s.disconnected for s in plain.steps)


def test_restrictions_mapped_to_levels():
    schedule = automine_schedule(clique(3))
    constrained = [
        s for s in schedule.steps if s.larger_than or s.smaller_than
    ]
    # a triangle has |Aut| = 6; both extension levels carry constraints
    assert len(constrained) == 2


def test_use_restrictions_false_drops_them():
    schedule = automine_schedule(clique(4), use_restrictions=False)
    assert schedule.restrictions == ()
    assert all(
        not s.larger_than and not s.smaller_than for s in schedule.steps
    )


def test_labels_propagate_to_steps():
    pattern = Pattern(3, [(0, 1), (1, 2)], labels=(7, 8, 9))
    schedule = automine_schedule(pattern)
    assert schedule.root_label() in (7, 8, 9)
    step_labels = {schedule.root_label()} | {s.label for s in schedule.steps}
    assert step_labels == {7, 8, 9}


def test_single_vertex_pattern():
    schedule = automine_schedule(Pattern(1, []))
    assert schedule.num_levels == 0
    assert schedule.order == (0,)


def test_automine_starts_at_max_degree():
    schedule = automine_schedule(star(3))
    assert schedule.order[0] == 0  # the hub


def test_graphpi_order_never_costlier_than_automine():
    for pattern in (chain(4), cycle(4), star(3), clique(4)):
        best = graphpi_schedule(pattern, avg_degree=10, num_vertices=1000)
        greedy = automine_schedule(pattern)
        assert _order_cost(pattern, best.order, 10, 1000) <= _order_cost(
            pattern, greedy.order, 10, 1000
        )


def test_graphpi_and_automine_agree_on_cliques():
    # cliques are fully symmetric: any connected order is equivalent
    a = automine_schedule(clique(4))
    g = graphpi_schedule(clique(4))
    assert [s.connected for s in a.steps] == [s.connected for s in g.steps]


def test_num_levels():
    assert automine_schedule(clique(4)).num_levels == 3
    assert automine_schedule(chain(2)).num_levels == 1


# ----------------------------------------------------------------------
# the order search scores orders without compiling them: _order_cost
# (compile the schedule and its counting plan, price the objects) is
# the reference, and the search it used to drive is the oracle
# ----------------------------------------------------------------------
#: induced, use_restrictions, counting
FLAGS = list(product((False, True), (True, False), ("enumerate", "iep")))
#: (avg_degree, num_vertices): a dense 40-vertex sample, the defaults,
#: a sparse web graph
REGIMES = ((20.8, 40.0), (16.0, 1.0e4), (3.2, 14000.0))


def _search_by_order_cost(pattern, induced, degree, vertices,
                          use_restrictions, counting):
    """``graphpi_schedule``'s search as it was: one full compile per
    candidate, cheapest wins, ties to the lexicographically smallest."""
    best_order, best_cost = None, float("inf")
    for order in _connected_orders(pattern):
        cost = _order_cost(pattern, order, degree, vertices, induced,
                           use_restrictions, counting)
        if cost < best_cost or (cost == best_cost and order < best_order):
            best_cost, best_order = cost, order
    return best_order


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_score_order_is_order_cost_bit_for_bit(k):
    """Same float expressions in the same summation order: ``==``, not
    ``isclose`` — a last-bit difference could flip a tie."""
    degree, vertices = REGIMES[0]
    for pattern in connected_patterns(k):
        for order in _connected_orders(pattern):
            for induced, restricted, counting in FLAGS:
                assert _score_order(
                    pattern, order, degree, vertices, induced, restricted,
                    counting,
                ) == _order_cost(
                    pattern, order, degree, vertices, induced, restricted,
                    counting,
                ), (pattern, order, induced, restricted, counting)


@pytest.mark.parametrize("regime", REGIMES)
def test_search_picks_what_the_order_cost_search_picked(regime):
    degree, vertices = regime
    labeled = [
        cycle(4).with_labels((0, 1, 0, 1)),
        Pattern(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).with_edge_labels(
            {(0, 1): 0, (0, 2): 4, (1, 2): 4, (2, 3): 7}),
    ]
    for pattern in connected_patterns(4) + connected_patterns(5) + labeled:
        for induced, restricted, counting in FLAGS:
            assert graphpi_schedule(
                pattern, induced, degree, vertices, restricted, counting
            ).order == _search_by_order_cost(
                pattern, induced, degree, vertices, restricted, counting)


def test_search_cost_is_not_orbit_invariant():
    """Restrictions are fixed on vertex ids, so two orders that are
    images of one another under an automorphism need not cost the same:
    pruning candidates by orbit would move the winner."""
    pattern = cycle(4)  # restrictions (0,1) (0,2) (0,3) (1,3)
    assert (1, 2, 3, 0) == tuple((v + 1) % 4 for v in (0, 1, 2, 3))
    assert _score_order(pattern, (0, 1, 2, 3), 16.0, 1.0e4) != _score_order(
        pattern, (1, 2, 3, 0), 16.0, 1.0e4)
