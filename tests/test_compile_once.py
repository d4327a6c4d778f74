"""Compile once: the pattern compilers are memoized pure functions.

Call-count tripwires (no stopwatch) that a query whose compile keys
were asked before in this process compiles nothing, that a cold one
builds objects for the winning order only, and that the memo keys are
complete — everything a compiler reads is in its arguments
(docs/performance.md, "Compilation").
"""

import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.plan import group_patterns
from repro.graph.generators import erdos_renyi
from repro.patterns import Pattern, catalog
from repro.patterns.canonical import canonical_code
from repro.patterns.isomorphism import automorphisms
from repro.patterns.schedule import (
    _iep_terms,
    automine_schedule,
    compile_counting_plan,
    graphpi_schedule,
)
from repro.patterns.symmetry import stabilizer_chain, symmetry_restrictions
from repro.systems import apps
from repro.systems.graphpi import KGraphPi

#: every memo on the compile path
MEMOS = (
    graphpi_schedule, automine_schedule, compile_counting_plan, _iep_terms,
    canonical_code, automorphisms, stabilizer_chain, symmetry_restrictions,
    apps._spanning_copies, group_patterns,
)
#: what a compile is made of
COMPILERS = {"compile_schedule", "_score_order", "_order_cost",
             "find_isomorphisms"}


@pytest.fixture
def graph():
    return erdos_renyi(24, 60, seed=5)


def _census(graph, counting="iep"):
    system = KGraphPi(graph, ClusterConfig(num_machines=2),
                      EngineConfig(counting=counting))
    return apps.motif_count(system, 5)


def test_every_memo_is_bounded():
    for memo in MEMOS:
        assert memo.cache_info().maxsize, memo.__name__


def test_second_census_compiles_nothing(graph, count_calls):
    """A fresh system object, the same compile keys: every schedule,
    counting plan and canonical code is a memo hit."""
    warm = _census(graph)
    before = compile_counting_plan.cache_info()
    reports = []
    assert count_calls(lambda: reports.append(_census(graph)),
                       only=COMPILERS) == 0
    after = compile_counting_plan.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (21, 0)
    assert reports[0].counts == warm.counts
    assert list(reports[0].counts) == [
        canonical_code(p) for p in catalog.motifs(5)]


def test_cold_census_builds_objects_for_winners_only(graph, count_calls):
    """With every memo empty the search still compiles one schedule per
    pattern (plus its counting plan's prefix schedule) — not one per
    candidate order (1 837 ``compile_schedule`` calls and 1 330
    counting-plan misses before the scorer)."""
    for memo in MEMOS:
        memo.cache_clear()
    assert count_calls(lambda: _census(graph),
                       only={"compile_schedule", "_order_cost"}) <= 2 * 21
    assert compile_counting_plan.cache_info().misses <= 21


def test_reconfigured_system_gets_the_schedule_of_its_config(graph):
    """The counting strategy is in the key: a resident system switched
    ``enumerate -> iep -> enumerate`` is never handed the other
    strategy's order, and gets its first schedule back as the same
    object."""
    system = KGraphPi(graph, ClusterConfig(num_machines=2), EngineConfig())
    pattern = catalog.chain(4)
    first = system.build_schedule(pattern, False)
    system.reconfigure(EngineConfig(counting="iep"))
    middle = system.build_schedule(pattern, False)
    assert middle.order != first.order
    assert compile_counting_plan(middle) is not None
    system.reconfigure(EngineConfig())
    assert system.build_schedule(pattern, False) is first


def test_graph_statistics_are_in_the_key(graph):
    denser = erdos_renyi(24, 120, seed=5)
    pattern = catalog.house()
    graphpi_schedule.cache_clear()
    before = graphpi_schedule.cache_info().currsize
    for g in (graph, denser, graph, denser):
        KGraphPi(g, ClusterConfig(num_machines=2)).build_schedule(
            pattern, False)
    assert graphpi_schedule.cache_info().currsize == before + 2


@pytest.mark.parametrize("compiler", [graphpi_schedule, automine_schedule])
def test_equal_patterns_share_an_entry(compiler):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    one, other = Pattern(4, edges), Pattern(4, reversed(edges))
    assert one is not other and one == other
    assert compiler(one) is compiler(other)
    assert automorphisms(one) is automorphisms(other)
