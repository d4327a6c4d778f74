"""Tests for the baseline systems: correctness and failure modes."""

import pytest

from repro.baselines import (
    GraphPiReplicated,
    GThinker,
    MovingComputation,
    PangolinLike,
    SingleMachine,
)
from repro.baselines.single_machine import peregrine_like
from repro.cluster import ClusterConfig
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.generators import erdos_renyi, power_law_graph
from repro.patterns import chain, clique, cycle
from repro.patterns.schedule import automine_schedule
from repro.systems import KAutomine, triangle_count
from tests.reference import ExploreStats, RecursiveExplorer, ScheduleExtender


ALL_BASELINES = [
    lambda g: SingleMachine(g),
    lambda g: peregrine_like(g),
    lambda g: PangolinLike(g),
    lambda g: GraphPiReplicated(g, num_machines=4),
    lambda g: GThinker(g, num_machines=4),
    lambda g: MovingComputation(g, num_machines=4),
]
BASELINE_IDS = ["automine-ih", "peregrine", "pangolin", "graphpi", "gthinker",
                "adfs"]


@pytest.mark.parametrize("factory", ALL_BASELINES, ids=BASELINE_IDS)
@pytest.mark.parametrize(
    "pattern", [clique(3), clique(4), chain(4)], ids=["tri", "4cc", "chain4"]
)
def test_baseline_counts_match_brute_force(
    factory, pattern, small_random_graph, brute_force
):
    expected = brute_force(small_random_graph, pattern)
    system = factory(small_random_graph)
    report = system.count_pattern(pattern)
    assert report.counts == expected


@pytest.mark.parametrize("factory", ALL_BASELINES, ids=BASELINE_IDS)
def test_baseline_induced_motifs(factory, small_random_graph, brute_force):
    system = factory(small_random_graph)
    expected = brute_force(
        small_random_graph, cycle(4), induced=True
    )
    report = system.count_patterns([cycle(4)], induced=True)
    assert report.counts == [expected]


@pytest.mark.parametrize("factory", ALL_BASELINES, ids=BASELINE_IDS)
def test_baseline_reports_positive_time(factory, small_random_graph):
    system = factory(small_random_graph)
    report = system.count_pattern(clique(3))
    assert report.simulated_seconds > 0
    assert report.system == system.name


# ----------------------------------------------------------------------
# recursive explorer
# ----------------------------------------------------------------------
def test_explorer_level_widths(small_random_graph):
    schedule = automine_schedule(clique(3))
    explorer = RecursiveExplorer(
        small_random_graph, ScheduleExtender(schedule)
    )
    stats = ExploreStats()
    for root in small_random_graph.vertices():
        explorer.explore_root(root, stats)
    assert stats.level_widths[2] == stats.matches
    assert stats.created == stats.level_widths[1]


# ----------------------------------------------------------------------
# failure modes (the paper's CRASHED / OUTOFMEM cells)
# ----------------------------------------------------------------------
def test_replicated_oom_when_graph_exceeds_memory(small_random_graph):
    with pytest.raises(OutOfMemoryError):
        GraphPiReplicated(small_random_graph, memory_bytes=128)


def test_single_machine_oom(small_random_graph):
    with pytest.raises(OutOfMemoryError):
        SingleMachine(small_random_graph, memory_bytes=128)


def test_gthinker_crashes_on_skewed_graph_with_tight_memory():
    graph = power_law_graph(300, 2500, exponent=1.9, seed=3)
    system = GThinker(
        graph, num_machines=4, memory_bytes=int(graph.size_bytes() * 1.2)
    )
    with pytest.raises(OutOfMemoryError):
        system.count_pattern(clique(4))


def test_gthinker_survives_with_ample_memory(brute_force):
    graph = power_law_graph(300, 2500, exponent=1.9, seed=3)
    system = GThinker(
        graph, num_machines=4, memory_bytes=int(graph.size_bytes() * 400)
    )
    expected = brute_force(graph, clique(3))
    assert system.count_pattern(clique(3)).counts == expected


def test_pangolin_oom_on_wide_levels():
    graph = erdos_renyi(120, 2000, seed=4)
    tight = graph.size_bytes() + 2048
    system = PangolinLike(graph, memory_bytes=tight)
    with pytest.raises(OutOfMemoryError):
        system.count_pattern(clique(4), oriented=False)


def test_orientation_unavailable_where_paper_says_so(small_random_graph):
    with pytest.raises(ConfigurationError):
        GThinker(small_random_graph).count_pattern(clique(3), oriented=True)
    with pytest.raises(ConfigurationError):
        MovingComputation(small_random_graph).count_pattern(
            clique(3), oriented=True
        )


# ----------------------------------------------------------------------
# architectural shape assertions (loose, from the paper's claims)
# ----------------------------------------------------------------------
def test_gthinker_overhead_dominates(skewed_graph):
    system = GThinker(skewed_graph, num_machines=4)
    report = system.count_pattern(clique(3))
    fractions = report.breakdown_fractions()
    assert fractions["cache"] + fractions["scheduler"] > 0.5


def test_khuzdul_beats_gthinker(skewed_graph):
    k = KAutomine(skewed_graph, ClusterConfig(num_machines=4))
    g = GThinker(skewed_graph, num_machines=4)
    assert (
        triangle_count(k).simulated_seconds
        < g.count_pattern(clique(3)).simulated_seconds
    )


def test_replicated_has_no_traffic(small_random_graph):
    report = GraphPiReplicated(small_random_graph, num_machines=4).count_pattern(
        clique(3)
    )
    assert report.network_bytes == 0


def test_adfs_ships_more_than_khuzdul_fetches(skewed_graph):
    adfs = MovingComputation(skewed_graph, num_machines=4).count_pattern(
        clique(4)
    )
    k = KAutomine(skewed_graph, ClusterConfig(num_machines=4)).count_pattern(
        clique(4)
    )
    assert adfs.counts == k.counts
    assert adfs.network_bytes > k.network_bytes


def test_peregrine_slower_than_automine_on_cliques(small_random_graph):
    am = SingleMachine(small_random_graph).count_pattern(clique(4))
    pg = peregrine_like(small_random_graph).count_pattern(clique(4))
    assert pg.counts == am.counts
    assert pg.simulated_seconds >= am.simulated_seconds


def test_pangolin_orientation_speeds_up_cliques(skewed_graph):
    system = PangolinLike(skewed_graph)
    fast = system.count_pattern(clique(3), oriented=True)
    slow = system.count_pattern(clique(3), oriented=False)
    assert fast.counts == slow.counts
    assert fast.simulated_seconds < slow.simulated_seconds
