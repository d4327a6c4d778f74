"""Tests for the Khuzdul engine: correctness and configuration effects."""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine
from repro.core.cache import CachePolicy
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.generators import erdos_renyi, random_labels, star_graph
from repro.patterns import Pattern, chain, clique, cycle, star
from repro.patterns.schedule import automine_schedule


def _engine(graph, machines=4, **config):
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=64 << 20)
    )
    return KhuzdulEngine(cluster, EngineConfig(**config))


@pytest.mark.parametrize(
    "pattern",
    [clique(3), clique(4), chain(3), chain(4), cycle(4), star(3)],
    ids=["tri", "4cc", "wedge", "chain4", "cyc4", "star3"],
)
def test_counts_match_brute_force(small_random_graph, pattern):
    expected = count_embeddings_brute_force(small_random_graph, pattern)
    report = _engine(small_random_graph).run(automine_schedule(pattern))
    assert report.counts == expected


@pytest.mark.parametrize("pattern", [chain(3), cycle(4)], ids=["wedge", "cyc4"])
def test_induced_counts_match_brute_force(small_random_graph, pattern):
    expected = count_embeddings_brute_force(
        small_random_graph, pattern, induced=True
    )
    report = _engine(small_random_graph).run(
        automine_schedule(pattern, induced=True)
    )
    assert report.counts == expected


def test_count_invariant_to_machine_count(small_random_graph):
    schedule = automine_schedule(clique(3))
    counts = {
        _engine(small_random_graph, machines=m).run(schedule).counts
        for m in (1, 2, 3, 8)
    }
    assert len(counts) == 1


def test_count_invariant_to_chunk_size(small_random_graph):
    schedule = automine_schedule(clique(4))
    counts = {
        _engine(small_random_graph, chunk_bytes=size).run(schedule).counts
        for size in (1024, 4096, 1 << 20)
    }
    assert len(counts) == 1


@pytest.mark.parametrize("vcs", [True, False])
@pytest.mark.parametrize("hds", [True, False])
def test_count_invariant_to_reuse_flags(small_random_graph, vcs, hds):
    expected = count_embeddings_brute_force(small_random_graph, clique(4))
    report = _engine(small_random_graph, vcs=vcs, hds=hds).run(
        automine_schedule(clique(4))
    )
    assert report.counts == expected


@pytest.mark.parametrize("policy", list(CachePolicy))
def test_count_invariant_to_cache_policy(small_random_graph, policy):
    expected = count_embeddings_brute_force(small_random_graph, clique(3))
    report = _engine(small_random_graph, cache_policy=policy).run(
        automine_schedule(clique(3))
    )
    assert report.counts == expected


def test_count_invariant_to_numa(small_random_graph):
    schedule = automine_schedule(clique(3))
    aware = _engine(small_random_graph, numa_aware=True).run(schedule)
    oblivious = _engine(small_random_graph, numa_aware=False).run(schedule)
    assert aware.counts == oblivious.counts
    # NUMA-oblivious execution pays the cross-socket penalty
    assert oblivious.simulated_seconds > aware.simulated_seconds


def test_labeled_pattern_counts(labeled_graph):
    pattern = Pattern(2, [(0, 1)], labels=(0, 1))
    expected = count_embeddings_brute_force(labeled_graph, pattern)
    report = _engine(labeled_graph).run(automine_schedule(pattern))
    assert report.counts == expected


def test_single_vertex_pattern_counts_vertices(small_random_graph):
    report = _engine(small_random_graph).run(
        automine_schedule(Pattern(1, []))
    )
    assert report.counts == small_random_graph.num_vertices


def test_single_edge_pattern(small_random_graph):
    report = _engine(small_random_graph).run(automine_schedule(chain(2)))
    assert report.counts == small_random_graph.num_edges


def test_run_many_counts_align(small_random_graph):
    schedules = [automine_schedule(p) for p in (clique(3), chain(3))]
    report = _engine(small_random_graph).run_many(schedules)
    assert report.counts[0] == count_embeddings_brute_force(
        small_random_graph, clique(3)
    )
    assert report.counts[1] == count_embeddings_brute_force(
        small_random_graph, chain(3)
    )


def test_udf_receives_all_matches(small_random_graph):
    seen = []

    def udf(prefix, candidates):
        seen.extend(prefix + (int(c),) for c in candidates)

    report = _engine(small_random_graph).run(
        automine_schedule(clique(3)), udf=udf
    )
    assert len(seen) == report.counts
    for triple in seen[:50]:
        assert small_random_graph.has_edge(triple[0], triple[1])
        assert small_random_graph.has_edge(triple[0], triple[2])
        assert small_random_graph.has_edge(triple[1], triple[2])


def test_report_fields_populated(small_random_graph):
    report = _engine(small_random_graph).run(automine_schedule(clique(3)))
    assert report.simulated_seconds > 0
    assert report.network_bytes > 0
    assert set(report.breakdown) == {"compute", "scheduler", "cache", "network"}
    assert len(report.machine_seconds) == 4
    assert report.peak_memory_bytes > 0
    assert 0 <= report.network_utilization <= 1
    assert report.extra["chunks"] > 0


def test_single_machine_no_traffic(small_random_graph):
    report = _engine(small_random_graph, machines=1).run(
        automine_schedule(clique(3))
    )
    assert report.network_bytes == 0


def test_hds_reduces_traffic_on_skewed_graph(skewed_graph):
    schedule = automine_schedule(clique(3))
    with_hds = _engine(skewed_graph, hds=True, cache_fraction=0.0).run(schedule)
    without = _engine(skewed_graph, hds=False, cache_fraction=0.0).run(schedule)
    assert with_hds.counts == without.counts
    assert with_hds.network_bytes < without.network_bytes


def test_static_cache_reduces_traffic(skewed_graph):
    # small chunks force many chunk turnovers, which is what the static
    # cache (cross-chunk reuse) accelerates; within-chunk reuse is HDS's
    # job and is disabled here to isolate the cache
    schedule = automine_schedule(clique(3))
    cached = _engine(
        skewed_graph, cache_fraction=0.15, hds=False, chunk_bytes=4096
    ).run(schedule)
    uncached = _engine(
        skewed_graph, cache_fraction=0.0, hds=False, chunk_bytes=4096
    ).run(schedule)
    assert cached.counts == uncached.counts
    assert cached.network_bytes < uncached.network_bytes
    assert cached.cache_hit_rate > 0


def test_vcs_reduces_compute(small_random_graph):
    schedule = automine_schedule(clique(4))
    with_vcs = _engine(small_random_graph, vcs=True).run(schedule)
    without = _engine(small_random_graph, vcs=False).run(schedule)
    assert with_vcs.breakdown["compute"] <= without.breakdown["compute"]


def test_oom_on_tiny_memory():
    graph = star_graph(400)
    cluster = Cluster(
        graph, ClusterConfig(num_machines=2, memory_bytes=6 << 10)
    )
    engine = KhuzdulEngine(cluster, EngineConfig(chunk_bytes=1024))
    # the engine converts the raw OutOfMemoryError into a partial
    # report with a structured failure summary (docs/faults.md)
    report = engine.run(automine_schedule(chain(3)))
    assert report.outcome == "OUTOFMEM"
    assert report.failure is not None and report.failure.partial
    assert report.failure.machine_id is not None


def test_timeout_reported():
    graph = erdos_renyi(60, 240, seed=1)
    engine = _engine(graph, time_budget=1e-12)
    report = engine.run(automine_schedule(clique(4)))
    assert report.outcome == "TIMEOUT"
    assert report.failure is not None and report.failure.partial


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(chunk_bytes=16)
    with pytest.raises(ConfigurationError):
        EngineConfig(cache_fraction=1.5)


def test_labeled_roots_filtered(labeled_graph):
    pattern = Pattern(2, [(0, 1)], labels=(2, 2))
    engine = _engine(labeled_graph)
    report = engine.run(automine_schedule(pattern))
    expected = count_embeddings_brute_force(labeled_graph, pattern)
    assert report.counts == expected


def test_zero_match_pattern(small_random_graph):
    # a 6-clique is (almost surely) absent from this sparse graph
    expected = count_embeddings_brute_force(small_random_graph, clique(6))
    report = _engine(small_random_graph).run(automine_schedule(clique(6)))
    assert report.counts == expected


# ----------------------------------------------------------------------
# plan -> execute -> finalize (repro.core.plan)
# ----------------------------------------------------------------------
def _simulated(counts, report):
    document = report.to_dict()
    document["counts"] = counts
    return document


@pytest.mark.parametrize("counting", ["enumerate", "iep"])
def test_finalize_is_order_free_over_machine_disjoint_partials(
    small_random_graph, counting
):
    from repro.core.plan import finalize

    engine = _engine(small_random_graph, counting=counting,
                     chunk_bytes=2048)
    plan = engine.plan([automine_schedule(star(3)),
                        automine_schedule(clique(3))])
    whole = engine.execute(plan)
    a = engine.execute(plan, hosted={0, 2})
    b = engine.execute(plan, hosted={1, 3})
    # a partial is a snapshot: the later runs did not disturb it
    assert whole.machines[1].clock.total() > 0.0
    assert a.machines[1].clock.total() == 0.0

    forward = _simulated(*finalize(plan, [a, b]))
    assert forward == _simulated(*finalize(plan, [b, a]))
    assert forward == _simulated(*finalize(plan, [a + b]))
    # ... and machine-disjoint shards add up to the uninterrupted run
    assert forward == _simulated(*finalize(plan, [whole]))
    if counting == "iep":
        assert plan.patterns[0].divisor > 1
        assert forward["counts"][0] == (
            (a.counts[0] + b.counts[0]) // plan.patterns[0].divisor
        )


def test_plan_is_picklable_and_compiled_once(small_random_graph):
    import pickle

    engine = _engine(small_random_graph, counting="iep")
    plan = engine.plan([automine_schedule(star(3))])
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.fingerprint() == plan.fingerprint()
    assert clone.patterns[0].extend_schedule.pattern.num_vertices == 1
    # a UDF consumes candidates, so its job never gets a counting plan
    with_udf = engine.plan([automine_schedule(star(3))], udf=print)
    assert with_udf.patterns[0].counting is None
