"""Fault injection & chunk-granular recovery (docs/faults.md).

The headline invariant under test: with recovery enabled, recoverable
faults change *runtime* and *traffic* but never change *counts*.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine
from repro.cluster.costmodel import CostModel
from repro.core.cache import CachePolicy, EdgeCache
from repro.errors import ConfigurationError
from repro.faults import (
    Checkpoint,
    CrashFault,
    FaultPlan,
    Outcome,
    StragglerFault,
)
from repro.faults.recovery import split_roots
from repro.graph.generators import erdos_renyi, star_graph
from repro.patterns import chain, clique
from repro.patterns.schedule import automine_schedule

pytestmark = pytest.mark.faults


# ======================================================================
# spec parsing
# ======================================================================
def test_parse_full_spec_round_trip():
    spec = "crash:m1@chunk=2;flaky:p=0.05;slow:m2@x=3"
    plan = FaultPlan.parse(spec)
    assert plan.crashes == (CrashFault(1, at_chunk=2),)
    assert plan.flaky_p == 0.05
    assert plan.stragglers == (StragglerFault(2, 3.0),)
    assert plan.describe() == "crash:m1@chunk=2;flaky:p=0.05;slow:m2@x=3"


def test_parse_time_trigger_seed_and_retries():
    plan = FaultPlan.parse("crash:m0@t=0.5; seed:7; retries:2; straggler:m3@x=1.5")
    assert plan.crashes[0].at_time == 0.5
    assert plan.seed == 7
    assert plan.max_retries == 2
    assert plan.stragglers[0].factor == 1.5


def test_parse_empty_spec_is_empty_plan():
    assert FaultPlan.parse("").empty
    assert not FaultPlan.parse("flaky:p=0.1").empty


@pytest.mark.parametrize(
    "bad",
    [
        "crash:x1@chunk=2",       # bad machine token
        "crash:m1@chunk=zero",    # non-integer chunk
        "crash:m1@lvl=2",         # unknown trigger
        "flaky:q=0.5",            # wrong key
        "flaky:p=1.5",            # out of range
        "slow:m1@x=0.5",          # speedup, not a straggler
        "explode:m1",             # unknown clause
    ],
)
def test_parse_rejects_bad_clause(bad):
    with pytest.raises(ConfigurationError):
        FaultPlan.parse(bad)


def test_crash_fault_needs_exactly_one_trigger():
    with pytest.raises(ConfigurationError):
        CrashFault(0)
    with pytest.raises(ConfigurationError):
        CrashFault(0, at_chunk=1, at_time=1.0)


# ======================================================================
# reassignment arithmetic
# ======================================================================
def test_split_roots_partitions_without_loss():
    roots = np.arange(13)
    pieces = split_roots(roots, [3, 0, 2])
    took = np.sort(np.concatenate([share for _, share in pieces]))
    assert np.array_equal(took, roots)
    # deterministic: ascending machine order, round-robin shares
    assert [m for m, _ in pieces] == [0, 2, 3]
    assert split_roots(np.array([], dtype=int), [0, 1]) == []


# ======================================================================
# engine-level recovery
# ======================================================================
def _run(graph, pattern, machines=4, **config):
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=64 << 20)
    )
    engine = KhuzdulEngine(cluster, EngineConfig(chunk_bytes=4096, **config))
    return engine.run(automine_schedule(pattern))


@pytest.fixture(scope="module")
def fault_graph():
    return erdos_renyi(60, 240, seed=3)


def test_crash_recovery_preserves_counts(fault_graph):
    clean = _run(fault_graph, clique(3))
    faulty = _run(
        fault_graph, clique(3),
        faults=FaultPlan.parse("crash:m1@chunk=2"),
    )
    assert faulty.counts == clean.counts          # the headline invariant
    assert faulty.outcome == "RECOVERED"
    assert faulty.failure is not None and not faulty.failure.partial
    assert faulty.failure.machine_id == 1
    # recovery is visible in runtime/traffic and the recovery stats
    assert faulty.simulated_seconds != clean.simulated_seconds
    assert faulty.extra["recovery"]["reassigned_roots"] > 0
    assert faulty.extra["recovery"]["checkpoints"] > 0
    assert faulty.extra["faults"]["crashes"] == 1
    assert any(e["kind"] == "crash" for e in faulty.failure.events)


def test_flaky_fetches_preserve_counts(fault_graph):
    clean = _run(fault_graph, clique(3))
    faulty = _run(
        fault_graph, clique(3),
        faults=FaultPlan.parse("flaky:p=0.05;seed:1"),
    )
    assert faulty.counts == clean.counts
    assert faulty.outcome == "RECOVERED"
    assert faulty.extra["faults"]["net_retries"] > 0
    assert faulty.extra["faults"]["retry_backoff_seconds"] > 0
    # retries burn wire bytes and simulated time, never correctness
    assert faulty.network_bytes > clean.network_bytes
    assert faulty.simulated_seconds > clean.simulated_seconds


def test_combined_plan_preserves_counts(fault_graph):
    clean = _run(fault_graph, clique(4))
    faulty = _run(
        fault_graph, clique(4),
        faults=FaultPlan.parse("crash:m1@chunk=2;flaky:p=0.05;slow:m2@x=3"),
    )
    assert faulty.counts == clean.counts
    assert faulty.outcome == "RECOVERED"
    assert faulty.extra["faults"]["stragglers"] == 1


def test_fault_runs_are_deterministic(fault_graph):
    plan = FaultPlan.parse("crash:m1@chunk=2;flaky:p=0.05")
    first = _run(fault_graph, clique(3), faults=plan)
    second = _run(fault_graph, clique(3), faults=plan)
    assert first.counts == second.counts
    assert first.simulated_seconds == second.simulated_seconds
    assert first.network_bytes == second.network_bytes
    assert first.extra["faults"] == second.extra["faults"]
    assert first.extra["recovery"] == second.extra["recovery"]


def test_no_recover_reports_crash_without_raising(fault_graph):
    report = _run(
        fault_graph, clique(3),
        faults=FaultPlan.parse("crash:m1@chunk=2"),
        recover=False,
    )
    assert report.outcome == "CRASHED"
    assert report.failure is not None and report.failure.partial
    assert report.failure.fatal
    assert report.failure.machine_id == 1
    # the partial count is the crash machine's checkpoint plus the
    # other machines' full shares — never more than the true total
    clean = _run(fault_graph, clique(3))
    assert report.counts <= clean.counts


def test_retry_exhaustion_degrades(fault_graph):
    report = _run(
        fault_graph, clique(3),
        faults=FaultPlan.parse("flaky:p=1.0;retries:2"),
    )
    assert report.outcome == "DEGRADED"
    assert report.failure is not None and report.failure.partial


def test_straggler_slows_without_changing_counts(fault_graph):
    clean = _run(fault_graph, clique(3))
    slow = _run(
        fault_graph, clique(3), faults=FaultPlan.parse("slow:m0@x=8")
    )
    assert slow.counts == clean.counts
    assert slow.simulated_seconds > clean.simulated_seconds
    # pure degradation needs no recovery: the run is clean
    assert slow.failure is None and slow.outcome == "OK"
    assert slow.extra["faults"]["stragglers"] == 1


def test_oom_reports_machine_id():
    graph = star_graph(400)
    cluster = Cluster(
        graph, ClusterConfig(num_machines=2, memory_bytes=6 << 10)
    )
    engine = KhuzdulEngine(
        cluster, EngineConfig(chunk_bytes=1024, auto_fit_chunks=False)
    )
    report = engine.run(automine_schedule(chain(3)))
    assert report.outcome == "OUTOFMEM"
    assert report.failure is not None and report.failure.partial
    assert report.failure.machine_id is not None


def test_time_budget_enforced_across_machines(fault_graph):
    report = _run(fault_graph, clique(3), time_budget=1e-12)
    assert report.outcome == "TIMEOUT"
    assert report.failure is not None and report.failure.fatal


def test_run_many_recovers_later_patterns(fault_graph):
    cluster = Cluster(
        fault_graph, ClusterConfig(num_machines=4, memory_bytes=64 << 20)
    )
    schedules = [automine_schedule(clique(3)), automine_schedule(chain(3))]
    clean = KhuzdulEngine(
        cluster, EngineConfig(chunk_bytes=4096)
    ).run_many(schedules)
    faulty = KhuzdulEngine(
        cluster,
        EngineConfig(chunk_bytes=4096,
                     faults=FaultPlan.parse("crash:m1@chunk=2")),
    ).run_many(schedules)
    # the machine dies during pattern 0; pattern 1's shard for the dead
    # machine is bounced to survivors and both counts stay exact
    assert faulty.counts == clean.counts
    assert faulty.outcome == "RECOVERED"


# ======================================================================
# invalidation primitives
# ======================================================================
def test_cache_invalidate_by_predicate():
    cache = EdgeCache(1 << 20, 0, CachePolicy.STATIC, CostModel())
    for v in range(10):
        assert cache.admit(v, num_bytes=64, degree=32)
    used_before = cache.used_bytes
    removed = cache.invalidate(lambda v: v % 2 == 0)
    assert removed == 5
    assert cache.used_bytes == used_before - 5 * 64
    assert all(v not in cache for v in (0, 2, 4, 6, 8))
    assert all(v in cache for v in (1, 3, 5, 7, 9))


def test_outcome_enum_strings():
    assert str(Outcome.RECOVERED) == "RECOVERED"
    assert Outcome.CRASHED.value == "CRASHED"
    assert Checkpoint().roots_completed == 0


# ======================================================================
# CLI surface
# ======================================================================
def _cli(argv, capsys):
    from repro.__main__ import main

    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_triangle_recovers(capsys):
    code, out = _cli(
        ["triangle", "--graph", "mico", "--scale", "0.2", "--machines", "4",
         "--faults", "crash:m1@chunk=2;flaky:p=0.05"],
        capsys,
    )
    assert code == 0
    assert "[RECOVERED]" in out
    assert "outcome: RECOVERED" in out


def test_cli_no_recover_exits_nonzero(capsys):
    code, out = _cli(
        ["triangle", "--graph", "mico", "--scale", "0.2", "--machines", "4",
         "--faults", "crash:m1@chunk=2", "--no-recover"],
        capsys,
    )
    assert code == 1
    assert "outcome: CRASHED" in out


def test_cli_counts_match_fault_free(capsys):
    base = ["triangle", "--graph", "mico", "--scale", "0.2",
            "--machines", "4"]
    _, clean = _cli(base, capsys)
    _, faulty = _cli(base + ["--faults", "crash:m1@chunk=2"], capsys)

    def count_of(out):
        token = [t for t in out.split() if t.startswith("count=")][0]
        return int(token.split("=")[1])

    assert count_of(faulty) == count_of(clean)


def test_cli_oom_exits_nonzero_without_traceback(capsys):
    code, out = _cli(
        ["count", "--graph", "mico", "--scale", "0.3", "--machines", "2",
         "--memory-kb", "48", "--no-auto-fit", "--pattern", "chain3"],
        capsys,
    )
    assert code == 1
    assert "outcome: OUTOFMEM" in out
    assert "machine" in out


def test_cli_rejects_bad_fault_spec(capsys):
    with pytest.raises(SystemExit):
        _cli(["triangle", "--graph", "mico", "--scale", "0.2",
              "--faults", "explode:m1"], capsys)
