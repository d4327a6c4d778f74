"""Execution backends (docs/execution.md).

The headline invariant under test: for any (graph, pattern, seed), the
``process`` backend produces *bit-identical* pattern counts to the
``inline`` path, at any worker count — real multiprocess execution
changes where schedulers run, never what they compute. Run alone via
``make exec-check``.
"""

import inspect
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.engine import KhuzdulEngine
from repro.core.scheduler import MachineScheduler
from repro.errors import ConfigurationError
from repro.exec import BACKENDS, InlineBackend, ProcessBackend, make_backend
from repro.exec import lane as lane_mod
from repro.exec.lane import Lane
from repro.exec.messages import RESULT
from repro.exec.worker import hosted_run, worker_main
from repro.faults import FaultPlan
from repro.graph import dataset
from repro.graph.generators import erdos_renyi
from repro.graph.csr import attach_csr, share_csr
from repro.obs import Observability
from repro.patterns import catalog
from repro.systems import KAutomine

pytestmark = pytest.mark.exec

_CLUSTER = ClusterConfig(num_machines=4)


def _mico():
    return dataset("mico", scale=0.3)


def _assert_no_stray_children():
    """Every worker process must be reaped when execute() returns."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        stray = [p for p in multiprocessing.active_children()
                 if p.name.startswith("repro-exec-")]
        if not stray:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker processes leaked: {stray}")


# ======================================================================
# shared-memory CSR export
# ======================================================================
def test_shared_csr_round_trip():
    graph = erdos_renyi(120, 600, seed=3)
    shared = share_csr(graph)
    try:
        attached = attach_csr(shared.handle)
        try:
            assert np.array_equal(attached.graph.indptr, graph.indptr)
            assert np.array_equal(attached.graph.indices, graph.indices)
            assert attached.graph.directed == graph.directed
            for v in (0, 7, 119):
                assert np.array_equal(
                    attached.graph.neighbors(v), graph.neighbors(v)
                )
        finally:
            attached.close()
            attached.close()  # idempotent
    finally:
        shared.unlink()


def test_shared_csr_carries_labels():
    graph = dataset("mico", scale=0.2, labeled=True)
    shared = share_csr(graph)
    try:
        attached = attach_csr(shared.handle)
        try:
            assert np.array_equal(attached.graph.labels, graph.labels)
        finally:
            attached.close()
    finally:
        shared.unlink()


# ======================================================================
# backend selection
# ======================================================================
def test_make_backend_names():
    assert set(BACKENDS) == {"inline", "process"}
    assert make_backend("inline") is None
    backend = make_backend("process", workers=3)
    assert isinstance(backend, ProcessBackend)
    assert backend.workers == 3
    with pytest.raises(ConfigurationError):
        make_backend("thread")


def test_inline_backend_object_matches_no_backend(comparable):
    graph = _mico()
    bare = KAutomine(graph, _CLUSTER, graph_name="mico")
    wrapped = KAutomine(graph, _CLUSTER, graph_name="mico",
                        backend=InlineBackend())
    r1 = bare.count_pattern(catalog.clique(3))
    r2 = wrapped.count_pattern(catalog.clique(3))
    assert r1.counts == r2.counts
    assert r1.simulated_seconds == r2.simulated_seconds
    assert comparable(r1) == comparable(r2)


def test_inline_backend_object_checkpoints_like_no_backend(tmp_path,
                                                           comparable):
    """``InlineBackend()`` used to skip the durable session entirely:
    no manifest, no log, no ``extra["checkpoint"]``."""
    graph = _mico()
    reports = {}
    for label, backend in (("bare", None), ("wrapped", InlineBackend())):
        directory = tmp_path / label
        config = EngineConfig(checkpoint_dir=str(directory))
        system = KAutomine(graph, _CLUSTER, engine_config=config,
                           graph_name="mico", backend=backend)
        first = system.count_pattern(catalog.clique(3))
        assert (directory / "manifest.json").exists(), label
        assert (directory / "chunks.log").exists(), label
        assert first.extra["checkpoint"]["records"] > 0, label
        system.reconfigure(EngineConfig(checkpoint_dir=str(directory),
                                        resume=True))
        resumed = system.count_pattern(catalog.clique(3))
        assert resumed.counts == first.counts
        assert resumed.extra["checkpoint"]["resumed_roots"] > 0, label
        reports[label] = (first, resumed)
    for bare, wrapped in zip(*reports.values()):
        assert comparable(bare) == comparable(wrapped)
        stats = dict(bare.extra["checkpoint"], dir=None)
        assert stats == dict(wrapped.extra["checkpoint"], dir=None)


# ======================================================================
# inline/process equivalence — the determinism contract
# ======================================================================
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_triangle_counts_identical(workers, comparable):
    graph = _mico()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = inline.count_pattern(catalog.clique(3))
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=workers))
    got = proc.count_pattern(catalog.clique(3))
    assert got.counts == expected.counts
    # the simulated cost model is untouched by real execution
    assert got.simulated_seconds == expected.simulated_seconds
    assert got.machine_seconds == expected.machine_seconds
    assert got.network_bytes == expected.network_bytes
    assert got.extra["exec"]["workers"] == min(workers, 4)
    # ... and so is everything else the report says
    assert comparable(got) == comparable(expected)
    _assert_no_stray_children()


@pytest.mark.parametrize("counting", ["enumerate", "iep"])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_motif_census_identical(workers, counting, comparable):
    graph = _mico()
    patterns = [catalog.clique(3), catalog.chain(3), catalog.star(3)]
    # non-induced, so that under "iep" the wedge and the star run as
    # counting plans next to the plan-less triangle
    induced = counting == "enumerate"
    config = EngineConfig(counting=counting)
    inline = KAutomine(graph, _CLUSTER, engine_config=config,
                       graph_name="mico")
    expected = inline.count_patterns(patterns, induced=induced)
    proc = KAutomine(graph, _CLUSTER, engine_config=config,
                     graph_name="mico",
                     backend=ProcessBackend(workers=workers))
    got = proc.count_patterns(patterns, induced=induced)
    assert got.counts == expected.counts
    assert got.simulated_seconds == expected.simulated_seconds
    assert comparable(got) == comparable(expected)
    _assert_no_stray_children()


def test_collector_udf_merges_across_workers(comparable):
    graph = dataset("mico", scale=0.25, labeled=True)
    patterns = [catalog.chain(2), catalog.chain(3)]
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected, expected_report = inline.mni_supports(patterns)
    for backend in (InlineBackend(), ProcessBackend(workers=1),
                    ProcessBackend(workers=2), ProcessBackend(workers=3)):
        other = KAutomine(graph, _CLUSTER, graph_name="mico",
                          backend=backend)
        got, report = other.mni_supports(patterns)
        assert got == expected
        assert comparable(report) == comparable(expected_report)
    _assert_no_stray_children()


def test_worker_count_is_clamped_to_machines():
    graph = _mico()
    proc = KAutomine(graph, ClusterConfig(num_machines=2),
                     graph_name="mico", backend=ProcessBackend(workers=16))
    report = proc.count_pattern(catalog.clique(3))
    assert report.extra["exec"]["workers"] == 2


# ======================================================================
# observability merge
# ======================================================================
def test_spawn_start_method_matches_inline(comparable):
    # nothing a worker is handed relies on fork: the lane's pipe ends,
    # the CSR handle and the plan all survive the pickle
    graph = dataset("mico", scale=0.1)
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    proc = KAutomine(
        graph, _CLUSTER, graph_name="mico",
        backend=ProcessBackend(workers=2, start_method="spawn"))
    assert comparable(proc.count_pattern(catalog.clique(3))) == \
        comparable(inline.count_pattern(catalog.clique(3)))
    _assert_no_stray_children()


def test_metrics_merge_matches_inline():
    graph = _mico()
    obs_inline = Observability()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico", obs=obs_inline)
    inline.count_pattern(catalog.clique(3))
    obs_proc = Observability()
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", obs=obs_proc,
                     backend=ProcessBackend(workers=2))
    report = proc.count_pattern(catalog.clique(3))

    def counters(obs):
        # exec.* measures wall-clock execution, which only the process
        # backend has; every other counter is the simulation's
        return {
            (name, labels): value
            for name, labels, value in obs.registry.dump()["counters"]
            if not name.startswith("exec.")
        }

    assert counters(obs_proc) == pytest.approx(counters(obs_inline))
    dump = obs_proc.registry.dump()
    emitted = {name for kind in ("counters", "gauges", "histograms")
               for name, _, _ in dump[kind]}
    assert not emitted & _RETIRED_NAMES
    # perfbench pairs this series with busy seconds, worker by worker:
    # absent, its per-layer overhead would silently become the whole run
    waits = [value for name, _, value in dump["counters"]
             if name == "exec.worker_wait_seconds"]
    assert waits == [0.0, 0.0]
    exec_extra = report.extra["exec"]
    assert exec_extra["backend"] == "process"
    assert exec_extra["wall_seconds"] > 0.0
    assert len(exec_extra["worker_busy_seconds"]) == 2
    assert all(busy > 0.0 for busy in exec_extra["worker_busy_seconds"])


#: the transport's metric names, retired with it (docs/metrics.md)
_RETIRED_NAMES = {
    "exec.messages", "exec.bytes_shipped", "exec.queue_depth",
    "exec.ring.capacity_bytes", "exec.ring.occupancy_bytes",
    "exec.local_fast_requests", "exec.adaptive_chunk_bytes",
    "net.coalesced_requests", "net.coalesced_batch_vertices",
    "net.peer_timeouts",
}


# ======================================================================
# guard rails
# ======================================================================
def test_faults_require_inline_backend():
    graph = _mico()
    config = EngineConfig(faults=FaultPlan.parse("crash:m1@chunk=2"))
    proc = KAutomine(graph, _CLUSTER, engine_config=config,
                     graph_name="mico", backend=ProcessBackend(workers=2))
    with pytest.raises(ConfigurationError, match="inline backend"):
        proc.count_pattern(catalog.clique(3))


def test_non_mergeable_udf_is_rejected():
    graph = _mico()
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=2))
    schedule = proc.build_schedule(catalog.clique(3), induced=False)
    with pytest.raises(ConfigurationError, match="merge"):
        proc.engine.run(schedule, udf=lambda emb: None,
                        system="k-automine", app="t", graph_name="mico")


# ======================================================================
# CLI integration
# ======================================================================
def test_cli_process_backend(capsys):
    from repro.__main__ import main

    assert main([
        "count", "--graph", "mico", "--scale", "0.3", "--machines", "4",
        "--pattern", "clique3", "--backend", "process", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "backend=process" in out
    assert "count=" in out
    _assert_no_stray_children()
    # the retired knob is argparse's own "unrecognized arguments"
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--graph", "mico", "--backend", "process",
              "--ring-bytes", "4096"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --ring-bytes" in capsys.readouterr().err


def test_backend_liveness_configuration():
    backend = make_backend("process", workers=2, heartbeat=0.25,
                           on_worker_death="recover")
    assert backend.heartbeat == 0.25
    assert backend.on_worker_death == "recover"
    with pytest.raises(ConfigurationError, match="heartbeat"):
        ProcessBackend(heartbeat=0.0)
    with pytest.raises(ConfigurationError, match="on_worker_death"):
        ProcessBackend(on_worker_death="shrug")


# ======================================================================
# worker death — liveness detection, fail-fast, lost-worker recovery
# (marked exec_faults so `make exec-faults-check` runs them alone)
# ======================================================================
exec_faults = pytest.mark.exec_faults

_FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="killing one specific worker relies on the fork start method "
           "(the child must inherit the monkeypatched entry point)",
)


def _murdered_worker_main(end, worker_id, *args, **kwargs):
    """Drop-in worker entry point that hard-kills worker 1 on entry —
    ``os._exit`` skips every cleanup path, like a SIGKILL mid-compute."""
    if worker_id == 1:
        os._exit(137)
    return worker_main(end, worker_id, *args, **kwargs)


@exec_faults
@_FORK_ONLY
def test_worker_death_fails_fast_with_structured_report(monkeypatch):
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _murdered_worker_main)
    graph = _mico()
    backend = ProcessBackend(workers=2, start_method="fork", heartbeat=0.2)
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    # bounded detection: nowhere near the backend's 600s message budget
    assert time.monotonic() - started < 60.0
    failure = report.failure
    assert failure is not None
    assert failure.outcome.value == "CRASHED"
    assert failure.partial
    assert "137" in failure.message  # the exit code is surfaced
    deaths = [e for e in failure.events if e["kind"] == "worker_death"]
    assert any(
        e["worker"] == 1 and e["machines"] == [1, 3]
        and not e["reexecuted"] for e in deaths
    )
    exec_extra = report.extra["exec"]
    assert exec_extra["on_worker_death"] == "fail"
    assert exec_extra["worker_deaths"] >= 1
    assert exec_extra["heartbeat_checks"] >= 1
    _assert_no_stray_children()


@exec_faults
@_FORK_ONLY
def test_worker_death_recovery_matches_inline(monkeypatch):
    graph = _mico()
    inline = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = inline.count_pattern(catalog.clique(3))
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _murdered_worker_main)
    backend = ProcessBackend(workers=2, start_method="fork", heartbeat=0.2,
                             on_worker_death="recover")
    proc = KAutomine(graph, _CLUSTER, graph_name="mico", backend=backend)
    started = time.monotonic()
    report = proc.count_pattern(catalog.clique(3))
    assert time.monotonic() - started < 120.0
    # the lost workers' hosted machines were replayed by the
    # survivors, so the counts are *complete*
    assert report.counts == expected.counts
    assert report.simulated_seconds == expected.simulated_seconds
    failure = report.failure
    assert failure is not None
    assert failure.outcome.value == "RECOVERED"
    assert not failure.partial
    deaths = [e for e in failure.events if e["kind"] == "worker_death"]
    assert {e["worker"] for e in deaths} >= {1}
    assert all(e["reexecuted"] for e in deaths)
    assert report.extra["exec"]["worker_deaths"] >= 1
    _assert_no_stray_children()


# ----------------------------------------------------------------------
# the supervised-worker lane (repro.exec.lane), under the fleet above
# and under the mining service's serving lanes alike
# ----------------------------------------------------------------------
def _echo_worker(end):
    """Lane worker: answers every command; three of them are orders."""
    for command in end.commands():
        if command == "report-then-die":
            end.send("last words")
            os._exit(7)
        if command == "die-mid-send":
            lane_mod.die_mid_send(end._results, "x" * 4096)
        if command == "hang":
            time.sleep(60)
        end.send(("echo", command))


def _sweep_until(lane, done, timeout=10.0):
    """Supervise one lane the way its owners do until ``done`` holds."""
    messages, deadline = [], time.monotonic() + timeout
    while True:
        lane_mod.wait([lane], 0.2)
        delivered, dead = lane_mod.sweep([lane])
        messages += [message for _, message in delivered]
        if done(messages, dead):
            return messages, dead
        assert time.monotonic() < deadline, (messages, dead)


@exec_faults
def test_lane_send_never_raises_and_respawn_discards_the_past():
    lane = Lane(0, "repro-test-lane", _echo_worker)
    lane.spawn()
    try:
        assert lane.send("a", epoch=lane.epoch)
        messages, dead = _sweep_until(lane, lambda m, d: m)
        assert messages == [("echo", "a")] and not dead
        # what MiningServer's dispatcher does when it races a death: a
        # send to a dead incarnation is False, never an exception
        os.kill(lane.process.pid, signal.SIGKILL)
        _, dead = _sweep_until(lane, lambda m, d: d)
        assert dead == [lane] and lane.send("lost") is False
        assert lane.exit_reason() == "killed by signal 9"
        chosen = lane.epoch  # ... and one replaced since it was chosen
        lane.spawn()
        assert lane.epoch == chosen + 1
        assert lane.send("stale", epoch=chosen) is False
        # a command that slips past that check is dropped by the worker
        lane._commands.send((chosen, "ghost"))
        assert lane.send("b")
        messages, _ = _sweep_until(lane, lambda m, d: m)
        assert messages == [("echo", "b")]
    finally:
        lane.stop()
    assert lane.process is None and lane.send("after stop") is False


@exec_faults
def test_lane_drains_delivered_results_before_declaring_a_death():
    # a worker that reported and then died is not a silent loss: the
    # sweep that names it dead hands over what it delivered first
    lane = Lane(0, "repro-test-lane", _echo_worker)
    lane.spawn()
    try:
        lane.send("report-then-die")
        lane.process.join(10.0)  # dead before anyone looks
        delivered, dead = lane_mod.sweep([lane])
        assert [message for _, message in delivered] == ["last words"]
        assert dead == [lane]
        assert lane.exit_reason() == "exited with code 7"
    finally:
        lane.stop()


@exec_faults
def test_lane_torn_message_is_a_death_not_a_wedge():
    # killed inside a send: the length prefix and half the bytes are in
    # the pipe. A shared queue's reader would wait for the rest behind
    # a lock nobody can release; a private pipe ends in EOF
    lane = Lane(0, "repro-test-lane", _echo_worker)
    lane.spawn()
    try:
        lane.send("die-mid-send")
        started = time.monotonic()
        messages, dead = _sweep_until(lane, lambda m, d: d)
        assert not messages and dead == [lane]
        assert time.monotonic() - started < 5.0
        assert lane.exit_reason() == "killed by signal 9"
    finally:
        lane.stop()


@exec_faults
def test_lane_stop_terminates_a_worker_that_ignores_release():
    lane = Lane(0, "repro-test-lane", _echo_worker)
    lane.spawn()
    lane.send("hang")
    time.sleep(0.2)  # let it pick the order up
    started = time.monotonic()
    lane.stop(timeout=0.3)
    assert time.monotonic() - started < 10.0
    assert lane.process is None
    lane.stop()  # idempotent


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@exec_faults
@_FORK_ONLY
def test_no_fd_growth_across_fleets_and_respawns():
    # pipe ends are what a lane can leak: twenty fleets and ten
    # kill-and-respawn cycles of a two-worker service must leave the
    # process with exactly the descriptors it started with
    from repro.service import MiningServer, ServiceClient, ServiceConfig

    graph = dataset("mico", scale=0.05)
    system = KAutomine(graph, _CLUSTER, graph_name="mico",
                       backend=ProcessBackend(workers=3))
    expected = system.count_pattern(catalog.clique(3)).counts  # warm-up:
    # the first segment starts multiprocessing's resource tracker
    baseline = _open_fds()
    for _ in range(20):
        assert system.count_pattern(catalog.clique(3)).counts == expected
    assert _open_fds() == baseline

    server = MiningServer(ServiceConfig(
        graph="mico", scale=0.05, machines=2, cores=2, workers=2,
        heartbeat=0.1)).start()
    client = ServiceClient(server)
    try:
        assert client.query(id="warm", app="triangle", timeout=60.0).ok
        serving = _open_fds()
        for cycle in range(10):
            victim = server._lanes[cycle % 2]
            epoch = victim.epoch
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while victim.epoch == epoch:  # the collector respawns it
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.query(id=f"after-{cycle}", app="triangle",
                                timeout=60.0).outcome in ("OK", "CRASHED")
        assert client.query(id="last", app="triangle", timeout=60.0).ok
        assert _open_fds() == serving
    finally:
        summary = server.shutdown()
    assert summary["worker_deaths"] == 10
    assert _open_fds() == baseline


# ======================================================================
# shared-memory segment allocation — collision retry
# ======================================================================
def test_segment_creation_retries_on_collision(monkeypatch):
    from repro.graph import csr

    attempts = []
    real_shm = csr.shared_memory.SharedMemory

    def colliding(name=None, create=False, size=0):
        attempts.append(name)
        if len(attempts) <= 2:
            raise FileExistsError(name)
        return real_shm(name=name, create=create, size=size)

    monkeypatch.setattr(csr.shared_memory, "SharedMemory", colliding)
    monkeypatch.setattr(csr.time, "sleep", lambda _t: None)
    segment = csr.create_segment(64)
    try:
        assert len(attempts) == 3           # two collisions absorbed
        assert len(set(attempts)) == 3      # fresh nonce per attempt
    finally:
        segment.unlink()
        segment.close()


def test_segment_creation_collision_exhaustion(monkeypatch):
    from repro.graph import csr

    def always_taken(name=None, create=False, size=0):
        raise FileExistsError(name)

    monkeypatch.setattr(csr.shared_memory, "SharedMemory", always_taken)
    monkeypatch.setattr(csr.time, "sleep", lambda _t: None)
    with pytest.raises(ConfigurationError, match="name collisions"):
        csr.create_segment(64)


# ======================================================================
# durable checkpoints under real SIGKILL (chaos subprocess scenarios;
# benchmarks/chaos.py runs the full matrix — these pin the contract
# in-suite at the smallest useful scale)
# ======================================================================
import json as _json
import signal as _signal
import subprocess
import sys


def _chaos_cli(extra, chaos=None, check=True):
    """Run ``python -m repro count`` on the tiny chaos job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "count", "--graph", "mico",
         "--scale", "0.05", "--machines", "4", "--chunk-bytes", "1024",
         "--no-auto-fit", "--pattern", "clique3", "--metrics", "json",
         *extra],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=240,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"chaos CLI run failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc


def _chaos_report(proc):
    return _json.loads(proc.stdout)["report"]


@exec_faults
def test_resume_after_parent_sigkill_inline(tmp_path):
    oracle = _chaos_report(_chaos_cli([]))
    killed = _chaos_cli(["--checkpoint-dir", str(tmp_path)],
                        chaos="parent-kill:2", check=False)
    assert killed.returncode == -_signal.SIGKILL
    assert (tmp_path / "chunks.log").exists()

    resumed = _chaos_report(_chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--resume"]))
    # counts are the bit-identical contract; simulated timings are
    # approximate on resume (skipped chunks carry no timing)
    assert resumed["counts"] == oracle["counts"]
    stats = resumed["extra"]["checkpoint"]
    assert stats["resumed"]
    assert stats["resumed_roots"] > 0


@exec_faults
def test_resume_after_parent_sigkill_process_backend(tmp_path):
    oracle = _chaos_report(_chaos_cli([]))
    killed = _chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--backend", "process",
         "--workers", "2"],
        chaos="parent-kill:2", check=False)
    assert killed.returncode == -_signal.SIGKILL
    # the SIGKILLed parent left its segment ledger behind
    ledger = tmp_path / "shm.json"
    assert ledger.exists()
    leaked = _json.loads(ledger.read_text())["segments"]
    assert leaked

    resumed = _chaos_report(_chaos_cli(
        ["--checkpoint-dir", str(tmp_path), "--backend", "process",
         "--workers", "2", "--resume"]))
    assert resumed["counts"] == oracle["counts"]
    assert resumed["extra"]["checkpoint"]["resumed_roots"] > 0
    # the resumed run reaped the leaked segments and, on its own clean
    # exit, cleared the ledger
    assert not ledger.exists()
    for name in leaked:
        assert not os.path.exists(f"/dev/shm/{name}")


@exec_faults
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_worker_sigkill_redistributes_to_survivors(tmp_path, workers):
    oracle = _chaos_report(_chaos_cli([]))
    # kill after the *first* shipped delta: worker 1 hosts fewer
    # machines at higher worker counts, but always ships at least one
    report = _chaos_report(_chaos_cli(
        ["--backend", "process", "--workers", str(workers),
         "--on-worker-death", "recover", "--heartbeat", "0.2"],
        chaos="worker-kill:1:1"))
    assert report["counts"] == oracle["counts"]
    assert report["failure"]["outcome"] == "RECOVERED"
    redistribution = report["extra"]["exec"]["redistribution"]
    # the acceptance bar: surviving *workers* replayed the lost
    # machines — none fell back to the parent's inline path
    assert redistribution["inline_fallback"] == 0
    assert redistribution["machines"] >= 1
    assert redistribution["workers"]


@pytest.fixture(scope="module")
def chaos():
    """benchmarks/chaos.py, the harness behind ``make chaos-check``."""
    from benchmarks import chaos

    return chaos


@pytest.fixture(scope="module")
def chaos_oracle(chaos):
    return chaos.clean_oracle()


@exec_faults
@pytest.mark.parametrize("policy", ["recover", "fail"])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_worker_killed_inside_a_message_is_an_ordinary_death(
        chaos, chaos_oracle, workers, policy):
    # half a CKPT delta, half a RESULT: each used to be a TIMEOUT at
    # the full budget or a report followed by a parent that never
    # exits (docs/execution.md).
    # The scenario also holds the CLI to exiting within 30 s with no
    # child and no segment left
    for kind, which in chaos.TORN_MESSAGES:
        chaos.scenario_worker_torn_message(
            chaos_oracle, workers, kind, which, policy)


def _reports_then_dies_worker_main(end, worker_id, *args):
    """Drop-in worker entry point: worker 1 exits the instant its
    RESULT ``send`` returns, and worker 0 is held back so that somebody
    is still computing when it does."""
    if worker_id == 0:
        time.sleep(0.3)
    if worker_id == 1:
        send = end.send

        def send_then_die(message):
            send(message)
            if message[0] == RESULT:
                os._exit(137)

        end.send = send_then_die
    return worker_main(end, worker_id, *args)


@exec_faults
@_FORK_ONLY
def test_worker_that_dies_after_its_result_is_not_a_loss(
        monkeypatch, chaos, comparable):
    # worker 1 of 3 hosts machine 1: its deltas, its RESULT, then it is
    # gone. Nothing it owed is missing, so even ``fail`` reports a
    # clean run — structurally (the RESULT was in the pipe before the
    # death could be seen), not by luck of a feeder thread's flush
    graph = dataset("mico", scale=0.05)
    expected = KAutomine(graph, _CLUSTER, graph_name="mico") \
        .count_pattern(catalog.clique(3))
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _reports_then_dies_worker_main)
    backend = ProcessBackend(workers=3, start_method="fork", heartbeat=0.2,
                             on_worker_death="fail")
    report = KAutomine(graph, _CLUSTER, graph_name="mico",
                       backend=backend).count_pattern(catalog.clique(3))
    assert report.failure is None
    assert report.counts == expected.counts
    assert report.simulated_seconds == expected.simulated_seconds
    assert comparable(report) == comparable(expected)
    _assert_no_stray_children()
    assert not chaos.owned_segments(os.getpid())


@exec_faults
@_FORK_ONLY
def test_fail_fast_crash_keeps_buffered_checkpoints(tmp_path, monkeypatch):
    """A ``CRASHED`` fail-fast return used to skip the session's final
    flush: with a sparse cadence every cursor the live parent had
    already received was dropped."""
    graph = dataset("mico", scale=0.05)

    def system(backend, **durability):
        config = EngineConfig(chunk_bytes=1024, auto_fit_chunks=False,
                              checkpoint_dir=str(tmp_path), **durability)
        return KAutomine(graph, _CLUSTER, engine_config=config,
                         graph_name="mico", backend=backend)

    monkeypatch.setenv("REPRO_CHAOS", "worker-kill:1:2")
    crashed = system(
        ProcessBackend(workers=2, start_method="fork", heartbeat=0.2,
                       on_worker_death="fail"),
        checkpoint_every=10_000,
    ).count_pattern(catalog.clique(3))
    assert crashed.outcome == "CRASHED"
    # never reached the cadence: the flush on exit wrote these
    assert crashed.extra["checkpoint"]["flushes"] == 1
    assert crashed.extra["checkpoint"]["records"] > 0
    _assert_no_stray_children()

    monkeypatch.delenv("REPRO_CHAOS")
    resumed = system(None, resume=True).count_pattern(catalog.clique(3))
    assert resumed.outcome == "OK"
    assert resumed.extra["checkpoint"]["resumed_roots"] > 0
    oracle = KAutomine(graph, _CLUSTER, graph_name="mico")
    assert resumed.counts == oracle.count_pattern(catalog.clique(3)).counts


# ======================================================================
# source tripwires: the channel discipline, held at the source level
# ======================================================================
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_multiprocessing_lock_is_shared_with_a_worker():
    # a worker SIGKILLed inside a multiprocessing Queue / Event / Lock /
    # Condition / Semaphore dies holding a lock its survivors need;
    # exec/ and service/ use private pipes and parent-written flag
    # bytes instead. (threading.*, queue.Queue and PriorityJobQueue
    # never leave their process and are not the target.)
    shared = re.compile(
        r"(?:multiprocessing|context|ctx|mp)\s*\.\s*"
        r"(?:Simple|Joinable)?(?:Queue|Event|Lock|RLock|Condition|"
        r"Semaphore|BoundedSemaphore|Barrier)\s*\("
        r"|from\s+multiprocessing\s+import[^\n]*\b(?:Queue|Event|Lock|"
        r"RLock|Condition|Semaphore)\b")
    for package in ("exec", "service"):
        for source in sorted((_SRC / package).glob("*.py")):
            hit = shared.search(source.read_text())
            assert hit is None, f"{source.name}: {hit.group(0)!r}"


def test_workers_share_the_graph_and_nothing_else_in_source():
    # no fetch hook is left on the one machine loop ...
    for function in (KhuzdulEngine.execute, MachineScheduler.__init__,
                     hosted_run):
        assert "transport" not in inspect.signature(function).parameters
    # ... and nothing in exec/ could carry a fetch: no transport or
    # ring module, one thread per worker (the lane's in-process
    # threading.Lock is not the target)
    sources = sorted((_SRC / "exec").glob("*.py"))
    assert not {source.stem for source in sources} & {"transport", "ring"}
    for source in sources:
        assert "threading.Thread(" not in source.read_text(), source.name


def _segment_auditing_worker_main(end, worker_id, num_workers, handle,
                                  *args):
    """Drop-in worker entry point that dies (so the run reports
    ``CRASHED``) unless the fleet's parent owns exactly the graph's
    segments while its workers run."""
    from benchmarks import chaos

    owned = chaos.owned_segments(os.getppid())
    assert owned == sorted(handle.segment_names()), owned
    return worker_main(end, worker_id, num_workers, handle, *args)


@_FORK_ONLY
def test_a_fleet_owns_the_graph_segments_and_nothing_else(
        monkeypatch, chaos):
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _segment_auditing_worker_main)
    graph = dataset("mico", scale=0.05)  # in ram: exported to /dev/shm
    proc = KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=ProcessBackend(workers=3, start_method="fork"))
    report = proc.count_pattern(catalog.clique(3))
    assert report.failure is None, report.failure.message
    _assert_no_stray_children()
    assert not chaos.owned_segments(os.getpid())
