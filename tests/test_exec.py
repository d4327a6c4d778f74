"""Execution backends (docs/execution.md).

The headline invariant under test: for any (graph, pattern, seed), the
``process`` backend produces *bit-identical* pattern counts to the
``inline`` path, at any worker count — real multiprocess execution
changes where schedulers run, never what they compute. Run alone via
``make exec-check``.
"""

import ast
import inspect
import multiprocessing
import os
import pickle
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
from repro.exec import (
    BACKENDS,
    InlineBackend,
    ProcessBackend,
    make_backend,
    shutdown,
)
from repro.exec import lane as lane_mod
from repro.exec import process as process_mod
from repro.exec.lane import Lane, resolve_start_method
from repro.exec.messages import RESULT
from repro.exec.worker import hosted_run, worker_main
from repro.faults import FaultPlan
from repro.graph import dataset
from repro.graph.generators import erdos_renyi
from repro.graph.csr import attach_csr, share_csr
from repro.graph.storage import write_store
from repro.obs import Observability
from repro.patterns import catalog
from repro.systems import KAutomine
from benchmarks.chaos import segments, store_files

pytestmark = pytest.mark.exec

_CLUSTER = ClusterConfig(num_machines=4)


def _mico():
    return dataset("mico", scale=0.3)


def _live_workers():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-exec-")]


def _pooled_pids() -> dict:
    """``{(workers, start method): [pid, ...]}`` of the idle fleets."""
    return {key: [lane.process.pid for lane in fleet.lanes]
            for key, fleet in process_mod._idle.items()}


def _assert_only_pooled_workers():
    """Every live worker process belongs to an idle pooled fleet once
    execute() returns, and none outlives ``shutdown()``."""
    pooled = {pid for pids in _pooled_pids().values() for pid in pids}
    deadline = time.monotonic() + 10.0
    while True:
        stray = [p for p in _live_workers() if p.pid not in pooled]
        if not stray:
            break
        if time.monotonic() > deadline:
            raise AssertionError(f"worker processes leaked: {stray}")
        time.sleep(0.05)
    shutdown()
    assert not _live_workers()


# ======================================================================
# sharing a graph: by store path (repro.graph.csr)
# ======================================================================
def test_shared_csr_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    graph = erdos_renyi(120, 600, seed=3)
    handle = share_csr(graph)
    assert Path(handle.path).parent == tmp_path
    attached = attach_csr(pickle.loads(pickle.dumps(handle)))
    assert attached == graph
    assert attached.storage == "ram"  # the sharing graph's, not "mmap"
    for v in (0, 7, 119):
        assert np.array_equal(attached.neighbors(v), graph.neighbors(v))
    # memoized on the graph; an equal graph reuses the file
    assert share_csr(graph) is handle
    twin = erdos_renyi(120, 600, seed=3)
    assert share_csr(twin) == handle
    assert store_files(tmp_path) == [Path(handle.path).name]
    assert not segments()


def test_shared_csr_carries_labels(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    graph = dataset("mico", scale=0.2, labeled=True)
    plain = dataset("mico", scale=0.2)
    attached = attach_csr(share_csr(graph))
    assert np.array_equal(attached.labels, graph.labels)
    # labels are part of the key: the unlabeled graph is another store
    assert share_csr(plain).path != share_csr(graph).path
    assert attach_csr(share_csr(plain)).labels is None


def test_a_store_that_is_not_the_graph_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    graph = dataset("mico", scale=0.2)
    path = Path(share_csr(graph).path)
    # another graph's bytes under this graph's name (a torn or stale
    # file would be refused by name the same way)
    write_store(dataset("mico", scale=0.1), path)
    fresh = share_csr(dataset("mico", scale=0.2))
    assert Path(fresh.path) == path
    assert attach_csr(fresh) == graph


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
    _assert_only_pooled_workers()


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
    _assert_only_pooled_workers()


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
    _assert_only_pooled_workers()


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
    _assert_only_pooled_workers()


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
    _assert_only_pooled_workers()
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
    _assert_only_pooled_workers()


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
    _assert_only_pooled_workers()


def _mined(backend=None):
    """FSM on labeled mico (threshold 25, 1 KiB root chunks): every
    round's dead-worker replay must restart the dead worker's machines
    from the MNI domains its deltas shipped."""
    from repro.systems import run_fsm

    system = KAutomine(
        dataset("mico", scale=0.3, labeled=True), _CLUSTER,
        EngineConfig(chunk_bytes=1024, auto_fit_chunks=False),
        graph_name="mico", backend=backend)
    return run_fsm(system, 25)


@exec_faults
@_FORK_ONLY
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kill_after", [1, 2, 3])
def test_fsm_worker_kill_recovers_every_support(monkeypatch, workers,
                                                kill_after):
    """A worker SIGKILLed after its k-th delta of every FSM round
    loses nothing: its survivors replay its machines from the UDF
    state and cursor the ledger holds, so the frequent set and every
    candidate's support equal the inline run's. (Replays used to start
    from a blank UDF while skipping the covered chunks, and dropped
    their domains: 1 and 3 frequent patterns instead of 4.)"""
    expected = _mined()
    monkeypatch.setenv("REPRO_CHAOS", f"worker-kill:1:{kill_after}")
    got = _mined(ProcessBackend(workers=workers, start_method="fork",
                                heartbeat=0.2, on_worker_death="recover"))
    assert got.report.outcome == "RECOVERED"
    assert len(expected.frequent) == 4
    assert got.frequent == expected.frequent
    assert got.all_supports == expected.all_supports
    _assert_only_pooled_workers()


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
    poller = lane_mod.Poller()
    try:
        while True:
            delivered, dead = poller.collect([lane], 0.2)
            messages += [message for _, message in delivered]
            if done(messages, dead):
                return messages, dead
            assert time.monotonic() < deadline, (messages, dead)
    finally:
        poller.close()


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
def test_lane_send_after_a_seen_death_is_false_every_time():
    # the supervisor can see the result-pipe EOF while the killed
    # child's command reader is still open; a send in that window must
    # still report the death, not write into a pipe nobody will read
    lane = Lane(0, "repro-test-lane", _echo_worker)
    started = time.monotonic()
    sent = []
    try:
        for _ in range(200):
            lane.spawn()
            os.kill(lane.process.pid, signal.SIGKILL)
            _sweep_until(lane, lambda m, d: d)
            sent.append(lane.send("lost"))
    finally:
        lane.stop()
    assert sent.count(True) == 0, f"{sent.count(True)} of 200 sent"
    assert time.monotonic() - started < 10.0


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
    # pipe ends are what a lane can leak: ten retired fleets, ten runs
    # on one resident fleet and ten kill-and-respawn cycles of a
    # two-worker service must leave the process with exactly the
    # descriptors it started with
    from repro.service import MiningServer, ServiceClient, ServiceConfig

    graph = dataset("mico", scale=0.05)
    system = KAutomine(graph, _CLUSTER, graph_name="mico",
                       backend=ProcessBackend(workers=3))
    expected = system.count_pattern(catalog.clique(3)).counts  # warm-up:
    # the first fleet starts multiprocessing's resource tracker
    shutdown()
    baseline = _open_fds()
    for _ in range(10):  # ten fleets, each spawned and retired
        assert system.count_pattern(catalog.clique(3)).counts == expected
        shutdown()
    assert _open_fds() == baseline
    assert system.count_pattern(catalog.clique(3)).counts == expected
    pooled = _open_fds()
    for _ in range(10):  # ten runs on one resident fleet
        assert system.count_pattern(catalog.clique(3)).counts == expected
    assert _open_fds() == pooled
    shutdown()
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
            while victim.epoch == epoch:  # the supervisor respawns it
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
# one medium: no run creates a shared-memory segment
# ======================================================================
def test_no_source_imports_shared_memory():
    # the store is the one way a graph reaches a worker: nothing under
    # src/ may create a POSIX shared-memory segment
    banned = re.compile(r"\bshared_memory\b|_posixshmem")
    for source in sorted(_SRC.rglob("*.py")):
        hit = banned.search(source.read_text())
        assert hit is None, f"{source.relative_to(_SRC)}: {hit.group(0)}"


def test_ram_runs_on_every_backend_create_no_segment(tmp_path, monkeypatch):
    # two shapes of fleet, back to back on one RAM graph, share one
    # store file and create no segment
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    graph = dataset("mico", scale=0.05)
    inline = _tiny_count(None, graph)
    for workers in (2, 3):
        report = _tiny_count(ProcessBackend(workers=workers), graph)
        assert report.counts == inline.counts
    assert not segments()
    assert [name for name in store_files(tmp_path)
            if name.endswith(".kcsr")] == [Path(share_csr(graph).path).name]


# ======================================================================
# durable checkpoints under real SIGKILL (chaos subprocess scenarios;
# benchmarks/chaos.py runs the full matrix — these pin the contract
# in-suite at the smallest useful scale)
# ======================================================================
import json as _json
import signal as _signal
import subprocess
import sys


def _chaos_cli(extra, chaos=None, check=True, stores=None):
    """Run ``python -m repro count`` on the tiny chaos job (its graph
    stores under ``stores`` when given)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    if stores is not None:
        env["REPRO_STORE_DIR"] = str(stores)
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
    stores = tmp_path / "stores"
    checkpoints = ["--checkpoint-dir", str(tmp_path / "ckpt")]
    process = ["--backend", "process", "--workers", "2"]
    killed = _chaos_cli([*checkpoints, *process], chaos="parent-kill:2",
                        check=False, stores=stores)
    assert killed.returncode == -_signal.SIGKILL
    # the SIGKILLed parent left its graph's store, and nothing to reap
    assert not segments()
    left = store_files(stores)
    assert left

    resumed = _chaos_report(_chaos_cli(
        [*checkpoints, *process, "--resume"], stores=stores))
    assert resumed["counts"] == oracle["counts"]
    assert resumed["extra"]["checkpoint"]["resumed_roots"] > 0
    # the resumed run mapped the same store: no new file beside it
    assert store_files(stores) == left
    assert not segments()


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
        monkeypatch, comparable):
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
    _assert_only_pooled_workers()
    assert not segments()


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
    _assert_only_pooled_workers()

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


def test_only_the_ledger_builds_resume_maps_and_udf_copies():
    # one ledger: outside DurableRun nothing under src/ unpickles or
    # copies a UDF, reads the ledger's cursors or states, or builds a
    # resume map (a dict display handed to, or named, ``resume``)
    ledger = _SRC / "faults" / "durability.py"
    for source in sorted(_SRC.rglob("*.py")):
        if source == ledger:
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            where = f"{source.relative_to(_SRC)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute):
                module = getattr(node.value, "id", None)
                assert (module, node.attr) not in {
                    ("pickle", "loads"), ("copy", "copy"),
                    ("copy", "deepcopy")}, where
                assert node.attr not in {"udf_states", "history",
                                         "progress"}, where
            built = None
            if isinstance(node, ast.keyword) and node.arg == "resume":
                built = node.value
            elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "resume"
                    for target in node.targets):
                built = node.value
            assert not isinstance(built, (ast.Dict, ast.DictComp)), where
            assert getattr(getattr(built, "func", None), "id",
                           None) != "dict", where


#: where :func:`_recording_worker_main` logs, set before a fleet forks
_WORKER_LOG = None


def _recording_worker_main(end, worker_id, *args):
    """Drop-in worker entry point that logs every graph attachment and
    every in-RAM build of a derived array it makes to ``_WORKER_LOG``."""
    from repro.exec import worker as worker_mod
    from repro.graph.graph import Graph

    def logged(kind, call):
        def wrapper(*call_args):
            with open(_WORKER_LOG, "a") as log:
                log.write(f"{kind}\n")
            return call(*call_args)
        return wrapper

    worker_mod.attach_csr = logged("attach", worker_mod.attach_csr)
    Graph._derive = logged("build", Graph._derive)
    return worker_main(end, worker_id, *args)


@_FORK_ONLY
def test_a_resident_fleet_keeps_a_ram_graphs_store_warm(
        tmp_path, monkeypatch, comparable):
    # a RAM graph goes out as one store; the second job on one fleet
    # writes no file, attaches nothing and builds no derived array
    global _WORKER_LOG
    _WORKER_LOG = tmp_path / "worker.log"
    stores = tmp_path / "stores"
    monkeypatch.setenv("REPRO_STORE_DIR", str(stores))
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _recording_worker_main)
    graph = dataset("mico", scale=0.05)
    obs = Observability()
    backend = ProcessBackend(workers=2, start_method="fork")
    system = KAutomine(graph, _CLUSTER, graph_name="mico", obs=obs,
                       backend=backend)
    reports, logs, files = [], [], []
    for _ in range(2):
        reports.append(system.count_pattern(catalog.clique(3)))
        logs.append(sorted(_WORKER_LOG.read_text().split()))
        files.append(store_files(stores))
        assert not any(name.startswith("storage.")
                       for table in obs.registry.snapshot().values()
                       for name in table)
    first, second = reports
    assert second.extra["exec"]["spawns"] == 0
    assert "storage" not in first.extra and "storage" not in second.extra
    assert comparable(second) == comparable(first)
    assert logs[0].count("attach") == 2 and "build" in logs[0]
    assert logs[1] == logs[0]  # nothing new in the second job
    assert files[1] == files[0]
    assert not segments()
    _assert_only_pooled_workers()


# ======================================================================
# resident fleets: the pool's lease and return rule (docs/execution.md,
# "Worker topology")
# ======================================================================
def _tiny_count(backend, graph=None):
    graph = graph if graph is not None else dataset("mico", scale=0.05)
    return KAutomine(graph, _CLUSTER, graph_name="mico",
                     backend=backend).count_pattern(catalog.clique(3))


def test_a_fleet_serves_every_later_run_of_its_shape(comparable):
    method = resolve_start_method(None)
    first = _tiny_count(ProcessBackend(workers=2))
    assert first.extra["exec"]["spawns"] == 2
    pids = _pooled_pids()
    assert list(pids) == [(2, method)]
    second = _tiny_count(ProcessBackend(workers=2))
    assert second.extra["exec"]["spawns"] == 0
    assert _pooled_pids() == pids
    assert comparable(second) == comparable(first)
    # another shape is another fleet; the first stays parked
    third = _tiny_count(ProcessBackend(workers=3))
    assert third.extra["exec"]["spawns"] == 3
    assert third.counts == first.counts
    pooled = _pooled_pids()
    assert pooled[(2, method)] == pids[(2, method)]
    assert len(pooled[(3, method)]) == 3
    assert not set(pooled[(3, method)]) & set(pids[(2, method)])
    _assert_only_pooled_workers()


def test_the_spawn_start_method_reuses_its_fleet_too():
    backend = ProcessBackend(workers=2, start_method="spawn")
    first = _tiny_count(backend)
    pids = _pooled_pids()
    assert list(pids) == [(2, "spawn")]
    second = _tiny_count(backend)
    assert second.extra["exec"]["spawns"] == 0
    assert _pooled_pids() == pids
    assert second.counts == first.counts
    _assert_only_pooled_workers()


@exec_faults
@pytest.mark.parametrize("chaos", ["worker-kill:1:1",
                                   "worker-kill-midsend:1:1"])
@pytest.mark.parametrize("policy", ["fail", "recover"])
def test_a_failed_run_stops_its_fleet(monkeypatch, chaos, policy):
    # the chaos spec is set only after the fleet exists: the parent
    # reads it per run and hands it to the job, so it still fires
    expected = _tiny_count(ProcessBackend(workers=2))
    assert len(_live_workers()) == 2
    monkeypatch.setenv("REPRO_CHAOS", chaos)
    report = _tiny_count(ProcessBackend(
        workers=2, heartbeat=0.2, on_worker_death=policy))
    assert report.extra["exec"]["spawns"] == 0
    if policy == "fail":
        assert report.outcome == "CRASHED"
    else:
        assert report.outcome == "RECOVERED"
        assert report.counts == expected.counts
    assert not _pooled_pids()
    assert not _live_workers()


def _hanging_worker_main(end, worker_id, *args):
    """Drop-in worker entry point that sleeps through its run."""
    time.sleep(30.0)
    return worker_main(end, worker_id, *args)


@exec_faults
@_FORK_ONLY
def test_a_timed_out_run_stops_its_fleet(monkeypatch):
    monkeypatch.setattr("repro.exec.process.worker_main",
                        _hanging_worker_main)
    started = time.monotonic()
    report = _tiny_count(ProcessBackend(workers=2, timeout=0.5,
                                        heartbeat=0.1))
    assert report.outcome == "TIMEOUT"
    assert time.monotonic() - started < 30.0
    assert not _pooled_pids()
    assert not _live_workers()


def test_concurrent_runs_lease_separate_fleets():
    import threading

    graph = dataset("mico", scale=0.05)
    expected = KAutomine(graph, _CLUSTER, graph_name="mico") \
        .count_pattern(catalog.clique(3)).counts
    counts: dict[int, list] = {0: [], 1: []}

    def client(index):
        for _ in range(3):
            counts[index].append(
                _tiny_count(ProcessBackend(workers=2), graph).counts)

    threads = [threading.Thread(target=client, args=(index,))
               for index in counts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert counts == {0: [expected] * 3, 1: [expected] * 3}
    # the fleet returned second is stopped: one idle fleet a shape
    assert [len(pids) for pids in _pooled_pids().values()] == [2]
    _assert_only_pooled_workers()


def test_a_store_rebuilt_in_place_is_attached_afresh(tmp_path):
    from repro.graph.storage import open_store, write_store

    path = tmp_path / "graph.kcsr"
    backend = ProcessBackend(workers=2)
    write_store(dataset("mico", scale=0.05), path)
    before = _tiny_count(backend, open_store(path))
    bigger = dataset("mico", scale=0.1)
    write_store(bigger, path)  # same path, other content
    after = _tiny_count(backend, open_store(path))
    assert after.extra["exec"]["spawns"] == 0
    assert after.counts != before.counts
    assert after.counts == KAutomine(bigger, _CLUSTER, graph_name="mico") \
        .count_pattern(catalog.clique(3)).counts
    _assert_only_pooled_workers()


def _alive(pid: int) -> bool:
    """A process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (OSError, IndexError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads worker liveness from procfs")
def test_an_exiting_interpreter_releases_its_idle_fleet():
    program = (
        "import json\n"
        "from repro.cluster import ClusterConfig\n"
        "from repro.exec import ProcessBackend, process\n"
        "from repro.graph import dataset\n"
        "from repro.patterns import catalog\n"
        "from repro.systems import KAutomine\n"
        "KAutomine(dataset('mico', scale=0.05), ClusterConfig(4),\n"
        "          backend=ProcessBackend(workers=2))"
        ".count_pattern(catalog.clique(3))\n"
        "print(json.dumps([lane.process.pid for fleet in"
        " process._idle.values() for lane in fleet.lanes]))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        env=env, timeout=120,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    pids = _json.loads(proc.stdout)
    assert len(pids) == 2
    deadline = time.monotonic() + 2.0
    while any(_alive(pid) for pid in pids):
        assert time.monotonic() < deadline, [
            pid for pid in pids if _alive(pid)]
        time.sleep(0.05)


def test_an_idle_fleet_does_not_keep_the_resource_tracker_alive():
    # perfbench stops multiprocessing's resource tracker and waits for
    # it before printing a result; a worker holding the tracker's pipe
    # made that wait endless. The tracker runs before either fleet
    # forks (as the spawn start method or any semaphore starts it), so
    # every worker inherits a copy
    program = (
        "from multiprocessing import resource_tracker\n"
        "resource_tracker.ensure_running()\n"
        "from repro.cluster import ClusterConfig\n"
        "from repro.exec import ProcessBackend\n"
        "from repro.graph import dataset\n"
        "from repro.patterns import catalog\n"
        "from repro.systems import KAutomine\n"
        "graph = dataset('mico', scale=0.05)\n"
        "for workers in (2, 3):\n"
        "    KAutomine(graph, ClusterConfig(4),\n"
        "              backend=ProcessBackend(workers=workers))"
        ".count_pattern(catalog.clique(3))\n"
        "resource_tracker._resource_tracker._stop()\n"
        "print('stopped')\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        env=env, timeout=120,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "stopped"
