"""Execution backends (docs/execution.md).

The headline invariant under test: for any (graph, pattern, seed), the
``process`` backend produces *bit-identical* pattern counts to the
``inline`` path, at any worker count — real multiprocess execution
changes where schedulers run and how fetches travel, never what they
compute. Run alone via ``make exec-check``.
"""

import multiprocessing
import os
import re
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.errors import ConfigurationError, PeerDeadError
from repro.exec import BACKENDS, InlineBackend, ProcessBackend, make_backend
from repro.exec import lane as lane_mod
from repro.exec.lane import Lane
from repro.exec.ring import RingAborted, attach_ring, create_ring
from repro.exec.transport import (
    FRAME_HEADER_BYTES,
    AdaptiveChunker,
    Endpoints,
    WorkerTransport,
    ring_capacity,
)
from repro.exec.worker import worker_main
from repro.faults import FaultPlan
from repro.graph import dataset
from repro.graph.generators import erdos_renyi, star_graph
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
    # the request pipes and the flags segment all survive the pickle
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
        # exec.* and the transport-layer net.* names measure wall-clock
        # execution, which only the process backend has
        wallclock_net = {"net.peer_timeouts", "net.coalesced_requests",
                         "net.coalesced_batch_vertices"}
        return {
            (name, labels): value
            for name, labels, value in obs.registry.dump()["counters"]
            if not name.startswith("exec.") and name not in wallclock_net
        }

    assert counters(obs_proc) == pytest.approx(counters(obs_inline))
    emitted = {name for name, _, _ in obs_proc.registry.dump()["counters"]}
    assert "exec.messages" in emitted
    assert "exec.bytes_shipped" in emitted
    exec_extra = report.extra["exec"]
    assert exec_extra["backend"] == "process"
    assert exec_extra["wall_seconds"] > 0.0
    assert len(exec_extra["worker_busy_seconds"]) == 2
    assert exec_extra["bytes_shipped"] > 0
    # exec.queue_depth: request pipes found ready per responder
    # wake-up — with two workers each responder has exactly one
    depth = exec_extra["queue_depth"]
    assert depth["count"] > 0 and depth["min"] == depth["max"] == 1.0
    histograms = {name for name, _, _
                  in obs_proc.registry.dump()["histograms"]}
    assert "exec.queue_depth" in histograms


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


def _ring_fabric(num_workers, capacity=1 << 16, liveness=True):
    """An in-process fabric: real shared-memory rings, real request
    pipes, a plain array for the fleet flags.

    Returns (endpoints, rings); the caller must unlink the rings (the
    parent-side duty the fixture below automates).
    """
    pairs = [(a, b) for a in range(num_workers)
             for b in range(num_workers) if a != b]
    rings = {pair: create_ring(capacity) for pair in pairs}
    endpoints = Endpoints(
        num_workers=num_workers,
        rings={pair: ring.handle for pair, ring in rings.items()},
        requests={pair: multiprocessing.Pipe(duplex=False)
                  for pair in pairs},
        flags=(np.zeros(num_workers + 1, dtype=np.uint8)
               if liveness else None),
    )
    return endpoints, rings


def _unlink_all(rings, *transports):
    for transport in transports:
        transport.close()
    for ring in rings.values():
        ring.unlink()


@exec_faults
def test_transport_collect_aborts_on_dead_peer():
    # a worker dying while a peer blocks on its reply ring must surface
    # PeerDeadError within a bounded wait — never hang on the ring
    graph = erdos_renyi(30, 120, seed=1)
    endpoints, rings = _ring_fabric(2)
    transport = WorkerTransport(0, endpoints, graph)
    try:
        # the request reaches worker 1's pipe, but no responder ever
        # serves it: its reply frame will never land on the ring
        transport.post_chunk(0, [(1, [0, 1])])
        endpoints.flags[1] = 1  # the parent's sweep: worker 1 died
        started = time.monotonic()
        with pytest.raises(PeerDeadError) as excinfo:
            transport.collect(0, 1, [0, 1])
        # one bounded wait, not the 300s reply budget
        assert time.monotonic() - started < 5.0
        assert excinfo.value.peer_worker == 1
        assert excinfo.value.server_machine == 1
        assert transport.liveness_timeouts >= 1
    finally:
        _unlink_all(rings, transport)


@exec_faults
def test_transport_collect_aborts_on_fleet_stop():
    graph = erdos_renyi(30, 120, seed=1)
    endpoints, rings = _ring_fabric(2)
    transport = WorkerTransport(0, endpoints, graph)
    try:
        transport.post_chunk(0, [(1, [0])])
        endpoints.flags[-1] = 1
        with pytest.raises(PeerDeadError):
            transport.collect(0, 1, [0])
    finally:
        _unlink_all(rings, transport)


@exec_faults
def test_transport_join_unblocks_without_shutdown():
    graph = erdos_renyi(30, 120, seed=1)
    endpoints = Endpoints(num_workers=1,
                          flags=np.zeros(2, dtype=np.uint8))
    transport = WorkerTransport(0, endpoints, graph)
    transport.start()
    # nobody ever stops the responder (its worker's main thread
    # "died"); the fleet stop flag alone must end the serve loop, so
    # join() cannot hang
    endpoints.flags[-1] = 1
    assert transport.join(timeout=5.0)
    transport.close()


@exec_faults
def test_transport_stop_unblocks_without_shutdown():
    graph = erdos_renyi(30, 120, seed=1)
    endpoints, rings = _ring_fabric(2, liveness=False)
    transport = WorkerTransport(0, endpoints, graph)
    transport.start()
    started = time.monotonic()
    transport.stop()
    assert transport.join(timeout=5.0)
    # woken through its wake connection, not by waiting out the 1 s
    # liveness poll — a fleet's shutdown must not cost a poll interval
    assert time.monotonic() - started < 0.5
    _unlink_all(rings, transport)


@exec_faults
def test_transport_join_gives_up_on_a_wedged_responder():
    # a requester killed inside a send leaves a torn message; while any
    # process still holds that pipe's write end open the responder's
    # recv cannot finish. worker_main's join() took no timeout and
    # waited on such a responder forever — the stop flag bounds it now.
    graph = erdos_renyi(30, 120, seed=1)
    endpoints, rings = _ring_fabric(2)
    transport = WorkerTransport(1, endpoints, graph)
    transport.start()
    _, writer = endpoints.requests[(0, 1)]
    os.write(writer.fileno(), b"\x00\x00\x10\x00half a message")
    time.sleep(0.2)  # let the responder pick the torn message up
    transport.stop()
    assert not transport.join(timeout=0.3)  # wedged inside recv
    endpoints.flags[-1] = 1
    started = time.monotonic()
    assert not transport.join()  # no timeout: bounded by the flag
    assert time.monotonic() - started < 5.0
    writer.close()  # the last writer goes: EOF ends the torn message
    assert transport.join(timeout=5.0)
    _unlink_all(rings, transport)


# ======================================================================
# shared-memory reply rings
# ======================================================================
def test_ring_round_trip_and_wraparound():
    ring = create_ring(1024)
    try:
        peer = attach_ring(ring.handle)
        rng = np.random.default_rng(7)
        # frames of ~1/3 capacity force the write cursor across the
        # segment edge repeatedly; every byte must survive the wrap
        for _ in range(50):
            frame = rng.integers(0, 255, size=300, dtype=np.uint8)
            peer.write([frame])
            out = ring.read_exact(len(frame))
            assert np.array_equal(out, frame)
        peer.close()
    finally:
        ring.unlink()


def test_ring_backpressure_blocks_until_drained():
    ring = create_ring(1024)
    try:
        producer = attach_ring(ring.handle)
        first = np.full(700, 1, dtype=np.uint8)
        second = np.full(700, 2, dtype=np.uint8)
        producer.write([first])
        done = threading.Event()

        def blocked_write():
            producer.write([second])  # 700 free < 1024: must wait
            done.set()

        thread = threading.Thread(target=blocked_write, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done.is_set()  # backpressured, not dropped
        assert np.array_equal(ring.read_exact(700), first)  # drain
        assert done.wait(5.0)  # freed space unblocks the producer
        assert np.array_equal(ring.read_exact(700), second)
        assert producer.waits >= 1
        thread.join(5.0)
        producer.close()
    finally:
        ring.unlink()


def test_ring_rejects_frames_larger_than_capacity():
    ring = create_ring(1024)
    try:
        with pytest.raises(ValueError, match="exceeds ring capacity"):
            ring.write([np.zeros(2048, dtype=np.uint8)])
    finally:
        ring.unlink()


@exec_faults
def test_ring_waits_abort_via_callback():
    # both wait sides must re-check their abort callback: a consumer
    # waiting on a dead producer and a producer waiting on a dead
    # consumer both surface RingAborted instead of hanging
    ring = create_ring(1024)
    try:
        dead = threading.Event()
        dead.set()
        with pytest.raises(RingAborted):
            ring.read_exact(8, abort=dead.is_set)
        ring.write([np.zeros(800, dtype=np.uint8)])
        with pytest.raises(RingAborted):
            ring.write([np.zeros(800, dtype=np.uint8)], abort=dead.is_set)
    finally:
        ring.unlink()


def test_ring_capacity_is_raised_to_hold_the_largest_list():
    # the hub's edge list exceeds the requested ring size: the backend
    # sizes the ring to hold it, so the reply is an ordinary frame and
    # reassembles bit-identically — there is no second transport mode
    graph = star_graph(600)  # hub degree 600 x int32 > 1024 bytes
    hub_bytes = graph.max_degree() * graph.indices.dtype.itemsize
    capacity = ring_capacity(1024, graph)
    assert capacity == FRAME_HEADER_BYTES + hub_bytes
    assert ring_capacity(1 << 20, graph) == 1 << 20  # never lowered
    endpoints, rings = _ring_fabric(2, capacity=capacity)
    requester = WorkerTransport(0, endpoints, graph)
    responder = WorkerTransport(1, endpoints, graph)
    responder.start()
    try:
        requester.post_chunk(0, [(1, [0, 1, 2])])
        payload = requester.collect(0, 1, [0, 1, 2])
        expected, _ = graph.neighbors_batch(np.array([0, 1, 2]))
        assert np.array_equal(payload, expected)
        assert requester.frames_received >= 1
    finally:
        responder.stop()
        responder.join(timeout=5.0)
        _unlink_all(rings, requester, responder)

    # end to end: the run reports the capacity it settled on
    obs = Observability()
    proc = KAutomine(graph, ClusterConfig(num_machines=2), obs=obs,
                     backend=ProcessBackend(workers=2, ring_bytes=1024))
    report = proc.count_pattern(catalog.chain(3))
    assert report.counts == KAutomine(
        graph, ClusterConfig(num_machines=2)
    ).count_pattern(catalog.chain(3)).counts
    assert report.extra["exec"]["ring_bytes"] == capacity
    gauges = {name: value
              for name, _, value in obs.registry.dump()["gauges"]}
    assert gauges["exec.ring.capacity_bytes"] == capacity

    # a transport handed a ring smaller than a requested list fails
    # loudly instead of posting a request whose reply cannot fit
    endpoints, rings = _ring_fabric(2, capacity=1024)
    requester = WorkerTransport(0, endpoints, graph)
    try:
        with pytest.raises(ValueError, match="cannot fit"):
            requester.post_chunk(0, [(1, [0])])
    finally:
        _unlink_all(rings, requester)


def test_transport_round_trip_matches_direct_reads():
    # in-budget frames stream through the ring; the reassembled
    # per-machine payloads must match direct graph reads exactly
    graph = erdos_renyi(200, 2000, seed=9)
    endpoints, rings = _ring_fabric(2, capacity=1 << 15)
    requester = WorkerTransport(0, endpoints, graph)
    responder = WorkerTransport(1, endpoints, graph)
    responder.start()
    try:
        batches = [(1, list(range(1, 40))), (3, list(range(40, 90)))]
        requester.post_chunk(0, batches)
        for machine, vertices in batches:
            payload = requester.collect(0, machine, vertices)
            expected, _ = graph.neighbors_batch(
                np.asarray(vertices, dtype=np.int64))
            assert np.array_equal(payload, expected)
        assert requester.frames_received >= 1
        # machines 0 and 2 live on worker 0 itself: local fast path
        local = requester.collect(0, 2, [5, 6])
        expected, _ = graph.neighbors_batch(np.array([5, 6]))
        assert np.array_equal(local, expected)
        assert requester.local_requests == 1
    finally:
        responder.stop()
        responder.join(timeout=5.0)
        _unlink_all(rings, requester, responder)


# ======================================================================
# frame integrity — magic/sequence validation
# ======================================================================
def test_frame_corruption_raises_structured_error():
    from repro.errors import TransportCorruptionError
    from repro.exec.transport import FRAME_DATA, FRAME_MAGIC

    graph = erdos_renyi(30, 120, seed=1)
    endpoints, rings = _ring_fabric(2)
    requester = WorkerTransport(0, endpoints, graph)
    try:
        vertices = [0, 1]
        requester.post_chunk(0, [(1, vertices)])
        expected, _ = graph.neighbors_batch(
            np.asarray(vertices, dtype=np.int64))
        # impersonate worker 1's responder with a frame whose magic
        # word is garbage (payload length is right, so only the header
        # check can catch it)
        writer = attach_ring(endpoints.rings[(1, 0)])
        header = np.array(
            [FRAME_MAGIC ^ 0xFF, 0, FRAME_DATA, len(expected)],
            dtype=np.int64,
        ).view(np.uint8)
        payload = np.zeros(expected.nbytes, dtype=np.uint8)
        writer.write([np.concatenate([header, payload])])
        with pytest.raises(TransportCorruptionError) as excinfo:
            requester.collect(0, 1, vertices)
        assert excinfo.value.worker_id == 0
        assert excinfo.value.peer_worker == 1
        assert "magic" in str(excinfo.value)
        writer.close()
    finally:
        _unlink_all(rings, requester)


def test_frame_sequence_gap_raises_structured_error():
    from repro.errors import TransportCorruptionError

    graph = erdos_renyi(200, 2000, seed=9)
    endpoints, rings = _ring_fabric(2, capacity=1 << 15)
    requester = WorkerTransport(0, endpoints, graph)
    responder = WorkerTransport(1, endpoints, graph)
    responder.start()
    try:
        # the requester missed a frame: its expected per-pair sequence
        # number no longer matches what the responder publishes
        requester._frame_seq_in[1] = 7
        requester.post_chunk(0, [(1, [1, 2, 3])])
        with pytest.raises(TransportCorruptionError, match="sequence"):
            requester.collect(0, 1, [1, 2, 3])
    finally:
        responder.stop()
        responder.join(timeout=5.0)
        _unlink_all(rings, requester, responder)


def test_frame_sequence_advances_per_pair():
    graph = erdos_renyi(200, 2000, seed=9)
    endpoints, rings = _ring_fabric(2, capacity=1 << 15)
    requester = WorkerTransport(0, endpoints, graph)
    responder = WorkerTransport(1, endpoints, graph)
    responder.start()
    try:
        for round_no in range(3):
            requester.post_chunk(0, [(1, [1, 2])])
            payload = requester.collect(0, 1, [1, 2])
            expected, _ = graph.neighbors_batch(
                np.asarray([1, 2], dtype=np.int64))
            assert np.array_equal(payload, expected)
        # three validated frames: both sides agree on the next number
        assert requester._frame_seq_in[1] == 3
        assert responder._frame_seq_out[0] == 3
    finally:
        responder.stop()
        responder.join(timeout=5.0)
        _unlink_all(rings, requester, responder)


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
    # half a CKPT delta, half a RESULT, half a peer fetch request: each
    # used to be a TIMEOUT at the full budget, a report followed by a
    # parent that never exits, or a wedged peer (docs/execution.md).
    # The scenario also holds the CLI to exiting within 30 s with no
    # child and no segment left
    for kind, which in chaos.TORN_MESSAGES:
        chaos.scenario_worker_torn_message(
            chaos_oracle, workers, kind, which, policy)


@exec_faults
def test_worker_that_dies_after_its_result_is_not_a_loss(chaos,
                                                         chaos_oracle):
    # worker 1 of 3 hosts machine 1: its deltas, its RESULT, then the
    # STATS message it is killed inside. Nothing it owed is missing, so
    # even ``fail`` reports a clean run — structurally (the RESULT was
    # in the pipe before the death could be seen), not by luck of a
    # feeder thread's flush
    ordinal = chaos_oracle["deltas"][1] + 2
    proc = chaos.run_cli(
        ["--backend", "process", "--workers", "3", "--heartbeat", "0.2"],
        chaos=f"worker-kill-midsend:1:{ordinal}", timeout=30)
    report = chaos.report_of(proc)
    assert report.get("failure") is None
    assert report["counts"] == chaos_oracle["counts"]
    assert report["simulated_seconds"] == chaos_oracle["simulated_seconds"]
    assert report["extra"]["exec"]["worker_deaths"] == 1
    chaos.assert_nothing_left(proc)


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


def test_adaptive_chunker_grows_and_shrinks():
    chunker = AdaptiveChunker(1 << 20, min_bytes=4096)
    start = chunker.target_bytes
    chunker.begin_round()   # no previous round: no adaptation
    chunker.begin_round()   # instant previous round: IPC-dominated
    assert chunker.target_bytes == min(start * 2, chunker.max_bytes)
    assert chunker.grows == 1
    chunker._round_started -= 10.0  # fake a long round
    chunker.begin_round()
    assert chunker.shrinks == 1
    # clamped: never below min_bytes, never above ring capacity
    for _ in range(40):
        chunker._round_started -= 10.0
        chunker.begin_round()
    assert chunker.target_bytes == chunker.min_bytes
    for _ in range(40):
        chunker._round_started = time.perf_counter()
        chunker.begin_round()
    assert chunker.target_bytes == chunker.max_bytes


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


def test_fabric_has_one_transport_mode_and_no_shared_channels():
    endpoints = Endpoints(num_workers=2)
    for gone in ("inboxes", "fallbacks", "controls", "deaths", "stop"):
        assert not hasattr(endpoints, gone), gone
    transport_source = (_SRC / "exec" / "transport.py").read_text()
    assert "FRAME_FALLBACK" not in transport_source
    assert "fallback" not in transport_source.lower()
