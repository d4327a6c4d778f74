"""Tests for the resident mining service (docs/service.md).

The acceptance contract of the service layer:

- a mixed trace served by one resident server returns counts
  bit-identical to fresh one-shot runs of each query;
- per-query metrics registries are disjoint and fold into the
  server-lifetime registry by summation;
- the admission controller turns over-budget queries into structured
  ``REJECTED`` reports instead of exceptions;
- shutdown is leak-free: the queue drains into ``REJECTED`` reports
  and the shm janitor runs exactly once;
- a serving worker dying mid-query degrades that one query to
  ``CRASHED`` while the server survives and respawns the worker.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.engine import EngineConfig
from repro.errors import ConfigurationError
from repro.faults.recovery import FailureSummary, Outcome
from repro.graph import dataset
from repro.obs import Observability
from repro.service import (
    AdmissionController,
    MiningServer,
    PriorityJobQueue,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
    estimate_query_bytes,
    parse_pattern_spec,
)
from repro.service.protocol import jsonable_counts, refusal_payload
from repro.systems import KAutomine, KGraphPi, motif_count

pytestmark = pytest.mark.service

#: the small serving shape every test uses (mico at scale 0.2 on a
#: 2x2 simulated cluster — triangle count 1562, clique4 count 552)
SMALL = dict(graph="mico", scale=0.2, machines=2, cores=2)


def small_server(**overrides) -> MiningServer:
    config = ServiceConfig(**{**SMALL, **overrides})
    return MiningServer(config).start()


def one_shot(request: QueryRequest, config: ServiceConfig):
    """Run one query the one-shot way: fresh system, fresh engine —
    exactly what a standalone CLI invocation does."""
    graph = dataset(config.graph, scale=config.scale, labeled=False)
    system_name = request.system or config.system
    cls = KGraphPi if system_name == "k-graphpi" else KAutomine
    system = cls(graph, config.cluster_config(), graph_name=config.graph)
    if request.app == "motifs":
        report = motif_count(system, request.size)
    else:
        report = system.count_pattern(
            parse_pattern_spec(request.effective_pattern()),
            induced=request.induced,
            oriented=request.oriented,
        )
    return jsonable_counts(report.counts)


def mixed_trace() -> list[QueryRequest]:
    """A 20-query mixed trace: every app, both systems, induced and
    oriented variants, interleaved priorities."""
    requests = [
        QueryRequest(id="t0", app="triangle", priority=2),
        QueryRequest(id="c4", app="count", pattern="clique4", priority=0),
        QueryRequest(id="m3", app="motifs", size=3, priority=5),
        QueryRequest(id="ch3", app="count", pattern="chain3", priority=1),
        QueryRequest(id="cy4", app="count", pattern="cycle4", priority=3),
        QueryRequest(id="s3", app="count", pattern="star3", priority=0),
        QueryRequest(id="t1", app="triangle", system="k-graphpi",
                     priority=4),
        QueryRequest(id="c4o", app="count", pattern="clique4",
                     oriented=True, priority=2),
        QueryRequest(id="ch3i", app="count", pattern="chain3",
                     induced=True, priority=1),
        QueryRequest(id="hs", app="count", pattern="house", priority=0),
        QueryRequest(id="tt", app="count", pattern="tailed_triangle",
                     priority=3),
        QueryRequest(id="m3g", app="motifs", size=3, system="k-graphpi",
                     priority=1),
        QueryRequest(id="e1", app="count", pattern="0-1,1-2,0-2",
                     priority=2),
        QueryRequest(id="c5", app="count", pattern="clique5", priority=0),
        QueryRequest(id="cy5", app="count", pattern="cycle5", priority=4),
        QueryRequest(id="s4", app="count", pattern="star4", priority=1),
        QueryRequest(id="t2", app="triangle", oriented=True, priority=0),
        QueryRequest(id="ch4", app="count", pattern="chain4", priority=2),
        QueryRequest(id="c4g", app="count", pattern="clique4",
                     system="k-graphpi", priority=5),
        QueryRequest(id="t3", app="triangle", priority=0),
    ]
    assert len(requests) == 20
    return requests


# ---------------------------------------------------------------------
# protocol units
# ---------------------------------------------------------------------
def test_rejected_outcome_is_structured():
    assert Outcome.REJECTED.value == "REJECTED"
    summary = FailureSummary(Outcome.REJECTED, message="cap exceeded")
    assert summary.fatal
    assert summary.to_dict()["outcome"] == "REJECTED"


def test_request_roundtrip_and_validation():
    request = QueryRequest(id="x", app="count", pattern="clique4",
                           priority=3)
    assert QueryRequest.from_dict(request.to_dict()) == request
    with pytest.raises(ConfigurationError):
        QueryRequest.from_json_line("not json at all")
    with pytest.raises(ConfigurationError):
        QueryRequest.from_json_line('{"bogus_field": 1}')
    # the knob that chose between two chunk loops is gone with the
    # second loop: an old client still sending it is told so by name
    with pytest.raises(ConfigurationError,
                       match="unknown request field.*extend_mode"):
        QueryRequest.from_json_line('{"extend_mode": "batched"}')
    with pytest.raises(ConfigurationError):
        QueryRequest(app="frobnicate").validate()
    with pytest.raises(ConfigurationError):
        QueryRequest(pattern="dodecahedron").validate()
    with pytest.raises(ConfigurationError):
        QueryRequest(induced=True, oriented=True).validate()
    with pytest.raises(ConfigurationError):
        QueryRequest(app="motifs", size=9).validate()
    # the test hooks left the wire schema (they sit behind REPRO_CHAOS):
    # a client that could make a serving worker exit with one JSON
    # field is told the field does not exist
    with pytest.raises(ConfigurationError,
                       match="unknown request field.*chaos"):
        QueryRequest.from_json_line('{"chaos": "exit"}')


def test_request_arity_drives_admission_estimate():
    assert QueryRequest(app="triangle").arity() == 3
    assert QueryRequest(pattern="clique6").arity() == 6
    assert QueryRequest(app="motifs", size=4).arity() == 4
    # deeper patterns book more chunk memory (pre-clamp)
    small = estimate_query_bytes(10_000, 3, 2, 1 << 30)
    large = estimate_query_bytes(10_000, 6, 2, 1 << 30)
    assert large > small


def test_priority_queue_orders_strictly_then_fifo():
    queue = PriorityJobQueue()
    queue.push(0, "low-a")
    queue.push(5, "high")
    queue.push(0, "low-b")
    queue.push(2, "mid")
    assert queue.peek() == "high"
    assert [queue.pop() for _ in range(len(queue))] == [
        "high", "mid", "low-a", "low-b",
    ]
    queue.push(1, "x")
    queue.push(9, "y")
    assert queue.drain() == ["y", "x"]
    assert not queue


def test_admission_controller_verdicts():
    controller = AdmissionController(cap_bytes=1000, baseline_bytes=300)
    assert controller.decide(500) == "admit"
    assert controller.decide(800) == "reject"  # 300 + 800 > 1000
    controller.admit("q1", 500)
    assert controller.inflight_bytes == 500
    # would fit an empty server, so it waits rather than rejects
    assert controller.decide(400) == "wait"
    controller.release("q1")
    assert controller.decide(400) == "admit"
    snapshot = controller.snapshot()
    assert snapshot["cap_bytes"] == 1000
    assert snapshot["inflight_bytes"] == 0


# ---------------------------------------------------------------------
# the resident server: equivalence with one-shot runs
# ---------------------------------------------------------------------
def test_mixed_trace_matches_one_shot_runs():
    """The acceptance trace: 20 mixed queries through one resident
    server return counts bit-identical to 20 fresh one-shot runs."""
    server = small_server()
    try:
        reports = ServiceClient(server).run_trace(mixed_trace())
        assert [r.id for r in reports] == [r.id for r in mixed_trace()]
        for request, report in zip(mixed_trace(), reports):
            assert report.ok, f"{request.id}: {report.message()}"
            assert report.counts == one_shot(request, server.config), (
                f"{request.id} diverged from its one-shot run"
            )
            assert report.report is not None
            assert report.failure is None
    finally:
        summary = server.shutdown()
    assert summary["queries"] == 20
    assert summary["ok"] == 20
    assert summary["failed"] == 0
    # known-good spot values for the serving shape
    by_id = {r.id: r for r in reports}
    assert by_id["t0"].counts == 1562
    assert by_id["c4"].counts == 552


def test_concurrent_clients_process_lane_match_one_shot():
    """Queries raced from concurrent threads onto a two-worker process
    pool still come back bit-identical to one-shot runs."""
    server = small_server(workers=2, heartbeat=0.2)
    client = ServiceClient(server)
    requests = [
        QueryRequest(id="p0", app="triangle"),
        QueryRequest(id="p1", app="count", pattern="clique4"),
        QueryRequest(id="p2", app="motifs", size=3),
        QueryRequest(id="p3", app="count", pattern="chain3"),
        QueryRequest(id="p4", app="triangle", system="k-graphpi"),
        QueryRequest(id="p5", app="count", pattern="star3"),
    ]
    results: dict[str, object] = {}

    def run(request: QueryRequest) -> None:
        results[request.id] = client.query(request, timeout=120.0)

    try:
        threads = [threading.Thread(target=run, args=(r,))
                   for r in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert len(results) == len(requests)
        workers_used = set()
        for request in requests:
            report = results[request.id]
            assert report.ok, f"{request.id}: {report.message()}"
            assert report.counts == one_shot(request, server.config)
            workers_used.add(report.worker)
        # the pool actually served them (not the in-process lane)
        assert workers_used <= {0, 1} and None not in workers_used
    finally:
        summary = server.shutdown()
    assert summary["ok"] == len(requests)
    assert server.janitor_runs == 1  # shared segments unlinked once


def test_priority_order_under_load(monkeypatch):
    """With the serial lane blocked, a later high-priority query
    overtakes earlier low-priority ones (FIFO within a class)."""
    monkeypatch.setenv("REPRO_CHAOS", "query-sleep:blocker:400")
    server = small_server()
    client = ServiceClient(server)
    try:
        blocker = client.submit(id="blocker", app="triangle")
        # wait until the blocker actually occupies the serial lane so
        # the rest genuinely queue behind it
        deadline = 50
        while blocker.dispatch_time is None and deadline:
            time.sleep(0.02)
            deadline -= 1
        low_a = client.submit(id="low-a", app="triangle", priority=0)
        low_b = client.submit(id="low-b", app="triangle", priority=0)
        high = client.submit(id="high", app="triangle", priority=9)
        for handle in (blocker, low_a, low_b, high):
            handle.result(timeout=60.0)
        order = server.completed_ids()
        assert order == ["blocker", "high", "low-a", "low-b"]
        # callers got the full engine report; the resident server keeps
        # only what its session summary reads, or it would grow by a
        # RunReport per query served
        assert high.result().report is not None
        assert all(kept.report is None and kept.metrics is None
                   for kept in server._completed)
    finally:
        server.shutdown()


# ---------------------------------------------------------------------
# admission control and failure semantics
# ---------------------------------------------------------------------
def test_admission_rejects_over_budget_query():
    """A deep pattern books more chunk memory than a 16 MiB resident
    cap allows; the query ends REJECTED — structured, not raised —
    while a shallow one on the same server is served fine."""
    server = small_server(resident_mb=16)
    client = ServiceClient(server)
    try:
        ok = client.query(id="fits", app="triangle")
        assert ok.ok and ok.counts == 1562
        rejected = client.query(id="deep", app="count", pattern="clique6")
        assert rejected.outcome == "REJECTED"
        assert rejected.fatal
        assert rejected.counts is None and rejected.report is None
        assert "admission rejected" in rejected.message()
        # the verdict matches the public estimator
        estimate = estimate_query_bytes(
            server.graph.size_bytes(), 6, server.config.machines,
            server.config.cluster_config().memory_bytes,
        )
        assert (estimate + server.graph.size_bytes()
                > server.config.resident_cap_bytes)
    finally:
        summary = server.shutdown()
    assert summary["rejected"] == 1
    assert summary["ok"] == 1


def test_malformed_and_duplicate_queries_reject_not_raise():
    server = small_server()
    client = ServiceClient(server)
    try:
        bad = client.query(id="bad", app="count", pattern="dodecahedron")
        assert bad.outcome == "REJECTED"
        assert "dodecahedron" in bad.message()
        first = client.query(id="dup", app="triangle")
        assert first.ok
        second = client.query(id="dup", app="triangle")
        assert second.outcome == "REJECTED"
        assert "duplicate" in second.message()
    finally:
        server.shutdown()


def test_time_budget_exceeded_reports_timeout():
    server = small_server()
    client = ServiceClient(server)
    try:
        report = client.query(id="slow", app="triangle",
                              time_budget=1e-12)
        assert report.outcome == Outcome.TIMEOUT.value
        assert report.fatal
        assert "budget" in report.message()
    finally:
        server.shutdown()


def test_worker_death_degrades_one_query_not_the_server(monkeypatch):
    """The PR-7 contract carried over: a serving worker SIGKILLing
    itself mid-query yields one CRASHED report, a respawned worker,
    and an immediately healthy server."""
    monkeypatch.setenv("REPRO_CHAOS", "query-exit:victim:1")
    server = small_server(workers=1, heartbeat=0.1)
    client = ServiceClient(server)
    try:
        victim = client.query(id="victim", app="triangle", timeout=60.0)
        assert victim.outcome == Outcome.CRASHED.value
        assert "died mid-query" in victim.message()
        healthy = client.query(id="after", app="triangle", timeout=60.0)
        assert healthy.ok and healthy.counts == 1562
        assert server.worker_deaths == 1
    finally:
        summary = server.shutdown()
    assert summary["worker_deaths"] == 1
    assert summary["ok"] == 1
    assert server.janitor_runs == 1


def test_worker_death_before_pickup_does_not_wedge_the_lane():
    """The dispatch window the 'query-exit' hook cannot reach: the
    worker dies *between* the dispatcher's send and its own recv. The
    respawned incarnation must never answer the leftover request (it
    was already reported CRASHED) — a replayed result used to
    desynchronize the lane and wedge it forever."""
    server = small_server(workers=1, heartbeat=0.4)
    client = ServiceClient(server)
    try:
        warmup = client.query(id="warmup", app="triangle", timeout=60.0)
        assert warmup.ok
        # kill the idle worker; until the collector has seen the death
        # the dispatcher still believes the lane is free, so the next
        # request may be sent to a dead worker
        os.kill(server._lanes[0].process.pid, signal.SIGKILL)
        orphaned = client.query(id="orphaned", app="triangle",
                                timeout=60.0)
        # CRASHED when dispatched into the death window, OK if the
        # sweep respawned first — either way it must terminate
        assert orphaned.outcome in ("OK", Outcome.CRASHED.value)
        # the lane is not wedged: later queries still complete
        for i in range(2):
            healthy = client.query(id=f"after-{i}", app="triangle",
                                   timeout=60.0)
            assert healthy.ok and healthy.counts == 1562
    finally:
        summary = server.shutdown()
    assert summary["worker_deaths"] == 1
    assert summary["queries"] == 4


def test_stale_inbox_request_is_discarded_by_respawned_worker():
    """A request tagged with a dead predecessor's epoch (left behind
    in the dispatch window) must be dropped, never replayed — a
    replayed result answers a query the server already reported
    CRASHED and desynchronizes the lane. The lane refuses to send it;
    one that slips past that check (the race the worker-side discard
    exists for) is dropped by the worker."""
    server = small_server(workers=1, heartbeat=0.1)
    client = ServiceClient(server)
    try:
        lane = server._lanes[0]
        ghost = QueryRequest(id="ghost", app="triangle")
        assert not lane.send(ghost, epoch=lane.epoch - 1)
        lane._commands.send((lane.epoch - 1, ghost))
        healthy = client.query(id="after", app="triangle", timeout=60.0)
        assert healthy.ok and healthy.counts == 1562
        assert server.completed_ids() == ["after"]
    finally:
        summary = server.shutdown()
    assert summary["queries"] == 1


def test_mismatched_result_never_frees_a_busy_worker(monkeypatch):
    """A result that does not answer the query a lane is serving must
    not pop the in-flight handle or free the busy worker. (Results
    from dead incarnations cannot arrive at all — their private pipe
    reader is closed at respawn — so the id guard is the last line.)"""
    monkeypatch.setenv("REPRO_CHAOS", "query-sleep:blocker:500")
    server = small_server(workers=1, heartbeat=0.1)
    client = ServiceClient(server)
    try:
        blocker = client.submit(id="blocker", app="triangle")
        deadline = 100
        while blocker.dispatch_time is None and deadline:
            time.sleep(0.02)
            deadline -= 1
        stale = refusal_payload(Outcome.CRASHED, "stale incarnation")
        server._handle_result(0, "bogus", stale)
        report = blocker.result(timeout=60.0)
        assert report.ok and report.counts == 1562
        healthy = client.query(id="after", app="triangle", timeout=60.0)
        assert healthy.ok
        assert server.completed_ids() == ["blocker", "after"]
    finally:
        summary = server.shutdown()
    assert summary["ok"] == 2
    assert summary["worker_deaths"] == 0


def test_request_with_a_chaos_field_is_rejected_not_obeyed(tmp_path,
                                                           capsys):
    """``chaos`` is not a request field any more: a ``serve`` client
    that sends it gets a REJECTED report naming the unknown field, the
    worker it used to kill stays up, and the next query is served."""
    from repro.__main__ import main

    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        '{"id": "bad-chaos", "app": "triangle", "chaos": "exit"}\n'
        '{"id": "after", "app": "triangle"}\n'
    )
    code = main(["serve", "--graph", "mico", "--scale", "0.2",
                 "--machines", "2", "--cores", "2", "--workers", "1",
                 "--heartbeat", "0.1", "--input", str(trace)])
    assert code == 1  # a rejected query is a fatal outcome
    out = capsys.readouterr().out
    rejected = next(line for line in out.splitlines()
                    if line.startswith("outcome: REJECTED"))
    assert "unknown request field(s): chaos" in rejected
    assert "outcome: OK query=after" in out
    assert "service session: 2 queries (ok=1 rejected=1 failed=0)" in out


# ---------------------------------------------------------------------
# metrics isolation
# ---------------------------------------------------------------------
def test_per_query_metrics_snapshots_are_disjoint():
    """Each query gets a fresh registry: its snapshot equals a
    standalone instrumented run of the same query, and the
    server-lifetime registry holds the sum."""
    server = small_server(metrics=True)
    client = ServiceClient(server)
    try:
        triangle = client.query(id="t", app="triangle")
        clique4 = client.query(id="c", app="count", pattern="clique4")
        assert triangle.metrics is not None
        assert clique4.metrics is not None
        # disjoint registries: different queries, different counters
        assert triangle.metrics != clique4.metrics

        def standalone(request: QueryRequest) -> dict:
            graph = dataset(SMALL["graph"], scale=SMALL["scale"],
                            labeled=False)
            system = KAutomine(graph, server.config.cluster_config(),
                               graph_name=SMALL["graph"])
            obs = Observability()
            system.reconfigure(EngineConfig(), obs)
            system.count_pattern(
                parse_pattern_spec(request.effective_pattern()))
            return obs.registry.snapshot()

        assert triangle.metrics == standalone(QueryRequest(app="triangle"))
        assert clique4.metrics == standalone(
            QueryRequest(pattern="clique4"))
    finally:
        summary = server.shutdown()
    # the lifetime registry absorbed both per-query registries
    lifetime = summary["metrics"]["counters"]
    for name in ("extend.calls", "extend.matches_emitted"):
        per_query = sum(
            sum(report.metrics["counters"][name].values())
            for report in (triangle, clique4)
        )
        assert sum(lifetime[name].values()) == per_query
    assert sum(lifetime["service.queries"].values()) == 2


def test_service_counters_track_outcomes():
    server = small_server(metrics=True)
    client = ServiceClient(server)
    try:
        client.query(id="ok", app="triangle")
        client.query(id="no", app="count", pattern="garbage-spec")
        client.query(id="late", app="triangle", time_budget=1e-12)
    finally:
        summary = server.shutdown()
    counters = summary["metrics"]["counters"]
    assert sum(counters["service.queries"].values()) == 3
    assert sum(counters["service.rejected"].values()) == 1
    assert sum(counters["service.failed"].values()) == 1
    histograms = summary["metrics"]["histograms"]
    assert sum(h["count"] for h in
               histograms["service.latency_seconds"].values()) == 3


# ---------------------------------------------------------------------
# leak-free shutdown
# ---------------------------------------------------------------------
def test_shutdown_drains_queue_and_runs_janitor_once(tmp_path,
                                                     monkeypatch):
    """Shutdown mid-stream: the in-flight query finishes inside the
    drain budget, queued queries come back REJECTED, and repeated
    shutdowns keep the summary stable with one janitor run."""
    monkeypatch.setenv("REPRO_CHAOS", "query-sleep:inflight:400")
    server = small_server(workers=1, heartbeat=0.1,
                          checkpoint_dir=str(tmp_path / "svc"))
    client = ServiceClient(server)
    blocker = client.submit(id="inflight", app="triangle")
    queued = [client.submit(id=f"queued-{i}", app="triangle")
              for i in range(3)]
    # let the blocker reach the worker before draining
    deadline = 50
    while blocker.dispatch_time is None and deadline:
        time.sleep(0.05)
        deadline -= 1
    summary = server.shutdown()
    assert blocker.result(timeout=1.0).ok
    for handle in queued:
        report = handle.result(timeout=1.0)
        assert report.outcome == "REJECTED"
        assert "shutting down" in report.message()
    assert summary["queries"] == 4
    assert summary["rejected"] == 3
    assert server.janitor_runs == 1
    # idempotent: same summary object, no second janitor run
    assert server.shutdown() is summary
    assert server.janitor_runs == 1
    # the shm ledger was cleared by the janitor
    assert not (tmp_path / "svc" / "shm.json").exists()


def test_submit_after_shutdown_is_rejected_structurally():
    server = small_server()
    client = ServiceClient(server)
    server.shutdown()
    report = client.query(id="late", app="triangle")
    assert report.outcome == "REJECTED"
    assert "shutting down" in report.message()


def test_client_context_manager_shuts_down():
    server = small_server()
    with ServiceClient(server) as client:
        assert client.query(app="triangle").ok
    assert server.janitor_runs == 1
    assert server.shutdown()["queries"] == 1


def test_server_refuses_graph_larger_than_cap():
    config = ServiceConfig(**SMALL)
    config.resident_mb = 0  # dodge the ctor check to exercise start()
    with pytest.raises(ConfigurationError):
        MiningServer(config).start()
