"""The resident mining server (docs/service.md).

One :class:`MiningServer` owns everything a one-shot CLI run pays per
invocation: the loaded graph, the partitioned cluster(s), and — when
``workers > 0`` — a pool of serving processes that map the graph's
store (:mod:`repro.graph.csr`; a RAM graph is written as one once).
Queries flow

    submit -> admission (reject | queue) -> priority queue
           -> dispatch to a lane -> QueryReport

with two lanes to dispatch to:

- ``workers == 0`` — the in-process serial lane: the supervisor thread
  itself runs each query through a resident
  :class:`~repro.service.worker.QueryExecutor`.
- ``workers > 0`` — one supervised :class:`~repro.exec.lane.Lane` per
  serving worker process (the primitive under the process backend's
  fleet too), so a worker dying mid-query degrades exactly that query
  to ``CRASHED`` and is respawned — the server survives.

One supervisor thread does all of it. It blocks on one persistent
:class:`~repro.exec.lane.Poller` over the lanes' result pipes and a
wake pipe (a submission that finds a lane idle wakes it), at most
``heartbeat`` seconds at a time. Each pass takes the delivered results
(drain before death), frees their lanes, respawns the dead and assigns
the queue head to every free lane, then reports the finished queries
and sends the assigned ones.

The first ``shutdown()`` drains the queue into ``REJECTED`` reports,
bounds the wait for in-flight queries (``TIMEOUT`` past the drain
budget) and stops the lanes. A server creates nothing it must remove:
the graph's store outlives it, so a SIGKILL leaves nothing to reap and
the next server maps the same store.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.cluster.cluster import ClusterConfig
from repro.exec.lane import Lane, Poller
from repro.faults.recovery import Outcome
from repro.graph.csr import share_csr
from repro.graph.datasets import DATASETS, load_dataset
from repro.obs import Observability, names
from repro.service.admission import (
    AdmissionController,
    estimate_query_bytes,
    resident_baseline_bytes,
)
from repro.service.jobqueue import PriorityJobQueue
from repro.service.protocol import (
    SYSTEMS,
    QueryReport,
    QueryRequest,
    check_engine_knobs,
    refusal_payload,
)
from repro.service.worker import QueryExecutor, service_worker_main


@dataclass
class ServiceConfig:
    """Server-lifetime configuration, validated up front.

    Everything here is fixed for the life of the server — per-query
    knobs live on :class:`~repro.service.protocol.QueryRequest`. A bad
    value raises :class:`ConfigurationError` at construction (the
    ``serve`` subcommand surfaces that before reading any query).
    """

    graph: str = "mico"
    scale: float = 1.0
    machines: int = 8
    cores: int = 16
    sockets: int = 2
    #: per-machine simulated memory budget in KiB; None keeps the
    #: 64 MiB testbed analogue
    memory_kb: Optional[int] = None
    #: default ported system for requests that name none
    system: str = "k-automine"
    #: serving worker processes; 0 = the in-process serial lane
    workers: int = 0
    #: resident cap the admission controller schedules against
    resident_mb: int = 512
    #: graph storage backing: ``ram`` | ``mmap`` | ``auto`` — ``auto``
    #: goes out-of-core when the graph exceeds the resident cap
    #: (docs/storage.md)
    storage: str = "ram"
    #: per-query metrics snapshots + a server-lifetime registry
    metrics: bool = False
    #: worker liveness-sweep interval (wall-clock seconds)
    heartbeat: float = 0.25
    #: shutdown waits this long for in-flight queries before
    #: returning TIMEOUT reports for them
    drain_seconds: float = 60.0
    #: server-side defaults a request may override per query
    time_budget: Optional[float] = None
    chunk_bytes: Optional[int] = None
    counting: Optional[str] = None

    def __post_init__(self):
        if self.graph not in DATASETS:
            raise ConfigurationError(
                f"unknown graph {self.graph!r}; pick one of "
                f"{sorted(DATASETS)}"
            )
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.machines < 1:
            raise ConfigurationError("need at least one machine")
        if self.cores < 2:
            raise ConfigurationError("need at least two cores per machine")
        if self.sockets < 1:
            raise ConfigurationError("need at least one socket")
        if self.memory_kb is not None and self.memory_kb <= 0:
            raise ConfigurationError("memory_kb must be positive")
        if self.system not in SYSTEMS:
            raise ConfigurationError(
                f"system must be one of {SYSTEMS}, got {self.system!r}"
            )
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.resident_mb <= 0:
            raise ConfigurationError("resident_mb must be positive")
        if self.storage not in ("ram", "mmap", "auto"):
            raise ConfigurationError(
                f"storage must be 'ram', 'mmap', or 'auto', "
                f"got {self.storage!r}"
            )
        if self.heartbeat <= 0:
            raise ConfigurationError("heartbeat must be positive")
        if self.drain_seconds <= 0:
            raise ConfigurationError("drain_seconds must be positive")
        check_engine_knobs(self)

    def cluster_config(self) -> ClusterConfig:
        kwargs: dict[str, Any] = {}
        if self.memory_kb is not None:
            kwargs["memory_bytes"] = self.memory_kb << 10
        return ClusterConfig(
            num_machines=self.machines,
            cores_per_machine=self.cores,
            sockets_per_machine=self.sockets,
            **kwargs,
        )

    @property
    def resident_cap_bytes(self) -> int:
        return self.resident_mb << 20


class QueryHandle:
    """Future-like handle for one submitted query."""

    def __init__(self, request: QueryRequest, estimate: int):
        self.request = request
        #: admission estimate charged while the query is in flight
        self.estimate = estimate
        self.submit_time = perf_counter()
        self.dispatch_time: Optional[float] = None
        self.worker: Optional[int] = None
        self.report: Optional[QueryReport] = None
        self._event = threading.Event()
        #: set, under the server's lock, by the one path that reports
        #: this query: the drain path and a late lane result may race
        self._claimed = False

    def _resolve(self, report: QueryReport) -> None:
        self.report = report
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryReport:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.request.id} not finished within {timeout}s"
            )
        assert self.report is not None
        return self.report


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class MiningServer:
    """A resident engine answering a stream of mining queries."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.graph = None
        self.worker_deaths = 0
        self._obs = Observability()  # server-lifetime registry
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending = PriorityJobQueue()
        self._active: dict[str, QueryHandle] = {}
        self._completed: list[QueryReport] = []
        self._ids: set[str] = set()
        self._sequence = 0
        self._stopping = False
        self._started = False
        self._started_at = 0.0
        self._summary: Optional[dict] = None
        self._shutdown_lock = threading.Lock()
        self._supervisor: Optional[threading.Thread] = None
        self._poller: Optional[Poller] = None
        self._halt = False  # every query settled: the supervisor leaves
        self._admission: Optional[AdmissionController] = None
        self._graph_bytes = self._memory_bytes = 0  # of the estimates
        self._executor: Optional[QueryExecutor] = None
        # process-lane state (workers > 0)
        #: one supervised lane per serving worker; only the supervisor
        #: thread waits on, receives from and respawns them
        self._lanes: list[Lane] = []
        self._inflight: dict[int, QueryHandle] = {}
        self._free_workers: set[int] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MiningServer":
        """Load the graph, spawn the serving lanes."""
        if self._started:
            raise ConfigurationError("server already started")
        config = self.config
        self.graph = load_dataset(
            config.graph, scale=config.scale, labeled=False,
            storage=config.storage,
            resident_cap_bytes=config.resident_cap_bytes,
        )
        # an mmap-backed graph is page-cache resident, not heap
        # resident: its baseline charges only the engine's hot
        # working-set fraction, which is what lets a graph bigger than
        # the cap be served out-of-core (docs/storage.md)
        baseline = resident_baseline_bytes(
            self.graph.size_bytes(), self.graph.storage
        )
        if baseline > config.resident_cap_bytes:
            raise ConfigurationError(
                f"resident cap ({config.resident_mb} MiB) is smaller "
                f"than the loaded graph's resident baseline "
                f"({baseline} bytes); no query could ever be admitted "
                f"(an over-cap graph can still be served with "
                f"--storage mmap)"
            )
        self._admission = AdmissionController(
            config.resident_cap_bytes, baseline
        )
        self._graph_bytes = self.graph.size_bytes()
        self._memory_bytes = config.cluster_config().memory_bytes
        self._bind_metrics()
        self._poller = Poller()
        if config.workers > 0:
            self._start_worker_pool()
        else:
            self._executor = QueryExecutor(self.graph, config)
        self._started = True
        self._started_at = perf_counter()
        self._m_workers.set(config.workers)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service", daemon=True,
        )
        self._supervisor.start()
        return self

    def _bind_metrics(self) -> None:
        """The server-lifetime instruments, bound once."""
        scope = self._obs.registry.scope()
        self._m_workers = scope.gauge(names.SERVICE_WORKERS)
        self._m_active = scope.gauge(names.SERVICE_ACTIVE_QUERIES)
        self._m_admitted = scope.gauge(names.SERVICE_ADMITTED_BYTES)
        self._m_queries = scope.counter(names.SERVICE_QUERIES)
        self._m_rejected = scope.counter(names.SERVICE_REJECTED)
        self._m_failed = scope.counter(names.SERVICE_FAILED)
        self._m_deaths = scope.counter(names.SERVICE_WORKER_DEATHS)
        self._m_latency = scope.histogram(names.SERVICE_LATENCY_SECONDS)
        self._m_queue_wait = scope.histogram(
            names.SERVICE_QUEUE_WAIT_SECONDS)

    def _start_worker_pool(self) -> None:
        config = self.config
        handle = share_csr(self.graph)
        self._lanes = [
            Lane(worker_id, f"repro-service-{worker_id}",
                 service_worker_main, (handle, config))
            for worker_id in range(config.workers)
        ]
        for lane in self._lanes:
            lane.spawn()
        self._free_workers = set(range(config.workers))

    def describe(self) -> dict[str, Any]:
        """The ``serve`` hello line: what this server is resident on."""
        return {
            "service": "ready",
            "graph": self.config.graph,
            "scale": self.config.scale,
            "machines": self.config.machines,
            "system": self.config.system,
            "workers": self.config.workers,
            "resident_mb": self.config.resident_mb,
            "storage": (
                self.graph.storage if self.graph is not None
                else self.config.storage
            ),
            "baseline_bytes": (
                self._admission.baseline_bytes if self._admission else 0
            ),
            "pid": os.getpid(),
        }

    def completed_ids(self) -> list[str]:
        """Completion order of every finished query (test hook)."""
        with self._lock:
            return [report.id for report in self._completed]

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> QueryHandle:
        """Queue one query; always returns a handle, never raises for
        a bad *query* (only for misuse of an unstarted server)."""
        handle = QueryHandle(request, estimate=0)
        if not self._register(request):
            return self._refuse(
                handle,
                f"duplicate query id {request.id!r}",
            )
        try:
            pattern = request.validate()
            # the per-query cache charge scales with the *graph*, not
            # the resident baseline — under mmap the baseline shrinks
            # but each query's cache working set does not
            handle.estimate = estimate_query_bytes(
                self._graph_bytes,
                request.size if pattern is None else pattern.num_vertices,
                self.config.machines,
                self._memory_bytes,
                chunk_bytes=request.chunk_bytes or self.config.chunk_bytes,
            )
        except ConfigurationError as exc:
            return self._refuse(handle, str(exc))
        if self._admission.decide(handle.estimate) == "reject":
            return self._refuse(
                handle,
                f"admission rejected: estimated {handle.estimate} bytes "
                f"+ resident baseline "
                f"{self._admission.baseline_bytes} bytes exceed the "
                f"{self.config.resident_mb} MiB cap",
            )
        with self._lock:
            refuse = self._stopping
            if not refuse:
                self._pending.push(request.priority, handle)
                # with every lane busy the supervisor looks at the
                # queue anyway once a lane frees
                if self._lane_free_locked():
                    self._poller.wake()
        if refuse:
            return self._refuse(handle, "server is shutting down")
        return handle

    def reject(self, message: str,
               query_id: Optional[str] = None) -> QueryHandle:
        """Record a protocol-level refusal (e.g. an unparseable request
        line) as a REJECTED report in this session's history."""
        request = QueryRequest(id=query_id)
        self._register(request)
        return self._refuse(QueryHandle(request, estimate=0), message)

    def _register(self, request: QueryRequest) -> bool:
        """Name an unnamed request ``q<n>``; False for an id seen
        before."""
        if not self._started:
            raise ConfigurationError("server not started")
        with self._lock:
            if request.id is None:
                self._sequence += 1
                request.id = f"q{self._sequence}"
            fresh = request.id not in self._ids
            self._ids.add(request.id)
        return fresh

    def _refuse(self, handle: QueryHandle, message: str) -> QueryHandle:
        """Terminate a query at submission with a REJECTED report."""
        handle.dispatch_time = handle.submit_time  # zero queue wait
        self._complete(
            handle, refusal_payload(Outcome.REJECTED, message), worker=None
        )
        return handle

    # ------------------------------------------------------------------
    # the supervisor: collect, dispatch, report
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """The one service thread (module docstring).

        A pass waits on the poller, takes the delivered results (their
        lanes free, their admission charge released), respawns the dead
        and hands the queue head to every free lane, all before it
        reports. The finished queries' reports go out before the sends:
        a worker woken by a send can take the CPU from this thread, and
        would hold those reports behind the next query's execution.
        The serial lane runs its query here, after the reports; the
        pass after it does not wait, since what queued meanwhile may
        have woken nobody.
        """
        heartbeat = self.config.heartbeat
        timeout = heartbeat
        while not self._halt:
            messages, dead = self._poller.collect(self._lanes, timeout)
            with self._lock:
                finished = []
                for lane, (query_id, payload) in messages:
                    handle = self._take_locked(lane.index, query_id)
                    if handle is not None:
                        finished.append((handle, payload, lane.index))
            if dead:
                finished += self._respawn(dead)
            with self._lock:
                dispatched = self._dispatch_locked()
            for handle, payload, worker in finished:
                self._complete(handle, payload, worker)
            for handle, lane, epoch in dispatched:
                if lane is not None:
                    # False — the incarnation died since — needs nothing
                    # here: the pass that sees the death reports it
                    lane.send(handle.request, epoch)
            timeout = heartbeat
            for handle, lane, _ in dispatched:
                if lane is None:
                    self._run_inline(handle)
                    timeout = 0.0

    def _lane_free_locked(self) -> bool:
        """Whether a lane could take the queue head now."""
        if self.config.workers > 0:
            return bool(self._free_workers)
        return not self._active  # the serial lane is busy

    def _dispatch_locked(self) -> list[tuple]:
        """``(handle, lane, epoch)`` for every query handed to a free
        lane (``lane`` None: the serial lane), in queue order.

        Strict priority with head-of-line blocking: only the head is
        ever considered, so capacity frees in priority order.
        """
        dispatched = []
        while self._pending and self._lane_free_locked():
            handle = self._pending.peek()
            if self._admission.decide(handle.estimate) != "admit":
                break
            self._pending.pop()
            query_id = handle.request.id
            self._admission.admit(query_id, handle.estimate)
            self._active[query_id] = handle
            handle.dispatch_time = perf_counter()
            lane = epoch = None
            if self.config.workers > 0:
                worker_id = min(self._free_workers)
                self._free_workers.discard(worker_id)
                self._inflight[worker_id] = handle
                handle.worker = worker_id
                lane = self._lanes[worker_id]
                epoch = lane.epoch
            dispatched.append((handle, lane, epoch))
        if dispatched:
            self._refresh_gauges_locked()
        return dispatched

    def _run_inline(self, handle: QueryHandle) -> None:
        try:
            payload = self._executor.execute(handle.request)
        except Exception as exc:  # the supervisor must survive
            payload = refusal_payload(
                Outcome.CRASHED, f"{type(exc).__name__}: {exc}"
            )
        self._complete(handle, payload, worker=None)

    def _take_locked(self, worker_id: int,
                     query_id: str) -> Optional[QueryHandle]:
        """The in-flight query a lane result answers, its lane freed
        and its admission charge released — or None.

        Results from dead incarnations cannot arrive here at all
        (a lane abandons their pipe at respawn); the id check guards
        the remaining mismatch — a result that does not answer the
        query this lane is serving must never pop the in-flight
        handle or free a busy worker, or the lane desynchronizes.
        """
        handle = self._inflight.get(worker_id)
        if handle is None or handle.request.id != query_id:
            return None  # not the query this lane is serving right now
        del self._inflight[worker_id]
        self._free_workers.add(worker_id)
        self._admission.release(query_id)
        return handle

    def _handle_result(self, worker_id: int, query_id: str,
                       payload: dict) -> None:
        """Complete the query a lane result answers — or drop it — from
        outside the supervisor, which then sees the freed lane."""
        with self._lock:
            handle = self._take_locked(worker_id, query_id)
            if handle is None:
                return
            if not self._stopping:  # after it, the poller may be closed
                self._poller.wake()
        self._complete(handle, payload, worker=worker_id)

    def _respawn(self, dead: list[Lane]) -> list[tuple]:
        """Respawn dead workers; their in-flight query degrades to
        CRASHED — one query, not the server (docs/service.md). Returns
        ``(handle, payload, worker)`` for each such query."""
        reasons = [lane.exit_reason() for lane in dead]  # reaps them
        victims = []
        with self._lock:
            for lane, reason in zip(dead, reasons):
                self.worker_deaths += 1
                handle = self._inflight.pop(lane.index, None)
                lane.spawn()
                self._free_workers.add(lane.index)
                if handle is None:
                    continue
                self._admission.release(handle.request.id)
                victims.append((handle, refusal_payload(
                    Outcome.CRASHED,
                    f"serving worker {lane.index} died mid-query "
                    f"({reason}); the worker was respawned and the "
                    f"server is healthy",
                ), lane.index))
            self._m_deaths.inc(len(victims))
        return victims

    def _complete(self, handle: QueryHandle, payload: dict,
                  worker: Optional[int]) -> None:
        now = perf_counter()
        request = handle.request
        dispatched = handle.dispatch_time
        wall = now - handle.submit_time
        queued = wall if dispatched is None else (
            dispatched - handle.submit_time)
        outcome, counts, failure = (
            payload["outcome"], payload["counts"], payload["failure"])
        report = QueryReport(
            request.id, outcome, counts, request.priority, wall, queued,
            worker, payload["report"], failure, payload["metrics"],
        )
        with self._lock:
            if handle._claimed:
                return  # the drain path already reported this query
            handle._claimed = True
            self._admission.release(request.id)
            self._active.pop(request.id, None)
            # the session summary reads outcomes and latencies; holding
            # every query's full engine report would grow a resident
            # server by kilobytes per query served
            self._completed.append(QueryReport(
                request.id, outcome, counts, request.priority, wall,
                queued, worker, failure=failure,
            ))
            self._refresh_gauges_locked()
            self._record_metrics_locked(report, payload)
            self._wake.notify_all()
        handle._resolve(report)

    def _refresh_gauges_locked(self) -> None:
        self._m_active.set(len(self._active))
        self._m_admitted.set(self._admission.inflight_bytes)

    def _record_metrics_locked(self, report: QueryReport,
                               payload: dict) -> None:
        self._m_queries.inc()
        if report.outcome == Outcome.REJECTED.value:
            self._m_rejected.inc()
        elif report.fatal:
            self._m_failed.inc()
        self._m_latency.observe(report.wall_seconds)
        self._m_queue_wait.observe(report.queue_seconds)
        if self.config.metrics and payload.get("metrics_dump"):
            # fold the query's isolated registry into the
            # server-lifetime one (the PR-1 absorb contract)
            self._obs.registry.absorb(payload["metrics_dump"])

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> dict[str, Any]:
        """Drain and stop; idempotent, returns the session summary.

        Queued work terminates ``REJECTED``; in-flight queries get
        ``drain_seconds`` to finish, then ``TIMEOUT``; the lanes stop
        once, whatever the number of calls.
        """
        with self._shutdown_lock:
            if self._summary is not None:
                return self._summary
            if not self._started:
                self._summary = {"queries": 0, "outcomes": {}}
                return self._summary
            with self._lock:
                self._stopping = True
                drained = self._pending.drain()
            for handle in drained:
                self._complete(handle, refusal_payload(
                    Outcome.REJECTED,
                    "server shutting down: queued query drained "
                    "without running",
                ), worker=None)
            deadline = perf_counter() + self.config.drain_seconds
            with self._wake:
                while self._active and perf_counter() < deadline:
                    self._wake.wait(timeout=0.1)
                stragglers = list(self._active.values())
            for handle in stragglers:
                self._complete(handle, refusal_payload(
                    Outcome.TIMEOUT,
                    f"server shutdown: drain budget "
                    f"({self.config.drain_seconds:g}s) expired with "
                    f"the query still in flight",
                ), worker=handle.worker)
            # every query has its report: the supervisor can go, and
            # the lanes after it (released together, they exit together)
            self._halt = True
            self._poller.wake()
            self._supervisor.join(timeout=self.config.drain_seconds)
            for lane in self._lanes:
                lane.release()
            for lane in self._lanes:
                lane.stop()
            if not self._supervisor.is_alive():
                # every wake is made under the lock before stopping
                self._poller.close()
            self._summary = self._session_summary()
            return self._summary

    # ------------------------------------------------------------------
    def _session_summary(self) -> dict[str, Any]:
        wall = perf_counter() - self._started_at
        with self._lock:
            reports = list(self._completed)
        outcomes: dict[str, int] = {}
        for report in reports:
            outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
        latencies = sorted(report.wall_seconds for report in reports)
        summary = {
            "service": "summary",
            "queries": len(reports),
            "outcomes": outcomes,
            "ok": sum(1 for r in reports if r.ok),
            "rejected": outcomes.get(Outcome.REJECTED.value, 0),
            "failed": sum(
                1 for r in reports
                if r.fatal and r.outcome != Outcome.REJECTED.value
            ),
            "p50_ms": _percentile(latencies, 0.50) * 1e3,
            "p99_ms": _percentile(latencies, 0.99) * 1e3,
            "queries_per_second": len(reports) / wall if wall > 0 else 0.0,
            "wall_seconds": wall,
            "workers": self.config.workers,
            "worker_deaths": self.worker_deaths,
            "admission": self._admission.snapshot()
            if self._admission else None,
            "metrics": (
                self._obs.registry.snapshot() if self.config.metrics
                else None
            ),
        }
        return summary
