"""The resident mining server (docs/service.md).

One :class:`MiningServer` owns everything a one-shot CLI run pays per
invocation: the loaded graph, the partitioned cluster(s), and — when
``workers > 0`` — a pool of serving processes attached zero-copy to a
shared-memory CSR export of the graph. Queries flow

    submit -> admission (reject | queue) -> priority queue
           -> dispatch to a lane -> QueryReport

with two lanes to dispatch to:

- ``workers == 0`` — the in-process serial lane: the dispatcher thread
  itself runs each query through a resident
  :class:`~repro.service.worker.QueryExecutor`.
- ``workers > 0`` — one supervised :class:`~repro.exec.lane.Lane` per
  serving worker process (the primitive under the process backend's
  fleet too); a collector thread gathers payloads off the lanes and
  sweeps them at least every ``heartbeat`` seconds, so a worker dying
  mid-query degrades exactly that query to ``CRASHED`` and is
  respawned — the server survives.

Shutdown is leak-free by construction: the first ``shutdown()`` (or a
SIGINT/SIGTERM through the installed janitor, or interpreter exit)
drains the queue into ``REJECTED`` reports, bounds the wait for
in-flight queries (``TIMEOUT`` past the drain budget), and unlinks the
shared segments exactly once; a SIGKILL instead leaves the ``shm.json``
ledger under ``checkpoint_dir`` for the next server to reap
(:func:`repro.faults.durability.reap_stale_segments`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.cluster.cluster import ClusterConfig
from repro.exec.janitor import install_janitor, remove_janitor
from repro.exec.lane import Lane, sweep, wait
from repro.faults import durability
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
    #: directory for the shm ledger (SIGKILL leak recovery)
    checkpoint_dir: Optional[str] = None
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
        if self.checkpoint_dir is not None:
            path = Path(self.checkpoint_dir)
            if path.exists() and not path.is_dir():
                raise ConfigurationError(
                    f"checkpoint_dir {self.checkpoint_dir!r} exists and "
                    f"is not a directory"
                )
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigurationError("time_budget must be positive")
        if self.chunk_bytes is not None and self.chunk_bytes < 1024:
            raise ConfigurationError("chunk_bytes must be at least 1KiB")
        if self.counting not in (None, "enumerate", "iep"):
            raise ConfigurationError(
                f"counting must be 'enumerate' or 'iep', "
                f"got {self.counting!r}"
            )

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
        self._claim_lock = threading.Lock()
        self._claimed = False

    def _claim(self) -> bool:
        """Atomically claim the right to complete this query — the
        drain path and a late lane result may race; exactly one wins."""
        with self._claim_lock:
            if self._claimed:
                return False
            self._claimed = True
            return True

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
        #: effective cleanups the janitor performed (the leak-free
        #: shutdown contract: exactly 1 after any number of shutdowns)
        self.janitor_runs = 0
        #: segments reaped from a previous SIGKILLed server at start
        self.reaped_segments = 0
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
        self._cleanup_lock = threading.Lock()
        self._cleanup_done = False
        self._metrics_lock = threading.Lock()
        self._janitor_previous: Optional[dict] = None
        self._dispatcher: Optional[threading.Thread] = None
        # process-lane state (workers > 0)
        self._admission: Optional[AdmissionController] = None
        self._executor: Optional[QueryExecutor] = None
        self._shared = None
        #: one supervised lane per serving worker; only the collector
        #: thread waits on, sweeps and respawns them
        self._lanes: list[Lane] = []
        self._inflight: dict[int, QueryHandle] = {}
        self._free_workers: set[int] = set()
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MiningServer":
        """Load the graph, arm the janitor, spawn the serving lanes."""
        if self._started:
            raise ConfigurationError("server already started")
        config = self.config
        if config.checkpoint_dir is not None:
            os.makedirs(config.checkpoint_dir, exist_ok=True)
            self.reaped_segments = durability.reap_stale_segments(
                config.checkpoint_dir
            )
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
        if config.workers > 0:
            self._start_worker_pool()
        else:
            self._executor = QueryExecutor(self.graph, config)
        self._janitor_previous = install_janitor(self._cleanup)
        self._started = True
        self._started_at = perf_counter()
        scope = self._obs.registry.scope()
        scope.gauge(names.SERVICE_WORKERS).set(config.workers)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def _start_worker_pool(self) -> None:
        config = self.config
        self._shared = share_csr(self.graph)
        if config.checkpoint_dir is not None:
            durability.write_shm_names(
                config.checkpoint_dir,
                self._shared.handle.segment_names(),
            )
        self._lanes = [
            Lane(worker_id, f"repro-service-{worker_id}",
                 service_worker_main, (self._shared.handle, config))
            for worker_id in range(config.workers)
        ]
        for lane in self._lanes:
            lane.spawn()
        self._free_workers = set(range(config.workers))
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-service-collect",
            daemon=True,
        )
        self._collector.start()

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
            "reaped_segments": self.reaped_segments,
            "pid": os.getpid(),
        }

    @property
    def active_queries(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def queued_queries(self) -> int:
        with self._lock:
            return len(self._pending)

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
        if not self._started:
            raise ConfigurationError("server not started")
        with self._lock:
            if request.id is None:
                self._sequence += 1
                request.id = f"q{self._sequence}"
            duplicate = request.id in self._ids
            if not duplicate:
                self._ids.add(request.id)
        handle = QueryHandle(request, estimate=0)
        if duplicate:
            return self._refuse(
                handle,
                f"duplicate query id {request.id!r}",
            )
        try:
            request.validate()
            # the per-query cache charge scales with the *graph*, not
            # the resident baseline — under mmap the baseline shrinks
            # but each query's cache working set does not
            handle.estimate = estimate_query_bytes(
                self.graph.size_bytes(),
                request.arity(),
                self.config.machines,
                self.config.cluster_config().memory_bytes,
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
        with self._wake:
            if self._stopping:
                refuse = True
            else:
                refuse = False
                self._pending.push(request.priority, handle)
                self._wake.notify_all()
        if refuse:
            return self._refuse(handle, "server is shutting down")
        return handle

    def reject(self, message: str,
               query_id: Optional[str] = None) -> QueryHandle:
        """Record a protocol-level refusal (e.g. an unparseable request
        line) as a REJECTED report in this session's history."""
        if not self._started:
            raise ConfigurationError("server not started")
        request = QueryRequest(id=query_id)
        with self._lock:
            if request.id is None:
                self._sequence += 1
                request.id = f"q{self._sequence}"
            self._ids.add(request.id)
        return self._refuse(QueryHandle(request, estimate=0), message)

    def _refuse(self, handle: QueryHandle, message: str) -> QueryHandle:
        """Terminate a query at submission with a REJECTED report."""
        handle.dispatch_time = handle.submit_time  # zero queue wait
        self._complete(
            handle, refusal_payload(Outcome.REJECTED, message), worker=None
        )
        return handle

    # ------------------------------------------------------------------
    # dispatch + completion
    # ------------------------------------------------------------------
    def _next_locked(self) -> Optional[QueryHandle]:
        """The dispatchable queue head, or None (caller holds lock).

        Strict priority with head-of-line blocking: only the head is
        ever considered, so capacity frees in priority order.
        """
        if not self._pending:
            return None
        if self.config.workers > 0 and not self._free_workers:
            return None
        if self.config.workers == 0 and self._active:
            return None  # the serial lane is busy
        head = self._pending.peek()
        if self._admission.decide(head.estimate) != "admit":
            return None
        return self._pending.pop()

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                handle = self._next_locked()
                while handle is None and not self._stopping:
                    self._wake.wait(timeout=0.1)
                    handle = self._next_locked()
                if handle is None:
                    return  # stopping, queue already drained
                query_id = handle.request.id
                self._admission.admit(query_id, handle.estimate)
                self._active[query_id] = handle
                handle.dispatch_time = perf_counter()
                if self.config.workers > 0:
                    worker_id = min(self._free_workers)
                    self._free_workers.discard(worker_id)
                    self._inflight[worker_id] = handle
                    handle.worker = worker_id
                    lane = self._lanes[worker_id]
                    epoch = lane.epoch
                self._refresh_gauges_locked()
            if self.config.workers > 0:
                # False — the incarnation chosen above died or was
                # replaced since — needs nothing here: the sweep that
                # sees (or saw) the death reports this query CRASHED
                lane.send(handle.request, epoch)
            else:
                try:
                    payload = self._executor.execute(handle.request)
                except Exception as exc:  # the dispatcher must survive
                    payload = refusal_payload(
                        Outcome.CRASHED, f"{type(exc).__name__}: {exc}"
                    )
                self._complete(handle, payload, worker=None)

    def _collect_loop(self) -> None:
        """Gather worker payloads and respawn dead workers.

        Each pass waits for a delivery, a death (EOF) or the
        heartbeat, then sweeps: results first, deaths second
        (:func:`repro.exec.lane.sweep`), so a worker that finished its
        query and *then* died gets its genuine result delivered
        instead of a spurious CRASHED report.
        """
        while not self._collector_stop.is_set():
            wait(self._lanes, self.config.heartbeat)
            messages, dead = sweep(self._lanes)
            for lane, (query_id, payload) in messages:
                self._handle_result(lane.index, query_id, payload)
            # lanes released by shutdown() die on purpose
            if dead and not self._collector_stop.is_set():
                self._respawn(dead)

    def _handle_result(self, worker_id: int, query_id: str,
                       payload: dict) -> None:
        """Complete the query a lane result answers — or drop it.

        Results from dead incarnations cannot arrive here at all
        (a lane abandons their pipe at respawn); the id check guards
        the remaining mismatch — a result that does not answer the
        query this lane is serving must never pop the in-flight
        handle or free a busy worker, or the lane desynchronizes.
        """
        with self._wake:
            handle = self._inflight.get(worker_id)
            if handle is None or handle.request.id != query_id:
                return  # not the query this lane is serving right now
            del self._inflight[worker_id]
            self._free_workers.add(worker_id)
            self._wake.notify_all()
        self._complete(handle, payload, worker=worker_id)

    def _respawn(self, dead: list[Lane]) -> None:
        """Respawn dead workers; their in-flight query degrades to
        CRASHED — one query, not the server (docs/service.md)."""
        reasons = [lane.exit_reason() for lane in dead]  # reaps them
        victims = []
        with self._wake:
            for lane, reason in zip(dead, reasons):
                self.worker_deaths += 1
                handle = self._inflight.pop(lane.index, None)
                lane.spawn()
                self._free_workers.add(lane.index)
                if handle is not None:
                    victims.append((lane.index, handle, reason))
            self._wake.notify_all()
        for worker_id, handle, reason in victims:
            self._complete(handle, refusal_payload(
                Outcome.CRASHED,
                f"serving worker {worker_id} died mid-query ({reason}); "
                f"the worker was respawned and the server is healthy",
            ), worker=worker_id)
        if victims:
            with self._metrics_lock:
                self._obs.registry.scope().counter(
                    names.SERVICE_WORKER_DEATHS
                ).inc(len(victims))

    def _complete(self, handle: QueryHandle, payload: dict,
                  worker: Optional[int]) -> None:
        if not handle._claim():
            return  # the drain path already reported this query
        now = perf_counter()
        dispatched = handle.dispatch_time
        report = QueryReport(
            id=handle.request.id,
            outcome=payload["outcome"],
            counts=payload["counts"],
            priority=handle.request.priority,
            wall_seconds=now - handle.submit_time,
            queue_seconds=(
                (dispatched - handle.submit_time)
                if dispatched is not None else now - handle.submit_time
            ),
            worker=worker,
            report=payload["report"],
            failure=payload["failure"],
            metrics=payload["metrics"],
        )
        with self._wake:
            self._admission.release(report.id)
            self._active.pop(report.id, None)
            # the session summary reads outcomes and latencies; holding
            # every query's full engine report would grow a resident
            # server by kilobytes per query served
            self._completed.append(
                replace(report, report=None, metrics=None)
            )
            self._refresh_gauges_locked()
            self._wake.notify_all()
        self._record_metrics(report, payload)
        handle._resolve(report)

    def _refresh_gauges_locked(self) -> None:
        scope = self._obs.registry.scope()
        scope.gauge(names.SERVICE_ACTIVE_QUERIES).set(len(self._active))
        scope.gauge(names.SERVICE_ADMITTED_BYTES).set(
            self._admission.inflight_bytes
        )

    def _record_metrics(self, report: QueryReport, payload: dict) -> None:
        with self._metrics_lock:
            scope = self._obs.registry.scope()
            scope.counter(names.SERVICE_QUERIES).inc()
            if report.outcome == Outcome.REJECTED.value:
                scope.counter(names.SERVICE_REJECTED).inc()
            elif report.fatal:
                scope.counter(names.SERVICE_FAILED).inc()
            scope.histogram(names.SERVICE_LATENCY_SECONDS).observe(
                report.wall_seconds
            )
            scope.histogram(names.SERVICE_QUEUE_WAIT_SECONDS).observe(
                report.queue_seconds
            )
            if self.config.metrics and payload.get("metrics_dump"):
                # fold the query's isolated registry into the
                # server-lifetime one (the PR-1 absorb contract)
                self._obs.registry.absorb(payload["metrics_dump"])

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _cleanup(self) -> None:
        """The shm janitor: unlink the resident segments and clear the
        ledger, effectively once (signal path, atexit, and shutdown()
        may all call this)."""
        with self._cleanup_lock:
            if self._cleanup_done:
                return
            self._cleanup_done = True
        self.janitor_runs += 1
        if self._shared is not None:
            try:
                self._shared.unlink()
            except Exception:  # pragma: no cover - best effort
                pass
        if self.config.checkpoint_dir is not None:
            try:
                durability.clear_shm_names(self.config.checkpoint_dir)
            except Exception:  # pragma: no cover - best effort
                pass

    def shutdown(self) -> dict[str, Any]:
        """Drain and stop; idempotent, returns the session summary.

        Queued work terminates ``REJECTED``; in-flight queries get
        ``drain_seconds`` to finish, then ``TIMEOUT``. The janitor
        runs exactly once across any number of calls (and any signal
        races — the chaos suite SIGKILLs servers to prove the ledger
        side of this).
        """
        with self._shutdown_lock:
            if self._summary is not None:
                return self._summary
            if not self._started:
                self._summary = {"queries": 0, "outcomes": {}}
                return self._summary
            with self._wake:
                self._stopping = True
                drained = self._pending.drain()
                self._wake.notify_all()
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
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=self.config.drain_seconds)
            # released workers exit, which wakes the collector at once
            self._collector_stop.set()
            for lane in self._lanes:
                lane.release()
            if self._collector is not None:
                self._collector.join(timeout=self.config.heartbeat + 5.0)
            for lane in self._lanes:
                lane.stop()
            self._cleanup()
            if self._janitor_previous is not None:
                remove_janitor(self._cleanup, self._janitor_previous)
                self._janitor_previous = None
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
            "reaped_segments": self.reaped_segments,
            "admission": self._admission.snapshot()
            if self._admission else None,
            "metrics": (
                self._obs.registry.snapshot() if self.config.metrics
                else None
            ),
        }
        return summary
