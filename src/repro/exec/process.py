"""The process backend: one OS process per group of simulated machines.

Execution plan (docs/execution.md):

1. Share the graph by store path (:mod:`repro.graph.csr`): a store
   is its own medium, and a RAM graph is written as a
   content-addressed store once and reused — workers map it, and keep
   the mapping and its derived section from job to job.
2. Lease a resident fleet from the process-wide pool, one idle fleet
   per ``(workers, start method)``, or spawn one: a supervised
   :class:`~repro.exec.lane.Lane` per worker, each running
   :func:`repro.exec.worker.worker_main`'s command loop. Send each
   lane one :class:`~repro.exec.messages.Job`; the worker runs the
   engine's one machine loop, handed the job plan, over the machines
   it hosts (``m % workers``). Workers share nothing but the
   read-only graph: no edge list travels between them (every worker
   maps all of it), so the only channels are each lane's two private
   pipes.
3. Collect per-worker results off the lanes' private result pipes
   while *watching worker liveness*: a death is an EOF, seen at once,
   and the parent sweeps worker exit codes at least every
   ``heartbeat`` seconds; a worker that died without reporting is
   marked lost and the ``on_worker_death`` policy applies — ``fail``
   returns a structured ``CRASHED`` report immediately, ``recover``
   *redistributes* the lost workers' machines across the surviving
   workers (each survivor replays its share against the shared graph,
   from the cursors and UDF states the dead worker's deltas left in
   the ledger) and reports ``RECOVERED`` with complete counts. The
   parent replays inline only machines no survivor could cover
   (survivor died mid-recovery, or no survivors at all).
4. Hand the fleet back to the pool if every worker sent its RESULT
   and none died; any other ending (CRASHED, TIMEOUT, RECOVERED, an
   exception) stops its lanes. Idle fleets are released and joined
   by :func:`shutdown`, which runs at interpreter exit. A run
   creates nothing it must remove: the store outlives it, so neither
   a signal nor a SIGKILL leaves anything to reap.

Durability (docs/faults.md): workers ship one ``CKPT`` delta per
completed root chunk, with their machine's UDF state, to the parent's
one progress ledger (:class:`~repro.faults.durability.DurableRun`,
durable with ``checkpoint_dir`` set), which starts every machine.
5. Merge (:func:`merge_reports`): worker metric/span dumps are
   absorbed into the parent observability bundle beside the
   wall-clock ``exec.*`` metrics, and the workers' partials go through
   the same :func:`repro.core.plan.finalize` the inline path uses —
   this module only adds the ``extra["exec"]`` wall-clock block and
   the worker-death outcome.

Determinism: a machine's scheduler sees the same graph, roots, and
configuration regardless of which process hosts it — so counts are
bit-identical to the inline backend at any worker count (the invariant
``tests/test_exec.py`` pins down). This is also what makes worker-death
recovery exact: re-executing a lost worker's hosted machines anywhere
reproduces precisely the results the worker would have returned.
Wall-clock ``exec.*`` readings are the only nondeterministic outputs.

Not supported here (raise :class:`~repro.errors.ConfigurationError`
up front): fault plans (injected crash recovery reassigns roots across
workers, which this backend does not replicate).
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.core.plan import finalize, require_mergeable_udf
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.exec.backend import Backend
from repro.exec.lane import Lane, Poller, resolve_start_method
from repro.exec.messages import (
    CKPT,
    ERROR,
    RECOVERY,
    RESULT,
    Job,
    RecoverAssignment,
)
from repro.exec.worker import hosted_run, machines_of, worker_main
from repro.faults import durability
from repro.faults.durability import DurableRun
from repro.faults.recovery import (
    FailureSummary,
    Outcome,
    worker_death_event,
    worker_loss_summary,
)
from repro.graph.csr import share_csr
from repro.obs import names

#: the two worker-death policies ``--on-worker-death`` accepts
DEATH_POLICIES = ("fail", "recover")


class _CollectTimeout(Exception):
    """The wall-clock collection budget expired (converted to a
    structured ``TIMEOUT`` report, never raised to callers)."""


class _Fleet:
    """A resident fleet: one supervised lane per worker, each running
    :func:`worker_main`'s command loop, and the poller the parent waits
    on them with. Leased by one run at a time (:func:`_lease`)."""

    def __init__(self, workers: int, start_method: str):
        self.key = (workers, start_method)
        self.lanes: list[Lane] = []
        self.poller = Poller()
        try:
            for worker_id in range(workers):
                self.lanes.append(Lane(
                    worker_id, f"repro-exec-{worker_id}", worker_main,
                    (worker_id, workers), start_method))
                self.lanes[-1].spawn()
        except BaseException:
            self.stop()
            raise

    def alive(self) -> bool:
        return all(lane.alive() for lane in self.lanes)

    def stop(self) -> None:
        """Release every lane first, so they exit side by side, then
        join them (stragglers are terminated) and close the poller."""
        for lane in self.lanes:
            lane.release()
        for lane in self.lanes:
            lane.stop()
        self.poller.close()


#: the pool: idle fleets, at most one per (workers, start method)
_idle: dict[tuple[int, str], _Fleet] = {}
_idle_lock = threading.Lock()
#: fleets are spawned one at a time, so that no fork copies another
#: fleet's half-built pipes into its child
_spawn_lock = threading.Lock()


def _lease(workers: int, start_method: Optional[str]) -> tuple[_Fleet, int]:
    """An idle fleet of this shape, or a new one; with the number of
    workers spawned for it (0 for a reused fleet)."""
    key = (workers, resolve_start_method(start_method))
    with _idle_lock:
        fleet = _idle.pop(key, None)
    if fleet is not None:
        if fleet.alive():
            return fleet, 0
        fleet.stop()  # a worker died while the fleet sat idle
    with _spawn_lock:
        return _Fleet(*key), workers


def _give_back(fleet: _Fleet) -> None:
    """Park a fleet whose run ended clean; a second idle fleet of the
    same shape, or one with a dead worker, is stopped instead."""
    if fleet.alive():
        with _idle_lock:
            if fleet.key not in _idle:
                _idle[fleet.key] = fleet
                return
    fleet.stop()


def shutdown() -> None:
    """Release and join every idle fleet (also run at interpreter
    exit); the next process-backend run spawns a new one."""
    with _idle_lock:
        fleets = list(_idle.values())
        _idle.clear()
    for fleet in fleets:
        fleet.stop()


atexit.register(shutdown)


@dataclass
class _RunState:
    """One ``execute`` call: its shape, the lanes and poller of the
    fleet it leased, its liveness bookkeeping and its progress
    ledger."""

    workers: int
    machines: int
    #: the progress ledger every CKPT delta lands in
    durable: DurableRun
    lanes: list
    #: what the parent waits on for the lanes' messages and deaths
    poller: Poller
    #: worker processes spawned for this run (0 on a reused fleet)
    spawns: int
    #: collection passes the parent made (a silent one sweeps exit
    #: codes)
    heartbeat_checks: int = 0
    #: worker_id -> human-readable death reason
    deaths: dict = field(default_factory=dict)
    #: lost workers whose hosted machines were replayed (on survivors
    #: or in the parent)
    reexecuted: set = field(default_factory=set)

    def death_events(self) -> list[dict]:
        return [
            worker_death_event(
                worker_id,
                machines_of(worker_id, self.workers, self.machines),
                reason,
                worker_id in self.reexecuted,
            )
            for worker_id, reason in sorted(self.deaths.items())
        ]


def _error_reason(traceback_text: str) -> str:
    """The last non-empty traceback line — enough to name the failure
    without shipping a full Python traceback into the report."""
    lines = [ln.strip() for ln in traceback_text.splitlines() if ln.strip()]
    return f"uncaught worker error: {lines[-1]}" if lines else \
        "uncaught worker error"


def merge_reports(plan, entries, obs) -> tuple[list[int], RunReport]:
    """Fold the workers' partials into one report.

    ``entries`` are the run's results — one per worker plus any
    redistribution replays, machine-disjoint by construction. Their
    registry and span dumps are absorbed into ``obs`` first (so the
    report's observability summary covers every process), then
    :func:`repro.core.plan.finalize` adds the partials exactly as the
    inline path does.
    """
    if obs.enabled:
        for entry in entries:  # worker-id order keeps spans stable
            dump = entry["obs"]
            if dump is not None:
                obs.registry.absorb(dump["metrics"])
                obs.tracer.absorb(dump["spans"], dump["dropped"])
    return finalize(plan, [entry["partial"] for entry in entries], obs)


class ProcessBackend(Backend):
    """Real multiprocess execution over one shared graph store."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        timeout: float = 600.0,
        heartbeat: float = 1.0,
        on_worker_death: str = "fail",
    ):
        #: worker-process count; None = one per simulated machine,
        #: always clamped to the machine count (a machine's scheduler
        #: is single-threaded state, it cannot be split further)
        self.workers = workers
        #: multiprocessing start method; None leaves the choice to
        #: :class:`~repro.exec.lane.Lane` (``fork`` where available)
        self.start_method = start_method
        #: wall-clock budget for collecting worker messages before the
        #: run is declared wedged; expiry yields a structured TIMEOUT
        #: report, never a raised exception
        self.timeout = timeout
        #: liveness-check interval: the parent sweeps worker exit codes
        #: at least this often while idle, so a dead worker is detected
        #: within a heartbeat at worst (at once when its pipe reports
        #: EOF) — never at the full timeout
        if heartbeat <= 0:
            raise ConfigurationError("heartbeat must be positive")
        self.heartbeat = heartbeat
        #: what to do when a worker process dies mid-run: ``fail``
        #: returns a partial CRASHED report immediately; ``recover``
        #: redistributes the lost workers' hosted machines to the
        #: surviving workers (the parent replays only machines no
        #: survivor covers), so counts stay exact
        if on_worker_death not in DEATH_POLICIES:
            raise ConfigurationError(
                f"on_worker_death must be one of {DEATH_POLICIES}, "
                f"got {on_worker_death!r}"
            )
        self.on_worker_death = on_worker_death

    # ------------------------------------------------------------------
    def execute(self, engine, plan, udf):
        config = plan.config
        cluster = engine.cluster
        if config.faults is not None and not config.faults.empty:
            raise ConfigurationError(
                "fault injection requires the inline backend: the "
                "process backend does not replicate cross-worker crash "
                "recovery (docs/execution.md)"
            )
        require_mergeable_udf(udf, "the process backend")
        engine.obs.reset()
        cluster.reset_clocks()  # the parent cluster sits idle; keep it clean
        # the parent owns the ledger; workers only ship deltas
        with DurableRun(plan, cluster.graph, engine.obs, udf) as durable:
            counts, report = self._run_fleet(engine, plan, durable)
        durable.publish(report)
        return counts, report

    def _run_fleet(self, engine, plan, durable):
        cluster = engine.cluster
        machines = cluster.num_machines
        workers = self.workers if self.workers else machines
        workers = max(1, min(workers, machines))
        started = perf_counter()
        handle = share_csr(cluster.graph)
        fleet, spawns = _lease(workers, self.start_method)
        run = _RunState(workers, machines, durable, fleet.lanes,
                        fleet.poller, spawns)
        clean = False
        try:
            # read per run: a fleet outlives the environment it was
            # forked under
            chaos = os.environ.get(durability.CHAOS_ENV, "")
            for worker_id, lane in enumerate(run.lanes):
                lane.send(Job(
                    handle, plan,
                    *durable.start(machines_of(worker_id, workers, machines)),
                    engine.obs.enabled, chaos))

            results = self._collect(
                run, set(range(workers)), RESULT,
                fail_fast=(self.on_worker_death == "fail"),
            )
            if run.deaths and self.on_worker_death == "fail":
                return self._failed_report(
                    engine, plan, run, perf_counter() - started,
                    Outcome.CRASHED)
            entries = [
                {**payload, "worker_id": worker_id}
                for worker_id, payload in sorted(results.items())
            ]
            lost = sorted(set(range(workers)) - set(results))
            redistribution = None
            if lost:
                # on_worker_death == "recover": redistribute the lost
                # workers' machines across the survivors; the progress
                # ledger (the dead workers' shipped deltas) lets each
                # replay skip already-completed chunks
                run.reexecuted = set(lost)
                recovery_entries, redistribution = self._redistribute(
                    run, engine, plan, lost, sorted(results))
                entries.extend(recovery_entries)
            clean = not run.deaths
        except _CollectTimeout as exc:
            return self._failed_report(
                engine, plan, run, perf_counter() - started,
                Outcome.TIMEOUT, str(exc))
        finally:
            # a fleet whose every worker reported goes back to the
            # pool, any other is stopped
            if clean:
                _give_back(fleet)
            else:
                fleet.stop()
        return self._merge(engine, plan, run, entries,
                           perf_counter() - started, redistribution)

    # ------------------------------------------------------------------
    # collection with liveness detection
    # ------------------------------------------------------------------
    def _collect(self, run, pending, tag, fail_fast) -> dict:
        """Gather one tagged message per pending worker.

        Every wait is bounded by ``heartbeat`` and ends early on a
        delivery or a death (EOF); each pass sweeps the lanes — what
        was delivered first, then who is dead — so a worker that died
        without reporting is *marked lost* at once, never at the full
        ``timeout``, and one that reported and then died is not a loss
        at all. With
        ``fail_fast`` the first loss ends collection immediately;
        otherwise collection continues until every pending worker has
        either reported or been marked lost.

        Checkpoint deltas reach the ledger *before* the pending
        filter: a dying worker's last shipped cursors are exactly what
        redistribution needs, so they must be recorded even once the
        worker is marked lost.
        """
        collected: dict[int, dict] = {}
        expected = len(pending)
        deadline = perf_counter() + self.timeout
        while pending and not (fail_fast and run.deaths):
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise _CollectTimeout(
                    f"process backend timed out after "
                    f"{self.timeout:.0f}s awaiting {tag!r} messages "
                    f"({len(collected)}/{expected} received)"
                )
            messages, dead = run.poller.collect(
                run.lanes, min(self.heartbeat, max(0.01, remaining)))
            run.heartbeat_checks += 1
            for _, (kind, worker_id, payload) in messages:
                if kind == CKPT:
                    run.durable.ledger.record(*payload)
                    continue
                if worker_id not in pending:
                    continue  # late message from a worker marked lost
                pending.discard(worker_id)
                if kind == tag:
                    collected[worker_id] = payload
                elif kind == ERROR:
                    run.deaths[worker_id] = _error_reason(payload)
                else:
                    raise RuntimeError(
                        f"protocol violation: got {kind!r} while "
                        f"awaiting {tag!r}"
                    )
            for lane in dead:
                if lane.index in pending:
                    pending.discard(lane.index)
                    run.deaths[lane.index] = (
                        f"{lane.exit_reason()} before reporting")
        return collected

    # ------------------------------------------------------------------
    # lost-worker redistribution (on_worker_death == "recover")
    # ------------------------------------------------------------------
    def _redistribute(self, run, engine, plan, lost,
                      survivors) -> tuple[list[dict], dict]:
        """Round-robin the lost workers' machines across survivors.

        The determinism contract makes the replays exact: the machine
        loop, restricted to any machine subset, computes bit-identically
        what the dead worker would have returned — and the progress
        ledger (the dead worker's shipped deltas) starts each machine
        past the chunks already completed, from their matches and UDF
        state. The parent replays only machines no survivor covered (a
        survivor died mid-recovery, or no survivors exist at all).
        """
        lost_machines = sorted(
            machine for worker_id in lost
            for machine in machines_of(worker_id, run.workers,
                                       run.machines)
        )
        assignment: dict[int, list[int]] = {}
        if survivors:
            for index, machine in enumerate(lost_machines):
                target = survivors[index % len(survivors)]
                assignment.setdefault(target, []).append(machine)
        for worker_id in sorted(assignment):
            # a False send is a survivor that just died: its share
            # shows up below as uncovered
            hosted = assignment[worker_id]
            run.lanes[worker_id].send(RecoverAssignment(
                tuple(hosted), *run.durable.start(hosted)))
        recoveries: dict[int, dict] = {}
        if assignment:
            recoveries = self._collect(run, set(assignment), RECOVERY,
                                       fail_fast=False)
        entries = [
            {**payload, "worker_id": worker_id}
            for worker_id, payload in sorted(recoveries.items())
        ]
        uncovered = sorted(
            machine
            for worker_id, hosted in assignment.items()
            if worker_id not in recoveries
            for machine in hosted
        ) if survivors else lost_machines
        if uncovered:
            # started as a spawned worker's machines are
            resume, udfs = run.durable.start(uncovered)
            entries.append({
                **hosted_run(
                    engine.cluster.graph, plan, udfs, set(uncovered),
                    engine.obs.enabled, sink=run.durable.sink,
                    resume=resume,
                ),
                "worker_id": None,
            })
        redistribution = {
            "machines": sum(
                len(hosted) for worker_id, hosted in assignment.items()
                if worker_id in recoveries
            ),
            "workers": {
                worker_id: list(hosted)
                for worker_id, hosted in sorted(assignment.items())
                if worker_id in recoveries
            },
            "inline_fallback": len(uncovered),
        }
        return entries, redistribution

    # ------------------------------------------------------------------
    # structured fail-fast reports (never a bare stall or traceback)
    # ------------------------------------------------------------------
    def _failed_report(self, engine, plan, run, wall, outcome,
                       message="") -> tuple[list[int], RunReport]:
        events = run.death_events()
        if outcome is Outcome.CRASHED:
            failure = worker_loss_summary(events, recovered=False)
        else:
            failure = FailureSummary(outcome, message=message,
                                     events=events)
        report = RunReport(
            system=plan.system, app=plan.app, graph_name=plan.graph_name,
            counts=None, simulated_seconds=0.0,
            num_machines=run.machines, failure=failure,
        )
        report.extra["exec"] = self._exec_extra(run, wall, events)
        obs = engine.obs
        if obs.enabled:
            self._emit_exec_metrics(obs.registry.scope(),
                                    report.extra["exec"])
            report.extra["obs"] = obs.summary()
        return [0] * len(plan.patterns), report

    def _exec_extra(self, run, wall, events) -> dict:
        """The liveness half of ``extra["exec"]`` — all a fail-fast
        report has; ``_merge`` adds the per-worker seconds."""
        extra = {
            "backend": self.name,
            "workers": run.workers,
            "spawns": run.spawns,
            "wall_seconds": wall,
            "heartbeat_seconds": self.heartbeat,
            "heartbeat_checks": run.heartbeat_checks,
            "on_worker_death": self.on_worker_death,
            "worker_deaths": len(run.deaths),
        }
        if events:
            extra["worker_death_events"] = events
        return extra

    # ------------------------------------------------------------------
    def _merge(self, engine, plan, run, entries, wall,
               redistribution=None) -> tuple[list[int], RunReport]:
        """Fold the run's entries — per-worker results plus any
        redistribution replays (machine-disjoint by construction) —
        into one report: ``finalize`` over their partials and
        ``DurableRun.fold`` over their UDF copies, plus this backend's
        wall-clock ``extra["exec"]`` block and the outcome of any real
        worker deaths."""
        workers = run.workers
        run.durable.fold({
            machine: copy for entry in entries
            for machine, copy in (entry["udfs"] or {}).items()})

        # recovery replays accrue to the survivor that ran them; the
        # parent's own fallback replay (worker_id None) is reported via
        # the redistribution extra
        busy = [0.0] * workers
        for entry in entries:
            if entry["worker_id"] is not None:
                busy[entry["worker_id"]] += entry["busy_seconds"]
        death_events = run.death_events()
        block = {
            **self._exec_extra(run, wall, death_events),
            "worker_busy_seconds": busy,
            # workers never wait on one another (no edge list travels);
            # the series stays because perfbench pairs it with busy
            # seconds to find the run's overhead (docs/metrics.md)
            "worker_wait_seconds": [0.0] * workers,
        }
        if redistribution is not None:
            block["redistribution"] = redistribution

        obs = engine.obs
        if obs.enabled:
            self._emit_exec_metrics(obs.registry.scope(), block)
        counts, report = merge_reports(plan, entries, obs)
        report.extra["exec"] = block

        if report.failure is not None and report.failure.fatal:
            # a fatal simulated outcome (OOM/timeout) wins; the real
            # deaths still land on its event log
            report.failure.events = (
                list(report.failure.events) + death_events
            )
        elif run.reexecuted:
            report.failure = worker_loss_summary(death_events,
                                                 recovered=True)
        # deaths that cost nothing (after every result was in) leave
        # the run clean; they are recorded in extra["exec"] only
        return counts, report

    def _emit_exec_metrics(self, scope, block) -> None:
        """The ``exec.*`` family, read off an ``extra["exec"]`` block so
        the report and the registry cannot disagree (a fail-fast block
        has no per-worker seconds to publish)."""
        scope.gauge(names.EXEC_WORKERS).set(block["workers"])
        scope.counter(names.EXEC_SPAWNS).inc(block["spawns"])
        scope.gauge(names.EXEC_WALL_SECONDS).set(block["wall_seconds"])
        scope.gauge(names.EXEC_HEARTBEAT_INTERVAL).set(self.heartbeat)
        scope.counter(names.EXEC_HEARTBEAT_CHECKS).inc(
            block["heartbeat_checks"])
        scope.counter(names.EXEC_WORKER_DEATHS).inc(block["worker_deaths"])
        for worker_id, busy in enumerate(
                block.get("worker_busy_seconds", ())):
            scope.counter(
                names.EXEC_WORKER_BUSY_SECONDS, worker=worker_id
            ).inc(busy)
            scope.counter(
                names.EXEC_WORKER_WAIT_SECONDS, worker=worker_id
            ).inc(block["worker_wait_seconds"][worker_id])
        if "redistribution" in block:
            scope.counter(names.RECOVERY_REDISTRIBUTED_MACHINES).inc(
                block["redistribution"]["machines"]
            )
