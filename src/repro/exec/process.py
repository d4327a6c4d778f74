"""The process backend: one OS process per group of simulated machines.

Execution plan (docs/execution.md):

1. Export the graph's CSR arrays into shared memory once
   (:mod:`repro.graph.csr`) — workers map them zero-copy.
2. Spawn one supervised :class:`~repro.exec.lane.Lane` per worker,
   each running :func:`repro.exec.worker.worker_main`: the engine's
   one machine loop, handed the job plan, over the machines it hosts
   (``m % workers``). Workers share nothing but the read-only graph:
   no edge list travels between them (every worker maps all of it),
   so the only channels are each lane's two private pipes.
3. Collect per-worker results off the lanes' private result pipes
   while *watching worker liveness*: a death is an EOF, seen at once,
   and the parent sweeps worker exit codes at least every
   ``heartbeat`` seconds; a worker that died without reporting is
   marked lost and the ``on_worker_death`` policy applies — ``fail``
   returns a structured ``CRASHED`` report immediately, ``recover``
   *redistributes* the lost workers' machines across the surviving
   workers (each survivor replays its share against the shared graph,
   resuming past the chunks the dead worker's shipped checkpoint
   deltas already cover) and reports ``RECOVERED`` with complete
   counts. The parent replays inline only machines no survivor could
   cover (survivor died mid-recovery, or no survivors at all).
4. Release and stop every lane. The graph's shared-memory segments
   are unlinked on every exit path — including SIGINT/SIGTERM and
   interpreter exit, via chained signal handlers and an ``atexit``
   hook registered for the duration of the run.

Durability (docs/faults.md): workers ship one ``CKPT`` delta per
completed root chunk — the parent's in-memory progress ledger feeds
redistribution, and with ``checkpoint_dir`` set the parent also owns a
:class:`~repro.faults.durability.CheckpointSession`, appending deltas
to the durable log so a killed run resumes (workers receive the resume
map and skip completed chunks). A ``shm.json`` ledger of live segment
names lets a resumed run reap segments leaked by a SIGKILLed parent.
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
workers, which this backend does not replicate) and non-mergeable
UDFs (a per-worker UDF copy must be foldable via ``udf.merge(other)``,
like :class:`~repro.systems.base.MniDomainCollector`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.core.plan import finalize, require_mergeable_udf
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.exec.backend import Backend
from repro.exec.lane import Lane, sweep, wait
from repro.exec.messages import (
    CKPT,
    ERROR,
    RECOVERY,
    RESULT,
    RecoverAssignment,
)
from repro.exec.janitor import install_janitor, remove_janitor
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


@dataclass
class _FleetState:
    """One ``execute`` call's fleet: its shape, its lanes, its
    liveness bookkeeping and its progress ledger."""

    workers: int
    machines: int
    #: the durable session's sink (None without ``checkpoint_dir``)
    sink: Optional[Callable] = None
    #: fleet-wide progress ledger, (pattern, machine) -> absolute
    #: (roots, matches) cursor; feeds redistribution resume maps
    progress: dict = field(default_factory=dict)
    lanes: list = field(default_factory=list)
    #: sweeps of worker exit codes the parent performed
    heartbeat_checks: int = 0
    #: worker_id -> human-readable death reason
    deaths: dict = field(default_factory=dict)
    #: lost workers whose hosted machines were replayed (on survivors
    #: or in the parent)
    reexecuted: set = field(default_factory=set)

    def on_ckpt(self, pattern, machine, roots, matches) -> None:
        """One completed root chunk's absolute cursor, from any worker."""
        key = (pattern, machine)
        if roots > self.progress.get(key, (0, 0))[0]:
            self.progress[key] = (roots, matches)
        if self.sink is not None:
            self.sink(pattern, machine, roots, matches)

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
    """Real multiprocess execution over shared-memory graph storage."""

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
        if config.checkpoint_dir is not None and udf is not None:
            raise ConfigurationError(
                "durable checkpoints with a UDF require the inline "
                "backend: per-worker UDF state cannot be snapshotted "
                "consistently across processes (docs/faults.md)"
            )
        require_mergeable_udf(udf, "the process backend")
        engine.obs.reset()
        cluster.reset_clocks()  # the parent cluster sits idle; keep it clean
        # durable checkpointing: the parent owns the session — workers
        # only ship deltas (docs/faults.md)
        with DurableRun(plan, cluster.graph, engine.obs) as durable:
            counts, report = self._run_fleet(engine, plan, udf, durable)
        durable.publish(report)
        return counts, report

    def _run_fleet(self, engine, plan, udf, durable):
        config = plan.config
        cluster = engine.cluster
        machines = cluster.num_machines
        workers = self.workers if self.workers else machines
        workers = max(1, min(workers, machines))
        if config.resume:
            durability.reap_stale_segments(config.checkpoint_dir)
        fleet = _FleetState(workers, machines, durable.sink,
                            dict(durable.resume or {}))
        started = perf_counter()
        shared = share_csr(cluster.graph)
        # unlink is idempotent, so the signal/atexit hooks and the
        # finally block may race
        previous_handlers = install_janitor(shared.unlink)
        try:
            if config.checkpoint_dir is not None:
                durability.write_shm_names(
                    config.checkpoint_dir, shared.handle.segment_names())
            fleet.lanes = [
                Lane(worker_id, f"repro-exec-{worker_id}", worker_main,
                     (worker_id, workers, shared.handle, plan, udf,
                      engine.obs.enabled, durable.resume),
                     self.start_method)
                for worker_id in range(workers)
            ]
            for lane in fleet.lanes:
                lane.spawn()

            results = self._collect(
                fleet, set(range(workers)), RESULT,
                fail_fast=(self.on_worker_death == "fail"),
            )
            if fleet.deaths and self.on_worker_death == "fail":
                return self._failed_report(
                    engine, plan, fleet, perf_counter() - started,
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
                fleet.reexecuted = set(lost)
                recovery_entries, redistribution = self._redistribute(
                    fleet, engine, plan, udf, lost, sorted(results))
                entries.extend(recovery_entries)
        except _CollectTimeout as exc:
            return self._failed_report(
                engine, plan, fleet, perf_counter() - started,
                Outcome.TIMEOUT, str(exc))
        finally:
            # teardown runs on every path: stop the lanes (release all
            # first so they exit side by side) and unlink the graph's
            # shared-memory segments — the parent owns them
            for lane in fleet.lanes:
                lane.release()
            for lane in fleet.lanes:
                lane.stop()
            shared.unlink()
            remove_janitor(shared.unlink, previous_handlers)
            if config.checkpoint_dir is not None:
                durability.clear_shm_names(config.checkpoint_dir)
        return self._merge(engine, plan, udf, fleet, entries,
                           perf_counter() - started, redistribution)

    # ------------------------------------------------------------------
    # collection with liveness detection
    # ------------------------------------------------------------------
    def _collect(self, fleet, pending, tag, fail_fast) -> dict:
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

        Checkpoint deltas reach ``fleet.on_ckpt`` *before* the pending
        filter: a dying worker's last shipped cursors are exactly what
        redistribution needs, so they must be recorded even once the
        worker is marked lost.
        """
        collected: dict[int, dict] = {}
        expected = len(pending)
        deadline = perf_counter() + self.timeout
        while pending and not (fail_fast and fleet.deaths):
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise _CollectTimeout(
                    f"process backend timed out after "
                    f"{self.timeout:.0f}s awaiting {tag!r} messages "
                    f"({len(collected)}/{expected} received)"
                )
            wait(fleet.lanes, min(self.heartbeat, max(0.01, remaining)))
            fleet.heartbeat_checks += 1
            messages, dead = sweep(fleet.lanes)
            for _, (kind, worker_id, payload) in messages:
                if kind == CKPT:
                    fleet.on_ckpt(*payload)
                    continue
                if worker_id not in pending:
                    continue  # late message from a worker marked lost
                pending.discard(worker_id)
                if kind == tag:
                    collected[worker_id] = payload
                elif kind == ERROR:
                    fleet.deaths[worker_id] = _error_reason(payload)
                else:
                    raise RuntimeError(
                        f"protocol violation: got {kind!r} while "
                        f"awaiting {tag!r}"
                    )
            for lane in dead:
                if lane.index in pending:
                    pending.discard(lane.index)
                    fleet.deaths[lane.index] = (
                        f"{lane.exit_reason()} before reporting")
        return collected

    # ------------------------------------------------------------------
    # lost-worker redistribution (on_worker_death == "recover")
    # ------------------------------------------------------------------
    def _redistribute(self, fleet, engine, plan, udf, lost,
                      survivors) -> tuple[list[dict], dict]:
        """Round-robin the lost workers' machines across survivors.

        The determinism contract makes the replays exact: the machine
        loop, restricted to any machine subset, computes bit-identically
        what the dead worker would have returned — and the progress
        ledger (the dead worker's shipped deltas) lets each survivor
        resume past chunks already completed, seeding their checkpointed
        matches instead of recomputing them. The parent replays only
        machines no survivor covered (a survivor died mid-recovery, or
        no survivors exist at all).
        """
        lost_machines = sorted(
            machine for worker_id in lost
            for machine in machines_of(worker_id, fleet.workers,
                                       fleet.machines)
        )
        assignment: dict[int, list[int]] = {}
        if survivors:
            for index, machine in enumerate(lost_machines):
                target = survivors[index % len(survivors)]
                assignment.setdefault(target, []).append(machine)
        for worker_id in sorted(assignment):
            # a False send is a survivor that just died: its share
            # shows up below as uncovered
            fleet.lanes[worker_id].send(RecoverAssignment(
                machines=tuple(assignment[worker_id]),
                resume=dict(fleet.progress),
            ))
        recoveries: dict[int, dict] = {}
        if assignment:
            recoveries = self._collect(fleet, set(assignment), RECOVERY,
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
            # mirrors a spawned worker: pickled UDF copy, resumed past
            # whatever the progress ledger already covers
            entries.append({
                **hosted_run(
                    engine.cluster.graph, plan,
                    pickle.loads(pickle.dumps(udf)), set(uncovered),
                    engine.obs.enabled, sink=fleet.on_ckpt,
                    resume=fleet.progress,
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
    def _failed_report(self, engine, plan, fleet, wall, outcome,
                       message="") -> tuple[list[int], RunReport]:
        events = fleet.death_events()
        if outcome is Outcome.CRASHED:
            failure = worker_loss_summary(events, recovered=False)
        else:
            failure = FailureSummary(outcome, message=message,
                                     events=events)
        report = RunReport(
            system=plan.system, app=plan.app, graph_name=plan.graph_name,
            counts=None, simulated_seconds=0.0,
            num_machines=fleet.machines, failure=failure,
        )
        report.extra["exec"] = self._exec_extra(fleet, wall, events)
        obs = engine.obs
        if obs.enabled:
            self._emit_exec_metrics(obs.registry.scope(),
                                    report.extra["exec"])
            report.extra["obs"] = obs.summary()
        return [0] * len(plan.patterns), report

    def _exec_extra(self, fleet, wall, events) -> dict:
        """The liveness half of ``extra["exec"]`` — all a fail-fast
        report has; ``_merge`` adds the per-worker seconds."""
        extra = {
            "backend": self.name,
            "workers": fleet.workers,
            "wall_seconds": wall,
            "heartbeat_seconds": self.heartbeat,
            "heartbeat_checks": fleet.heartbeat_checks,
            "on_worker_death": self.on_worker_death,
            "worker_deaths": len(fleet.deaths),
        }
        if events:
            extra["worker_death_events"] = events
        return extra

    # ------------------------------------------------------------------
    def _merge(self, engine, plan, udf, fleet, entries, wall,
               redistribution=None) -> tuple[list[int], RunReport]:
        """Fold the run's entries — per-worker results plus any
        redistribution replays (machine-disjoint by construction) —
        into one report: ``finalize`` over their partials, plus this
        backend's wall-clock ``extra["exec"]`` block and the outcome of
        any real worker deaths."""
        workers = fleet.workers
        if udf is not None:
            for entry in entries:  # every hosted run returns its copy
                udf.merge(entry["udf"])

        # recovery replays accrue to the survivor that ran them; the
        # parent's own fallback replay (worker_id None) is reported via
        # the redistribution extra
        busy = [0.0] * workers
        for entry in entries:
            if entry["worker_id"] is not None:
                busy[entry["worker_id"]] += entry["busy_seconds"]
        death_events = fleet.death_events()
        block = {
            **self._exec_extra(fleet, wall, death_events),
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
        elif fleet.reexecuted:
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
