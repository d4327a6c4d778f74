"""The Khuzdul distributed execution engine.

Ties the per-machine hybrid scheduler to the simulated cluster along
one path (:mod:`repro.core.plan`): :meth:`KhuzdulEngine.plan`
describes the job once, :meth:`KhuzdulEngine.execute` — the one machine
loop — builds per-machine static caches and runs every hosted
machine's share of the enumeration (machines interact only through
read-only edge-list fetches, so the simulation runs them in sequence
while their clocks advance independently), and
:func:`~repro.core.plan.finalize` assembles the :class:`RunReport`
whose simulated runtime is the slowest machine's clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.cache import CachePolicy, EdgeCache
from repro.core.extend import ScheduleExtender
from repro.core.plan import (
    JobPlan,
    Partial,
    PatternPlan,
    finalize,
    require_mergeable_udf,
)
from repro.core.runtime import RunReport
from repro.core.scheduler import NULL_UDF, MachineScheduler, Udf
from repro.core.workspace import Workspace
from repro.errors import (
    ConfigurationError,
    FetchFailedError,
    MachineCrashError,
    OutOfMemoryError,
    SimTimeoutError,
)
from repro.faults.durability import DurableRun
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import FailureSummary, Outcome, split_roots
from repro.obs import NULL_OBS, Observability, Span, names
from repro.patterns.schedule import Schedule, compile_counting_plan

#: Multi-pattern UDF: (pattern index, prefix vertices, candidates).
MultiUdf = Callable[[int, tuple[int, ...], np.ndarray], None]

#: how a scheduler's structured abort ends the run
_OUTCOME_OF = {
    OutOfMemoryError: Outcome.OUTOFMEM,
    FetchFailedError: Outcome.DEGRADED,
    SimTimeoutError: Outcome.TIMEOUT,
}


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the Khuzdul engine (paper defaults, scaled).

    ``chunk_bytes`` plays the role of the paper's 4 GB default chunk in
    the analogue world; ``cache_fraction`` is the static cache budget as
    a fraction of the graph size (paper: 5-15%).
    """

    chunk_bytes: int = 1 << 20
    vcs: bool = True
    hds: bool = True
    hds_slots: int = 8192
    #: ablation: build collision chains instead of dropping (Section 5.2
    #: argues dropping is the better trade; see the design-ablation bench)
    hds_chaining: bool = False
    #: ablation: disable the circulant pipeline — fetch all batches of a
    #: chunk before computing any of it (Section 4.3)
    circulant: bool = True
    #: clamp the (pre-allocated) chunk size so that one chunk per tree
    #: level fits comfortably in node memory — the operator judgement
    #: the paper applied when picking 4 GB chunks for 64 GB nodes.
    #: Disable to expose the raw OOM behaviour (Figure 18).
    auto_fit_chunks: bool = True
    cache_fraction: float = 0.10
    cache_policy: CachePolicy = CachePolicy.STATIC
    cache_degree_threshold: int = 16
    numa_aware: bool = True
    #: counting strategy for count-only queries (no UDF): "enumerate"
    #: materializes every level of the embedding tree; "iep" replaces
    #: the pairwise-unconstrained suffix of eligible schedules with the
    #: inclusion-exclusion terminal kernel (docs/performance.md).
    #: Counts are bit-identical either way; schedules without an
    #: eligible plan (labeled, induced, suffix < 2) silently fall back
    #: to enumeration.
    counting: str = "enumerate"
    #: simulated-seconds budget per machine; None = no timeout
    time_budget: Optional[float] = None
    #: injected faults for this engine's runs (docs/faults.md);
    #: None = fault-free execution with zero overhead
    faults: Optional[FaultPlan] = None
    #: reassign a crashed machine's remaining work to survivors; with
    #: False, a crash ends the run with a partial CRASHED report
    recover: bool = True
    #: durable chunk-granular checkpoints (docs/faults.md,
    #: "Durability"): persist the recovery cursor under this directory
    #: so a killed run can restart with ``resume`` and skip completed
    #: root chunks; None = no persistence
    checkpoint_dir: Optional[str] = None
    #: make every N-th completed root chunk durable (log fsync +
    #: aggregates snapshot); larger = less IO, more replay after a kill
    checkpoint_every: int = 1
    #: start from the checkpoint under ``checkpoint_dir`` instead of
    #: from scratch; the manifest must fingerprint-match this run
    resume: bool = False

    def __post_init__(self):
        if self.chunk_bytes < 1024:
            raise ConfigurationError("chunk_bytes must be at least 1KiB")
        if not 0.0 <= self.cache_fraction <= 1.0:
            raise ConfigurationError("cache_fraction must be within [0, 1]")
        if self.counting not in ("enumerate", "iep"):
            raise ConfigurationError(
                "counting must be 'enumerate' or 'iep', "
                f"got {self.counting!r}"
            )
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume requires checkpoint_dir (nothing to resume from)"
            )
        if (self.checkpoint_dir is not None and self.faults is not None
                and not self.faults.empty):
            raise ConfigurationError(
                "durable checkpoints and injected fault plans are "
                "mutually exclusive: simulated crash recovery reassigns "
                "roots across machines, which the per-machine durable "
                "cursor does not describe (docs/faults.md)"
            )

    @staticmethod
    def memory_headroom_bytes(memory_bytes: int, levels: int) -> int:
        """Largest per-chunk budget that keeps ``levels`` chunks (plus
        partition, cache, and overflow slack) inside node memory."""
        return memory_bytes // (4 * levels)


class KhuzdulEngine:
    """Distributed GPM execution engine over a simulated cluster.

    One engine instance is bound to one :class:`Cluster`. Each call to
    :meth:`run`/:meth:`run_many` starts from clean clocks and fresh
    caches and returns a :class:`RunReport`.

    ``obs`` is the engine's observability bundle
    (:class:`~repro.obs.Observability`); it defaults to the shared
    no-op bundle, in which case instrumentation costs nothing and the
    report is byte-identical to an uninstrumented build. With an
    enabled bundle, every component emits the metrics/spans documented
    in ``docs/metrics.md`` and the report gains an
    ``extra['obs']`` summary (per-machine Figure 15 phase seconds from
    span data, span counts, emitted metric names). The bundle is reset
    at the start of each run, so a summary always describes one run.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        obs: Optional[Observability] = None,
        backend=None,
    ):
        self.cluster = cluster
        self.config = config or EngineConfig()
        self.obs = obs if obs is not None else NULL_OBS
        #: execution backend (``repro.exec``); ``None`` runs the
        #: in-process simulated path directly. Duck-typed on purpose:
        #: this module must not import ``repro.exec`` (which imports
        #: the engine), so any object with
        #: ``execute(engine, plan, udf)`` works — see
        #: :class:`repro.exec.Backend`.
        self.backend = backend

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: Schedule,
        udf: Optional[Udf] = None,
        system: str = "khuzdul",
        app: str = "pattern",
        graph_name: str = "graph",
    ) -> RunReport:
        """Enumerate one pattern; returns the report with ``counts: int``."""
        plan = self.plan([schedule], udf, system, app, graph_name,
                         indexed_udf=False)
        report = self._run(plan, udf)
        report.counts = report.counts[0]
        return report

    def run_many(
        self,
        schedules: Sequence[Schedule],
        udf: Optional[MultiUdf] = None,
        system: str = "khuzdul",
        app: str = "patterns",
        graph_name: str = "graph",
    ) -> RunReport:
        """Enumerate several patterns in one job (motifs, FSM rounds).

        Each pattern pays the engine's per-pattern start-up cost, which
        is what makes many-pattern workloads (FSM) relatively more
        expensive on Khuzdul than on a bare single-machine system
        (paper Table 4). The report's ``counts`` is a list aligned with
        ``schedules``.
        """
        return self._run(
            self.plan(schedules, udf, system, app, graph_name), udf)

    # ------------------------------------------------------------------
    def plan(
        self,
        schedules: Sequence[Schedule],
        udf=None,
        system: str = "khuzdul",
        app: str = "patterns",
        graph_name: str = "graph",
        indexed_udf: bool = True,
    ) -> JobPlan:
        """Describe a job once: per pattern its counting plan, DFS
        levels and clamped chunk budget — the only place any of them is
        decided."""
        config = self.config
        patterns = []
        for schedule in schedules:
            # IEP counting plan (docs/performance.md): eligible
            # count-only schedules enumerate only the plan's prefix
            # pattern and drain complete prefixes through the
            # inclusion-exclusion terminal kernel. compile returns
            # None for ineligible schedules — those enumerate as
            # usual, so a mixed run_many works per pattern.
            counting = None
            if config.counting == "iep" and udf is None:
                counting = compile_counting_plan(schedule)
            if counting is None:
                levels = max(1, schedule.pattern.num_vertices - 2)
            else:
                # the DFS stack only ever holds prefix levels
                levels = max(
                    1, counting.prefix_schedule.pattern.num_vertices - 1
                )
            chunk_bytes = config.chunk_bytes
            if config.auto_fit_chunks:
                headroom = config.memory_headroom_bytes(
                    self.cluster.config.memory_bytes, levels
                )
                chunk_bytes = max(1024, min(chunk_bytes, headroom))
            patterns.append(
                PatternPlan(schedule, counting, levels, chunk_bytes)
            )
        return JobPlan(tuple(patterns), config, self.cluster.config,
                       system, app, graph_name, indexed_udf)

    def _run(self, plan: JobPlan, udf) -> RunReport:
        if self.backend is not None:
            counts, report = self.backend.execute(self, plan, udf)
        else:
            counts, report = self.run_plan(plan, udf)
        report.counts = counts
        return report

    def run_plan(
        self, plan: JobPlan, udf=None
    ) -> tuple[list[int], RunReport]:
        """The inline backend: every machine in this process.

        With ``checkpoint_dir`` set the :class:`DurableRun` feeds every
        completed root chunk to the durable log and, on ``resume``,
        skips completed chunks and restores mergeable UDF state — a
        killed run restarted with ``resume=True`` reproduces the
        uninterrupted run's counts bit-exactly (docs/faults.md).
        """
        if plan.config.checkpoint_dir is not None:
            require_mergeable_udf(udf, "durable checkpoints")
        with DurableRun(plan, self.cluster.graph, self.obs, udf) as durable:
            partial_run = self.execute(
                plan, udf, sink=durable.sink, resume=durable.resume
            )
        counts, report = finalize(plan, [partial_run], self.obs)
        durable.publish(report)
        return counts, report

    def execute(
        self,
        plan: JobPlan,
        udf=None,
        hosted: Optional[set] = None,
        sink=None,
        resume: Optional[dict] = None,
    ) -> Partial:
        """The one machine loop: run ``plan`` on this engine's cluster.

        ``hosted`` is the worker-process hook of the ``process``
        backend (docs/execution.md): with it set, only that subset of
        machine ids runs schedulers (the rest are replicas other
        workers drive). Every process maps the whole graph, so a
        hosted scheduler reads remote lists where an inline one does.
        The restriction changes *which* schedulers run, never what any
        of them computes or charges — which is why backend counts are
        bit-identical and a re-executed subset reproduces a lost
        worker's results exactly.

        ``sink(pattern, machine, roots, matches)`` observes every
        completed root chunk with its *absolute* cursor; ``resume``
        maps ``(pattern, machine)`` to an already-completed
        ``(roots, matches)`` prefix, which is sliced off the machine's
        root set and seeded into its counts before the scheduler runs.
        Roots are enumerated in a deterministic order, so skipping a
        completed prefix reproduces exactly the remaining work — the
        durability contract of docs/faults.md.
        """
        cluster = self.cluster
        config = plan.config
        graph = cluster.graph
        obs = self.obs
        obs.reset()  # one summary per run
        cluster.reset_clocks()
        if obs.registry.enabled:
            # reset_clocks rebuilt the network model; re-attach metrics
            cluster.network.bind_metrics(obs.registry.scope())
        injector = None
        if config.faults is not None and not config.faults.empty:
            # the injector outlives reset_clocks' network rebuild, so it
            # must be (re-)attached here, once per run
            injector = FaultInjector(
                config.faults, metrics=obs.registry.scope()
            )
            cluster.network.attach_injector(injector)

        failure: Optional[FailureSummary] = None
        recovered = False
        events: list[dict] = []
        recovery_stats = {
            "reassigned_roots": 0,
            "reassigned_chunks": 0,
            "invalidated_entries": 0,
            "checkpoints": 0,
        }

        def failed(outcome, machine_id, message) -> FailureSummary:
            return FailureSummary(outcome, machine_id, message,
                                  cluster.runtime(), events=events)

        cache_capacity = int(config.cache_fraction * graph.size_bytes())
        caches = []
        machine_scopes = []
        for machine in cluster.machines:
            scope = obs.registry.scope(machine=machine.machine_id)
            machine_scopes.append(scope)
            caches.append(
                EdgeCache(
                    cache_capacity,
                    config.cache_degree_threshold,
                    config.cache_policy,
                    cluster.cost,
                    metrics=scope,
                )
            )
        allocated = []
        try:
            for machine in cluster.machines:
                machine.allocate(cache_capacity)  # pre-allocated pool
                allocated.append(machine)
        except OutOfMemoryError as exc:
            failure = failed(Outcome.OUTOFMEM, exc.machine_id, str(exc))
        startup_counters = [
            scope.counter(names.TIME_SCHEDULER) for scope in machine_scopes
        ]

        counts = [0] * len(plan.patterns)
        # Per-(schedule, machine) the engine builds a *fresh* scheduler
        # (and HDS table), so summing scheduler.hds.* below counts each
        # probe exactly once; the regression test
        # test_obs.py::test_hds_stats_not_double_counted pins this down.
        # The per-machine series live in the registry (hds.* counters);
        # this dict keeps the cluster-wide totals reports always carry.
        hds_stats = {"hits": 0, "probes": 0, "drops": 0}
        #: the kernels' scratch memory: one per run, not per scheduler
        #: (a census builds 168 of those)
        workspace = Workspace()
        fetch_sources = {"local": 0, "remote": 0, "cache": 0, "shared": 0}
        chunks_created = 0

        def absorb(scheduler: MachineScheduler) -> None:
            """Fold a finished (or dying) scheduler's stats into the run."""
            nonlocal chunks_created
            hds_stats["hits"] += scheduler.hds.hits
            hds_stats["probes"] += scheduler.hds.probes
            hds_stats["drops"] += scheduler.hds.drops
            for source, count in scheduler.fetch_sources.items():
                fetch_sources[source] += count
            chunks_created += scheduler.chunks_created
            recovery_stats["checkpoints"] += scheduler.checkpoints_taken

        try:
            for index, pattern in enumerate(plan.patterns):
                if failure is not None:
                    break
                if udf is None:
                    machine_udf: Udf = NULL_UDF
                elif plan.indexed_udf:
                    machine_udf = partial(udf, index)
                else:
                    machine_udf = udf
                # Work queue of (machine, roots) shards. Fault-free runs
                # enqueue exactly one shard per machine; crash recovery
                # appends the orphaned remainder as survivor shards. A
                # durable resume slices each machine's completed prefix
                # off and seeds its checkpointed matches directly.
                shards: deque[_Shard] = deque()
                for machine in cluster.machines:
                    if (hosted is not None
                            and machine.machine_id not in hosted):
                        continue
                    roots = pattern.roots_for(cluster, machine.machine_id)
                    base_roots = base_matches = 0
                    if resume:
                        base_roots, base_matches = resume.get(
                            (index, machine.machine_id), (0, 0)
                        )
                        if base_roots:
                            base_roots = min(base_roots, len(roots))
                            counts[index] += base_matches
                            roots = roots[base_roots:]
                    shards.append(_Shard(
                        machine.machine_id, roots,
                        base_roots=base_roots, base_matches=base_matches,
                    ))
                while shards:
                    shard = shards.popleft()
                    mid = shard.machine_id
                    if mid in cluster.dead:
                        # owner died after this shard was queued (earlier
                        # pattern, or a multi-crash plan): bounce its
                        # whole share to the survivors
                        live = cluster.live_ids()
                        if not live:
                            failure = failed(
                                Outcome.CRASHED, mid,
                                "no live machine left to take over")
                            break
                        pieces = split_roots(shard.roots, live)
                        for survivor, share in pieces:
                            shards.append(_Shard(survivor, share,
                                                 recovery=True))
                        recovery_stats["reassigned_roots"] += len(shard.roots)
                        continue
                    machine = cluster.machines[mid]
                    machine.clock.scheduler += cluster.cost.engine_startup
                    startup_counters[mid].inc(cluster.cost.engine_startup)
                    if obs.tracer.enabled:
                        obs.tracer.record(Span(
                            "startup", mid,
                            start=machine.clock.total(),
                            attrs={"scheduler": cluster.cost.engine_startup,
                                   "pattern": index},
                        ))
                    scheduler = MachineScheduler(
                        cluster=cluster,
                        machine=machine,
                        extender=ScheduleExtender(
                            pattern.extend_schedule,
                            vcs=config.vcs,
                            metrics=machine_scopes[mid],
                            workspace=workspace,
                        ),
                        cache=caches[mid],
                        udf=machine_udf,
                        chunk_bytes=pattern.chunk_bytes,
                        hds_enabled=config.hds,
                        hds_slots=config.hds_slots,
                        hds_chaining=config.hds_chaining,
                        vcs_enabled=config.vcs,
                        numa_aware=config.numa_aware,
                        circulant=config.circulant,
                        time_budget=config.time_budget,
                        obs=obs,
                        faults=injector,
                        iep_plan=pattern.counting,
                        checkpoint_sink=(
                            partial(_rebased_sink, sink, index, shard)
                            if sink is not None
                            and not shard.recovery else None
                        ),
                    )
                    try:
                        shard_matches = scheduler.run(shard.roots)
                    except MachineCrashError as exc:
                        absorb(scheduler)
                        ckpt = scheduler.checkpoint
                        # only work up to the last checkpoint survives;
                        # everything past it is replayed by survivors,
                        # which is what keeps recovered counts exact
                        counts[index] += ckpt.matches
                        cluster.mark_dead(mid)
                        event = {
                            "kind": "crash",
                            "machine": mid,
                            "trigger": exc.trigger,
                            "pattern": index,
                            "roots_completed": ckpt.roots_completed,
                            "checkpoint_matches": ckpt.matches,
                        }
                        events.append(event)
                        if not config.recover:
                            failure = failed(Outcome.CRASHED, mid, str(exc))
                            break
                        live = cluster.live_ids()
                        if not live:
                            failure = failed(
                                Outcome.CRASHED, mid,
                                "machine crashed and no survivors remain")
                            break
                        # survivors drop cache entries sourced from the
                        # dead partition (they would alias buffers the
                        # failover owner now serves afresh)
                        owner_of = cluster.partitioned.owner
                        invalidated = 0
                        for sid in live:
                            invalidated += caches[sid].invalidate(
                                lambda v: owner_of(v) == mid
                            )
                        recovery_stats["invalidated_entries"] += invalidated
                        remaining = shard.roots[ckpt.roots_completed:]
                        try:
                            for survivor, share in split_roots(
                                remaining, live
                            ):
                                self._charge_refetch(
                                    survivor, mid, share,
                                    machine_scopes[survivor],
                                )
                                shards.append(_Shard(survivor, share,
                                                     recovery=True))
                        except FetchFailedError as refetch_exc:
                            failure = failed(Outcome.DEGRADED, mid,
                                             str(refetch_exc))
                            break
                        recovery_stats["reassigned_roots"] += len(remaining)
                        event["reassigned_roots"] = int(len(remaining))
                        event["survivors"] = live
                        recovered = True
                        continue
                    except tuple(_OUTCOME_OF) as exc:
                        # a structured abort: what the scheduler finished
                        # up to its last checkpoint still counts
                        absorb(scheduler)
                        counts[index] += scheduler.checkpoint.matches
                        if isinstance(exc, FetchFailedError):
                            events.append({
                                "kind": "fetch_failed",
                                "machine": mid,
                                "owner": exc.owner,
                                "attempts": exc.attempts,
                                "pattern": index,
                            })
                        failure = failed(
                            _OUTCOME_OF[type(exc)],
                            getattr(exc, "machine_id", mid), str(exc))
                        break
                    absorb(scheduler)
                    counts[index] += shard_matches
                    if shard.recovery:
                        recovery_stats["reassigned_chunks"] += (
                            scheduler.chunks_created
                        )
                    # the scheduler polices the budget at chunk
                    # boundaries; this engine-level check also covers
                    # runs that never reach one (trivial patterns) and
                    # the final overshoot of a machine's last chunk
                    if (
                        config.time_budget is not None
                        and machine.clock.total() > config.time_budget
                    ):
                        failure = failed(
                            Outcome.TIMEOUT, mid,
                            f"machine {mid} finished at "
                            f"{machine.clock.total():.3g}s, over the "
                            f"{config.time_budget:.3g}s budget")
                        break
        finally:
            for machine in allocated:
                machine.release(cache_capacity)

        if failure is None and injector is not None and (
            recovered or injector.fetch_failures > 0
        ):
            crash_events = [e for e in events if e["kind"] == "crash"]
            failure = failed(
                Outcome.RECOVERED,
                crash_events[0]["machine"] if crash_events else None,
                f"recovered: {len(crash_events)} machine(s) lost, "
                f"{injector.fetch_failures} transient fetch "
                f"failure(s) retried; counts are complete",
            )
            failure.partial = False

        for machine, scope in zip(cluster.machines, machine_scopes):
            scope.counter(names.TIME_SERVE).inc(machine.serve_seconds)
        run_scope = obs.registry.scope()
        for name, tally in (
            (names.RECOVERY_REASSIGNED_ROOTS, "reassigned_roots"),
            (names.RECOVERY_REASSIGNED_CHUNKS, "reassigned_chunks"),
            (names.RECOVERY_INVALIDATED_ENTRIES, "invalidated_entries"),
        ):
            run_scope.counter(name).inc(recovery_stats[tally])
        total_hits = sum(c.hits for c in caches)
        total_queries = total_hits + sum(c.misses for c in caches)
        result = Partial(
            counts=counts,
            # copies: the next run resets the cluster's own machines
            machines=[
                replace(m, clock=replace(m.clock)) for m in cluster.machines
            ],
            traffic=cluster.network.traffic_bytes,
            requests=cluster.network.total_requests(),
            batches=cluster.network.num_batches,
            cache_hits=total_hits,
            cache_queries=total_queries,
            cache_entries=sum(len(c) for c in caches),
            hds=hds_stats,
            fetch_sources=fetch_sources,
            chunks=chunks_created,
            recovery=recovery_stats,
            failure=failure,
        )
        if injector is not None or failure is not None:
            result.faults = {
                **(injector.stats() if injector is not None else {}),
                "net_retries": cluster.network.retries,
                "retry_backoff_seconds": cluster.network.retry_seconds,
            }
        if graph.storage == "mmap":
            builder_stats = getattr(graph, "builder_stats", None) or {}
            result.storage = {
                "mode": graph.storage,
                "mapped_bytes": graph.size_bytes(),
                "spill_runs": int(builder_stats.get("spill_runs", 0)),
                "merge_batches": int(builder_stats.get("merge_batches", 0)),
            }
            run_scope.gauge(names.STORAGE_MAPPED_BYTES).set(
                graph.size_bytes()
            )
            run_scope.counter(names.STORAGE_SPILL_RUNS).inc(
                result.storage["spill_runs"]
            )
            run_scope.counter(names.STORAGE_MERGE_BATCHES).inc(
                result.storage["merge_batches"]
            )
            run_scope.counter(names.STORAGE_PAGE_MISS_GATHERS).inc(
                total_queries - total_hits
            )
        return result

    def _charge_refetch(
        self, survivor_id: int, dead_id: int, roots: np.ndarray, scope
    ) -> None:
        """Bulk re-fetch of a survivor's share of the lost partition.

        Storage is replicated by assumption: the failover owner streams
        the orphaned roots' edge lists to the survivor in one batch
        before the replay starts. The transfer is real traffic (it goes
        through ``record_fetch``, so flaky-fetch faults apply to it too
        and the failover owner's served tallies grow) and its wire time
        lands on the survivor's network clock.
        """
        cluster = self.cluster
        if len(roots) == 0:
            return
        source = cluster.failover_owner(dead_id)
        if source == survivor_id:
            return  # the replica holder already has the bytes locally
        graph = cluster.graph
        payload = int(
            sum(graph.edge_list_bytes(int(v)) for v in roots)
        )
        server = cluster.machines[source]
        cluster.network.record_fetch(survivor_id, source, payload, server)
        comm = cluster.network.batch_time(payload, 1)
        comm += cluster.network.drain_retry_seconds()
        cluster.machines[survivor_id].clock.network += comm
        scope.counter(names.TIME_NETWORK).inc(comm)


@dataclass
class _Shard:
    """One unit of the engine's work queue: a machine and its roots.

    ``recovery`` marks shards created by reassignment, whose chunk
    creations feed the ``recovery.reassigned_chunks`` metric.
    ``base_roots``/``base_matches`` are the durable-resume prefix that
    was sliced off this machine's root set — the offsets that turn the
    scheduler's shard-relative checkpoint cursor back into the absolute
    one the chunk log records.
    """

    machine_id: int
    roots: np.ndarray
    recovery: bool = False
    base_roots: int = 0
    base_matches: int = 0


def _rebased_sink(sink, pattern: int, shard: _Shard, ckpt) -> None:
    """Adapt the engine-level checkpoint sink to one scheduler: add the
    pattern index and rebase the shard-relative cursor to absolute."""
    sink(pattern, shard.machine_id,
         shard.base_roots + ckpt.roots_completed,
         shard.base_matches + ckpt.matches)
