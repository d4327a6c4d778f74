"""Per-machine BFS-DFS hybrid exploration (paper Section 4).

Each machine explores the embedding trees rooted at its local partition
vertices. Same-level extendable embeddings are grouped into fixed-size
chunks; the scheduler descends (DFS) as soon as the next level's chunk
fills and backtracks when a level is exhausted, releasing whole chunks
at once. Before a chunk is extended, its pending edge-list fetches are
resolved with circulant scheduling — shuffled into per-owner batches
whose communication is pipelined against the chunk's computation.

The scheduler charges every mechanism to the machine's clock buckets:
intersections and embedding creation to ``compute``, fine-grained task
bookkeeping to ``scheduler``, HDS/static-cache bookkeeping to ``cache``,
and unhidden fetch time to ``network`` — the categories of Figure 15.

When built with an enabled :class:`~repro.obs.Observability`, the same
charges are additionally attributed at span granularity: one ``chunk``
span per resolved chunk (its compute/scheduler/cache/network seconds,
item count, and how much communication the circulant pipeline hid) and
one ``batch`` span per circulant communication batch (payload bytes,
request count, wire/serve seconds), each keyed by
(machine, level, chunk, batch). Summing a machine's span times
reproduces its clock buckets exactly — that identity is what lets the
Figure 15/19 benches read real trace data, and it is asserted in
``tests/test_obs.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineState
from repro.core.cache import EdgeCache
from repro.core.chunk import EMBEDDING_BASE_BYTES, Chunk, EdgeListSource
from repro.core.extend import ScheduleExtender
from repro.core.hds import HorizontalShareTable
from repro.core.pipeline import pipeline_time
from repro.errors import MachineCrashError, SimTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import Checkpoint
from repro.graph.graph import edge_list_bytes_of
from repro.obs import NULL_OBS, Observability, Span, names
from repro.patterns.schedule import CountingPlan

#: UDF signature: (prefix vertices, completing candidates array).
Udf = Callable[[tuple[int, ...], np.ndarray], None]


def NULL_UDF(prefix: tuple[int, ...], candidates: np.ndarray) -> None:
    """Counting-only UDF: match totals are tallied by the scheduler.

    A sentinel, not just a no-op — the scheduler recognizes it by
    identity and drains final-level chunks through the counting kernel
    (cardinalities, no candidate list — docs/performance.md), which is
    only sound when nobody consumes the candidate values.
    """


class _LevelState:
    """One level of the DFS stack: a resolved chunk plus its accounting.

    Accounting is integer event tallies (``merge``, ``scanned``,
    ``emitted``, ``children``); :meth:`MachineScheduler._finalize_state`
    prices them once, so every clock bucket is a function of order-free
    integers (docs/performance.md).
    """

    __slots__ = (
        "chunk",
        "chunk_id",
        "cursor",
        "flat",
        "batch",
        "candidates",
        "comm_times",
        "batch_sizes",
        "merge",
        "scanned",
        "emitted",
        "children",
        "cache_seconds",
        "start",
    )

    def __init__(self, chunk: Chunk, chunk_id: int = 0, start: float = 0.0):
        self.chunk = chunk
        #: per-scheduler chunk sequence number (span attribution key)
        self.chunk_id = chunk_id
        #: rows whose extension has been consumed (``extend.*`` reported)
        self.cursor = 0
        #: candidates of ``batch.values`` already handed to child
        #: chunks. The paper pauses a level as soon as the next level's
        #: memory is full — possibly in the middle of one embedding's
        #: extension — which here is ``flat`` resting inside a row's
        #: slice of the flat candidate array.
        self.flat = 0
        #: the chunk's vectorized extension, computed on first touch: a
        #: chunk that is registered but never consumed (crash trigger,
        #: timeout) must not pay — or meter — any extension work
        self.batch = None
        #: how many candidates ``batch`` holds for child chunks (a
        #: drained chunk hands none on)
        self.candidates = 0
        self.comm_times: list[float] = [0.0]  # batch 0 = local/no-fetch
        self.batch_sizes: list[int] = [0]
        self.merge = 0
        self.scanned = 0
        self.emitted = 0
        self.children = 0
        #: HDS/cache bookkeeping wall seconds charged at resolve time
        self.cache_seconds = 0.0
        #: machine clock when the chunk became current (span start)
        self.start = start

    @property
    def exhausted(self) -> bool:
        # a filling chunk may have reached its last row and still rest
        # inside it
        return (
            self.cursor >= len(self.chunk) and self.flat >= self.candidates
        )


class MachineScheduler:
    """Runs one machine's share of a pattern's enumeration."""

    def __init__(
        self,
        cluster: Cluster,
        machine: MachineState,
        extender: ScheduleExtender,
        cache: EdgeCache,
        udf: Udf,
        chunk_bytes: int,
        hds_enabled: bool,
        hds_slots: int,
        vcs_enabled: bool,
        numa_aware: bool,
        hds_chaining: bool = False,
        circulant: bool = True,
        time_budget: Optional[float] = None,
        obs: Optional[Observability] = None,
        faults: Optional[FaultInjector] = None,
        checkpoint_sink: Optional[Callable] = None,
        iep_plan: Optional[CountingPlan] = None,
    ):
        self.cluster = cluster
        self.machine = machine
        self.graph = cluster.graph
        #: per-vertex accounting columns the chunk passes index into
        self._edge_bytes = self.graph.edge_list_bytes_all()
        self._vertex_degrees = self.graph.degrees()
        #: failover-aware serving owner per vertex: a dead hash owner's
        #: partition is served by its replica holder (docs/faults.md).
        #: Machines only die between scheduler runs, so the table is
        #: fixed for this scheduler's life.
        self._vertex_owner = cluster.partitioned.owners_all()
        if cluster.dead:
            serving = np.arange(cluster.num_machines)
            for dead in cluster.dead:
                serving[dead] = cluster.failover_owner(dead)
            self._vertex_owner = serving[self._vertex_owner]
        self.extender = extender
        self.cache = cache
        self.udf = udf
        self.chunk_bytes = chunk_bytes
        self.hds_enabled = hds_enabled
        self.vcs_enabled = vcs_enabled
        self.numa_aware = numa_aware
        self.circulant = circulant
        self.time_budget = time_budget
        self.cost = cluster.cost
        self.faults = faults
        #: straggler degradation: >1 stretches compute and link time
        self._slow_factor = (
            faults.slowdown(machine.machine_id) if faults is not None else 1.0
        )
        #: the compute pool's divisor (cores are fixed for the run)
        self._compute_pool = machine.compute_pool
        #: enumeration cursor at the last completed root chunk — what a
        #: crashed machine's recovery restarts from (docs/faults.md)
        self.checkpoint = Checkpoint(machine_id=machine.machine_id)
        #: durability hook (docs/faults.md): called with the updated
        #: Checkpoint at every completed root chunk, so the engine can
        #: persist the cursor (or a process-backend worker can ship it
        #: to the parent). Observation only — simulated accounting and
        #: counts are identical with or without a sink.
        self.checkpoint_sink = checkpoint_sink
        #: inclusion-exclusion counting plan (docs/performance.md).
        #: When set, ``extender`` was compiled from
        #: ``iep_plan.prefix_schedule`` and the final drain evaluates the
        #: IEP formula instead of enumerating suffix candidates. The
        #: tallied ``matches`` are the restriction-free *numerator*; the
        #: engine divides by ``iep_plan.divisor`` once per query.
        self.iep_plan = iep_plan
        #: per-level facts the chunk passes read, settled here once:
        #: whether a level's new vertex has an active edge list
        self._fetches = tuple(
            self._needs_edge_list(level)
            for level in range(extender.final_level + 1)
        )
        #: the smallest list the cache's degree threshold lets through —
        #: a static cache with less than this free has stopped changing
        self._least_offer = edge_list_bytes_of(cache.degree_threshold)
        self.checkpoints_taken = 0
        self.matches = 0
        self.chunks_created = 0
        #: how each embedding's active edge list was satisfied
        self.fetch_sources = {
            "local": 0, "remote": 0, "cache": 0, "shared": 0,
        }
        obs = obs if obs is not None else NULL_OBS
        self.obs = obs
        self._tracer = obs.tracer
        self._trace = obs.tracer.enabled
        scope = obs.registry.scope(machine=machine.machine_id)
        self.hds = HorizontalShareTable(
            hds_slots, chaining=hds_chaining, metrics=scope
        )
        self._m_fetch = {
            "local": scope.counter(names.FETCH_LOCAL),
            "remote": scope.counter(names.FETCH_REMOTE),
            "cache": scope.counter(names.FETCH_CACHE),
            "shared": scope.counter(names.FETCH_SHARED),
        }
        self._m_chunks = scope.counter(names.CHUNKS_CREATED)
        self._m_checkpoints = scope.counter(names.RECOVERY_CHECKPOINTS)
        self._m_chunk_items = scope.histogram(names.CHUNK_ITEMS)
        self._m_overlap = scope.histogram(names.CHUNK_OVERLAP)
        self._m_matches = scope.counter(names.MATCHES_EMITTED)
        self._m_t_compute = scope.counter(names.TIME_COMPUTE)
        self._m_t_scheduler = scope.counter(names.TIME_SCHEDULER)
        self._m_t_cache = scope.counter(names.TIME_CACHE)
        self._m_t_network = scope.counter(names.TIME_NETWORK)

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------
    def _compute_penalty(self) -> float:
        """NUMA-oblivious runs pay cross-socket memory latency (S5.4)."""
        if self.machine.sockets <= 1 or self.numa_aware:
            return 1.0
        return (
            1.0 + self.cost.numa_cross_fraction * self.cost.numa_remote_penalty
        )

    def _parallel(self, serial_seconds: float) -> float:
        # MachineState.parallel_compute_time, its divisor read once
        return serial_seconds / self._compute_pool * self._slow_factor

    def _check_budget(self) -> None:
        if (
            self.time_budget is not None
            and self.machine.clock.total() > self.time_budget
        ):
            raise SimTimeoutError(self.machine.clock.total(), self.time_budget)

    def _register_chunk(self) -> None:
        """Count a chunk creation; the injector's crash triggers fire
        here (chunk creation is the scheduler's heartbeat)."""
        self.chunks_created += 1
        self._m_chunks.inc()
        if self.faults is not None:
            self.faults.on_chunk_created(
                self.machine.machine_id, self.machine.clock.total()
            )

    def _take_checkpoint(self, consumed_roots: int) -> None:
        """Advance the recovery cursor past a completed root chunk.

        The cursor itself is metadata the scheduler already maintains;
        persisting it is charged (one task-schedule quantum) only when a
        fault plan is active, so fault-free runs stay byte-identical.
        """
        ckpt = self.checkpoint
        ckpt.roots_completed += consumed_roots
        ckpt.matches = self.matches
        ckpt.chunk_index = self.chunks_created
        ckpt.simulated_seconds = self.machine.clock.total()
        self.checkpoints_taken += 1
        self._m_checkpoints.inc()
        if self.faults is not None:
            seconds = self.cost.task_schedule
            self.machine.clock.scheduler += seconds
            self._m_t_scheduler.inc(seconds)
        if self.checkpoint_sink is not None:
            self.checkpoint_sink(ckpt)

    def _count_matches(self, matches: int) -> None:
        self.matches += matches
        self._m_matches.inc(matches)

    def _count_sources(self, source: str, rows: int) -> None:
        self.fetch_sources[source] += rows
        self._m_fetch[source].inc(rows)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, roots: np.ndarray) -> int:
        """Explore all embedding trees rooted at ``roots``; returns matches."""
        pattern_size = self.extender.schedule.pattern.num_vertices
        if pattern_size == 1 and self.iep_plan is None:
            self._count_matches(len(roots))
            seconds = len(roots) * self.cost.emit_per_candidate
            self.machine.clock.compute += seconds
            self._m_t_compute.inc(seconds)
            if self._trace:
                self._tracer.record(Span(
                    "roots", self.machine.machine_id, level=0,
                    attrs={"compute": seconds, "items": len(roots)},
                ))
            self._take_checkpoint(len(roots))
            return self.matches

        roots = np.asarray(roots)
        consumed = 0
        try:
            while True:
                root_chunk = self._fill_root_chunk(roots[consumed:])
                if root_chunk is None:
                    break
                consumed += len(root_chunk)
                self._explore_from(root_chunk)
                self._take_checkpoint(len(root_chunk))
                self._check_budget()
        except MachineCrashError:
            self.machine.alive = False
            raise
        return self.matches

    def _fill_root_chunk(self, roots: np.ndarray) -> Optional[Chunk]:
        """Level-0 chunk: single-vertex embeddings, all data local —
        the next slice of the roots array that fills the budget."""
        self._register_chunk()
        chunk = Chunk(0, self.chunk_bytes, self.machine)
        rows = min(len(roots), chunk.max_rows)
        if not rows:
            chunk.release()
            return None
        chunk.fill(
            roots[:rows], None,
            np.full(rows, EMBEDDING_BASE_BYTES, dtype=np.int64),
            EdgeListSource.LOCAL,  # roots are owned locally
        )
        return chunk

    def _explore_from(self, root_chunk: Chunk) -> None:
        if self.iep_plan is not None:
            # the extender only builds the plan's prefix embeddings;
            # chunks of *complete* prefixes (level == final_level) drain
            # through the IEP terminal kernel instead of extending
            final_extend_level = self.extender.final_level
        else:
            final_extend_level = self.extender.final_level - 1
        stack = [_LevelState(root_chunk, self.chunks_created,
                             self.machine.clock.total())]
        self._m_chunk_items.observe(len(root_chunk))
        while stack:
            state = stack[-1]
            if state.exhausted:
                self._finalize_state(state)
                stack.pop()
                self._check_budget()
                continue
            if state.chunk.level >= final_extend_level:
                if self.iep_plan is not None:
                    self._drain_final_iep(state)
                else:
                    self._drain_final(state)
                continue
            next_chunk = self._fill_next_chunk(state)
            if next_chunk is None:
                continue
            next_state = _LevelState(next_chunk, self.chunks_created,
                                     self.machine.clock.total())
            self._resolve_chunk(next_chunk, next_state)
            self._m_chunk_items.observe(len(next_chunk))
            stack.append(next_state)

    # ------------------------------------------------------------------
    # extension
    # ------------------------------------------------------------------
    def _needs_edge_list(self, position: int) -> bool:
        """Whether position ``position``'s edge list must be resolved.

        Under an IEP plan, prefix positions whose neighbor lists feed an
        intersection signature need their edge lists even when the
        prefix schedule's own extension steps never read them — the
        terminal kernel does.
        """
        if (
            self.iep_plan is not None
            and position in self.iep_plan.fetch_positions
        ):
            return True
        return self.extender.needs_edge_list(position)

    def _fill_next_chunk(self, state: _LevelState) -> Optional[Chunk]:
        """Hand the next slice of ``state``'s candidates to a child
        chunk: as many as its memory takes."""
        level = state.chunk.level + 1
        needs_fetch = self._fetches[level]
        self._register_chunk()
        chunk = Chunk(level, self.chunk_bytes, self.machine,
                      parent=state.chunk, preallocate=True)
        batch = state.batch
        if batch is None:
            batch = state.batch = self.extender.extend_chunk(
                self.graph, state.chunk, level
            )
            state.candidates = len(batch.values)
            state.merge += int(batch.merge_elements.sum())
            state.scanned += int(batch.scanned.sum())
        start = state.flat
        window = slice(start, start + chunk.max_rows)
        vertex = batch.values[window]
        parent_idx = batch.rows[window]
        if needs_fetch:
            # reserve space for the (possibly) fetched edge list up
            # front so the chunk's fixed memory budget covers its
            # contents (Section 4.2); refunded at resolve time if the
            # list is shared, cached, or local
            stored = self._edge_bytes[vertex] + EMBEDDING_BASE_BYTES
        else:
            stored = np.full(len(vertex), EMBEDDING_BASE_BYTES, np.int64)
        if self.vcs_enabled and batch.raw_offsets is not None:
            # the parent's stored intersection (VCS)
            chunk.raw_values = batch.raw_values
            chunk.raw_offsets = batch.raw_offsets
            stored += 4 * (
                batch.raw_offsets[parent_idx + 1]
                - batch.raw_offsets[parent_idx]
            )
        rows = chunk.fit(stored)
        chunk.fill(
            vertex[:rows], parent_idx[:rows], stored[:rows],
            EdgeListSource.PENDING if needs_fetch else EdgeListSource.NONE,
        )
        # a full chunk stops at its last candidate's row — the next
        # level's memory may fill mid-embedding, and the walk resumes
        # there after the subtree below this chunk is explored; one
        # that ran out of candidates has also consumed the trailing
        # rows that produced none
        reached = (
            int(parent_idx[rows - 1]) + 1 if chunk.full
            else len(state.chunk)
        )
        if reached > state.cursor:
            consumed = slice(state.cursor, reached)
            self.extender.account_rows(
                reached - state.cursor,
                int(batch.merge_elements[consumed].sum()),
                int(batch.counts[consumed].sum()),
            )
            state.cursor = reached
        if not rows:
            chunk.release()
            return None
        state.flat = start + rows
        state.children += rows
        return chunk

    def _drain_final(self, state: _LevelState) -> None:
        """Last extension level: completed embeddings go to the UDF.
        When nobody reads the candidate values (the UDF is the counting
        sentinel) the kernel answers with per-embedding cardinalities."""
        count_only = self.udf is NULL_UDF
        batch = self.extender.extend_chunk(
            self.graph, state.chunk, self.extender.final_level,
            count_only=count_only,
        )
        emitted = int(batch.counts.sum())
        if emitted and not count_only:
            prefixes = state.chunk.prefixes().tolist()
            offsets = batch.offsets.tolist()
            for row in np.flatnonzero(batch.counts).tolist():
                self.udf(
                    tuple(prefixes[row]),
                    batch.values[offsets[row]:offsets[row + 1]],
                )
        state.emitted += emitted
        self._finish_drain(state, batch, emitted)

    def _drain_final_iep(self, state: _LevelState) -> None:
        """IEP terminal drain: each complete prefix embedding's suffix
        count comes from the inclusion-exclusion formula over
        intersection cardinalities — no suffix candidates are ever
        materialized, so nothing is charged per emitted match. Tallied
        counts are plan numerators; the engine applies ``plan.divisor``
        once per query."""
        batch = self.extender.iep_chunk(
            self.graph, self.iep_plan, state.chunk
        )
        self._finish_drain(state, batch, int(batch.counts.sum()))

    def _finish_drain(self, state: _LevelState, batch, matches: int) -> None:
        merge = int(batch.merge_elements.sum())
        state.merge += merge
        state.scanned += int(batch.scanned.sum())
        state.cursor = len(state.chunk)
        self.extender.account_rows(len(state.chunk), merge, matches)
        self._count_matches(matches)

    # ------------------------------------------------------------------
    # communication resolution (circulant scheduling, Section 4.3)
    # ------------------------------------------------------------------
    def _resolve_chunk(self, chunk: Chunk, state: _LevelState) -> None:
        """Settle where every row's active edge list comes from, as
        passes over the chunk's columns: local by owner, the share
        table, the cache, then one fetch batch per remote owner —
        priced on Python numbers cut from one stable sort, so a chunk
        costs the same calls whether its remote rows sit on one owner
        or on seven (docs/performance.md, "The per-chunk constant")."""
        chain_steps_before = self.hds.chain_steps
        probes = 0
        fetched = 0
        if self._fetches[chunk.level]:
            me = self.machine.machine_id
            vertex = chunk.vertex
            source = chunk.source
            owner = self._vertex_owner[vertex]
            local = owner == me
            source[local] = EdgeListSource.LOCAL
            remote = (~local).nonzero()[0]
            self._count_sources("local", len(vertex) - len(remote))
            wanted = vertex[remote]
            if len(remote) and self.hds_enabled:
                probes = len(remote)
                hit = self.hds.share(wanted)
                source[remote[hit]] = EdgeListSource.SHARED
                miss = ~hit
                remote, wanted = remote[miss], wanted[miss]
                self._count_sources("shared", probes - len(remote))
            if len(remote):
                hit = self.cache.query_many(wanted)
                cached = remote[hit]
                source[cached] = EdgeListSource.CACHE
                miss = ~hit
                remote, wanted = remote[miss], wanted[miss]
                self._count_sources("cache", len(cached))
            #: rows whose fetched list stays in the chunk. Every other
            #: reservation returns: local is a pointer only, shared a
            #: pointer into the chunk, cached/admitted lists live in the
            #: cache pool
            stored = remote
            if len(remote):
                stored = self._fetch(state, owner, remote, wanted)
                fetched = len(remote)
            returned = self._edge_bytes[vertex]
            returned[stored] = 0
            chunk.refund(slice(None), returned)
        state.batch_sizes[0] = len(chunk) - fetched

        cache_ops = (
            probes + self.hds.chain_steps - chain_steps_before
        ) * self.cost.hds_probe
        cache_ops += self.cache.drain_cost()
        cache_wall = self._parallel(cache_ops)
        self.machine.clock.cache += cache_wall
        self._m_t_cache.inc(cache_wall)
        state.cache_seconds += cache_wall

    def _fetch(
        self,
        state: _LevelState,
        owner: np.ndarray,
        remote: np.ndarray,
        wanted: np.ndarray,
    ) -> np.ndarray:
        """Fetch rows ``remote`` of ``state.chunk`` (their vertices
        ``wanted``) in circulant order — owner machines starting from
        me+1, one communication batch each — and offer the lists to the
        cache. Returns the rows whose list was not admitted.

        The batches are ``(peer, start, stop)`` cuts of the hop-sorted
        rows, their payloads one integer ``reduceat``. The one owner
        loop does what can fail or must interleave — an injector's
        fetch-by-fetch walk and its retry backoff; without one it makes
        no call. Then the network is told of the chunk's batches once
        (``record_fetch_batches``, ``batch_times``) and every batch's
        wire time is priced on Python floats in batch order —
        ``(wire + retry) * slow``, the expression a batch-at-a-time
        walk evaluates, so no simulated float can round differently.
        Rows are sliced only for who reads them: the injector's walk."""
        me = self.machine.machine_id
        chunk = state.chunk
        network = self.cluster.network
        num_machines = self.cluster.num_machines
        hops = owner[remote]
        hops -= me
        hops %= num_machines
        order = hops.argsort(kind="stable")
        remote, wanted = remote[order], wanted[order]
        sizes = self._edge_bytes[wanted]
        ends = np.bincount(hops, minlength=num_machines).cumsum().tolist()
        batches = [
            ((me + hop) % num_machines, ends[hop - 1], ends[hop])
            for hop in range(1, num_machines)
            if ends[hop] > ends[hop - 1]
        ]
        payloads = np.add.reduceat(
            sizes, [start for _, start, _ in batches]
        ).tolist()
        injected = network.injector is not None
        admitted = None
        if injected:
            # injected failures interleave retry state with each
            # fetch's bookkeeping, and one that exhausts its retries
            # ends the batch midway: fetch and offer one at a time
            admitted = np.zeros(len(remote), dtype=bool)
            degrees = self._vertex_degrees[wanted]
        elif not self.cache.saturated(self._least_offer):
            # admission is in offer order and the batches lie end to
            # end in circulant order: one offer for the whole chunk
            admitted = self.cache.admit_many(
                wanted, sizes, self._vertex_degrees[wanted]
            )
        retries = [0.0] * len(batches)
        done = 0
        try:
            for peer, start, stop in batches:
                if injected:
                    server = self.cluster.machine(peer)
                    for row, v, size, degree in zip(
                        range(start, stop),
                        wanted[start:stop].tolist(),
                        sizes[start:stop].tolist(),
                        degrees[start:stop].tolist(),
                    ):
                        network.record_fetch(me, peer, size, server)
                        admitted[row] = self.cache.admit(v, size, degree)
                    # transient failures: their backoff waits extend
                    # this batch's wire time
                    retries[done] = network.drain_retry_seconds()
                done += 1
        finally:
            # a fetch that exhausted its retries leaves behind what the
            # batches before it did
            arrived = batches[done - 1][2] if done else 0
            chunk.source[remote[:arrived]] = EdgeListSource.REMOTE
            self._count_sources("remote", arrived)
            batches = [
                (peer, stop - start, payload)
                for (peer, start, stop), payload
                in zip(batches[:done], payloads)
            ]
            if not injected:
                network.record_fetch_batches(
                    me, batches, self.cluster.machines
                )
            seconds = network.batch_times(batches)
        # a straggler's slow link stretches the wire time
        slow = self._slow_factor
        comms = [
            (wire + retry) * slow for wire, retry in zip(seconds, retries)
        ]
        if self._trace:
            for batch, ((peer, count, payload), comm) in enumerate(
                zip(batches, comms), len(state.comm_times)
            ):
                self._tracer.record(Span(
                    "batch",
                    me,
                    level=chunk.level,
                    chunk=state.chunk_id,
                    batch=batch,
                    start=state.start,
                    attrs={
                        "owner": peer,
                        "requests": count,
                        "payload_bytes": payload,
                        "comm_seconds": comm,
                        "serve_seconds": network.serve_time(payload, count),
                    },
                ))
        state.comm_times.extend(comms)
        state.batch_sizes.extend([count for _, count, _ in batches])
        return remote if admitted is None else remote[~admitted]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _finalize_state(self, state: _LevelState) -> None:
        """Price the chunk's event tallies, charge its pipelined time
        and release its memory."""
        cost = self.cost
        compute_serial = (
            state.merge * cost.intersect_per_element
            + (state.scanned + state.emitted) * cost.emit_per_candidate
            + state.children * cost.embedding_create
        )
        scheduler_serial = (
            cost.chunk_setup
            + math.ceil(len(state.chunk) / cost.mini_batch_size)
            * cost.mini_batch_dispatch
            + state.children * cost.task_schedule
        )
        penalty = self._compute_penalty()
        compute_par = self._parallel(compute_serial) * penalty
        total_batch = max(1, sum(state.batch_sizes))
        compute_per_batch = [
            compute_par * size / total_batch for size in state.batch_sizes
        ]
        if self.circulant:
            wall = pipeline_time(state.comm_times, compute_per_batch)
        else:
            # no pipelining: every fetch completes before computing
            wall = sum(state.comm_times) + compute_par
        scheduler_par = self._parallel(scheduler_serial)
        exposed = max(0.0, wall - compute_par)
        comm_total = sum(state.comm_times)
        hidden = max(0.0, comm_total - exposed)
        self.machine.clock.compute += compute_par
        self.machine.clock.network += exposed
        self.machine.clock.scheduler += scheduler_par
        self._m_t_compute.inc(compute_par)
        self._m_t_network.inc(exposed)
        self._m_t_scheduler.inc(scheduler_par)
        self._m_overlap.observe(hidden)
        if self._trace:
            self._tracer.record(Span(
                "chunk",
                self.machine.machine_id,
                level=state.chunk.level,
                chunk=state.chunk_id,
                start=state.start,
                attrs={
                    "compute": compute_par,
                    "network": exposed,
                    "scheduler": scheduler_par,
                    "cache": state.cache_seconds,
                    "items": len(state.chunk),
                    "batches": len(state.batch_sizes) - 1,
                    "comm_seconds": comm_total,
                    "hidden_seconds": hidden,
                },
            ))
        state.chunk.release()
