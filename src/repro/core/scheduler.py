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
from repro.core.chunk import Chunk
from repro.core.embedding import EdgeListSource, ExtendableEmbedding
from repro.core.extend import ScheduleExtender
from repro.core.hds import HorizontalShareTable, ProbeOutcome
from repro.core.pipeline import pipeline_time
from repro.errors import MachineCrashError, SimTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import Checkpoint
from repro.obs import NULL_OBS, Observability, Span, names
from repro.patterns.schedule import CountingPlan

#: UDF signature: (prefix vertices, completing candidates array).
Udf = Callable[[tuple[int, ...], np.ndarray], None]


def NULL_UDF(prefix: tuple[int, ...], candidates: np.ndarray) -> None:
    """Counting-only UDF: match totals are tallied by the scheduler.

    A sentinel, not just a no-op — the scheduler recognizes it by
    identity and drains final-level chunks through the count-only
    kernel fast path (candidate counts without materialized arrays,
    docs/performance.md), which is only sound when nobody consumes the
    candidate values.
    """


class _LevelState:
    """One level of the DFS stack: a resolved chunk plus its accounting."""

    __slots__ = (
        "chunk",
        "chunk_id",
        "cursor",
        "resume",
        "batch",
        "comm_times",
        "batch_sizes",
        "compute_serial",
        "scheduler_serial",
        "cache_seconds",
        "start",
    )

    def __init__(self, chunk: Chunk, chunk_id: int = 0, start: float = 0.0):
        self.chunk = chunk
        #: per-scheduler chunk sequence number (span attribution key)
        self.chunk_id = chunk_id
        self.cursor = 0
        #: mid-embedding continuation:
        #: (parent, ExtendResult, candidate list, next index).
        #: The paper pauses a level as soon as the next level's memory is
        #: full — possibly in the middle of one embedding's extension.
        self.resume = None
        #: lazily-computed ChunkExtendResult of the batched kernel path
        #: (None until the first extension touches this chunk)
        self.batch = None
        self.comm_times: list[float] = [0.0]  # batch 0 = local/no-fetch
        self.batch_sizes: list[int] = [0]
        self.compute_serial = 0.0
        self.scheduler_serial = 0.0
        #: HDS/cache bookkeeping wall seconds charged at resolve time
        self.cache_seconds = 0.0
        #: machine clock when the chunk became current (span start)
        self.start = start

    @property
    def exhausted(self) -> bool:
        return self.resume is None and self.cursor >= len(self.chunk.items)


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
        transport=None,
        batched_extend: bool = True,
        checkpoint_sink: Optional[Callable] = None,
        iep_plan: Optional[CountingPlan] = None,
    ):
        self.cluster = cluster
        self.machine = machine
        self.graph = cluster.graph
        #: plain-int views of per-vertex accounting quantities; the hot
        #: loops below touch them once per child/fetch, where a method
        #: call plus numpy scalar boxing per lookup is measurable
        self._edge_bytes: list[int] = (
            self.graph.edge_list_bytes_all().tolist()
        )
        self._vertex_degrees: list[int] = self.graph.degrees().tolist()
        self._vertex_owner: list[int] = (
            cluster.partitioned.owners_all().tolist()
        )
        self.extender = extender
        self.cache = cache
        self.udf = udf
        #: vectorized chunk-at-a-time EXTEND (repro.core.kernels) vs the
        #: scalar per-embedding reference path; counts and all simulated
        #: measurements are bit-identical either way (tests/test_kernels.py)
        self.batched_extend = batched_extend
        self.chunk_bytes = chunk_bytes
        self.hds_enabled = hds_enabled
        self.vcs_enabled = vcs_enabled
        self.numa_aware = numa_aware
        self.circulant = circulant
        self.time_budget = time_budget
        self.cost = cluster.cost
        self.faults = faults
        #: real inter-process fetch channel of the ``process`` backend
        #: (repro.exec). None in simulated-only runs; when set, each
        #: chunk's circulant batches additionally travel as coalesced
        #: requests whose replies stream back over shared-memory rings,
        #: posted ahead of the batches that await them so communication
        #: genuinely overlaps computation. The simulated accounting
        #: below is unchanged either way.
        self.transport = transport
        #: straggler degradation: >1 stretches compute and link time
        self._slow_factor = (
            faults.slowdown(machine.machine_id) if faults is not None else 1.0
        )
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
        self.checkpoints_taken = 0
        self.matches = 0
        self.chunks_created = 0
        #: how each embedding's active edge list was satisfied
        self.fetch_sources = {
            EdgeListSource.LOCAL: 0,
            EdgeListSource.REMOTE: 0,
            EdgeListSource.CACHE: 0,
            EdgeListSource.SHARED: 0,
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
            EdgeListSource.LOCAL: scope.counter(names.FETCH_LOCAL),
            EdgeListSource.REMOTE: scope.counter(names.FETCH_REMOTE),
            EdgeListSource.CACHE: scope.counter(names.FETCH_CACHE),
            EdgeListSource.SHARED: scope.counter(names.FETCH_SHARED),
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
        return (
            self.machine.parallel_compute_time(serial_seconds)
            * self._slow_factor
        )

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

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, roots: np.ndarray) -> int:
        """Explore all embedding trees rooted at ``roots``; returns matches."""
        pattern_size = self.extender.schedule.pattern.num_vertices
        if pattern_size == 1 and self.iep_plan is None:
            self.matches += len(roots)
            self._m_matches.inc(len(roots))
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

        root_needs_fetch = self.extender.schedule.root_active() or (
            self.iep_plan is not None
            and 0 in self.iep_plan.fetch_positions
        )
        root_iter = iter(roots)
        try:
            while True:
                root_chunk = self._fill_root_chunk(root_iter, root_needs_fetch)
                if root_chunk is None:
                    break
                consumed = len(root_chunk.items)
                self._explore_from(root_chunk)
                self._take_checkpoint(consumed)
                self._check_budget()
        except MachineCrashError:
            # this machine's HDS entries alias fetch buffers that died
            # with it; drop them so nothing dangles past the crash
            self.hds.invalidate()
            self.machine.alive = False
            raise
        return self.matches

    def _fill_root_chunk(
        self, root_iter, root_needs_fetch: bool
    ) -> Optional[Chunk]:
        """Level-0 chunk: single-vertex embeddings, all data local."""
        self._register_chunk()
        chunk = Chunk(0, self.chunk_bytes, self.machine)
        for root in root_iter:
            emb = ExtendableEmbedding(int(root), 0, None, root_needs_fetch)
            emb.mark_ready(EdgeListSource.LOCAL)  # roots are owned locally
            chunk.add(emb)
            if chunk.full:
                break
        if not chunk.items:
            chunk.release()
            return None
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
        self._charge_chunk_setup(stack[-1], len(root_chunk.items))
        self._m_chunk_items.observe(len(root_chunk.items))
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
            self._charge_chunk_setup(next_state, len(next_chunk.items))
            self._m_chunk_items.observe(len(next_chunk.items))
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

    def _ensure_batch(
        self, state: _LevelState, level: int, count_only: bool
    ):
        """The chunk's vectorized extension, computed on first touch.

        Lazy on purpose: a chunk that is registered but never consumed
        (crash trigger, timeout) must not pay — or meter — any
        extension work, exactly like the scalar path.
        """
        if state.batch is None:
            state.batch = self.extender.extend_chunk(
                self.graph, state.chunk.items, level, count_only=count_only
            )
        return state.batch

    def _extend_one(
        self, state: _LevelState, emb: ExtendableEmbedding, level: int
    ):
        if self.batched_extend:
            batch = self._ensure_batch(state, level, count_only=False)
            result = self.extender.take_batch_result(batch, state.cursor - 1)
        else:
            result = self.extender.extend_level(
                self.graph, emb.vertices(), level, emb.intermediate_at
            )
        state.compute_serial += (
            result.merge_elements * self.cost.intersect_per_element
            + result.scanned * self.cost.emit_per_candidate
        )
        return result

    def _fill_next_chunk(self, state: _LevelState) -> Optional[Chunk]:
        """Extend parents from ``state`` until the child chunk fills."""
        level = state.chunk.level
        child_level = level + 1
        needs_fetch = self._needs_edge_list(child_level)
        self._register_chunk()
        chunk = Chunk(child_level, self.chunk_bytes, self.machine,
                      preallocate=True)
        items = state.chunk.items
        ebytes = self._edge_bytes
        embedding_create = self.cost.embedding_create
        task_schedule = self.cost.task_schedule
        chunk_add = chunk.add
        while not chunk.full:
            if state.resume is None:
                if state.cursor >= len(items):
                    break
                emb = items[state.cursor]
                state.cursor += 1
                result = self._extend_one(state, emb, child_level)
                state.resume = (emb, result, result.candidates.tolist(), 0)
            emb, result, candidates, index = state.resume
            raw = result.raw if self.vcs_enabled else None
            raw_bytes = 4 * len(raw) if raw is not None else 0
            num_candidates = len(candidates)
            while index < num_candidates and not chunk.full:
                v = candidates[index]
                index += 1
                child = ExtendableEmbedding(v, child_level, emb, needs_fetch)
                if needs_fetch:
                    # reserve space for the (possibly) fetched edge list
                    # up front so the chunk's fixed memory budget covers
                    # its contents (Section 4.2); refunded at resolve
                    # time if the list is shared, cached, or local
                    child.stored_bytes += ebytes[v]
                if raw is not None:
                    child.intermediate = raw
                    child.stored_bytes += raw_bytes
                chunk_add(child)
                state.compute_serial += embedding_create
                state.scheduler_serial += task_schedule
            if index < num_candidates:
                # next-level memory is full mid-embedding: pause here and
                # resume after the subtree below this chunk is explored
                state.resume = (emb, result, candidates, index)
            else:
                emb.mark_zombie()
                state.resume = None
        if not chunk.items:
            chunk.release()
            return None
        return chunk

    def _drain_final(self, state: _LevelState) -> None:
        """Last extension level: completed embeddings go to the UDF."""
        final_level = self.extender.final_level
        if self.batched_extend and self.udf is NULL_UDF:
            self._drain_final_counts(state, final_level)
            return
        items = state.chunk.items
        while state.cursor < len(items):
            emb = items[state.cursor]
            state.cursor += 1
            result = self._extend_one(state, emb, final_level)
            if len(result.candidates):
                self.matches += len(result.candidates)
                self._m_matches.inc(len(result.candidates))
                self.udf(emb.vertices(), result.candidates)
                state.compute_serial += (
                    len(result.candidates) * self.cost.emit_per_candidate
                )
            emb.mark_zombie()

    def _drain_final_counts(self, state: _LevelState, level: int) -> None:
        """Count-only final drain: nobody reads the candidate values
        (the UDF is the counting sentinel), so the kernel only produces
        per-embedding candidate *counts* — no filtered arrays are ever
        materialized. The accounting below repeats the scalar drain
        term for term (same expressions, same order, Python ints), so
        every simulated measurement stays bit-identical."""
        batch = self._ensure_batch(state, level, count_only=True)
        items = state.chunk.items
        intersect = self.cost.intersect_per_element
        emit = self.cost.emit_per_candidate
        merges = batch.merge_elements.tolist()
        scans = batch.scanned.tolist()
        counts = batch.counts.tolist()
        compute_serial = state.compute_serial
        processed = total_merge = total_count = 0
        while state.cursor < len(items):
            index = state.cursor
            state.cursor += 1
            merge = merges[index]
            count = counts[index]
            processed += 1
            total_merge += merge
            compute_serial += merge * intersect + scans[index] * emit
            if count:
                total_count += count
                compute_serial += count * emit
            items[index].mark_zombie()
        state.compute_serial = compute_serial
        # integer tallies fold exactly, so the counters can be bumped
        # once for the whole drained chunk
        self.extender.account_count_only(processed, total_merge, total_count)
        if total_count:
            self.matches += total_count
            self._m_matches.inc(total_count)

    def _ensure_iep_batch(self, state: _LevelState, level: int):
        """The chunk's batched IEP evaluation, computed on first touch
        (lazy for the same crash/timeout reasons as :meth:`_ensure_batch`)."""
        if state.batch is None:
            state.batch = self.extender.iep_chunk(
                self.graph, self.iep_plan, state.chunk.items, level
            )
        return state.batch

    def _drain_final_iep(self, state: _LevelState) -> None:
        """IEP terminal drain: each complete prefix embedding's suffix
        count comes from the inclusion-exclusion formula over
        intersection cardinalities — no suffix candidates are ever
        materialized. The batched and scalar paths charge identical
        per-embedding terms (same expressions, same order, Python
        ints), so every simulated measurement stays bit-identical
        across ``--extend-mode``. Tallied counts are plan numerators;
        the engine applies ``plan.divisor`` once per query."""
        level = state.chunk.level
        items = state.chunk.items
        intersect = self.cost.intersect_per_element
        emit = self.cost.emit_per_candidate
        compute_serial = state.compute_serial
        processed = total_merge = total_count = 0
        if self.batched_extend:
            batch = self._ensure_iep_batch(state, level)
            merges = batch.merge_elements.tolist()
            scans = batch.scanned.tolist()
            counts = batch.counts.tolist()
            while state.cursor < len(items):
                index = state.cursor
                state.cursor += 1
                merge = merges[index]
                processed += 1
                total_merge += merge
                total_count += counts[index]
                compute_serial += merge * intersect + scans[index] * emit
                items[index].mark_zombie()
        else:
            while state.cursor < len(items):
                emb = items[state.cursor]
                state.cursor += 1
                count, merge, scanned = self.extender.iep_embedding(
                    self.graph, self.iep_plan, emb.vertices()
                )
                processed += 1
                total_merge += merge
                total_count += count
                compute_serial += merge * intersect + scanned * emit
                emb.mark_zombie()
        state.compute_serial = compute_serial
        self.extender.account_count_only(processed, total_merge, total_count)
        if total_count:
            self.matches += total_count
            self._m_matches.inc(total_count)

    # ------------------------------------------------------------------
    # communication resolution (circulant scheduling, Section 4.3)
    # ------------------------------------------------------------------
    def _resolve_chunk(self, chunk: Chunk, state: _LevelState) -> None:
        me = self.machine.machine_id
        num_machines = self.cluster.num_machines
        if self.hds_enabled:
            self.hds.clear()  # the share table is per level/chunk
        chain_steps_before = self.hds.chain_steps
        cache_ops = 0.0

        # group pending fetches by owner machine; sources tallied in
        # plain locals and folded into the dicts/counters once after the
        # loop (same totals, no per-embedding dict hashing)
        groups: dict[int, list[ExtendableEmbedding]] = {}
        local_count = 0
        n_local = n_shared = n_cache = 0
        ebytes = self._edge_bytes
        hds_enabled = self.hds_enabled
        hds_probe = self.hds.probe
        hds_probe_cost = self.cost.hds_probe
        cache_query = self.cache.query
        owners = self._vertex_owner
        dead = self.cluster.dead
        failover_owner = self.cluster.failover_owner
        refund = chunk.refund
        hit = ProbeOutcome.HIT
        src_local = EdgeListSource.LOCAL
        src_shared = EdgeListSource.SHARED
        src_cache = EdgeListSource.CACHE
        for emb in chunk.items:
            if not emb.needs_fetch:
                local_count += 1
                continue
            v = emb.vertex
            reserved = ebytes[v]
            # failover-aware: a dead hash owner's partition is served by
            # its replica holder (docs/faults.md); fault-free runs take
            # the plain hash-owner fast path (cluster.serving_owner,
            # inlined here over the precomputed owner table)
            owner = owners[v]
            if dead and owner in dead:
                owner = failover_owner(owner)
            if owner == me:
                emb.mark_ready(src_local)
                n_local += 1
                refund(emb, reserved)  # local: pointer only
                local_count += 1
                continue
            if hds_enabled:
                cache_ops += hds_probe_cost
                outcome = hds_probe(v)
                if outcome is hit:
                    emb.mark_ready(src_shared)
                    n_shared += 1
                    refund(emb, reserved)  # pointer into the chunk
                    local_count += 1
                    continue
            if cache_query(v):
                emb.mark_ready(src_cache)
                n_cache += 1
                refund(emb, reserved)  # resident in the cache pool
                local_count += 1
                continue
            groups.setdefault(owner, []).append(emb)
        if n_local:
            self.fetch_sources[src_local] += n_local
            self._m_fetch[src_local].inc(n_local)
        if n_shared:
            self.fetch_sources[src_shared] += n_shared
            self._m_fetch[src_shared].inc(n_shared)
        if n_cache:
            self.fetch_sources[src_cache] += n_cache
            self._m_fetch[src_cache].inc(n_cache)
        state.batch_sizes[0] = local_count

        # circulant order: owner machines starting from me+1
        ordered: list[tuple[int, list[ExtendableEmbedding]]] = []
        for offset in range(1, num_machines):
            owner = (me + offset) % num_machines
            batch = groups.get(owner)
            if batch:
                ordered.append((owner, batch))
        transport = self.transport
        if transport is not None and ordered:
            # fire the whole chunk's demand up front, coalesced per
            # server worker and split to ring-sized requests — the
            # transport's flow control keeps only as many in flight as
            # its reply rings can hold, so every batch below finds its
            # reply already streaming while earlier batches compute
            transport.post_chunk(
                me,
                [(owner, [emb.vertex for emb in batch])
                 for owner, batch in ordered],
            )
        for owner, batch in ordered:
            if transport is not None:
                transport.collect(me, owner,
                                  [emb.vertex for emb in batch])
            server = self.cluster.machine(owner)
            network = self.cluster.network
            admit = self.cache.admit
            degrees = self._vertex_degrees
            src_remote = EdgeListSource.REMOTE
            if network.injector is None:
                payload = network.record_fetch_batch(
                    me, owner, [ebytes[emb.vertex] for emb in batch], server
                )
                for emb in batch:
                    v = emb.vertex
                    num_bytes = ebytes[v]
                    if admit(v, num_bytes, degrees[v]):
                        refund(emb, num_bytes)  # lives in the cache pool
                    emb.mark_ready(src_remote)
            else:
                # injected failures interleave retry state with each
                # fetch's bookkeeping: keep the one-at-a-time path
                payload = 0
                record_fetch = network.record_fetch
                for emb in batch:
                    v = emb.vertex
                    num_bytes = ebytes[v]
                    record_fetch(me, owner, num_bytes, server)
                    payload += num_bytes
                    if admit(v, num_bytes, degrees[v]):
                        refund(emb, num_bytes)  # lives in the cache pool
                    emb.mark_ready(src_remote)
            self.fetch_sources[src_remote] += len(batch)
            self._m_fetch[src_remote].inc(len(batch))
            comm = self.cluster.network.batch_time(payload, len(batch))
            # injected transient failures: their backoff waits extend
            # this batch's wire time; a straggler's slow link stretches it
            comm += self.cluster.network.drain_retry_seconds()
            comm *= self._slow_factor
            state.comm_times.append(comm)
            state.batch_sizes.append(len(batch))
            if self._trace:
                self._tracer.record(Span(
                    "batch",
                    me,
                    level=chunk.level,
                    chunk=state.chunk_id,
                    batch=len(state.comm_times) - 1,
                    start=state.start,
                    attrs={
                        "owner": owner,
                        "requests": len(batch),
                        "payload_bytes": payload,
                        "comm_seconds": comm,
                        "serve_seconds": self.cluster.network.serve_time(
                            payload, len(batch)),
                    },
                ))

        cache_ops += (
            self.hds.chain_steps - chain_steps_before
        ) * self.cost.hds_probe
        cache_ops += self.cache.drain_cost()
        cache_wall = self._parallel(cache_ops)
        self.machine.clock.cache += cache_wall
        self._m_t_cache.inc(cache_wall)
        state.cache_seconds += cache_wall

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _charge_chunk_setup(self, state: _LevelState, num_items: int) -> None:
        state.scheduler_serial += self.cost.chunk_setup
        state.scheduler_serial += (
            math.ceil(num_items / self.cost.mini_batch_size)
            * self.cost.mini_batch_dispatch
        )

    def _finalize_state(self, state: _LevelState) -> None:
        """Charge the chunk's pipelined time and release its memory."""
        penalty = self._compute_penalty()
        compute_par = self._parallel(state.compute_serial) * penalty
        total_batch = max(1, sum(state.batch_sizes))
        compute_per_batch = [
            compute_par * size / total_batch for size in state.batch_sizes
        ]
        if self.circulant:
            wall = pipeline_time(state.comm_times, compute_per_batch)
        else:
            # no pipelining: every fetch completes before computing
            wall = sum(state.comm_times) + compute_par
        scheduler_par = self._parallel(state.scheduler_serial)
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
                    "items": len(state.chunk.items),
                    "batches": len(state.batch_sizes) - 1,
                    "comm_seconds": comm_total,
                    "hidden_seconds": hidden,
                },
            ))
        state.chunk.release()
