"""Per-machine BFS-DFS hybrid exploration (paper Section 4).

Each machine explores the embedding trees rooted at its local partition
vertices. Same-level extendable embeddings are grouped into fixed-size
chunks; the scheduler descends (DFS) as soon as the next level's chunk
fills and backtracks when a level is exhausted, releasing whole chunks
at once. Before a chunk is extended, its pending edge-list fetches are
resolved with circulant scheduling — shuffled into per-owner batches
whose communication is pipelined against the chunk's computation.

One scheduler runs a whole pattern group (:class:`~repro.core.plan.
PatternGroup`): a chunk belongs to a node of the group's step-prefix
trie. Once resolved it drains the node's terminals — each pattern
whose prefix ends there, into its own ``matches`` slot — and is then
extended into each child node in turn, DFS as for one pattern; a
one-pattern group is a one-leaf trie.

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
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineState
from repro.core.cache import EdgeCache
from repro.core.chunk import EMBEDDING_BASE_BYTES, Chunk, EdgeListSource
from repro.core.extend import ScheduleExtender
from repro.core.hds import HorizontalShareTable
from repro.core.pipeline import pipeline_time
from repro.core.plan import Terminal, TrieNode
from repro.errors import (
    FetchFailedError,
    MachineCrashError,
    OutOfMemoryError,
    SimTimeoutError,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import Checkpoint
from repro.graph.graph import edge_list_bytes_of
from repro.obs import NULL_OBS, Observability, Span, names

#: a cache pass's hit mask of a part with no rows left to query
_NO_HITS = np.zeros(0, dtype=bool)

#: the ways a row's edge list is satisfied, in resolve's order
_SOURCES = ("local", "shared", "cache", "remote")

#: ``source`` codes as plain ints: an IntEnum operand sends numpy
#: looking for array hooks on the enum
_PENDING, _LOCAL, _SHARED = map(int, (
    EdgeListSource.PENDING, EdgeListSource.LOCAL, EdgeListSource.SHARED))

#: what ends one machine's walk, and only that walk
ABORTS = (OutOfMemoryError, SimTimeoutError, FetchFailedError,
          MachineCrashError)


#: prefix entries (rows × positions) a kernel call takes at most: its
#: temporaries grow with them, its constant is amortized by then
BATCH_ELEMENTS = 1 << 15


#: rows a resolve takes at most: what its whole-column temporaries
#: hold at once
RESOLVE_ROWS = 1 << 16


def _runs(served: list, resolve: bool = False) -> Iterator[list]:
    """One site's ``(walk, scheduler, chunk or state)`` requests, in
    order, in runs of at most :data:`BATCH_ELEMENTS` prefix entries —
    :data:`RESOLVE_ROWS` rows for a resolve — or one larger request."""
    run, size = [], 0
    budget = RESOLVE_ROWS if resolve else BATCH_ELEMENTS
    for request in served:
        if resolve:
            entries = len(request[2].chunk)
        else:
            entries = len(request[2]) * (request[2].level + 1)
        if run and size + entries > budget:
            yield run
            run, size = [], 0
        run.append(request)
        size += entries
    yield run


def _site_ranks(node: TrieNode, ranks: Optional[dict] = None) -> dict:
    """``(id, resolve)`` of each request site below ``node`` -> its
    preorder rank: a node's terminals, then per child its fill, the
    resolve of the chunk the fill made, and the child's own sites."""
    ranks = {} if ranks is None else ranks
    for terminal in node.terminals:
        ranks[id(terminal), False] = len(ranks)
    for child in node.children:
        ranks[id(child), False] = len(ranks)
        ranks[id(child), True] = len(ranks)
        _site_ranks(child, ranks)
    return ranks


class RowUdf:
    """A plain callable as a chunk UDF: ``fn(prefix, candidates)`` —
    the pattern index first if ``indexed`` (``run_many``'s) — once per
    row with matches, the one per-row UDF loop. It has a ``merge`` only
    where ``fn`` has one (:func:`~repro.core.plan.require_mergeable_udf`)."""

    def __init__(self, fn: Callable[..., None], indexed: bool):
        self.fn, self.indexed = fn, indexed

    def chunk(self, pattern: int, prefixes: np.ndarray, offsets: np.ndarray,
              values: np.ndarray) -> None:
        head = (pattern,) if self.indexed else ()
        bounds = offsets.tolist()
        rows = np.flatnonzero(np.diff(offsets))
        for row, prefix in zip(rows.tolist(), prefixes[rows].tolist()):
            self.fn(*head, tuple(prefix), values[bounds[row]:bounds[row + 1]])

    @property
    def merge(self) -> Callable[["RowUdf"], "RowUdf"]:
        merge = self.fn.merge  # AttributeError: not mergeable

        def merged(other: "RowUdf") -> "RowUdf":
            merge(other.fn)
            return self
        return merged


def chunk_udf(udf, indexed: bool):
    """``udf`` as the drains call it, once per drained chunk:
    ``udf.chunk(pattern, prefixes, offsets, values)`` — the rows'
    prefix matrix and candidate CSR, ``pattern`` the job's pattern
    index. A plain callable is wrapped in a :class:`RowUdf`; None (a
    count-only run) stays None."""
    if udf is None or hasattr(udf, "chunk"):
        return udf
    return RowUdf(udf, indexed)


class _LevelState:
    """One level of the DFS stack: a resolved chunk plus its accounting.

    Accounting is integer event tallies (``merge``, ``scanned``,
    ``emitted``, ``children``); :meth:`MachineScheduler._finalize_state`
    prices them once, so every clock bucket is a function of order-free
    integers (docs/performance.md).
    """

    __slots__ = (
        "chunk",
        "node",
        "child",
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

    def __init__(self, chunk: Chunk, node: TrieNode, chunk_id: int = 0,
                 start: float = 0.0):
        self.chunk = chunk
        #: the trie node the chunk belongs to
        self.node = node
        #: which of ``node.children`` the walk below extends into
        self.child = 0
        #: per-scheduler chunk sequence number (span attribution key)
        self.chunk_id = chunk_id
        #: rows whose extension into the current child has been
        #: consumed (``extend.*`` reported)
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
        """Whether the walk into the current child is done."""
        # a filling chunk may have reached its last row and still rest
        # inside it
        return (
            self.cursor >= len(self.chunk) and self.flat >= self.candidates
        )

    def extend(self, batch) -> None:
        """Take the chunk's extension into the current child."""
        self.batch = batch
        self.candidates = len(batch.values)
        self.merge += int(batch.merge_elements.sum())
        self.scanned += int(batch.scanned.sum())

    def next_child(self) -> bool:
        """Start the walk into the next child; False after the last."""
        self.child += 1
        if self.child >= len(self.node.children):
            return False
        self.cursor = self.flat = self.candidates = 0
        self.batch = None
        return True


class MachineScheduler:
    """Runs one machine's share of a pattern group's enumeration."""

    def __init__(
        self,
        cluster: Cluster,
        machine: MachineState,
        extender: ScheduleExtender,
        cache: EdgeCache,
        udf,
        chunk_bytes: int,
        hds_enabled: bool,
        hds_slots: int,
        vcs_enabled: bool,
        numa_aware: bool,
        trie: TrieNode,
        hds_chaining: bool = False,
        circulant: bool = True,
        time_budget: Optional[float] = None,
        obs: Optional[Observability] = None,
        faults: Optional[FaultInjector] = None,
        checkpoint_sink: Optional[Callable] = None,
    ):
        self.cluster = cluster
        self.machine = machine
        self.graph = cluster.graph
        #: per-vertex accounting columns the chunk passes index into
        self._edge_bytes = self.graph.edge_list_bytes_all()
        self._vertex_degrees = self.graph.degrees()
        #: circulant hop to each vertex's serving owner, narrow: the
        #: fetch's stable owner sort is a radix sort (:func:`_circulant`)
        self._vertex_hop = cluster.vertex_hops(machine.machine_id)
        self.extender = extender
        self.cache = cache
        #: what the final drains hand their rows to (:func:`chunk_udf`);
        #: None drains through the counting kernel, which lists nothing
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
        #: the group's step-prefix trie (repro.core.plan). An IEP
        #: terminal drains through the inclusion-exclusion formula
        #: (docs/performance.md) and tallies the restriction-free
        #: *numerator*; the engine divides once per query.
        self.trie = trie
        #: the smallest list the cache's degree threshold lets through —
        #: a static cache with less than this free has stopped changing
        self._least_offer = edge_list_bytes_of(cache.degree_threshold)
        self.checkpoints_taken = 0
        #: ``(machine clock, error)`` when the walk aborted (one of
        #: :data:`ABORTS`); None while it runs and once it has finished
        self.abort: Optional[tuple[float, Exception]] = None
        #: match tally per group slot
        self.matches = [0] * trie.patterns
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
            hds_slots, chaining=hds_chaining, metrics=scope,
            workspace=extender.workspace,
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
        ckpt.matches = tuple(self.matches)
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

    def _count_matches(self, slot: int, matches: int) -> None:
        self.matches[slot] += matches
        self._m_matches.inc(matches)

    def _count_sources(self, *rows: int) -> None:
        """Tally how many rows had their edge list satisfied each way:
        local, shared, cached, fetched."""
        for source, count in zip(_SOURCES, rows):
            self.fetch_sources[source] += count
            self._m_fetch[source].inc(count)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, roots: np.ndarray, peers: Sequence = ()) -> list[int]:
        """Explore all embedding trees rooted at ``roots``; returns the
        matches of every group slot.

        ``peers``, ``(scheduler, roots)`` of machines on the same trie,
        walk in lockstep with this one (docs/performance.md, "Lockstep
        machines"): the pending requests of one trie site are served
        together, the site earliest in preorder first — a kernel site's
        by one kernel call, a resolve site's by one
        :meth:`_resolve_chunk`. A walk that raises one of
        :data:`ABORTS` (a fetch that exhausts its retries is thrown into
        its walk) leaves the lockstep set with its scheduler's
        ``abort`` set; the others run on to their own end."""
        ranks = _site_ranks(self.trie)
        pending: dict[int, tuple] = {}

        def advance(walk, scheduler, result=None, error=None) -> None:
            try:
                site, payload = (walk.send(result) if error is None
                                 else walk.throw(error))
            except StopIteration:
                return
            except ABORTS as exc:
                scheduler.abort = (scheduler.machine.clock.total(), exc)
                return
            resolve = type(payload) is _LevelState
            pending.setdefault(
                ranks[id(site), resolve], (site, resolve, []),
            )[2].append((walk, scheduler, payload))

        for scheduler, share in [(self, roots), *peers]:
            advance(scheduler._walk(share), scheduler)
        while pending:
            site, resolve, served = pending.pop(min(pending))
            if resolve:
                errors = []
                for run in _runs(served, resolve=True):
                    (_, lead, state), *rest = run
                    errors += lead._resolve_chunk(state.chunk, state, [
                        (scheduler, other.chunk, other)
                        for _, scheduler, other in rest])
                for (walk, scheduler, _), error in zip(served, errors):
                    advance(walk, scheduler, error=error)
                continue
            for run in _runs(served):
                chunks = [(scheduler.extender, chunk)
                          for _, scheduler, chunk in run]
                extender = chunks[0][0]
                if getattr(site, "counting", None) is not None:
                    results = extender.iep_chunk(
                        self.graph, site.counting, chunks)
                else:  # a fill's extension lists, a drain counts if it can
                    drain = isinstance(site, Terminal)
                    results = extender.extend_chunk(
                        self.graph, site.step, chunks,
                        drain and self.udf is None,
                        site.joined if drain else ())
                for (walk, scheduler, _), result in zip(run, results):
                    advance(walk, scheduler, result)
        return self.matches

    def _walk(self, roots: np.ndarray) -> Iterator[tuple]:
        """The exploration; yields its requests: ``(site, chunk)`` for
        a kernel call, ``(node, state)`` to resolve a chunk just filled
        for ``node``."""
        lone = self.trie.terminals
        if lone and lone[0].step is None and lone[0].counting is None:
            # a 1-vertex pattern (always a group of its own)
            self._count_matches(0, len(roots))
            seconds = len(roots) * self.cost.emit_per_candidate
            self.machine.clock.compute += seconds
            self._m_t_compute.inc(seconds)
            if self._trace:
                self._tracer.record(Span(
                    "roots", self.machine.machine_id, level=0,
                    attrs={"compute": seconds, "items": len(roots)},
                ))
            self._take_checkpoint(len(roots))
            return

        roots = np.asarray(roots)
        consumed = 0
        while True:
            root_chunk = self._fill_root_chunk(roots[consumed:])
            if root_chunk is None:
                break
            consumed += len(root_chunk)
            yield from self._explore_from(root_chunk)
            self._take_checkpoint(len(root_chunk))
            self._check_budget()

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

    def _explore_from(self, root_chunk: Chunk) -> Iterator[tuple]:
        stack = [_LevelState(root_chunk, self.trie, self.chunks_created,
                             self.machine.clock.total())]
        self._m_chunk_items.observe(len(root_chunk))
        yield from self._drain_terminals(stack[0])
        while stack:
            state = stack[-1]
            if state.exhausted:
                if state.next_child():
                    continue
                self._finalize_state(state)
                stack.pop()
                self._check_budget()
                continue
            node = state.node.children[state.child]
            # before the extension: a chunk never consumed (crash
            # trigger, OOM) meters no extension work
            self._register_chunk()
            chunk = Chunk(node.level, self.chunk_bytes, self.machine,
                          parent=state.chunk, preallocate=True)
            if state.batch is None:
                state.extend((yield node, state.chunk))
            if self._fill_next_chunk(state, chunk) is None:
                continue
            next_state = _LevelState(chunk, node, self.chunks_created,
                                     self.machine.clock.total())
            yield node, next_state
            self._m_chunk_items.observe(len(chunk))
            stack.append(next_state)
            yield from self._drain_terminals(next_state)

    def _drain_terminals(self, state: _LevelState) -> Iterator[tuple]:
        """Drain every pattern whose prefix ends at the chunk's node; a
        chunk of a leaf node has nothing left to extend."""
        for terminal in state.node.terminals:
            batch = yield terminal, state.chunk
            if terminal.counting is not None:
                self._drain_final_iep(state, terminal, batch)
            else:
                self._drain_final(state, terminal, batch)
        if not state.node.children:
            state.cursor = len(state.chunk)

    # ------------------------------------------------------------------
    # extension
    # ------------------------------------------------------------------
    def _fill_next_chunk(self, state: _LevelState,
                         chunk: Chunk) -> Optional[Chunk]:
        """Hand the next slice of ``state``'s candidates for its
        current child node (``state.batch``) to ``chunk``: as many as
        its memory takes; None (released) if it takes none."""
        needs_fetch = state.node.children[state.child].fetch
        batch = state.batch
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
            # one value, read n times: nothing refunds it
            stored = np.broadcast_to(EMBEDDING_BASE_BYTES, len(vertex))
        if self.vcs_enabled and batch.raw_offsets is not None:
            # the parent's stored intersection (VCS)
            chunk.raw_values = batch.raw_values
            chunk.raw_offsets = batch.raw_offsets
            raw = batch.raw_offsets[parent_idx + 1]
            raw -= batch.raw_offsets[parent_idx]
            raw *= 4
            stored = np.add(raw, stored, out=raw)
        rows = chunk.fit(stored)
        # the chunk keeps its own rows' bytes, not the window's
        stored = stored[:rows].copy() if stored.strides[0] else stored[:rows]
        chunk.fill(
            vertex[:rows], parent_idx[:rows], stored,
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

    def _drain_final(self, state: _LevelState, terminal: Terminal,
                     batch) -> None:
        """Last extension level: completed embeddings (``batch``) go
        to the UDF in one call — or, without one, were counted."""
        emitted = int(batch.counts.sum())
        if emitted and self.udf is not None:
            self.udf.chunk(terminal.pattern, state.chunk.prefixes(),
                           batch.offsets, batch.values)
        state.emitted += emitted
        self._finish_drain(state, batch, terminal.slot, emitted)

    def _drain_final_iep(self, state: _LevelState, terminal: Terminal,
                         batch) -> None:
        """IEP terminal drain: each complete prefix embedding's suffix
        count (``batch``) came from the inclusion-exclusion formula over
        intersection cardinalities — no suffix candidates are ever
        materialized, so nothing is charged per emitted match. Tallied
        counts are plan numerators; the engine applies ``plan.divisor``
        once per query."""
        self._finish_drain(state, batch, terminal.slot,
                           int(batch.counts.sum()))

    def _finish_drain(self, state: _LevelState, batch, slot: int,
                      matches: int) -> None:
        merge = int(batch.merge_elements.sum())
        state.merge += merge
        state.scanned += int(batch.scanned.sum())
        self.extender.account_rows(len(state.chunk), merge, matches)
        self._count_matches(slot, matches)

    # ------------------------------------------------------------------
    # communication resolution (circulant scheduling, Section 4.3)
    # ------------------------------------------------------------------
    def _resolve_chunk(self, chunk: Chunk, state: _LevelState,
                       peers: Sequence = ()) -> list:
        """Settle where every row's active edge list comes from, for
        this chunk and ``peers``' — ``(scheduler, chunk, state)`` of
        other machines' chunks at the same trie node — as passes over
        their columns laid end to end: local by owner, each machine's
        share table (one segmented pass), its cache, then one fetch
        batch per (machine, remote owner), cut from one stable sort.
        Every machine is priced on its own Python numbers, so a chunk
        costs the same calls whether its remote rows sit on one owner
        or on seven, and settles alike whatever chunks share its pass
        (docs/performance.md, "The per-chunk constant" and "Lockstep
        machines"). Returns, per chunk, the :class:`FetchFailedError`
        of a machine whose fetch exhausted its retries, else None."""
        parts = [(self, chunk, state), *peers]
        width = len(parts)
        failed = [None] * width
        #: each share table's probes and chain steps so far: the ones
        #: this pass adds are the bookkeeping it charges
        probed = [scheduler.hds.probes + scheduler.hds.chain_steps
                  for scheduler, _, _ in parts]
        #: after the last pass, part ``i``'s fetched rows are
        #: ``remote[cached[i]:cached[i + 1]]``
        cached = [0] * (width + 1)
        if state.node.fetch:
            vertex = chunk.vertex
            hop = self._vertex_hop.take(vertex)
            bounds = [0, len(vertex)]
            if peers:  # the chunks' columns end to end
                vertex = np.concatenate([c.vertex for _, c, _ in parts])
                bounds = [0, *accumulate(len(c) for _, c, _ in parts)]
                hop = np.empty(bounds[-1], dtype=hop.dtype)
                for (scheduler, part, _), start, stop in zip(
                        parts, bounds, bounds[1:]):
                    scheduler._vertex_hop.take(
                        part.vertex, out=hop[start:stop], mode="clip")
            # masks stay bool: numpy's nonzero and a view of one are
            # fast paths the uint8 hop column does not take
            local = hop == 0
            remote = (~local).nonzero()[0]
            left = len(remote)
            # a remote row reads shared if a share pass runs (most hit;
            # its misses are set back), else pending until it settles
            unsettled = _SHARED if left and self.hds_enabled else _PENDING
            source = local.view(np.int8)
            source *= _LOCAL - unsettled
            source += unsettled
            for (_, part, _), start, stop in zip(parts, bounds, bounds[1:]):
                part.source = source[start:stop]  # views of the column
            # after each pass, part ``i``'s rows left in ``remote`` are
            # ``cuts[i]:cuts[i + 1]``
            cuts = remote.searchsorted(bounds).tolist() if peers else [0, left]
            shared = cuts
            if left and self.hds_enabled:
                hit = HorizontalShareTable.share_segments(
                    [scheduler.hds for scheduler, _, _ in parts],
                    vertex[remote], cuts)
                remote = remote[~hit]
                source[remote] = _PENDING
                left = len(remote)
                shared = (remote.searchsorted(bounds).tolist() if peers
                          else [0, left])
            cached = shared
            wanted = vertex[remote]
            if left:
                hit = self.cache.query_many(wanted) if not peers else (
                    np.concatenate([
                        scheduler.cache.query_many(wanted[start:stop])
                        if stop > start else _NO_HITS
                        for (scheduler, _, _), start, stop
                        in zip(parts, shared, shared[1:])
                    ]))
                source[remote[hit]] = EdgeListSource.CACHE
                miss = ~hit
                remote, wanted = remote[miss], wanted[miss]
                left = len(remote)
                cached = (remote.searchsorted(bounds).tolist() if peers
                          else [0, left])
            #: rows whose fetched list stays in the chunk. Every other
            #: reservation returns: local is a pointer only, shared a
            #: pointer into the chunk, cached/admitted lists live in the
            #: cache pool
            stored = remote
            arrived = [0] * width  # each part's fetched rows
            if left:
                stored = self._fetch(parts, source, hop, remote, wanted,
                                     cached, arrived, failed)
            for index, (scheduler, _, _) in enumerate(parts):
                remote_rows = cuts[index + 1] - cuts[index]
                unshared = shared[index + 1] - shared[index]
                scheduler._count_sources(
                    bounds[index + 1] - bounds[index] - remote_rows,
                    remote_rows - unshared,
                    unshared - cached[index + 1] + cached[index],
                    arrived[index],
                )
            returned = self._edge_bytes[vertex]
            returned[stored] = 0
            for (_, part, _), start, stop in zip(parts, bounds, bounds[1:]):
                part.refund(slice(None), returned[start:stop])

        for (scheduler, part, settled), before, start, stop in zip(
                parts, probed, cached, cached[1:]):
            settled.batch_sizes[0] = len(part.vertex) - (stop - start)
            hds = scheduler.hds
            cache_ops = (
                hds.probes + hds.chain_steps - before
            ) * scheduler.cost.hds_probe
            cache_ops += scheduler.cache.drain_cost()
            cache_wall = scheduler._parallel(cache_ops)
            scheduler.machine.clock.cache += cache_wall
            scheduler._m_t_cache.inc(cache_wall)
            settled.cache_seconds += cache_wall
        return failed

    def _fetch(
        self,
        parts: list,
        source: np.ndarray,
        hop: np.ndarray,
        remote: np.ndarray,
        wanted: np.ndarray,
        cuts: list,
        arrived: list,
        failed: list,
    ) -> np.ndarray:
        """Fetch rows ``remote`` of the parts' column (their vertices
        ``wanted``, every row's ``source`` and circulant ``hop``; part
        ``i`` owns ``remote[cuts[i]:cuts[i + 1]]``) in circulant order —
        each machine's owners starting from its own + 1, one
        communication batch each — and offer each machine's lists to
        its cache. Returns the rows whose list was not admitted; part
        ``i``'s rows that arrived are counted into ``arrived[i]``.

        The batches are ``(peer, start, stop)`` cuts of the rows sorted
        by (part, hop) (:func:`_circulant`), their payloads one integer
        ``reduceat``. Under a fault plan each machine's rows draw their
        failed attempts as one vector from its own stream
        (:meth:`FaultInjector.fetch`); a machine whose fetch exhausts
        its retries keeps the batches before it and gets the error in
        ``failed[i]``, and every other machine settles as if it were
        alone. Then the network is told of every settled batch once
        (``record_fetch_batches``, ``batch_times``) and each machine's
        wire times are priced on Python floats in its batch order —
        ``(wire + retry) * slow``, the expression a batch-at-a-time walk
        evaluates, so no simulated float can round differently."""
        cluster = self.cluster
        network = cluster.network
        num_machines = cluster.num_machines
        keys = hop[remote]
        machines = self.machine.machine_id
        if parts[1:]:
            width = np.min_scalar_type(len(parts) * num_machines - 1)
            keys = keys.astype(width, copy=False)
            keys += np.repeat(np.arange(
                0, len(parts) * num_machines, num_machines, dtype=width,
            ), [stop - start for start, stop in zip(cuts, cuts[1:])])
            machines = [scheduler.machine.machine_id
                        for scheduler, _, _ in parts]
        order, batches = _circulant(keys, machines, num_machines)
        remote, wanted = remote[order], wanted[order]
        sizes = self._edge_bytes[wanted]
        payloads = iter(np.add.reduceat(sizes, [
            start for owned in batches for _, start, _ in owned]).tolist())
        degrees = self._vertex_degrees[wanted]
        source[remote] = EdgeListSource.REMOTE
        admitted = None
        told = []  # (part, its settled batches, their retry seconds)
        # every machine's batches end to end, and who asked for each
        flat, askers = [], []
        for index, (part, start, stop, owned) in enumerate(
                zip(parts, cuts, cuts[1:], batches)):
            if start == stop:
                continue
            scheduler = part[0]
            me = scheduler.machine.machine_id
            retries = [0.0] * len(owned)
            if self.faults is not None:
                retries, failed[index] = self.faults.fetch(network, me, owned)
                if failed[index] is not None:
                    # the rows past the last settled batch never arrive
                    settled = owned[len(retries) - 1][2] if retries else start
                    source[remote[settled:stop]] = _PENDING
                    stop = settled
            arrived[index] = stop - start
            if not scheduler.cache.saturated(scheduler._least_offer):
                # admission is in offer order and the batches lie end
                # to end in circulant order: one offer for the machine
                if admitted is None:
                    admitted = np.zeros(len(remote), dtype=bool)
                admitted[start:stop] = scheduler.cache.admit_many(
                    wanted[start:stop], sizes[start:stop],
                    degrees[start:stop])
            owned = [
                (peer, last - first, payload)
                for (peer, first, last), payload in zip(owned, payloads)
            ]
            if failed[index] is not None:
                owned = owned[:len(retries)]
            told.append((part, owned, retries))
            flat += owned
            askers += [me] * len(owned)
        network.record_fetch_batches(askers, flat, cluster.machines)
        seconds = iter(network.batch_times(flat))
        for (scheduler, chunk, state), owned, retries in told:
            # a straggler's slow link stretches the wire time
            slow = scheduler._slow_factor
            comms = [
                (wire + retry) * slow for retry, wire in zip(retries, seconds)
            ]
            if scheduler._trace:
                for batch, ((peer, count, payload), comm) in enumerate(
                    zip(owned, comms), len(state.comm_times)
                ):
                    scheduler._tracer.record(Span(
                        "batch",
                        scheduler.machine.machine_id,
                        level=chunk.level,
                        chunk=state.chunk_id,
                        batch=batch,
                        start=state.start,
                        attrs={
                            "owner": peer,
                            "requests": count,
                            "payload_bytes": payload,
                            "comm_seconds": comm,
                            "serve_seconds": network.serve_time(payload,
                                                                count),
                        },
                    ))
            state.comm_times += comms
            state.batch_sizes += [count for _, count, _ in owned]
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


def _circulant(keys: np.ndarray, me: int | Sequence[int],
               num_machines: int):
    """``(order, batches)``: fetch rows sorted stably by their ``keys``
    and, per segment, each owner's ``(peer, start, stop)`` run of them,
    hop 1 first. A row's key is its circulant hop from the machine that
    wants it plus ``num_machines`` × its segment, segment ``i``'s
    machine being ``me[i]`` (``me`` an int: one segment); hop 0 (local)
    makes no batch."""
    machines = [me] if isinstance(me, int) else me
    order = keys.argsort(kind="stable")
    ends = np.bincount(
        keys, minlength=len(machines) * num_machines).cumsum().tolist()
    batches = []
    for base, machine in zip(range(0, len(ends), num_machines), machines):
        batches.append([
            ((machine + hop) % num_machines, ends[base + hop - 1],
             ends[base + hop])
            for hop in range(1, num_machines)
            if ends[base + hop] > ends[base + hop - 1]
        ])
    return order, batches
