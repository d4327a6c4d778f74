"""Inter-worker fetch transport of the process backend.

Topology: per ordered worker pair, one request pipe (the requester's
main thread writes, the server's responder thread reads) and one
shared-memory reply ring the other way (:mod:`repro.exec.ring`) — every
channel has one writer and one reader, so a worker killed at any
instant leaves nothing behind that a survivor could block on. The
responder serves every request from the shared-memory graph with one
bulk adjacency gather (``Graph.neighbors_batch`` — the batched worker
kernel) while the worker's main thread runs the chunk scheduler, so
serving remote fetches genuinely overlaps local computation — the role
of Khuzdul's dedicated communication threads. A ring always holds the
graph's largest edge list (the parent sizes it from the degrees), so
every reply is a ring frame: there is no second transport mode.

The scheduler drives the requester side through
:meth:`WorkerTransport.post_chunk` (fire the whole chunk's coalesced,
ring-sized requests up front) and one :meth:`WorkerTransport.collect`
per circulant batch (block for that server machine's edge lists). Key
properties:

* **Coalescing** — pending fetches are grouped per *server worker* and
  shipped as :class:`~repro.exec.messages.CoalescedFetchRequest`
  messages, one (or a few ring-sized splits) per worker per chunk,
  instead of one message per server machine. Fewer messages, and every
  reply is a raw ring frame: no pickling on the hot path.
* **Deterministic framing** — requester and responder read the *same*
  shared graph, so the requester predicts every reply's exact byte
  size from vertex degrees. It reads whole frames in one call,
  validates the element count, and slices per-machine payloads out by
  the known segment lengths — no length table travels on the wire.
* **Deadlock-free flow control** — the requester only posts a request
  once the *predicted* reply bytes of everything in flight on that
  ring fit its capacity. A responder therefore never blocks on a full
  ring — which is also why a blocking request-pipe ``send`` cannot
  deadlock — so no producer/consumer wait cycle can form; excess
  requests simply wait, unposted, until :meth:`collect` drains earlier
  frames.
* **Local fast path** — a fetch addressed to a machine hosted by the
  requesting worker itself never becomes a message: ``collect`` serves
  it synchronously from the shared graph.
* **Adaptive sizing** — :class:`AdaptiveChunker` picks the per-request
  reply-byte budget from measured per-chunk wall-clock, growing it
  when rounds are IPC-dominated and shrinking it when rounds run long
  (better pipelining). Purely a transport concern: simulated
  accounting never sees it.

Liveness: no wait in this module is unbounded and none takes a lock.
The responder waits on its request pipes with a timeout and re-checks
the fleet stop flag; a requester that died — even inside a ``send`` —
is an EOF on its pipe and the reader is dropped. Ring reads and ring
writes run in short bounded waits that re-check the relevant peer's
death flag and the stop flag (plain bytes only the parent writes), and
a ``send`` to a dead server is a broken pipe — so a dead peer becomes
a structured :class:`~repro.errors.PeerDeadError` on the requester
side, and a silently dropped reply on the responder side, instead of a
deadlock (docs/execution.md, "Real-process failure semantics").
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.errors import PeerDeadError, TransportCorruptionError
from repro.exec.lane import die_mid_send
from repro.exec.messages import CoalescedFetchRequest, Segment
from repro.exec.ring import RingAborted, attach_ring
from repro.faults.durability import chaos_kill_threshold
from repro.graph.csr import attach_segment
from repro.graph.graph import Graph
from repro.obs.metrics import Histogram

#: how long one reply may take before the worker assumes the fleet is
#: wedged and aborts (generous: covers heavily loaded CI machines)
REPLY_TIMEOUT_SECONDS = 300.0
#: cap on any single bounded wait between liveness re-checks — the
#: worker-side detection bound for a dead peer or a fleet stop
LIVENESS_INTERVAL_SECONDS = 1.0
#: reply-frame header: int64 [magic, sequence, kind, payload elements].
#: The magic word and the per-pair monotone sequence let the requester
#: detect ring corruption (a torn/misaligned frame, a stale segment, a
#: desynced producer) *structurally* instead of misreading garbage as
#: edge lists — validation failures raise
#: :class:`~repro.errors.TransportCorruptionError`
FRAME_HEADER_BYTES = 32
#: first header word of every well-formed frame ("ringfrme" in ASCII)
FRAME_MAGIC = 0x72696E6766726D65
#: the one frame kind: edge lists inline in the ring
FRAME_DATA = 0


def ring_capacity(ring_bytes: int, graph: Graph) -> int:
    """Per-pair ring capacity: the requested ``ring_bytes``, raised to
    hold a frame with the graph's largest edge list — a single list is
    the one reply that cannot be split, so with this no reply can fail
    to fit its ring."""
    largest = graph.max_degree() * graph.indices.dtype.itemsize
    return max(ring_bytes, FRAME_HEADER_BYTES + largest)


def _summary(histogram: Histogram) -> tuple:
    """``(count, total, min, max)`` as ``Histogram.merge_summary`` takes
    it on the parent's side; all zero when nothing was observed."""
    if not histogram.count:
        return (0, 0.0, 0.0, 0.0)
    return (histogram.count, float(histogram.total),
            float(histogram.min), float(histogram.max))


def zero_requester_stats() -> dict:
    """Requester-side stats shape, all zero (lost/replayed workers)."""
    return {
        "wait_seconds": 0.0,
        "messages": 0,
        "bytes_received": 0,
        "liveness_timeouts": 0,
        "local_requests": 0,
        "local_bytes": 0,
        "coalesced_requests": 0,
        "coalesced_batch": (0, 0.0, 0.0, 0.0),
        "adaptive_chunk_bytes": 0,
    }


def zero_responder_stats() -> dict:
    """Responder-side stats shape, all zero (workers that died before
    reporting theirs — their wall-clock serve numbers died with them)."""
    return {
        "served_requests": 0,
        "served_bytes": 0,
        "queue_depth": (0, 0.0, 0.0, 0.0),
        "ring_occupancy": (0, 0.0, 0.0, 0.0),
        "ring_wait_seconds": 0.0,
    }


@dataclass
class Endpoints:
    """The fabric the parent builds and every worker shares.

    ``rings[(sw, rw)]`` is the :class:`~repro.exec.ring.RingHandle` of
    the shared-memory reply ring from server worker ``sw`` to requester
    worker ``rw``; ``requests[(rw, sw)]`` is the ``(reader, writer)``
    pair of the request pipe the other way. No self-pairs: same-worker
    fetches take the local fast path. Machine ``m`` is hosted by worker
    ``m % num_workers``.

    ``flags`` are the fleet's liveness flags, one byte each, written
    only by the parent with single stores and read with plain loads —
    reading one acquires nothing, so a worker killed mid-read leaves
    nothing held: ``flags[w]`` says worker ``w`` is dead,
    ``flags[num_workers]`` says the fleet is stopping. In a real fleet
    they are the shared segment ``flags_segment`` names (created, and
    unlinked, by the parent like the rings), which a worker maps in
    :meth:`claim`; a fabric built inside one process (unit tests)
    passes a plain array, or ``None`` for no liveness tracking, in
    which case waits still stay bounded by
    :data:`REPLY_TIMEOUT_SECONDS`.
    """

    num_workers: int
    #: (server worker, requester worker) -> RingHandle
    rings: dict = field(default_factory=dict)
    #: (requester worker, server worker) -> (reader, writer)
    requests: dict = field(default_factory=dict)
    flags: Optional[Sequence[int]] = None
    flags_segment: Optional[str] = None
    #: pid of the parent that built the fabric. Workers treat a changed
    #: ppid (the parent was SIGKILLed and init adopted them) as a stop
    #: signal, so orphans exit within a bounded wait instead of
    #: spinning forever on flags nobody will ever set
    parent_pid: Optional[int] = None
    #: this copy's mapping of ``flags_segment`` (set by :meth:`claim`)
    _segment: object = field(default=None, repr=False, compare=False)

    def worker_of(self, machine: int) -> int:
        return machine % self.num_workers

    def peer_dead(self, worker: int) -> bool:
        return self.flags is not None and bool(self.flags[worker])

    def stopping(self) -> bool:
        if self.flags is not None and self.flags[self.num_workers]:
            return True
        return (
            self.parent_pid is not None
            and os.getpid() != self.parent_pid
            and os.getppid() != self.parent_pid
        )

    def claim(self, worker_id: int) -> None:
        """Make this copy worker ``worker_id``'s: keep the request
        writers it owns and the readers addressed to it, close every
        other end (inherited through ``fork``, or duplicated into the
        spawn pickle), and map the fleet flags. A pipe end only its
        owner holds is what turns a death into an EOF — with a stray
        copy of a dead requester's writer open, its torn message would
        block a ``recv`` forever."""
        for (requester, server), (reader, writer) in self.requests.items():
            if server != worker_id:
                reader.close()
            if requester != worker_id:
                writer.close()
        if self.flags_segment is not None:
            self._segment = attach_segment(self.flags_segment)
            self.flags = self._segment.buf

    def close(self) -> None:
        """Close every request-pipe end this copy holds and unmap the
        flags (the parent, once the fleet is up; a worker on exit)."""
        for reader, writer in self.requests.values():
            reader.close()
            writer.close()
        if self._segment is not None:
            self.flags = None
            self._segment.close()
            self._segment = None


class AdaptiveChunker:
    """Transport-level reply-size budget, tuned by chunk wall-clock.

    ``target_bytes`` bounds the predicted reply payload of one
    coalesced request (one ring frame). Feedback loop, evaluated when
    each chunk's round of requests begins: if the previous round
    finished faster than :data:`LOW_SECONDS`, per-message overhead
    dominates — double the target (fewer, fatter frames); if it ran
    longer than :data:`HIGH_SECONDS`, halve it (finer frames pipeline
    the compute/communication overlap better). Clamped to
    ``[min_bytes, ring capacity - header]`` so an in-budget frame
    always fits its ring. Only IPC framing changes — the simulated
    accounting never sees this knob.
    """

    #: rounds faster than this are IPC-dominated: grow the budget
    LOW_SECONDS = 0.002
    #: rounds slower than this want finer pipelining: shrink it
    HIGH_SECONDS = 0.25

    def __init__(self, capacity: int, min_bytes: int = 4096):
        self.max_bytes = max(1, capacity - FRAME_HEADER_BYTES)
        self.min_bytes = min(min_bytes, self.max_bytes)
        self.target_bytes = max(self.min_bytes, self.max_bytes // 4)
        self.grows = 0
        self.shrinks = 0
        self._round_started: Optional[float] = None

    def begin_round(self) -> None:
        """Adapt from the previous round's wall-clock; start a new one."""
        now = perf_counter()
        if self._round_started is not None:
            elapsed = now - self._round_started
            if elapsed < self.LOW_SECONDS:
                grown = min(self.target_bytes * 2, self.max_bytes)
                self.grows += grown != self.target_bytes
                self.target_bytes = grown
            elif elapsed > self.HIGH_SECONDS:
                shrunk = max(self.target_bytes // 2, self.min_bytes)
                self.shrinks += shrunk != self.target_bytes
                self.target_bytes = shrunk
        self._round_started = now


@dataclass
class _FrameDesc:
    """What the requester expects from one posted request's reply."""

    #: (server machine, element count) per segment, in request order
    segments: list
    total_elems: int
    #: bytes of the reply frame, which the request occupies on the ring
    #: while in flight (flow control)
    ring_cost: int


class WorkerTransport:
    """One worker's view of the fetch fabric (requester + responder)."""

    def __init__(self, worker_id: int, endpoints: Endpoints, graph: Graph):
        self.worker_id = worker_id
        self.endpoints = endpoints
        self.graph = graph
        self._itemsize = graph.indices.dtype.itemsize
        self._dtype = graph.indices.dtype
        self._degrees = graph.degrees()
        capacity = (
            next(iter(endpoints.rings.values())).capacity
            if endpoints.rings else 1 << 20
        )
        self.ring_capacity = capacity
        self.chunker = AdaptiveChunker(capacity)
        # lazily attached rings: producer side keyed (me, rw),
        # consumer side keyed (sw, me); attach once, close on close()
        self._producer_rings: dict = {}
        self._consumer_rings: dict = {}
        self._rings_lock = threading.Lock()
        # requester-side flow control / reassembly (main thread only)
        self._pending: dict[int, deque] = {}
        self._inflight: dict[int, int] = {}
        self._descriptors: dict[int, deque] = {}
        self._buffers: dict[int, list] = {}
        self._buffered_elems: dict[int, int] = {}
        #: next frame sequence expected per server worker (main thread)
        self._frame_seq_in: dict[int, int] = {}
        #: next frame sequence to stamp per requester (responder thread)
        self._frame_seq_out: dict[int, int] = {}
        # requester-side accounting (main thread only)
        self.wait_seconds = 0.0
        self.requests_posted = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.local_requests = 0
        self.local_bytes = 0
        #: bounded reply waits that crossed a liveness re-check interval
        #: before the reply arrived (feeds net.peer_timeouts)
        self.liveness_timeouts = 0
        #: vertices per coalesced request (net.coalesced_batch_vertices)
        self._batch = Histogram()
        # responder-side accounting (responder thread only)
        self.served_requests = 0
        self.served_bytes = 0
        #: ``exec.queue_depth``: request pipes found ready at one
        #: responder wake-up (requests waiting, at most one per peer
        #: visible — a pipe has no ``qsize``)
        self._depth = Histogram()
        #: ``REPRO_CHAOS=worker-kill-midrequest:<wid>:<n>``: die inside
        #: the n-th request-pipe send
        self._tear_at = chaos_kill_threshold("worker-kill-midrequest",
                                             worker_id)
        self._thread: threading.Thread | None = None
        self._stop_requested = threading.Event()
        # in-process wake-up for the responder: closing the write end
        # readies the read end, so shutdown costs no poll interval
        self._wake_reader, self._wake_writer = multiprocessing.Pipe(
            duplex=False)

    # ------------------------------------------------------------------
    # ring plumbing (shared by both sides; attach-once under a lock)
    # ------------------------------------------------------------------
    def _ring(self, cache: dict, pair: tuple[int, int]):
        ring = cache.get(pair)
        if ring is None:
            with self._rings_lock:
                ring = cache.get(pair)
                if ring is None:
                    ring = attach_ring(self.endpoints.rings[pair])
                    cache[pair] = ring
        return ring

    def close(self) -> None:
        """Drop every ring mapping this transport attached. Only safe
        once the responder thread has exited (call after :meth:`join`);
        the parent remains the only side that unlinks."""
        with self._rings_lock:
            for ring in self._producer_rings.values():
                ring.close()
            for ring in self._consumer_rings.values():
                ring.close()
            self._producer_rings.clear()
            self._consumer_rings.clear()
        self._wake_reader.close()
        self._wake_writer.close()

    # ------------------------------------------------------------------
    # responder side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start serving this worker's request pipes on a daemon thread."""
        self._thread = threading.Thread(
            target=self._serve, name=f"exec-responder-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def _serve(self) -> None:
        wake = self._wake_reader
        readers = [
            reader
            for (_, server), (reader, _) in self.endpoints.requests.items()
            if server == self.worker_id
        ]
        while not self._stop_requested.is_set():
            # bounded: a parent that dies without stopping this worker
            # must not wedge the thread (and thereby join())
            ready = mp_connection.wait([wake, *readers],
                                       LIVENESS_INTERVAL_SECONDS)
            if not ready:
                if self.endpoints.stopping():
                    break
                continue
            if wake in ready:
                break
            self._depth.observe(len(ready))
            for reader in ready:
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    # the requester is gone — possibly mid-send, which
                    # ends its torn message here, not in a held lock
                    readers.remove(reader)
                    continue
                self._serve_one(message)

    def _serve_one(self, message: CoalescedFetchRequest) -> None:
        """Serve one coalesced request: a single bulk adjacency gather
        for every segment, answered as one ring frame."""
        vertices = np.concatenate(
            [seg.vertices for seg in message.segments]
        ) if len(message.segments) > 1 else message.segments[0].vertices
        payload, _ = self.graph.neighbors_batch(vertices)
        self.served_requests += 1
        self.served_bytes += payload.nbytes
        requester = message.requester_worker
        ring = self._ring(self._producer_rings, (self.worker_id, requester))

        def abort() -> bool:
            return (self._stop_requested.is_set()
                    or self.endpoints.stopping()
                    or self.endpoints.peer_dead(requester))

        sequence = self._frame_seq_out.get(requester, 0)
        header = np.array(
            [FRAME_MAGIC, sequence, FRAME_DATA, len(payload)],
            dtype=np.int64)
        try:
            ring.write([header, payload], abort)
            self._frame_seq_out[requester] = sequence + 1
        except RingAborted:
            # the requester died or the fleet is stopping: drop the
            # reply and keep serving whoever is still alive
            pass

    def stop(self) -> None:
        """Ask the responder to exit now (idempotent)."""
        self._stop_requested.set()
        self._wake_writer.close()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the responder to exit; ``True`` once it has.

        Without a ``timeout`` the wait is bounded by the fleet stop
        flag, re-checked every :data:`LIVENESS_INTERVAL_SECONDS`: a
        responder wedged where no flag reaches it (a ``recv`` on a torn
        request whose writer some process still holds open) cannot keep
        its worker from exiting."""
        thread = self._thread
        if thread is None:
            return True
        if timeout is not None:
            thread.join(timeout)
        while (timeout is None and thread.is_alive()
               and not self.endpoints.stopping()):
            thread.join(LIVENESS_INTERVAL_SECONDS)
        return not thread.is_alive()

    # ------------------------------------------------------------------
    # requester side (called by MachineScheduler)
    # ------------------------------------------------------------------
    def post_chunk(self, requester_machine: int,
                   batches: Sequence[tuple[int, Sequence[int]]]) -> None:
        """Fire one chunk's entire fetch demand, coalesced and split.

        ``batches`` is the chunk's circulant order: (server machine,
        vertices) pairs. Batches whose server machine is hosted *here*
        are skipped (``collect`` serves them synchronously); the rest
        are grouped per server worker, greedily packed into requests
        whose predicted reply payload fits the adaptive budget, and
        posted immediately — except where the ring's in-flight budget
        is exhausted, in which case the surplus requests wait unposted
        until :meth:`collect` drains earlier frames (the deadlock-free
        flow control described in the module docstring).
        """
        self.chunker.begin_round()
        target = self.chunker.target_bytes
        itemsize = self._itemsize
        degrees = self._degrees
        worker_of = self.endpoints.worker_of
        # per-server-worker open request being packed:
        # [segments, seg_elems, payload_bytes]
        builders: dict[int, list] = {}
        order: list[int] = []
        for server_machine, vertices in batches:
            server_worker = worker_of(server_machine)
            if server_worker == self.worker_id:
                continue  # local fast path: served at collect time
            if server_worker not in builders:
                builders[server_worker] = [[], [], 0]
                order.append(server_worker)
            builder = builders[server_worker]
            start = 0
            vertices = np.asarray(vertices, dtype=np.int64)
            elems = degrees[vertices]
            for index, count in enumerate(elems.tolist()):
                nbytes = count * itemsize
                if builder[2] and builder[2] + nbytes > target:
                    # budget reached: flush [start, index) and open a
                    # fresh request (a single vertex may exceed the
                    # budget on its own — it travels alone; rings are
                    # sized to hold the largest list)
                    if index > start:
                        self._push_segment(
                            builder, server_machine,
                            vertices[start:index],
                            int(elems[start:index].sum()),
                        )
                        start = index
                    self._flush(server_worker, builder)
                builder[2] += nbytes
            if len(vertices) > start:
                self._push_segment(
                    builder, server_machine, vertices[start:],
                    int(elems[start:].sum()),
                )
        for server_worker in order:
            builder = builders[server_worker]
            if builder[0]:
                self._flush(server_worker, builder)
            self._pump(server_worker)

    @staticmethod
    def _push_segment(builder, server_machine, vertices, elems) -> None:
        builder[0].append(Segment(server_machine, vertices))
        builder[1].append((server_machine, elems))

    def _flush(self, server_worker: int, builder) -> None:
        """Close the open request: queue it (message + expectation)."""
        segments, seg_elems, _ = builder
        total_elems = sum(elems for _, elems in seg_elems)
        payload_bytes = total_elems * self._itemsize
        ring_cost = FRAME_HEADER_BYTES + payload_bytes
        if ring_cost > self.ring_capacity:
            # only a single list can get here (the budget splits the
            # rest), and the backend sizes rings to the largest one
            raise ValueError(
                f"worker {self.worker_id}: a reply of {payload_bytes} "
                f"bytes from worker {server_worker} cannot fit its "
                f"{self.ring_capacity}-byte ring"
            )
        desc = _FrameDesc(seg_elems, total_elems, ring_cost)
        message = CoalescedFetchRequest(self.worker_id, tuple(segments))
        self._pending.setdefault(server_worker, deque()).append(
            (message, desc)
        )
        self._batch.observe(sum(len(seg.vertices) for seg in segments))
        builder[0] = []
        builder[1] = []
        builder[2] = 0

    def _pump(self, server_worker: int) -> None:
        """Post queued requests while their predicted reply frames fit
        the ring's remaining in-flight budget — the invariant that
        keeps responders from ever blocking on a full ring."""
        pending = self._pending.get(server_worker)
        if not pending:
            return
        inflight = self._inflight.setdefault(server_worker, 0)
        _, writer = self.endpoints.requests[(self.worker_id, server_worker)]
        descriptors = self._descriptors.setdefault(server_worker, deque())
        while pending and inflight + pending[0][1].ring_cost \
                <= self.ring_capacity:
            message, desc = pending.popleft()
            if self.requests_posted + 1 == self._tear_at:
                die_mid_send(writer, message)
            try:
                writer.send(message)
            except OSError:
                # nobody holds the read end any more: the server died
                raise PeerDeadError(
                    self.worker_id, server_worker,
                    message.segments[0].server_machine,
                ) from None
            descriptors.append(desc)
            inflight += desc.ring_cost
            self.requests_posted += 1
        self._inflight[server_worker] = inflight

    def collect(self, requester_machine: int, server_machine: int,
                vertices: Sequence[int]) -> np.ndarray:
        """Return one circulant batch's edge lists, concatenated.

        Machines hosted on this worker are served synchronously from
        the shared graph (no message ever existed). Remote machines
        drain reply frames — in posted order, which is collect order —
        off the server worker's ring until this machine's payload is
        fully buffered; every frame consumed frees in-flight budget
        and may post deferred requests. All waits are bounded and
        re-check the serving peer's death notice, so a dead peer
        surfaces as :class:`~repro.errors.PeerDeadError` within
        :data:`LIVENESS_INTERVAL_SECONDS` of the parent noticing it.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        expected = int(self._degrees[vertices].sum())
        server_worker = self.endpoints.worker_of(server_machine)
        if server_worker == self.worker_id:
            payload, _ = self.graph.neighbors_batch(vertices)
            self.local_requests += 1
            self.local_bytes += payload.nbytes
            return payload
        while self._buffered_elems.get(server_machine, 0) < expected:
            self._read_frame(server_worker, server_machine)
        got = self._buffered_elems.pop(server_machine, 0)
        parts = self._buffers.pop(server_machine, [])
        if got != expected:
            raise RuntimeError(
                f"fetch payload mismatch from machine {server_machine}: "
                f"expected {expected} vertices, got {got}"
            )
        payload = parts[0] if len(parts) == 1 else np.concatenate(
            parts
        ) if parts else np.empty(0, dtype=self._dtype)
        self.bytes_received += payload.nbytes
        return payload

    def _read_frame(self, server_worker: int, server_machine: int) -> None:
        """Consume the next expected frame from one ring; buffer its
        per-machine payload slices; release in-flight budget."""
        descriptors = self._descriptors.get(server_worker)
        if not descriptors:
            raise RuntimeError(
                f"fetch protocol violation: collect for machine "
                f"{server_machine} with no posted request on worker "
                f"{server_worker}"
            )
        desc = descriptors.popleft()
        ring = self._ring(self._consumer_rings,
                          (server_worker, self.worker_id))
        started = perf_counter()
        deadline = started + REPLY_TIMEOUT_SECONDS

        def abort() -> bool:
            return (self.endpoints.peer_dead(server_worker)
                    or self.endpoints.stopping()
                    or perf_counter() >= deadline)

        try:
            raw = ring.read_exact(desc.ring_cost, abort)
        except RingAborted:
            self._abort_wait(started, server_worker, server_machine)
        header = raw[:FRAME_HEADER_BYTES].view(np.int64)
        payload = raw[FRAME_HEADER_BYTES:].view(self._dtype)
        elapsed = perf_counter() - started
        self.wait_seconds += elapsed
        self.liveness_timeouts += int(elapsed // LIVENESS_INTERVAL_SECONDS)
        magic, sequence, kind, elems = (
            int(header[0]), int(header[1]), int(header[2]), int(header[3])
        )
        expected_seq = self._frame_seq_in.get(server_worker, 0)
        if magic != FRAME_MAGIC or sequence != expected_seq:
            # the frame boundary itself is untrustworthy: structural
            # ring corruption, not a mere protocol mismatch
            raise TransportCorruptionError(
                self.worker_id, server_worker,
                f"bad frame header: magic={magic:#018x} "
                f"(want {FRAME_MAGIC:#018x}), sequence={sequence} "
                f"(want {expected_seq})"
            )
        self._frame_seq_in[server_worker] = expected_seq + 1
        if kind != FRAME_DATA or elems != desc.total_elems:
            raise RuntimeError(
                f"fetch protocol violation: awaited frame "
                f"(kind={FRAME_DATA}, elems={desc.total_elems}) from "
                f"worker {server_worker}, got (kind={kind}, elems={elems})"
            )
        self.frames_received += 1
        inflight = self._inflight.get(server_worker, 0) - desc.ring_cost
        self._inflight[server_worker] = max(0, inflight)
        self._pump(server_worker)
        cursor = 0
        for machine, elems in desc.segments:
            part = payload[cursor:cursor + elems]
            cursor += elems
            self._buffers.setdefault(machine, []).append(part)
            self._buffered_elems[machine] = (
                self._buffered_elems.get(machine, 0) + elems
            )

    def _abort_wait(self, started: float, server_worker: int,
                    server_machine: int):
        """A bounded ring wait gave up: name the reason and raise."""
        elapsed = perf_counter() - started
        self.wait_seconds += elapsed
        if (self.endpoints.peer_dead(server_worker)
                or self.endpoints.stopping()):
            self.liveness_timeouts += max(
                1, int(elapsed // LIVENESS_INTERVAL_SECONDS)
            )
            raise PeerDeadError(
                self.worker_id, server_worker, server_machine
            ) from None
        raise RuntimeError(
            f"worker {self.worker_id}: no reply from machine "
            f"{server_machine} (worker {server_worker}) within "
            f"{REPLY_TIMEOUT_SECONDS:.0f}s"
        ) from None

    # ------------------------------------------------------------------
    # stats shipped to the parent (feed the exec.*/net.* metrics)
    # ------------------------------------------------------------------
    def requester_stats(self) -> dict:
        """Main-thread stats: complete once the compute loop returns."""
        return {
            "wait_seconds": self.wait_seconds,
            "messages": self.requests_posted + self.frames_received,
            "bytes_received": self.bytes_received,
            "liveness_timeouts": self.liveness_timeouts,
            "local_requests": self.local_requests,
            "local_bytes": self.local_bytes,
            "coalesced_requests": self.requests_posted,
            "coalesced_batch": _summary(self._batch),
            "adaptive_chunk_bytes": self.chunker.target_bytes,
        }

    def responder_stats(self) -> dict:
        """Responder stats: complete only after shutdown (the responder
        may serve other workers long after this worker's compute ends)."""
        occupancy = Histogram()
        ring_wait = 0.0
        for ring in list(self._producer_rings.values()):
            occupancy.merge_summary(*_summary(ring.occupancy))
            ring_wait += ring.wait_seconds
        return {
            "served_requests": self.served_requests,
            "served_bytes": self.served_bytes,
            "queue_depth": _summary(self._depth),
            "ring_occupancy": _summary(occupancy),
            "ring_wait_seconds": ring_wait,
        }
