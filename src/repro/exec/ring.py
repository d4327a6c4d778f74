"""Shared-memory SPSC reply rings for the process backend.

PR 3 moved the *graph* into shared memory but left fetch **replies** on
``multiprocessing`` queues: every reply was pickled in the server's
feeder thread, squeezed through a pipe, and unpickled by the requester
— per-message overhead that BENCH_PR5.json showed eating all of the
backend's parallelism. This module extends the ``graph/csr.py``
mechanism to the reply path: one fixed-capacity byte ring per ordered
worker pair, backed by a single ``multiprocessing.shared_memory``
segment, carrying raw numpy frames with no pickling and exactly one
copy in and one copy out.

Memory layout of a ring segment (``capacity`` data bytes)::

    offset 0    int64 head   — total bytes ever published (producer-owned)
    offset 64   int64 tail   — total bytes ever consumed (consumer-owned)
    offset 128  data[capacity]

``head`` and ``tail`` are monotonically increasing counters; the byte
at logical position ``p`` lives at ``data[p % capacity]``, so frames
wrap around the segment edge transparently. Head and tail sit on
separate cache lines, and each is written by exactly one side — the
producer publishes a frame by bumping ``head`` *after* the frame bytes
are fully copied in, the consumer frees space by bumping ``tail`` after
copying bytes out. Aligned 8-byte stores are atomic on every platform
CPython supports, so the pair needs no lock: this is the classic
single-producer/single-consumer ring, which the transport's topology
guarantees (one responder thread writes each ring, one scheduler main
thread reads it).

Capacity/backpressure rules:

* a write smaller than the free space copies in and publishes
  immediately;
* a write larger than the free space but not larger than the capacity
  **backpressures**: the producer waits in short bounded sleeps for the
  consumer to drain, re-checking the abort callback (fleet stop /
  requester death) at every expiry, so a dead consumer can never wedge
  a responder;
* a write larger than the capacity itself can never fit and is an
  error — the backend sizes every ring to hold its graph's largest
  edge list, so the transport never produces one.

Reads mirror writes: ``read_exact`` blocks in bounded waits until the
requested bytes are published, re-checking the same abort callback, so
a dead producer surfaces as an abort instead of a hang — the same
stop/death-notice discipline as every other transport wait
(docs/execution.md, "Real-process failure semantics").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.graph.csr import attach_segment, create_segment
from repro.obs.metrics import Histogram

#: bytes reserved for the head/tail counters ahead of the data region
_HEADER_BYTES = 128
#: first bounded sleep when a ring wait cannot progress; doubles up to
#: the liveness cap so a ready ring costs at most one tiny sleep
_INITIAL_WAIT_SECONDS = 0.00005
#: cap on any single ring-wait sleep between abort re-checks
_MAX_WAIT_SECONDS = 0.002
#: spins (pure re-reads, no sleep) before the first sleep — covers the
#: common case where the peer publishes within microseconds
_SPIN_ROUNDS = 100


@dataclass(frozen=True)
class RingHandle:
    """Picklable description of a ring created with :func:`create_ring`."""

    name: str
    capacity: int


class RingAborted(Exception):
    """A bounded ring wait was abandoned by its abort callback (fleet
    stop or peer death); the caller converts this into its own
    structured error (the transport raises ``PeerDeadError``)."""


class ReplyRing:
    """One attached (or owned) shared-memory SPSC byte ring.

    Exactly one process/thread may call the producer methods
    (:meth:`write`) and exactly one may call the consumer methods
    (:meth:`read_exact`, :meth:`readable`); the transport's pair
    topology enforces this.
    """

    def __init__(self, handle: RingHandle, segment, owner: bool):
        self.handle = handle
        self.capacity = handle.capacity
        self._segment = segment
        self._owner = owner
        self._closed = False
        buf = segment.buf
        self._head = np.ndarray((1,), dtype=np.int64, buffer=buf, offset=0)
        self._tail = np.ndarray((1,), dtype=np.int64, buffer=buf, offset=64)
        self._data = np.ndarray((handle.capacity,), dtype=np.uint8,
                                buffer=buf, offset=_HEADER_BYTES)
        # wall-clock accounting (read by the owning side's stats)
        self.wait_seconds = 0.0
        self.waits = 0
        #: ring occupancy in bytes sampled after each published frame
        #: — feeds exec.ring.occupancy_bytes
        self.occupancy = Histogram()

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _wait(self, ready: Callable[[], bool],
              abort: Optional[Callable[[], bool]]) -> None:
        """Spin briefly, then sleep in bounded steps until ``ready``.

        ``abort`` is re-checked at every expiry; returning ``True``
        raises :class:`RingAborted` — the ring-wait incarnation of the
        transport's death-notice re-check discipline.
        """
        for _ in range(_SPIN_ROUNDS):
            if ready():
                return
        started = time.perf_counter()
        self.waits += 1
        wait = _INITIAL_WAIT_SECONDS
        while True:
            if abort is not None and abort():
                self.wait_seconds += time.perf_counter() - started
                raise RingAborted()
            time.sleep(wait)
            if ready():
                self.wait_seconds += time.perf_counter() - started
                return
            wait = min(wait * 2.0, _MAX_WAIT_SECONDS)

    def _copy_in(self, position: int, chunk: np.ndarray) -> None:
        """Copy ``chunk`` (flat uint8) at logical ``position``, wrapping."""
        capacity = self.capacity
        offset = position % capacity
        first = min(len(chunk), capacity - offset)
        self._data[offset:offset + first] = chunk[:first]
        if first < len(chunk):
            self._data[: len(chunk) - first] = chunk[first:]

    def _copy_out(self, position: int, nbytes: int) -> np.ndarray:
        capacity = self.capacity
        offset = position % capacity
        out = np.empty(nbytes, dtype=np.uint8)
        first = min(nbytes, capacity - offset)
        out[:first] = self._data[offset:offset + first]
        if first < nbytes:
            out[first:] = self._data[: nbytes - first]
        return out

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        return self.capacity - int(self._head[0] - self._tail[0])

    def write(self, chunks: Sequence[np.ndarray],
              abort: Optional[Callable[[], bool]] = None) -> None:
        """Publish one frame (the concatenation of ``chunks``) atomically.

        Blocks with bounded, abort-aware waits while the ring lacks
        space (backpressure). The head pointer moves once, after every
        byte is in place, so the consumer never observes a partial
        frame — and an aborted write leaves the ring untouched.
        Raises ``ValueError`` if the frame exceeds the ring capacity.
        """
        flat = [np.ascontiguousarray(c).view(np.uint8).reshape(-1)
                for c in chunks]
        total = sum(len(c) for c in flat)
        if total > self.capacity:
            raise ValueError(
                f"frame of {total} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        self._wait(lambda: self.free_bytes() >= total, abort)
        position = int(self._head[0])
        for chunk in flat:
            self._copy_in(position, chunk)
            position += len(chunk)
        self._head[0] = position  # publish: single aligned store
        self.occupancy.observe(int(self._head[0] - self._tail[0]))

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def readable(self) -> int:
        return int(self._head[0] - self._tail[0])

    def read_exact(self, nbytes: int,
                   abort: Optional[Callable[[], bool]] = None) -> np.ndarray:
        """Block (bounded, abort-aware) for ``nbytes`` and consume them."""
        self._wait(lambda: self.readable() >= nbytes, abort)
        out = self._copy_out(int(self._tail[0]), nbytes)
        self._tail[0] = self._tail[0] + nbytes  # free: single store
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        # the views alias the mapped buffer; drop them before closing
        self._head = self._tail = self._data = None
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator side only; implies close)."""
        segment = self._segment
        self.close()
        if not self._owner:
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def create_ring(capacity: int) -> ReplyRing:
    """Create an owned ring with ``capacity`` data bytes (parent side)."""
    if capacity < 1024:
        raise ValueError("ring capacity must be at least 1KiB")
    segment = create_segment(_HEADER_BYTES + capacity)
    handle = RingHandle(segment.name, capacity)
    ring = ReplyRing(handle, segment, owner=True)
    ring._head[0] = 0
    ring._tail[0] = 0
    return ring


def attach_ring(handle: RingHandle) -> ReplyRing:
    """Attach a ring created elsewhere (worker side; never unlinks)."""
    return ReplyRing(handle, attach_segment(handle.name), owner=False)
