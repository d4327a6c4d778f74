"""Shared-memory CSR export for multiprocess execution backends.

The ``process`` backend (``repro.exec``) runs one OS process per group
of simulated machines. All workers operate on the *same* input graph,
so instead of pickling the CSR arrays into every child (one copy per
worker), the parent exports them once into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and each worker maps the
segments read-only — edge lists are then shared zero-copy, exactly the
role the replicated/partitioned graph storage plays on a real Khuzdul
cluster node.

Layout: one shared-memory segment per CSR array (``indptr``,
``indices``, and the optional ``labels`` / ``edge_labels``), described
by a picklable :class:`SharedCsrHandle`. The arrays backing the
attached :class:`~repro.graph.graph.Graph` are views straight into the
mapped segments; nothing is copied on the worker side.

Lifecycle contract: the *parent* creates the segments and is the only
side that may :func:`unlink <SharedCsr.unlink>` them; workers attach
with :func:`attach_csr` and close their mapping when done. Attachment
opts out of :mod:`multiprocessing.resource_tracker` registration where
Python supports it (``track=False``, >= 3.13). On older Pythons the
attach-side registration is deliberately left alone: workers are
*children* of the creating process and share its resource tracker, so
their register is a set-level no-op — while an explicit unregister
would strip the parent's own registration and make the parent's later
``unlink()`` trip the tracker (the flip side of bpo-39959, which only
bites *unrelated* attaching processes).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph

#: bounded attempts at claiming a fresh segment name before giving up
_CREATE_ATTEMPTS = 8


@dataclass(frozen=True)
class _SegmentSpec:
    """One shared array: segment name plus enough to rebuild the view."""

    name: str
    dtype: str
    length: int


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one shared-memory segment (creator side owns the unlink).

    Names are explicit (``repro_<pid>_<nonce>``) so crash-leaked
    segments are attributable, and creation retries with jittered
    backoff on a name collision — concurrent runs (or a leak from a
    SIGKILLed one) must not abort a fresh run outright. Attempts are
    bounded; exhausting them raises a structured
    :class:`~repro.errors.ConfigurationError`.
    """
    size = max(1, nbytes)
    last_error: Optional[BaseException] = None
    for attempt in range(_CREATE_ATTEMPTS):
        name = f"repro_{os.getpid():x}_{os.urandom(4).hex()}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError as exc:
            last_error = exc
            time.sleep(random.uniform(0.5, 1.5) * 0.002 * (attempt + 1))
    raise ConfigurationError(
        f"could not allocate a shared-memory segment after "
        f"{_CREATE_ATTEMPTS} name collisions (stale segments from a "
        f"killed run? see docs/faults.md on checkpoint-directory "
        f"segment reaping): {last_error}"
    )


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a segment by name without resource-tracker registration
    (see the module docstring for why attachers must not register)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg; registration is
        # a no-op here because workers share the parent's tracker
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class SharedCsrHandle:
    """Picklable description of a graph exported with :func:`share_csr`."""

    indptr: _SegmentSpec
    indices: _SegmentSpec
    labels: Optional[_SegmentSpec]
    edge_labels: Optional[_SegmentSpec]
    directed: bool

    def segment_names(self) -> list[str]:
        return [
            spec.name
            for spec in (self.indptr, self.indices, self.labels,
                         self.edge_labels)
            if spec is not None
        ]


@dataclass(frozen=True)
class MmapCsrHandle:
    """Picklable description of an mmap-backed graph (docs/storage.md).

    The store file on shared disk plays the role shared memory plays
    for in-RAM graphs: workers re-open the mapping read-only by path
    instead of attaching segments, so there are no segments to create,
    track, or unlink — :meth:`segment_names` is empty and the
    durability manifest written for crash reaping stays valid (an
    empty segment list is a no-op for the reaper). The fingerprint
    (the store's header CRC) guards against the path being swapped
    for a different graph between export and attach.
    """

    path: str
    fingerprint: int
    directed: bool

    def segment_names(self) -> list[str]:
        return []


class SharedCsr:
    """An attached (or owned) set of shared CSR segments.

    Owns the ``SharedMemory`` objects so they can be closed (and, on
    the creating side, unlinked) deterministically; ``graph`` is a
    :class:`Graph` whose arrays are views into the segments.
    """

    def __init__(self, handle: SharedCsrHandle, graph: Graph,
                 segments: list[shared_memory.SharedMemory], owner: bool):
        self.handle = handle
        self.graph = graph
        self._segments = segments
        self._owner = owner
        self._closed = False

    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        # the Graph holds views into the buffers; drop them first so
        # closing the mmap cannot invalidate live exported arrays
        self.graph = None
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass

    def unlink(self) -> None:
        """Destroy the segments (creator side only; implies close)."""
        segments = list(self._segments)
        self.close()
        if not self._owner:
            return
        for segment in segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _export_array(array: np.ndarray, name_hint: str):
    """Copy one array into a fresh shared-memory segment."""
    array = np.ascontiguousarray(array)
    segment = create_segment(array.nbytes)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[:] = array
    spec = _SegmentSpec(segment.name, array.dtype.str, len(array))
    return spec, segment


def _view(spec: _SegmentSpec,
          segment: shared_memory.SharedMemory) -> np.ndarray:
    return np.ndarray((spec.length,), dtype=np.dtype(spec.dtype),
                      buffer=segment.buf)


def share_csr(graph: Graph) -> SharedCsr:
    """Export ``graph`` for worker processes; returns the owning handle.

    In-RAM graphs are copied into shared-memory segments and the
    returned :class:`SharedCsr` *owns* them: call
    :meth:`SharedCsr.unlink` when every worker is done. An mmap-backed
    graph (one carrying a ``store_path``) needs no export at all —
    the store file *is* the shared medium — so the handle is a
    path-only :class:`MmapCsrHandle`, there are no segments, and
    close/unlink are no-ops.
    """
    store_path = getattr(graph, "store_path", None)
    if store_path is not None:
        handle = MmapCsrHandle(
            str(store_path),
            int(getattr(graph, "fingerprint", 0)),
            graph.directed,
        )
        return SharedCsr(handle, graph, [], owner=False)
    segments: list[shared_memory.SharedMemory] = []
    try:
        indptr_spec, seg = _export_array(graph.indptr, "indptr")
        segments.append(seg)
        indices_spec, seg = _export_array(graph.indices, "indices")
        segments.append(seg)
        labels_spec = edge_labels_spec = None
        if graph.labels is not None:
            labels_spec, seg = _export_array(graph.labels, "labels")
            segments.append(seg)
        if graph.edge_labels is not None:
            edge_labels_spec, seg = _export_array(graph.edge_labels,
                                                  "edge_labels")
            segments.append(seg)
    except Exception:
        for segment in segments:
            segment.close()
            segment.unlink()
        raise
    handle = SharedCsrHandle(indptr_spec, indices_spec, labels_spec,
                             edge_labels_spec, graph.directed)
    shared = _rebuild(handle, segments, owner=True)
    return shared


def attach_csr(handle) -> SharedCsr:
    """Map a graph exported by :func:`share_csr` in another process.

    Dispatches on the handle: shared-memory handles attach their
    segments; :class:`MmapCsrHandle` re-opens the store file read-only
    (rejecting a swapped/stale store by fingerprint), so the worker
    path is identical either way — ``attach_csr(handle).graph``.
    """
    if isinstance(handle, MmapCsrHandle):
        from repro.graph.storage import open_store

        graph = open_store(handle.path)
        if handle.fingerprint and graph.fingerprint != handle.fingerprint:
            raise ConfigurationError(
                f"{handle.path}: store fingerprint changed between "
                f"export ({handle.fingerprint:#x}) and attach "
                f"({graph.fingerprint:#x}); the store was rebuilt or "
                f"replaced while workers were starting"
            )
        return SharedCsr(handle, graph, [], owner=False)
    segments: list[shared_memory.SharedMemory] = []
    try:
        specs = [handle.indptr, handle.indices]
        if handle.labels is not None:
            specs.append(handle.labels)
        if handle.edge_labels is not None:
            specs.append(handle.edge_labels)
        for spec in specs:
            segments.append(attach_segment(spec.name))
    except Exception:
        for segment in segments:
            segment.close()
        raise
    return _rebuild(handle, segments, owner=False)


def _rebuild(handle: SharedCsrHandle,
             segments: list[shared_memory.SharedMemory],
             owner: bool) -> SharedCsr:
    """Build the Graph-of-views over already-mapped segments."""
    cursor = iter(segments)
    indptr = _view(handle.indptr, next(cursor))
    indices = _view(handle.indices, next(cursor))
    labels = edge_labels = None
    if handle.labels is not None:
        labels = _view(handle.labels, next(cursor))
    if handle.edge_labels is not None:
        edge_labels = _view(handle.edge_labels, next(cursor))
    graph = Graph(indptr, indices, labels, handle.directed, edge_labels)
    return SharedCsr(handle, graph, segments, owner)
