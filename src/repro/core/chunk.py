"""Chunks: fixed-size columnar blocks of same-level extendable embeddings.

A chunk (paper Section 4.2) is the unit of the BFS-DFS hybrid: BFS
within a chunk provides concurrency for batched communication, DFS
between chunks bounds memory to one chunk per tree level. Chunk memory
is allocated and released as a whole, which is the fragmentation-free
allocation story of Section 4.1.

An extendable embedding (Section 3) is one *row* of a chunk, not an
object. Vertical data sharing (Section 5.1) is the layout itself: a
row stores only its new ``vertex`` and ``parent_idx``, the row of its
parent in the parent level's chunk, and reaches everything else — the
rest of its prefix, a reusable intermediate intersection — by
gathering up the chain of chunks. The edge-list *arrays* are CSR slices
of the shared graph (a simulated "fetch" moves accounting state, never
data), so a row records in ``source`` *where* its active edge list
came from rather than a copy of it.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

import numpy as np

from repro.cluster.machine import MachineState
from repro.core.workspace import Workspace

#: Bookkeeping bytes per embedding: new vertex id, parent index,
#: state/level fields (paper Section 5.1's hierarchical representation).
EMBEDDING_BASE_BYTES = 24


_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_SOURCES = np.empty(0, dtype=np.int8)


class EdgeListSource(IntEnum):
    """Where a row's active edge list came from (the ``source`` column)."""

    PENDING = 0  # active, not resolved yet
    NONE = 1  # the new vertex's list is not active
    LOCAL = 2  # resident in the machine's own partition
    REMOTE = 3  # fetched over the network (stored in the chunk)
    CACHE = 4  # hit in the static data cache
    SHARED = 5  # pointer into another chunk member (HDS hit)


class Chunk:
    """A bounded block of extendable embeddings at one tree level.

    With ``preallocate=True`` (what the scheduler uses for level chunks)
    the chunk reserves its whole fixed memory up front, exactly as
    Section 4.2 describes ("a fixed amount of memory is pre-allocated").
    That is what makes oversized chunks exhaust a machine's memory at
    chunk-creation time — the OOM of Figure 18. Contents that overflow
    the reservation (the last row, fetched edge lists larger than
    expected) are charged on top.

    Columns, all of one length: ``vertex``, ``parent_idx`` (``None`` on
    a root chunk), ``source`` (:class:`EdgeListSource` codes) and
    ``stored_bytes`` (what each row pins in the chunk). ``raw_values`` /
    ``raw_offsets`` are the stored intersections (vertical computation
    sharing) of the kernel batch that produced the rows, one segment
    per *parent* row — siblings share their parent's.
    """

    def __init__(
        self,
        level: int,
        capacity_bytes: int,
        machine: MachineState,
        parent: Optional["Chunk"] = None,
        preallocate: bool = False,
    ):
        self.level = level
        self.capacity_bytes = capacity_bytes
        self.machine = machine
        self.parent = parent
        # no rows until :meth:`fill` sets every column
        self.vertex = self.stored_bytes = _NO_ROWS
        self.parent_idx: Optional[np.ndarray] = None
        self.source = _NO_SOURCES
        self.raw_values: Optional[np.ndarray] = None
        self.raw_offsets: Optional[np.ndarray] = None
        self.used_bytes = 0
        self._reserved = capacity_bytes if preallocate else 0
        self._released = False
        if self._reserved:
            machine.allocate(self._reserved)

    def __len__(self) -> int:
        return len(self.vertex)

    @property
    def full(self) -> bool:
        """Whether the chunk's pre-allocated memory is exhausted."""
        return self.used_bytes >= self.capacity_bytes

    def fit(self, row_bytes: np.ndarray) -> int:
        """How many of the candidate rows — ``row_bytes[i]`` is what
        the ``i``-th would pin — go into this chunk: rows are taken
        while the chunk's memory is not exhausted, so the row that
        exhausts it still goes in."""
        used = np.cumsum(row_bytes)
        taken = int(np.searchsorted(used, self.capacity_bytes)) + 1
        return min(taken, len(row_bytes))

    @property
    def max_rows(self) -> int:
        """Most rows :meth:`fit` can ever take: bare embeddings."""
        return -(-self.capacity_bytes // EMBEDDING_BASE_BYTES)

    def fill(
        self,
        vertex: np.ndarray,
        parent_idx: Optional[np.ndarray],
        stored_bytes: np.ndarray,
        source: EdgeListSource,
    ) -> None:
        """Set every column in one go and charge the rows' bytes."""
        self.vertex = vertex
        self.parent_idx = parent_idx
        self.stored_bytes = stored_bytes
        self.source = np.full(len(vertex), source, dtype=np.int8)
        self.used_bytes = int(stored_bytes.sum())
        if self.used_bytes > self._reserved:
            self.machine.allocate(self.used_bytes - self._reserved)
            self._reserved = self.used_bytes

    def refund(self, rows: np.ndarray, amounts: np.ndarray) -> None:
        """Return reserved bytes of ``rows`` (their fetches were
        satisfied without storage: local pointer, HDS share, or cache
        residence) and shrink the reservation back toward capacity.
        ``rows`` indexes the columns: row numbers, or a slice with
        ``amounts`` zero where nothing returns."""
        self.stored_bytes[rows] -= amounts
        self.used_bytes -= int(amounts.sum())
        floor = max(self.capacity_bytes, self.used_bytes)
        if self._reserved > floor:
            self.machine.release(self._reserved - floor)
            self._reserved = floor

    def prefixes(self, workspace: Optional[Workspace] = None) -> np.ndarray:
        """``(rows, level + 1)`` data vertices in matching order,
        gathered through ``parent_idx`` up the chain of chunks.
        Column-major: the matrix is written here, and read by every
        kernel, one whole column (``prefixes[:, position]``) at a time;
        a row block ``prefixes[start:stop]`` is a view that keeps its
        columns contiguous, and the row-wise readers (a fancy-indexed
        subset of rows, ``.tolist()``) see no difference but the
        stride. The matrix and the gathers that fill it are views of
        ``workspace`` (valid until its next ``prefixes`` call)."""
        ws = workspace if workspace is not None else Workspace()
        n = len(self)
        out = ws.matrix("prefixes", n, self.level + 1)
        out[:, self.level] = self.vertex
        chunk = self
        rows = None  # this chunk's row -> row of ``chunk`` (None = same)
        while chunk.parent is not None:
            rows = chunk.parent_idx if rows is None else chunk.parent_idx.take(
                rows, mode="clip",
                out=ws.take(("prefixes.rows", chunk.level & 1), n),
            )
            chunk = chunk.parent
            out[:, chunk.level] = chunk.vertex.take(
                rows, mode="clip",
                out=ws.take("prefixes.column", n, chunk.vertex.dtype),
            )
        return out

    def intermediates(
        self, level: int
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The intersections stored at ancestor ``level`` (VCS).

        Returns ``(values, offsets, segments)``: row ``i`` reuses
        ``values[offsets[s]:offsets[s + 1]]`` with ``s = segments[i]``;
        ``None`` when nothing was stored there.
        """
        chunk = self
        rows = None
        while chunk.level > level:
            rows = (
                chunk.parent_idx if rows is None else chunk.parent_idx[rows]
            )
            chunk = chunk.parent
        if chunk.raw_offsets is None:
            return None
        segments = (
            chunk.parent_idx if rows is None else chunk.parent_idx[rows]
        )
        return chunk.raw_values, chunk.raw_offsets, segments

    def release(self) -> None:
        """Free the whole chunk at once (DFS backtrack, Section 4.2)."""
        if not self._released:
            self.machine.release(self._reserved)
            self._released = True
