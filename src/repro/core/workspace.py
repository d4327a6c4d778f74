"""The kernels' scratch memory: one grow-only workspace per engine run.

Khuzdul's chunks are fixed-size blocks whose memory is pre-allocated
and released as a whole (paper Sections 4.1-4.2); the simulated
:class:`~repro.core.chunk.Chunk` charges exactly that. The *real*
arrays behind a chunk pass — the prefix matrix, the set operations'
stage temporaries, a counting drain's per-row answers — are whole-chunk
sized and short-lived, and allocated fresh they make the heap grow and
shrink once per chunk: every one is new pages from the OS, and the
kernel's time follows the host's memory system instead of its CPU
(docs/performance.md, "The per-chunk constant"). A workspace keeps them:
named buffers that only grow, handed out as views and filled through
``out=``, so a warm run takes no page faults.

Ownership (docs/architecture.md): ``KhuzdulEngine.execute`` makes one
per run and hands it to every :class:`~repro.core.extend.ScheduleExtender`
it builds; nothing in it outlives the run, and nothing read from it is
valid after the next kernel call that takes the same name. A kernel
called without one (tests, the reference paths) gets a private one.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Named grow-only buffers; :meth:`take` returns a view of one."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """``size`` uninitialized elements of ``dtype``, the same memory
        every time ``name`` is taken (a name has one user at a time).
        ``np.empty``-backed: capacity nobody touched costs no memory."""
        key = (name, dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            # ahead of the demand: the next chunk is about as large
            buffer = self._buffers[key] = np.empty(size + (size >> 2), dtype)
        return buffer[:size]

    def matrix(self, name: str, rows: int, columns: int) -> np.ndarray:
        """A column-major ``(rows, columns)`` int64 view."""
        flat = self.take(name, rows * columns)
        return flat.reshape(columns, rows).T

    def words(self, name: str, rows: int, width: int) -> np.ndarray:
        """A row-major ``(rows, width)`` uint64 view: one packed set of
        ``width`` words per row (:meth:`Graph.hub_columns`)."""
        return self.take(name, rows * width, np.uint64).reshape(rows, width)
