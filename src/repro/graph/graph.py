"""Immutable CSR graph with sorted adjacency lists.

The whole engine operates on this representation: ``indptr``/``indices``
arrays in the classic CSR layout, with each vertex's neighbor list sorted
ascending so that extensions can use merge intersections, exactly like the
adjacency format the paper's C++ engine uses.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import GraphFormatError

#: Bytes used to represent one vertex id on the wire and in memory.
VERTEX_ID_BYTES = 4


def edge_list_bytes_of(degree):
    """Wire size of an edge list of ``degree`` neighbors (a number or
    an array of them): an 8-byte header plus the vertex ids."""
    return 8 + VERTEX_ID_BYTES * degree


#: Neighbor-list entries one pass of the adjacency-row builder gathers:
#: its temporaries stay a few MB however large the graph (an mmap-backed
#: graph must never see an ``indices``-sized one).
_ROW_BUILD_ELEMENTS = 1 << 18


def gather_segments(
    values: np.ndarray, offsets: np.ndarray, segments
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened gather of CSR-style segments.

    Segment ``s`` is ``values[offsets[s]:offsets[s + 1]]``. Returns
    ``(gathered, new_offsets)`` with the segments named by ``segments``
    laid end to end, in that order — one vectorized gather instead of
    ``len(segments)`` slices.
    """
    segments = np.asarray(segments, dtype=np.int64)
    starts = offsets[segments]
    counts = offsets[segments + 1] - starts
    new_offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    counts.cumsum(out=new_offsets[1:])
    total = int(new_offsets[-1])
    if total == 0:
        return values[:0], new_offsets
    gather = (starts - new_offsets[:-1]).repeat(counts)
    gather += np.arange(total, dtype=np.int64)
    return values[gather], new_offsets


def block_bounds(weights: np.ndarray, block: int) -> list[int]:
    """Boundaries ``[0, ..., n]`` cutting ``n`` weighted items into runs
    of about ``block`` total weight; one item is never split."""
    ends = np.cumsum(weights)
    total = int(ends[-1]) if len(ends) else 0
    if total <= block:
        return [0, len(weights)]
    cuts = np.searchsorted(ends, np.arange(block, total, block)) + 1
    return sorted({0, *cuts.tolist(), len(weights)})


class HubColumns(NamedTuple):
    """Every vertex's neighbor list split at the hub vertices
    (:meth:`Graph.hub_columns`): a packed row over the hubs, a sorted
    list of the rest."""

    #: ``below[v]`` = hubs with an id under ``v`` (``|V| + 1`` entries):
    #: hub ``h``'s column, and — columns being in vertex order — the
    #: column an ordering bound ``v`` falls at
    below: np.ndarray
    #: ``(|V|, W)`` ``uint64``: bit ``c & 63`` of ``words[v, c >> 6]`` is
    #: ``has_edge(v, hub of column c)``
    words: np.ndarray
    #: CSR of each vertex's non-hub neighbors, ascending; ``None`` where
    #: every vertex is a hub (no tail)
    tail_indptr: Optional[np.ndarray]
    tail_indices: Optional[np.ndarray]


class Graph:
    """An undirected (or oriented) graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; neighbor list of
        vertex ``v`` is ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int32``/``int64`` array of neighbor ids, sorted ascending within
        each vertex's slice.
    labels:
        Optional per-vertex label array (``int``); ``None`` for unlabeled
        graphs.
    directed:
        ``True`` for oriented graphs produced by
        :func:`repro.graph.orientation.orient_by_degree`. Undirected
        graphs store each edge twice (both directions).
    """

    __slots__ = (
        "indptr",
        "indices",
        "labels",
        "directed",
        "edge_labels",
        "_degrees",
        "_edge_list_bytes",
        "_adjacency_keys",
        "_adjacency_matrix",
        "_hub_columns",
    )

    #: most bytes of bit-packed adjacency rows the kernels will
    #: materialize (:meth:`adjacency_matrix`); vertices beyond them
    #: are answered by composite-key probes. The same vertices are the
    #: hub columns (:meth:`hub_columns`), so it bounds those too: the
    #: rows' bytes, rounded up to whole words a vertex
    DENSE_ADJACENCY_BYTES = 64 << 20

    #: storage mode tag; :class:`repro.graph.storage.MmapGraph`
    #: overrides this with ``"mmap"``. The kernels never look at it —
    #: only byte-accounting layers (admission, ``storage.*`` metrics)
    #: do, so storage selection stays out of ``core/``.
    storage = "ram"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Optional[np.ndarray] = None,
        directed: bool = False,
        edge_labels: Optional[np.ndarray] = None,
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphFormatError("indptr does not cover indices")
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int32)
            if len(labels) != len(indptr) - 1:
                raise GraphFormatError("labels length must equal num_vertices")
        if edge_labels is not None:
            edge_labels = np.asarray(edge_labels, dtype=np.int32)
            if len(edge_labels) != len(indices):
                raise GraphFormatError(
                    "edge_labels length must equal the adjacency length"
                )
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self.directed = directed
        self.edge_labels = edge_labels
        #: lazy caches; the arrays above are immutable by contract
        self._degrees: Optional[np.ndarray] = None
        self._edge_list_bytes: Optional[np.ndarray] = None
        self._adjacency_keys: Optional[np.ndarray] = None
        self._adjacency_matrix: Optional[tuple] = None
        self._hub_columns: Optional[tuple] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of edges (undirected edges counted once)."""
        if self.directed:
            return len(self.indices)
        return len(self.indices) // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return len(self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of vertex ``v`` (a CSR slice, no copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbors_batch(
        self, vs, tail: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flattened gather of several neighbor lists.

        Returns ``(values, offsets)`` where vertex ``vs[i]``'s sorted
        neighbor list is ``values[offsets[i]:offsets[i + 1]]``. One
        vectorized gather instead of ``len(vs)`` per-vertex slices —
        the entry format of the batched EXTEND kernels
        (:mod:`repro.core.kernels`). With ``tail`` the lists are the
        non-hub neighbors only (:meth:`hub_columns`, which must have a
        tail).
        """
        if tail:
            columns = self._hub_columns
            return gather_segments(
                columns.tail_indices, columns.tail_indptr, vs)
        return gather_segments(self.indices, self.indptr, vs)

    def adjacency_keys(self) -> np.ndarray:
        """Globally sorted composite keys ``src * |V| + neighbor``.

        CSR entries are grouped by ascending source vertex and sorted
        within each group, so the composite key array is strictly
        increasing — one ``np.searchsorted`` against it answers
        membership/position queries for arbitrary ``(src, neighbor)``
        pairs in bulk. Built lazily (8 bytes per directed edge) for the
        batched EXTEND kernels; plain accessors never need it.
        """
        if self._adjacency_keys is None:
            num_vertices = np.int64(self.num_vertices)
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees()
            )
            keys = src * num_vertices + self.indices
            keys.setflags(write=False)
            self._adjacency_keys = keys
        return self._adjacency_keys

    @property
    def adjacency_row_bytes(self) -> int:
        """Stride of one bit-packed adjacency row: whole 8-byte words,
        so the rows can be read a word at a time (:meth:`hub_columns`)."""
        return 8 * ((self.num_vertices + 63) // 64)

    def adjacency_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Bit-packed adjacency rows of the top-degree vertices.

        Returns ``(rows, rank)``: ``rank[u]`` is vertex ``u``'s row
        (``int32``, -1 = no row) and ``rows[rank[u], v >> 3] >> (v & 7)
        & 1`` answers ``has_edge(u, v)`` with one load — random
        membership probes against it are several times cheaper than
        binary searches, which is what the batched EXTEND kernels buy
        with it. Rows are out-rows, so an oriented graph's answers stay
        directed. As many vertices get a row
        (:attr:`adjacency_row_bytes` each), in descending degree order,
        as fit in the bytes of the composite-key array the rows sit
        beside (:meth:`adjacency_keys`, 8 per directed entry), capped
        at :data:`DENSE_ADJACENCY_BYTES`: the structure never more than
        doubles what the kernels already keep resident, and on a skewed
        graph those few rows take nearly every probe
        (docs/performance.md). A graph whose vertices all fit is fully
        dense — its rows are in vertex order; the rest of a larger one
        keeps the ``adjacency_keys`` probe path. Either way the hubs are
        also packed *columns* of every vertex (:meth:`hub_columns`),
        set up here with the rows. Built lazily from the hub vertices'
        own lists, a bounded gather at a time.
        """
        if self._adjacency_matrix is None:
            n = self.num_vertices
            row_bytes = self.adjacency_row_bytes
            budget = min(8 * len(self.indices), self.DENSE_ADJACENCY_BYTES)
            k = min(n, budget // row_bytes) if n else 0
            degrees = self.degrees()
            hubs = (
                np.argsort(-degrees, kind="stable")[:k] if k < n
                else np.arange(n)
            )
            rank = np.full(n, -1, dtype=np.int32)
            rank[hubs] = np.arange(k, dtype=np.int32)
            rows = np.zeros((k, row_bytes), dtype=np.uint8)
            bounds = block_bounds(degrees[hubs], _ROW_BUILD_ELEMENTS)
            for start, stop in zip(bounds, bounds[1:]):
                values, offsets = self.neighbors_batch(hubs[start:stop])
                row_of = np.repeat(np.arange(start, stop), np.diff(offsets))
                np.bitwise_or.at(
                    rows, (row_of, values >> 3),
                    np.left_shift(1, values & 7).astype(np.uint8),
                )
            rows.setflags(write=False)
            rank.setflags(write=False)
            self._adjacency_matrix = (rows, rank)
            if k == n and n:
                # every vertex a hub: the rows are the columns
                below = np.arange(n + 1)
                below.setflags(write=False)
                self._hub_columns = HubColumns(
                    below, rows.view("<u8"), None, None)
            else:
                self._hub_columns = (
                    self._build_hub_columns(rank) if k else None)
        return self._adjacency_matrix

    def hub_columns(self) -> Optional[HubColumns]:
        """Every vertex's neighbor list split at the hub vertices, or
        ``None`` where no vertex has a row.

        The hubs are the vertices :meth:`adjacency_matrix` gives a row
        (so one byte budget sizes both, and :data:`DENSE_ADJACENCY_BYTES`
        caps each), taken as *columns*, in ascending vertex order:
        vertex ``v``'s row of the ``(|V|, W)`` little-endian ``uint64``
        matrix says which hubs it is adjacent to (out-neighbors on an
        oriented graph), a tail CSR lists its other neighbors. An
        intersection of the hub parts is an AND, a difference an
        AND-NOT, a cardinality a popcount (:mod:`repro.core.kernels`,
        docs/performance.md, "Packed sets"). On a skewed graph the few
        hubs are most entries' targets (``tri-2x``: 1 070 of 14 000
        vertices, 66 % of the entries). ``W = ⌈hubs / 64⌉``: the rows'
        bytes rounded up to a whole word a vertex, never more than a
        mean neighbor list's elements plus one. Where every vertex has
        a row, the rows *are* the columns: ``words`` is a view of them
        (no copy), ``below`` the identity and the tail ``None``.
        """
        self.adjacency_matrix()
        return self._hub_columns

    def _build_hub_columns(self, rank: np.ndarray) -> HubColumns:
        """:meth:`hub_columns` of the vertices ``rank`` gives a row, from
        the CSR in runs of consecutive sources — of a quarter of
        :data:`_ROW_BUILD_ELEMENTS` entries, a run's temporaries being
        several int64 an entry. A run's hub entries arrive sorted by
        (source, column), so each word is one OR over a run of them;
        what a vertex's words do not count of its degree is its tail."""
        n = self.num_vertices
        is_hub = rank >= 0
        below = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(is_hub, out=below[1:])
        width = (int(below[-1]) + 63) // 64
        words = np.zeros((n, width), dtype=np.uint64)
        flat = words.reshape(-1)
        tail_indptr = np.zeros(n + 1, dtype=np.int64)
        tails = []
        degrees = self.degrees()
        bounds = block_bounds(degrees, _ROW_BUILD_ELEMENTS >> 2)
        for start, stop in zip(bounds, bounds[1:]):
            values = self.indices[self.indptr[start]:self.indptr[stop]]
            hub = is_hub[values]
            word = np.repeat(
                np.arange(start * width, stop * width, width),
                degrees[start:stop],
            )[hub]
            column = below[values[hub]]
            word += column >> 6
            column &= 63
            bit = np.left_shift(1, column.view(np.uint64), dtype=np.uint64)
            first = np.ones(len(word), dtype=bool)
            np.not_equal(word[1:], word[:-1], out=first[1:])
            runs = first.nonzero()[0]
            if len(runs):
                flat[word[runs]] = np.bitwise_or.reduceat(bit, runs)
            tails.append(values[np.logical_not(hub, out=hub)])
            in_words = np.bitwise_count(words[start:stop])
            np.subtract(
                degrees[start:stop], in_words.sum(axis=1, dtype=np.int64),
                out=tail_indptr[start + 1:stop + 1],
            )
        np.cumsum(tail_indptr, out=tail_indptr)
        tail_indices = np.concatenate(tails)
        for array in (below, words, tail_indptr, tail_indices):
            array.setflags(write=False)
        return HubColumns(below, words, tail_indptr, tail_indices)

    def degree(self, v: int) -> int:
        """Degree (out-degree for oriented graphs) of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Array of all vertex degrees (memoized; returned read-only)."""
        if self._degrees is None:
            degrees = np.diff(self.indptr)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (binary search on ``N(u)``)."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < len(nbrs) and nbrs[pos] == v)

    def label(self, v: int) -> int:
        """Label of vertex ``v`` (0 for unlabeled graphs)."""
        if self.labels is None:
            return 0
        return int(self.labels[v])

    def edge_label(self, u: int, v: int) -> int:
        """Label of edge ``(u, v)`` (0 for edge-unlabeled graphs).

        Raises :class:`KeyError` if the edge does not exist.
        """
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        if pos >= len(nbrs) or nbrs[pos] != v:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        if self.edge_labels is None:
            return 0
        return int(self.edge_labels[self.indptr[u] + pos])

    def edge_label_slice(self, v: int) -> Optional[np.ndarray]:
        """Edge labels aligned with ``neighbors(v)`` (None if unlabeled)."""
        if self.edge_labels is None:
            return None
        return self.edge_labels[self.indptr[v] : self.indptr[v + 1]]

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges; undirected edges yielded once as ``u < v``."""
        for u in self.vertices():
            for v in self.neighbors(u):
                if self.directed or u < v:
                    yield (u, int(v))

    # ------------------------------------------------------------------
    # memory accounting (used by the simulated cluster)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Approximate in-memory size used for memory-capacity checks."""
        n = self.num_vertices
        size = 8 * (n + 1) + VERTEX_ID_BYTES * len(self.indices)
        if self.labels is not None:
            size += 4 * n
        if self.edge_labels is not None:
            size += 4 * len(self.indices)
        return size

    def derived_bytes(self) -> int:
        """Bytes of what the kernels have built beside the CSR so far:
        the composite keys (:meth:`adjacency_keys`), the hub rows and
        their rank table (:meth:`adjacency_matrix`), the hub columns and
        tail lists (:meth:`hub_columns`). Resident in every process that
        runs kernels, whatever the storage (docs/storage.md). An array
        that is a view of another (a dense graph's columns are its rows)
        is counted once."""
        built = [self._adjacency_keys]
        built += self._adjacency_matrix or ()
        built += self._hub_columns or ()
        built = [array for array in built if array is not None]
        return sum(
            array.nbytes for array in built
            if not any(array.base is other for other in built)
        )

    def edge_list_bytes(self, v: int) -> int:
        """Wire size of ``N(v)`` (:func:`edge_list_bytes_of` its degree)."""
        return edge_list_bytes_of(self.degree(v))

    def edge_list_bytes_all(self) -> np.ndarray:
        """Per-vertex :meth:`edge_list_bytes` as one array (memoized;
        returned read-only).

        The scheduler charges edge-list bytes once per created child and
        once per resolved fetch — a method call plus two ``indptr``
        loads each time adds up on million-child chunks, so the hot
        loops index this instead.
        """
        if self._edge_list_bytes is None:
            sizes = edge_list_bytes_of(self.degrees())
            sizes.setflags(write=False)
            self._edge_list_bytes = sizes
        return self._edge_list_bytes

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def with_labels(self, labels: Sequence[int]) -> "Graph":
        """Return a copy of this graph with per-vertex ``labels`` attached."""
        return Graph(self.indptr, self.indices,
                     np.asarray(labels, dtype=np.int32), self.directed,
                     self.edge_labels)

    def subgraph_degrees_percentile(self, q: float) -> float:
        """Degree at percentile ``q`` (skew diagnostics for generators)."""
        return float(np.percentile(self.degrees(), q))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"Graph({kind}, |V|={self.num_vertices}, |E|={self.num_edges}, "
            f"max_deg={self.max_degree()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        def _same(a, b):
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(a, b)

        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and _same(self.labels, other.labels)
            and _same(self.edge_labels, other.edge_labels)
        )

    def __hash__(self) -> int:  # Graphs are mutable-free; hash by identity
        return id(self)
