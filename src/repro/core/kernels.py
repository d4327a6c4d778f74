"""Sorted-set kernels for the EXTEND hot path, one chunk at a time.

The scheduler groups same-level extendable embeddings into chunks
(paper Section 4) precisely to create batch concurrency. Walking a
chunk one embedding at a time through
:func:`repro.core.extend.compute_candidates` pays full interpreter
overhead per embedding plus ``np.intersect1d`` calls that re-sort
already-sorted CSR slices. GPU GPM engines (G2Miner, DuMato) get their
throughput from batched pattern-aware set intersections over sorted
adjacency lists, and the same transformation applies to numpy — fuse a
whole chunk's extensions into a handful of array passes.

Three layers:

- :func:`intersect_sorted` / :func:`setdiff_sorted` — pairwise kernels
  over sorted unique arrays built on ``np.searchsorted`` merge probes.
  No internal re-sort: where ``np.intersect1d`` concatenates and sorts
  (ignoring that its inputs already are sorted), these probe the
  smaller array into the larger one.
- :func:`adjacency_member` / :func:`adjacency_position` — bulk
  membership/position probes of ``(source, candidate)`` pairs.
  Membership reads the bit-packed adjacency rows the graph keeps for
  its top-degree vertices (:meth:`Graph.adjacency_matrix`); the pairs
  no row covers, and every position probe, go against the graph's
  globally sorted composite-key view (:meth:`Graph.adjacency_keys`),
  which is how one ``searchsorted`` call answers per-embedding
  intersections whose windows all differ.
- :func:`extend_chunk` — the fused entry point: one schedule step
  across an entire chunk of embeddings in vectorized passes (shared
  connected-position gathers, batched distinct-vertex / ordering /
  label filters) over cache-sized row blocks. A counting drain is a
  kernel of its own (docs/performance.md): per-row cardinalities, no
  filtered list, straight off the CSR when the step reads one list.

Contract: for every embedding the results — candidate values,
``merge_elements``, ``scanned`` — are element-for-element identical to
the row-by-row reference
:func:`~repro.core.extend.compute_candidates`
(``tests/test_kernels.py`` pins the equivalence), so the integer
tallies the scheduler prices are the ones the reference would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph.graph import Graph, block_bounds, gather_segments
from repro.patterns.schedule import CountingPlan, ExtensionStep

__all__ = [
    "ChunkExtendResult",
    "ChunkIepResult",
    "adjacency_member",
    "adjacency_position",
    "extend_chunk",
    "iep_chunk",
    "intersect_sorted",
    "setdiff_sorted",
]


# ---------------------------------------------------------------------
# pairwise kernels
# ---------------------------------------------------------------------
def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique 1-D arrays.

    Equivalent to ``np.intersect1d(a, b, assume_unique=True)`` but
    honors the sortedness for real: the smaller array is binary-probed
    into the larger one (``O(min log max)``), no concatenate-and-sort.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) > len(b):
        a, b = b, a
    if not len(a) or not len(b):
        return a[:0]
    pos = np.searchsorted(b, a)
    # pos == len(b) means a-value > b[-1]; clamping to the last slot is
    # safe because that value cannot equal b[-1] either (side='left')
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] == a]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted unique ``a`` not present in sorted unique ``b``.

    Equivalent to ``np.setdiff1d(a, b, assume_unique=True)`` without
    the internal hash/sort machinery — one binary probe of ``a`` into
    ``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not len(a) or not len(b):
        return a
    pos = np.searchsorted(b, a)
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] != a]


# ---------------------------------------------------------------------
# bulk adjacency probes
# ---------------------------------------------------------------------
def adjacency_position(
    graph: Graph, sources: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """CSR entry positions of ``(sources[i], candidates[i])`` pairs.

    Callers must guarantee every pair is an edge (candidates produced
    by intersecting ``N(source)`` satisfy this); the returned indices
    address ``graph.indices`` / ``graph.edge_labels`` directly.
    """
    keys = sources.astype(np.int64) * np.int64(graph.num_vertices)
    keys += candidates
    return np.searchsorted(graph.adjacency_keys(), keys)


def adjacency_member(
    graph: Graph, sources: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Boolean mask: is ``candidates[i]`` a neighbor of ``sources[i]``?

    Input-aware, as the GPU engines' set operations are: pairs whose
    source is a hub answer with one load from its bit-packed adjacency
    row (:meth:`Graph.adjacency_matrix` — on a small graph every vertex
    has one), and only the remainder pays a global binary search
    against the composite-key adjacency view — the batched analogue of
    probing each candidate into its own CSR slice, without
    per-embedding windowing.
    """
    rows, rank = graph.adjacency_matrix()
    row = rank[sources]
    if len(rows):
        # a rowless source reads some other row here; overwritten below
        entry = row * np.int64(rows.shape[1])
        entry += candidates >> 3
        member = rows.reshape(-1)[entry]
        member >>= candidates.astype(np.uint8) & 7
        member &= 1
        member = member.view(np.bool_)
    else:
        member = np.zeros(len(candidates), dtype=bool)
    if len(rows) < len(rank) and graph.num_directed_edges:
        tail = np.flatnonzero(row < 0)
        adj_keys = graph.adjacency_keys()
        keys = sources[tail].astype(np.int64)
        keys *= graph.num_vertices
        keys += candidates[tail]
        pos = np.searchsorted(adj_keys, keys)
        np.minimum(pos, len(adj_keys) - 1, out=pos)
        member[tail] = adj_keys[pos] == keys
    return member


# ---------------------------------------------------------------------
# the fused chunk kernel
# ---------------------------------------------------------------------
#: Gathered candidates one kernel pass works on. A chunk's flattened
#: candidate arrays run to tens of MB; allocated whole, every temporary
#: is fresh pages from the OS (page faults, then memory bandwidth), and
#: the kernel's time follows the host's memory system rather than its
#: CPU. Row blocks of this many elements keep every temporary in cache
#: and in the allocator's reused arenas (docs/performance.md).
BLOCK_ELEMENTS = 1 << 16


@dataclass
class ChunkExtendResult:
    """Vectorized extension of one chunk: per-embedding slices + counts.

    ``values[offsets[i]:offsets[i + 1]]`` are embedding ``i``'s
    filtered candidates; ``merge_elements`` / ``scanned`` / ``counts``
    are the per-embedding accounting quantities, exactly equal to what
    the row-by-row reference produces. ``rows[j]`` is the embedding
    ``values[j]`` extends — the child's ``parent_idx`` column. A
    counted result (:func:`_count_window`, :func:`_count_rows`) has no
    lists (``values is None``); only the integer arrays are valid.
    ``raw_values``/``raw_offsets`` hold the unfiltered intersections
    when the step stores an intermediate for vertical computation
    sharing.
    """

    counts: np.ndarray  # (n,) candidates surviving all filters
    merge_elements: np.ndarray  # (n,) elements streamed through set ops
    scanned: np.ndarray  # (n,) candidates scanned by the filters
    values: Optional[np.ndarray] = None  # flattened filtered candidates
    offsets: Optional[np.ndarray] = None  # (n + 1,)
    rows: Optional[np.ndarray] = None  # (len(values),) embedding of each
    raw_values: Optional[np.ndarray] = None  # flattened stored intersections
    raw_offsets: Optional[np.ndarray] = None
    probe_elements: int = 0  # elements pushed through membership probes

    def __len__(self) -> int:
        return len(self.counts)

    def candidates_for(self, i: int) -> np.ndarray:
        """Embedding ``i``'s filtered candidate array (a flat-view slice)."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def raw_for(self, i: int) -> Optional[np.ndarray]:
        """Embedding ``i``'s stored raw intersection (VCS), or None."""
        if self.raw_values is None:
            return None
        return self.raw_values[self.raw_offsets[i] : self.raw_offsets[i + 1]]


def _offsets_from_counts(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _compress(
    values: np.ndarray,
    emb_of: np.ndarray,
    mask: np.ndarray,
    num_embeddings: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply a keep-mask to a flattened batch; returns the new layout."""
    kept_emb = emb_of[mask]
    counts = np.bincount(kept_emb, minlength=num_embeddings).astype(np.int64)
    return values[mask], _offsets_from_counts(counts), counts, kept_emb


def extend_chunk(
    graph: Graph,
    step: ExtensionStep,
    prefixes: np.ndarray,
    intermediates: Optional[
        tuple[np.ndarray, np.ndarray, np.ndarray]
    ] = None,
    vcs: bool = True,
    count_only: bool = False,
) -> ChunkExtendResult:
    """Run one schedule step across a whole chunk of embeddings.

    Parameters
    ----------
    graph:
        The input graph (sorted/unique CSR neighbor lists).
    step:
        The schedule step placing position ``step.level``.
    prefixes:
        ``(n, step.level)`` int array; row ``i`` holds embedding
        ``i``'s data vertices at matching-order positions
        ``0..level-1``.
    intermediates:
        The stored raw intersections for ``step.reuse_level`` (vertical
        computation sharing) as ``(values, offsets, segments)``: row
        ``i`` reuses ``values[offsets[s]:offsets[s + 1]]`` with
        ``s = segments[i]`` (:meth:`repro.core.chunk.Chunk.intermediates`).
        ``None`` recomputes from the edge lists.
    vcs:
        Whether vertical computation sharing is enabled.
    count_only:
        Nobody reads the candidates (a counting UDF's final level): a
        label-free step answers with per-embedding cardinalities and
        builds no filtered list; a labeled one lists, ``counts`` and all.

    The chunk is worked through in row blocks of about
    :data:`BLOCK_ELEMENTS` gathered candidates (:func:`_row_blocks`);
    the result is the blocks' results laid end to end.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a 2-D (embeddings, level) array")
    if not (vcs and step.reuse_level is not None):
        intermediates = None
    counting = count_only and step.label is None and step.edge_labels is None
    if intermediates is not None:
        stored, stored_offsets, segments = intermediates
        segments = np.asarray(segments, dtype=np.int64)
        volume = stored_offsets[segments + 1] - stored_offsets[segments]
        connected = step.extra_connected
    elif counting and len(step.connected) == 1 and not step.disconnected:
        return _count_window(graph, step, prefixes)
    else:
        # Intersection is symmetric: gather whichever of the first two
        # connected columns has the smaller total neighbor volume and
        # probe it against the other's adjacency. On skewed graphs with
        # ordering restrictions the asymmetry is enormous (wdc
        # triangles: 13x), and the per-embedding accounting is
        # direction-independent — the first stage's merge term is
        # deg(base) + deg(other) either way. Decided once for the whole
        # chunk, so ``probe_elements`` does not depend on the blocking.
        degs = graph.degrees()
        connected = step.connected
        volume = degs[prefixes[:, connected[0]]]
        if len(connected) > 1:
            other = degs[prefixes[:, connected[1]]]
            if int(other.sum()) < int(volume.sum()):
                connected = (connected[1], connected[0]) + connected[2:]
                volume = other
    bounds = _row_blocks(volume)
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        block = prefixes[start:stop]
        batch = _set_operations(
            graph, block, connected, step.disconnected,
            None if intermediates is None
            else (stored, stored_offsets, segments[start:stop]),
        )
        parts.append(
            _count_rows(step, block, batch) if counting
            else _extend_rows(graph, step, block, batch)
        )
    batch = parts[0] if len(parts) == 1 else _join(parts, bounds)
    if counting:
        # the correction reads a row's prefix and count, not its list:
        # once per chunk, on the rows that count anything — only they can
        # hold one, and under an ordering restriction most count nothing
        live = np.flatnonzero(batch.counts)
        rows = prefixes[live]
        batch.counts[live] -= _inside(
            graph, rows, step.connected, step.disconnected, _window(step, rows)
        )
    return batch


def _row_blocks(volume: np.ndarray) -> list[int]:
    """Row boundaries ``[0, ..., n]`` that cut a chunk into runs of
    about :data:`BLOCK_ELEMENTS` gathered candidates (``volume[i]`` is
    what row ``i`` gathers; a row counts for at least one element, and
    one row is never split)."""
    return block_bounds(volume + 1, BLOCK_ELEMENTS)


def _join(
    parts: list[ChunkExtendResult], bounds: list[int]
) -> ChunkExtendResult:
    """Row blocks' results laid end to end."""
    counts = np.concatenate([part.counts for part in parts])
    merge_elements = np.concatenate([part.merge_elements for part in parts])
    scanned = np.concatenate([part.scanned for part in parts])
    probe_elements = sum(part.probe_elements for part in parts)
    if parts[0].values is None:
        return ChunkExtendResult(
            counts, merge_elements, scanned, probe_elements=probe_elements
        )
    raw_values = raw_offsets = None
    if parts[0].raw_offsets is not None:
        raw_values = np.concatenate([part.raw_values for part in parts])
        raw_offsets = _offsets_from_counts(
            np.concatenate([np.diff(part.raw_offsets) for part in parts])
        )
    return ChunkExtendResult(
        counts, merge_elements, scanned,
        np.concatenate([part.values for part in parts]),
        _offsets_from_counts(counts),
        np.concatenate(
            [part.rows + start for part, start in zip(parts, bounds)]
        ),
        raw_values, raw_offsets, probe_elements,
    )


def _set_operations(
    graph: Graph,
    prefixes: np.ndarray,
    connected: tuple[int, ...],
    disconnected: tuple[int, ...] = (),
    intermediates: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> ChunkExtendResult:
    """One row block's set operations, as an unfiltered listing: the
    stored intersections ``intermediates`` (or, without any, column
    ``connected[0]``'s neighbor lists) intersected with the other
    ``connected`` columns' lists, then differenced with ``disconnected``'s."""
    n = prefixes.shape[0]
    degrees = graph.degrees()
    merge_elements = np.zeros(n, dtype=np.int64)
    probe_elements = 0
    if intermediates is not None:
        values, offsets = gather_segments(*intermediates)
    else:
        values, offsets = graph.neighbors_batch(prefixes[:, connected[0]])
        connected = connected[1:]
    counts = np.diff(offsets)
    emb_of = np.repeat(np.arange(n, dtype=np.int64), counts)

    # connected positions: batched intersections via membership probes
    for position in connected:
        sources = prefixes[:, position]
        merge_elements += counts + degrees[sources]
        probe_elements += len(values)
        member = adjacency_member(graph, np.repeat(sources, counts), values)
        values, offsets, counts, emb_of = _compress(values, emb_of, member, n)

    # the pre-filter intersection is what VCS descendants reuse; every
    # later stage builds fresh arrays, never mutates these
    scanned, raw_values, raw_offsets = counts.copy(), values, offsets

    # disconnected positions (induced mode): batched set differences
    for position in disconnected:
        sources = prefixes[:, position]
        merge_elements += counts + degrees[sources]
        probe_elements += len(values)
        member = adjacency_member(graph, np.repeat(sources, counts), values)
        values, offsets, counts, emb_of = _compress(values, emb_of, ~member, n)
    return ChunkExtendResult(
        counts, merge_elements, scanned,
        values, offsets, emb_of, raw_values, raw_offsets, probe_elements,
    )


def _window(
    step: ExtensionStep, prefixes: np.ndarray
) -> list[tuple[np.ufunc, np.ndarray]]:
    """The step's ordering restrictions as ``(compare, bound)`` pairs: a
    candidate ``c`` of row ``i`` passes ``compare(c, bound[i])``."""
    return [
        (compare, fold(prefixes[:, list(columns)], axis=1))
        for compare, columns, fold in (
            (np.greater, step.larger_than, np.max),
            (np.less, step.smaller_than, np.min),
        ) if columns
    ]


def _extend_rows(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray,
    batch: ChunkExtendResult,
) -> ChunkExtendResult:
    """One row block of :func:`extend_chunk`, listed: ``batch``, its
    set operations' result, through the step's filters."""
    values, emb_of = batch.values, batch.rows
    # post-set-op filters, fused into one keep-mask over the batch
    mask = np.ones(len(values), dtype=bool)
    for compare, bound in _window(step, prefixes):
        mask &= compare(values, bound[emb_of])
    for column in range(prefixes.shape[1]):
        # distinct-vertex constraint as a small-tuple comparison loop:
        # pattern sizes are tiny, so a few != passes beat any hash path
        mask &= values != prefixes[emb_of, column]
    if step.label is not None and graph.labels is not None:
        mask &= graph.labels[values] == step.label
    if step.edge_labels is not None:
        if graph.edge_labels is None:
            if any(required != 0 for required in step.edge_labels):
                mask[:] = False
        else:
            for position, required in zip(step.connected, step.edge_labels):
                sources = prefixes[emb_of, position]
                entry = adjacency_position(graph, sources, values)
                mask &= graph.edge_labels[entry] == required

    batch.values, batch.offsets, batch.counts, batch.rows = _compress(
        values, emb_of, mask, len(prefixes)
    )
    if not step.store_intermediate:
        batch.raw_values = batch.raw_offsets = None
    return batch


def _inside(
    graph: Graph,
    prefixes: np.ndarray,
    connected: tuple[int, ...],
    disconnected: tuple[int, ...] = (),
    window: Sequence[tuple[np.ufunc, np.ndarray]] = (),
    adjacent: Optional[dict[tuple[int, int], np.ndarray]] = None,
) -> np.ndarray:
    """The distinct-vertex correction of a cardinality: how many of each
    row's own prefix vertices lie in the counted set (adjacent to every
    ``connected`` column's vertex, to no ``disconnected`` one's, within
    ``window``), where a listing drops them. Every column is probed, a
    source's own too: a self-loop puts a vertex in its own list.
    ``adjacent`` memoizes ``(source column, column)`` membership."""
    adjacent = {} if adjacent is None else adjacent
    hit = np.ones(prefixes.shape, dtype=bool, order="F")
    for compare, bound in window:
        hit &= compare(prefixes, bound[:, None])
    # a column nowhere within the window (a bound's own) needs no probe
    for column in np.flatnonzero(hit.any(axis=0)).tolist():
        for source in connected + disconnected:
            if (source, column) not in adjacent:
                adjacent[source, column] = adjacency_member(
                    graph, prefixes[:, source], prefixes[:, column]
                )
            member = adjacent[source, column]
            hit[:, column] &= member if source in connected else ~member
    return hit.sum(axis=1)


def _count_window(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray
) -> ChunkExtendResult:
    """Counting body of a step that reads one neighbor list: a row's
    candidates are the run of ``N(v)`` inside its ordering window, two
    CSR positions — the list's ends, each moved by one binary search of
    the row's bound in the composite keys. O(rows): no gather, no set
    operation (no merge elements, no probes); ``scanned`` = the degree."""
    source = prefixes[:, step.connected[0]]
    lo, hi = graph.indptr[source], graph.indptr[source + 1]
    scanned = hi - lo
    window = _window(step, prefixes)
    base = source * np.int64(graph.num_vertices)
    for compare, bound in window:
        if compare is np.greater:
            lo = np.searchsorted(graph.adjacency_keys(), base + bound, "right")
        else:
            hi = np.searchsorted(graph.adjacency_keys(), base + bound, "left")
    counts = np.maximum(hi - lo, 0)
    counts -= _inside(graph, prefixes, step.connected, window=window)
    return ChunkExtendResult(counts, np.zeros_like(counts), scanned)


def _count_rows(
    step: ExtensionStep, prefixes: np.ndarray, batch: ChunkExtendResult
) -> ChunkExtendResult:
    """One row block of :func:`extend_chunk`, counted: one
    ordering-window pass over ``batch``, its set operations' result (the
    cost model prices those); the chunk's counts are corrected together."""
    counts, window = batch.counts, _window(step, prefixes)
    if window:
        mask = np.ones(len(batch.values), dtype=bool)
        for compare, bound in window:
            mask &= compare(batch.values, bound[batch.rows])
        counts = np.bincount(batch.rows[mask], minlength=len(prefixes))
    return ChunkExtendResult(
        counts, batch.merge_elements, batch.scanned,
        probe_elements=batch.probe_elements,
    )


# ---------------------------------------------------------------------
# the inclusion-exclusion terminal kernel (docs/performance.md)
# ---------------------------------------------------------------------
@dataclass
class ChunkIepResult:
    """Per-embedding IEP evaluation of one chunk of complete prefixes.

    ``counts`` are the ordered distinct suffix tuples per prefix
    embedding (plan numerators — the caller divides the global sum by
    ``plan.divisor``); ``merge_elements``/``scanned`` are the simulated
    accounting quantities, element-identical to the scalar reference
    :func:`~repro.core.extend.iep_count`.
    """

    counts: np.ndarray  # (n,) int64 suffix tuples (numerator units)
    merge_elements: np.ndarray  # (n,) elements streamed through set ops
    scanned: np.ndarray  # (n,) intersection elements handed to the terms
    probe_elements: int  # elements pushed through membership probes


def iep_chunk(
    graph: Graph, plan: CountingPlan, prefixes: np.ndarray
) -> ChunkIepResult:
    """Evaluate a counting plan over a whole chunk of prefix embeddings.

    For each distinct intersection signature ``D`` the kernel computes
    ``card(D) = |N(v_{D[0]}) ∩ ... ∩ N(v_{D[-1]})|`` minus the prefix
    vertices inside the intersection, for every row of ``prefixes`` at
    once — ``neighbors_batch`` gathers the first column's lists, each
    further column is one bulk :func:`adjacency_member` probe, and no
    candidate array is ever materialized per term. The plan's merged
    inclusion-exclusion terms then combine the cardinalities into the
    per-embedding suffix-tuple counts.

    Accounting mirrors the enumeration kernels: every membership-probe
    stage charges ``running + degree`` merge elements per embedding
    (the same direction-independent expression as the scalar
    ``np.intersect1d`` reference, with no probe-side flip), and each
    multi-column signature's pre-subtraction cardinality lands in
    ``scanned``. Cardinalities are exact in int64; the products are
    bounded by ``max_degree ** suffix_size``, far inside int64 for
    every graph this engine hosts.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a 2-D (embeddings, prefix) array")
    n = prefixes.shape[0]
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ChunkIepResult(empty, empty.copy(), empty.copy(), 0)
    # row blocks as in extend_chunk, sized by the widest gather
    degrees = graph.degrees()
    volume = np.zeros(n, dtype=np.int64)
    for signature in plan.signatures:
        if len(signature) > 1:
            np.maximum(volume, degrees[prefixes[:, signature[0]]], out=volume)
    bounds = _row_blocks(volume)
    parts = [
        _iep_rows(graph, plan, prefixes[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ]
    if len(parts) == 1:
        return parts[0]
    return ChunkIepResult(
        np.concatenate([part.counts for part in parts]),
        np.concatenate([part.merge_elements for part in parts]),
        np.concatenate([part.scanned for part in parts]),
        sum(part.probe_elements for part in parts),
    )


def _iep_rows(
    graph: Graph, plan: CountingPlan, prefixes: np.ndarray
) -> ChunkIepResult:
    """One row block of :func:`iep_chunk`."""
    n = len(prefixes)
    degrees = graph.degrees()
    merge_elements = np.zeros(n, dtype=np.int64)
    scanned = np.zeros(n, dtype=np.int64)
    probe_elements = 0
    cards: dict[tuple[int, ...], np.ndarray] = {}
    # the signatures overlap: one membership memo (:func:`_inside`) per
    # block probes each ordered pair of columns once, on first use
    adjacent: dict[tuple[int, int], np.ndarray] = {}
    for signature in plan.signatures:
        if len(signature) == 1:
            card = degrees[prefixes[:, signature[0]]].astype(np.int64)
        else:
            batch = _set_operations(graph, prefixes, signature)
            card = batch.counts
            merge_elements += batch.merge_elements
            scanned += card
            probe_elements += batch.probe_elements
        # prefix vertices that fall inside the intersection are not
        # valid suffix candidates
        cards[signature] = card - _inside(
            graph, prefixes, signature, adjacent=adjacent
        )
    totals = np.zeros(n, dtype=np.int64)
    for term in plan.terms:
        value = np.full(n, term.coefficient, dtype=np.int64)
        for block in term.blocks:
            value *= cards[block]
        totals += value
    return ChunkIepResult(totals, merge_elements, scanned, probe_elements)
