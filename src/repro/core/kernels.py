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

Sets have two representations, chosen by what the graph already is (as
G2Miner picks bitmaps where neighborhoods are dense and sorted lists
where they are not). The vertices with a bit-packed adjacency row are
packed *columns* of every vertex (:meth:`Graph.hub_columns`; where
every vertex has a row, the rows themselves), so a running set is one
universe with an optional word half — the hubs in it: an intersection
is an AND, a cardinality a popcount, the ordering window a mask — and
an optional list half — the rest, a gathered sorted list and membership
probes. One stage loop (:func:`_set_operations`, a stage being
:func:`_split_stage`) serves every body, and the IEP kernel keeps the
same state by signature prefix (:func:`_iep_rows`). A label-free step
with a set operation, and every IEP signature, use the columns; a
listing or a reused stored intersection on a graph whose universe has a
tail stays on lists (hub and tail members would have to merge back into
one sorted list), as does everything on a graph with no row at all.

Temporaries are views of a :class:`~repro.core.workspace.Workspace`
filled through ``out=`` (a warm run allocates next to nothing); a
listed result owns its arrays, a counted or IEP result's are workspace
views the caller reads before its next kernel call.

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

from repro.core.workspace import Workspace
from repro.graph.graph import (
    Graph, HubColumns, block_bounds, gather_segments,
)
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
    graph: Graph,
    sources: np.ndarray,
    candidates: np.ndarray,
    emb_of: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean mask: is ``candidates[i]`` a neighbor of its source?

    The source of candidate ``i`` is ``sources[i]``, or, when ``emb_of``
    is given, ``sources[emb_of[i]]`` — a set-operation stage probes all
    of a row's candidates against one vertex, so what depends on the
    source only (its adjacency row, whether it has one) is worked out
    once per *row* and gathered, not re-derived per candidate.

    Input-aware, as the GPU engines' set operations are: pairs whose
    source is a hub answer with one load from its bit-packed adjacency
    row (:meth:`Graph.adjacency_matrix` — on a small graph every vertex
    has one), and only the remainder pays a global binary search
    against the composite-key adjacency view — the batched analogue of
    probing each candidate into its own CSR slice, without
    per-embedding windowing. The mask is written to ``out`` (a fresh
    array without one); temporaries are views of ``workspace``.
    """
    ws = workspace if workspace is not None else Workspace()
    count = len(candidates)
    member = np.empty(count, dtype=bool) if out is None else out
    rows, rank = graph.adjacency_matrix()
    row = rank.take(sources, mode="clip",
                    out=ws.take("member.row", len(sources), rank.dtype))
    if len(rows):
        # bit addresses: a row starts on a byte, so a candidate's bit
        # within its byte is the address's low three bits. A rowless
        # source reads some other row here; overwritten below. (The
        # per-candidate int64 scratch is the filters' too: a probe and
        # a filter pass are never in flight together)
        bit = ws.take("candidates.int64", count)
        if emb_of is None:
            np.multiply(row, 8 * rows.shape[1], dtype=np.int64, out=bit)
        else:
            np.multiply(
                row, 8 * rows.shape[1], dtype=np.int64,
                out=ws.take("member.start", len(sources)),
            ).take(emb_of, mode="clip", out=bit)
        bit += candidates
        shift = np.bitwise_and(
            bit, 7, casting="unsafe",
            out=ws.take("member.shift", count, np.uint8),
        )
        bit >>= 3
        bits = rows.reshape(-1).take(bit, mode="clip",
                                     out=member.view(np.uint8))
        bits >>= shift
        bits &= 1
    else:
        member[:] = False
    if len(rows) < len(rank) and graph.num_directed_edges:
        rowless = row < 0
        if emb_of is not None:
            # per row first: most chunks have no rowless source at all
            rowless = rowless[emb_of] if rowless.any() else rowless[:0]
        tail = rowless.nonzero()[0]
        if len(tail):
            adj_keys = graph.adjacency_keys()
            owners = tail if emb_of is None else emb_of[tail]
            keys = sources[owners].astype(np.int64)
            keys *= graph.num_vertices
            keys += candidates[tail]
            pos = adj_keys.searchsorted(keys)
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
#: and bound what the run's :class:`Workspace` holds for them
#: (docs/performance.md).
BLOCK_ELEMENTS = 1 << 16


@dataclass
class ChunkExtendResult:
    """Vectorized extension of one chunk: per-embedding slices + counts.

    ``values[offsets[i]:offsets[i + 1]]`` are embedding ``i``'s
    filtered candidates; ``merge_elements`` / ``scanned`` / ``counts``
    are the per-embedding accounting quantities, exactly equal to what
    the row-by-row reference produces. ``rows[j]`` is the embedding
    ``values[j]`` extends — the child's ``parent_idx`` column. A
    counted result (:func:`_count_window`, :func:`_count_sets`) has no
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
    #: what the set-operation stages account for: the rows' running
    #: sizes before each stage (docs/metrics.md) — pushed through
    #: membership probes on the list path, popcounts on packed words
    probe_elements: int = 0

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
    counts.cumsum(out=offsets[1:])
    return offsets


def extend_chunk(
    graph: Graph,
    step: ExtensionStep,
    prefixes: np.ndarray,
    intermediates: Optional[
        tuple[np.ndarray, np.ndarray, np.ndarray]
    ] = None,
    vcs: bool = True,
    count_only: bool = False,
    workspace: Optional[Workspace] = None,
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
    workspace:
        Where the temporaries live (a private one when ``None``). A
        listed result owns its arrays; a counted result's are views of
        the workspace, valid until its next kernel call.

    The chunk is worked through in row blocks of about
    :data:`BLOCK_ELEMENTS` gathered candidates (:func:`_row_blocks`, or
    words: :func:`_word_blocks`); the result is the blocks' results laid
    end to end. The universe the step's sets live in follows the module
    docstring's rule; where it is words only, the stored
    ``intermediates`` are re-derived from the columns the reused step
    read, and only their sizes are taken off the offsets.
    """
    ws = workspace if workspace is not None else Workspace()
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a 2-D (embeddings, level) array")
    if not (vcs and step.reuse_level is not None):
        intermediates = None
    label_free = step.label is None and step.edge_labels is None
    counting = count_only and label_free
    if intermediates is not None:
        stored, stored_offsets, segments = intermediates
        segments = np.asarray(segments, dtype=np.int64)
        volume = stored_offsets[segments + 1] - stored_offsets[segments]
        connected = step.extra_connected
    elif counting and len(step.connected) == 1 and not step.disconnected:
        return _count_window(graph, step, prefixes, ws)
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
        volume = degs.take(prefixes[:, connected[0]])
        if len(connected) > 1:
            other = degs.take(prefixes[:, connected[1]])
            if int(other.sum()) < int(volume.sum()):
                connected = (connected[1], connected[0]) + connected[2:]
                volume = other
    n = len(prefixes)
    if counting:
        batch = ChunkExtendResult(
            ws.take("result.counts", n), ws.take("result.merge", n),
            ws.take("result.scanned", n),
        )
    else:
        batch = ChunkExtendResult(
            np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int64),
        )
    keep_raw = step.store_intermediate and not counting
    # The universe: a label-free step with a set operation to run (a
    # one-list step has none to replace) runs it on the graph's packed
    # columns — unless they leave a tail and the step lists, or reuses a
    # stored intersection (one list): hub and tail members would have
    # to be merged back into one sorted list
    columns = graph.hub_columns() if label_free and (
        intermediates is not None
        or len(connected) + len(step.disconnected) > 1
    ) else None
    if columns is not None and columns.tail_indptr is not None and (
        intermediates is not None or not counting
    ):
        columns = None
    if intermediates is None:
        base, connected = connected[:1], connected[1:]
    else:
        base = tuple(c for c in step.connected if c not in connected)
        if columns is not None:
            # words only: the stored intersection re-derived, the AND
            # of the columns the reused step read (its sizes: ``volume``)
            intermediates = None
    # row blocks weigh a row as what its sets take in this universe:
    # ``W`` words (or their unpacked bytes) without a tail, the tail
    # list and ``W`` words with one, the gathered list without columns
    if columns is None:
        bounds = _row_blocks(volume)
    elif columns.tail_indptr is None:
        bounds = _word_blocks(n, columns.words.shape[1], listing=not counting)
    else:
        tails = columns.tail_indptr
        first = prefixes[:, base[0]]
        bounds = _row_blocks(
            tails.take(first + 1) - tails.take(first) + columns.words.shape[1]
        )
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        block = prefixes[start:stop]
        merge, scanned, kept = (
            tally[start:stop]
            for tally in (batch.merge_elements, batch.scanned, batch.counts)
        )
        state, raw_values, probes = _set_operations(
            graph, columns, block, base, connected, step.disconnected,
            None if intermediates is None
            else (stored, stored_offsets, segments[start:stop]),
            volume[start:stop], ws, merge, scanned, keep_raw,
        )
        batch.probe_elements += probes
        if counting:
            _count_sets(graph, columns, step, block, state, ws, kept)
        else:
            values, emb_of = _list_sets(
                graph, columns, step, block, state, ws, kept)
            parts.append((values, emb_of, raw_values))
    if counting:
        return batch
    # row blocks' lists laid end to end; the layout arrays are built
    # once, from the chunk's counts
    if len(parts) == 1:
        batch.values, batch.rows, raw_values = parts[0]
    else:
        batch.values = np.concatenate([part[0] for part in parts])
        batch.rows = np.concatenate(
            [part[1] + start for part, start in zip(parts, bounds)]
        )
        if step.store_intermediate:
            raw_values = np.concatenate([part[2] for part in parts])
    batch.offsets = _offsets_from_counts(batch.counts)
    if step.store_intermediate:
        # a row's stored intersection is what its filters scanned
        batch.raw_values = raw_values
        batch.raw_offsets = _offsets_from_counts(batch.scanned)
    return batch


def _row_blocks(volume: np.ndarray) -> list[int]:
    """Row boundaries ``[0, ..., n]`` that cut a chunk into runs of
    about :data:`BLOCK_ELEMENTS` gathered candidates (``volume[i]`` is
    what row ``i`` gathers; a row counts for at least one element, and
    one row is never split)."""
    return block_bounds(volume + 1, BLOCK_ELEMENTS)


def _word_blocks(n: int, width: int, listing: bool = False) -> list[int]:
    """:func:`_row_blocks` for ``n`` rows of ``width``-word sets: a
    block's sets are :data:`BLOCK_ELEMENTS` words — or, when they are
    ``listing``, as many bytes of unpacked bits (a row's are ``64
    width``) as that many words take."""
    rows = max(1, BLOCK_ELEMENTS // ((8 if listing else 1) * width))
    return [*range(0, n, rows), n] if n else [0, 0]


def _set_operations(
    graph: Graph,
    columns: Optional[HubColumns],
    prefixes: np.ndarray,
    base: tuple[int, ...],
    connected: tuple[int, ...],
    disconnected: tuple[int, ...],
    stored: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    size: np.ndarray,
    ws: Workspace,
    merge_elements: np.ndarray,
    scanned: np.ndarray,
    keep_raw: bool = False,
):
    """One row block's set operations, unfiltered: the running sets —
    the stored intersections ``stored``, or the AND of the ``base``
    columns' neighbor sets (``size[i]`` elements a row) — intersected
    with the ``connected`` columns' sets, then differenced with
    ``disconnected``'s, a stage at a time (:func:`_split_stage`, on
    whichever halves of the universe ``columns`` leaves).

    Returns ``(state, raw_values, probe_elements)`` — the last stage's
    state — and writes the rows' ``merge_elements`` and ``scanned``: a
    stage charges the running size before it and the other list's
    length, whichever half answers it. ``raw_values`` (with
    ``keep_raw``: the pre-difference intersection VCS descendants
    reuse, listed; ``scanned`` are its per-row sizes) is the caller's
    to keep."""
    degrees = graph.degrees()
    state = _first_state(
        graph, columns, prefixes, base, stored, size, ws, "first")
    merge_elements[:] = 0
    probe_elements = 0
    stages = 0

    def stage(position: int, keep: bool) -> None:
        nonlocal state, probe_elements, merge_elements, stages
        size = state[3]
        merge_elements += size
        merge_elements += degrees.take(prefixes[:, position])
        probe_elements += int(size.sum())
        state = _split_stage(
            graph, columns, prefixes, position, keep, state, ws, stages & 1
        )
        stages += 1

    for position in connected:
        stage(position, True)
    scanned[:] = state[3]
    raw_values = None
    if keep_raw:
        sets, values = state[:2]
        # a stage's output sits in a workspace slot the next block reuses
        raw_values = (
            _members(sets, graph.indices.dtype)[0] if sets is not None
            else values.copy() if stages else values
        )
    for position in disconnected:
        stage(position, False)
    return state, raw_values, probe_elements


def _first_state(
    graph: Graph,
    columns: Optional[HubColumns],
    prefixes: np.ndarray,
    base: tuple[int, ...],
    stored: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]],
    size: np.ndarray,
    ws: Workspace,
    slot,
) -> tuple:
    """:func:`_split_stage`'s state before any stage: the AND of the
    ``base`` columns' neighbor sets (``size[i]`` elements a row) as
    words over ``columns`` (a view of the workspace's ``slot``) and,
    where the universe has a list half, column ``base[0]``'s lists —
    their tails, beside words — or the stored intersections ``stored``,
    gathered."""
    sets = None
    if columns is not None:
        sets = _neighbor_sets(columns.words, prefixes[:, base[0]], ws, slot)
        for position in base[1:]:
            sets &= _neighbor_sets(
                columns.words, prefixes[:, position], ws, "base")
    if stored is not None:
        values, offsets = gather_segments(*stored)
    elif columns is None or columns.tail_indptr is not None:
        values, offsets = graph.neighbors_batch(
            prefixes[:, base[0]], tail=columns is not None)
    else:
        return sets, None, None, size
    emb_of = np.arange(len(prefixes)).repeat(offsets[1:] - offsets[:-1])
    return sets, values, emb_of, size


def _split_stage(
    graph: Graph,
    columns: Optional[HubColumns],
    prefixes: np.ndarray,
    position: int,
    keep: bool,
    state: tuple,
    ws: Workspace,
    slot,
) -> tuple:
    """One set-operation stage over a row block: of each row's running
    set keep the members adjacent to its column ``position`` vertex (an
    intersection) or, with ``keep`` false, those that are not (a
    difference). ``state`` is ``(sets, values, emb_of, size)`` — the
    hubs in each row's set as words over the graph's ``columns``, the
    rest as a sorted list, the two halves' total — and either half may
    be absent (``None``), never empty: the words are ANDed with column
    ``position``'s (their complement, with ``keep`` false), the list
    goes through :func:`_probe_stage`. The new state, in the
    workspace's ``slot`` (not its input's)."""
    sets, values, emb_of, size = state
    if values is not None:
        values, emb_of, size = _probe_stage(
            graph, prefixes, position, values, emb_of, keep, ws, slot
        )
    if sets is not None:
        other = _neighbor_sets(columns.words, prefixes[:, position], ws, slot)
        sets = np.bitwise_and(
            sets, other if keep else np.invert(other, out=other), out=other
        )
        count = _popcount(
            sets, ws, ws.take(("words.size", slot), len(prefixes)))
        if values is None:
            size = count
        else:
            size += count
    return sets, values, emb_of, size


def _probe_stage(
    graph: Graph,
    prefixes: np.ndarray,
    position: int,
    values: np.ndarray,
    emb_of: np.ndarray,
    keep: bool,
    ws: Workspace,
    slot,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_split_stage` on a list half: of each row's candidates
    keep those adjacent to its column ``position`` vertex or, with
    ``keep`` false, those that are not. The new ``(values, emb_of,
    counts)``; the first two are views of the workspace's ``slot``."""
    member = adjacency_member(
        graph, prefixes[:, position], values, emb_of, ws,
        out=ws.take("stage.member", len(values), np.bool_),
    )
    if not keep:
        np.logical_not(member, out=member)
    kept = member.nonzero()[0]
    values = values.take(
        kept, mode="clip",
        out=ws.take(("stage.values", slot), len(kept), values.dtype),
    )
    emb_of = emb_of.take(
        kept, mode="clip", out=ws.take(("stage.rows", slot), len(kept))
    )
    return values, emb_of, np.bincount(emb_of, minlength=len(prefixes))


# ---------------------------------------------------------------------
# the word half (docs/performance.md, "Packed sets")
# ---------------------------------------------------------------------
_ONE = np.uint64(1)
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _neighbor_sets(
    words: np.ndarray, vertices: np.ndarray, ws: Workspace, slot
) -> np.ndarray:
    """``N(vertices[i])`` as row ``i`` of an ``(n, W)`` word matrix (a
    view of the workspace's ``slot``)."""
    return words.take(
        vertices, axis=0, mode="clip",
        out=ws.words(("words.sets", slot), len(vertices), words.shape[1]),
    )


def _popcount(sets: np.ndarray, ws: Workspace, out: np.ndarray) -> np.ndarray:
    """Each row's cardinality, written to ``out``."""
    bits = np.bitwise_count(
        sets, out=ws.take("words.bits", sets.size, np.uint8).reshape(sets.shape)
    )
    return bits.sum(axis=1, dtype=np.int64, out=out)


def _others(prefixes: np.ndarray, width: int, ws: Workspace) -> np.ndarray:
    """Every vertex but the row's own (distinct) prefix vertices, as a
    set of ``width`` words a row: the distinct-vertex constraint as a
    mask. Bit ``v`` is ``1 << (v - 64 j)`` in word ``j`` and in no other
    — numpy shifts a uint64 by 64 or more (a negative distance, read
    unsigned) to zero. All columns in three passes. A workspace view."""
    columns = prefixes.T  # (level, n): the matrix is column-major
    shape = (*columns.shape, width)
    bit = ws.take("words.own", columns.size * width).reshape(shape)
    np.subtract(columns[:, :, None], np.arange(0, 64 * width, 64), out=bit)
    bit = bit.view(np.uint64)
    np.left_shift(_ONE, bit, out=bit)
    others = np.bitwise_or.reduce(
        bit, axis=0, out=ws.words("words.others", *shape[1:]))
    return np.invert(others, out=others)


def _restrict(sets: np.ndarray, window, ws: Workspace) -> None:
    """Intersect each row's set with its ordering ``window``
    (:func:`_window`, its bounds as columns), in place. The columns
    above a bound ``b`` are, in word ``j``, the ones-word shifted left
    by ``b + 1 - 64 j``: by nothing where that is negative, to zero
    where it is 64 or more (numpy's uint64 shift); the columns below
    ``b`` are the complement of those above ``b - 1``."""
    n, width = sets.shape
    first = np.arange(0, 64 * width, 64)
    shift = ws.take("words.shift", n * width).reshape(n, width)
    for compare, bound in window:
        above = compare is np.greater
        np.subtract(bound[:, None], first - above, out=shift)
        np.maximum(shift, 0, out=shift)
        mask = shift.view(np.uint64)
        np.left_shift(_ONES, mask, out=mask)
        sets &= mask if above else np.invert(mask, out=mask)


def _members(sets: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The rows' sets as lists: ``(values, emb_of)``, row after row and
    ascending within one — a set bit is a candidate, its position in
    the row's ``64 W`` bits the vertex (a universe without a tail,
    whose columns are the vertices). Arrays of their own."""
    bits = np.unpackbits(
        sets.astype("<u8", copy=False).view(np.uint8).reshape(-1),
        bitorder="little",
    ).view(np.bool_)
    emb_of, values = np.divmod(bits.nonzero()[0], 64 * sets.shape[1])
    return values.astype(dtype), emb_of


def _mask_words(
    columns: HubColumns, prefixes: np.ndarray, window, sets: np.ndarray,
    ws: Workspace,
) -> None:
    """The word half of a row block's sets through the ordering
    ``window`` (:func:`_window`), in place — a bound is a column too:
    the hubs under it, or up to it — and, where the universe has no
    tail, without the row's own vertices (every one is a column there:
    the distinct-vertex constraint as a mask, :func:`_others`)."""
    if columns.tail_indptr is None:
        # every vertex a column: a bound is its own (``below`` is the
        # identity, nothing to look up)
        _restrict(sets, window, ws)
        sets &= _others(prefixes, sets.shape[1], ws)
    elif window:
        below = columns.below
        _restrict(sets, [
            (compare, below.take(bound + 1) - 1 if compare is np.greater
             else below.take(bound))
            for compare, bound in window
        ], ws)


def _window(
    step: ExtensionStep, prefixes: np.ndarray
) -> list[tuple[np.ufunc, np.ndarray]]:
    """The step's ordering restrictions as ``(compare, bound)`` pairs: a
    candidate ``c`` of row ``i`` passes ``compare(c, bound[i])``."""
    window = []
    for compare, columns, fold in (
        (np.greater, step.larger_than, np.maximum),
        (np.less, step.smaller_than, np.minimum),
    ):
        if columns:
            bound = prefixes[:, columns[0]]
            for column in columns[1:]:
                bound = fold(bound, prefixes[:, column])
            window.append((compare, bound))
    return window


def _window_mask(
    window, values: np.ndarray, emb_of: np.ndarray, ws: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which candidates lie within ``window``, and the two scratch
    views the passes went through (a mask and a per-candidate gather of
    a per-row column) for the caller's own passes. Workspace views."""
    count = len(values)
    masks = ws.take("filter.masks", 2 * count, np.bool_)
    mask, flag = masks[:count], masks[count:]
    of_row = ws.take("candidates.int64", count)
    mask[:] = True
    for compare, bound in window:
        bound.take(emb_of, mode="clip", out=of_row)
        mask &= compare(values, of_row, out=flag)
    return mask, flag, of_row


def _list_sets(
    graph: Graph, columns: Optional[HubColumns], step: ExtensionStep,
    prefixes: np.ndarray, state: tuple, ws: Workspace, counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One row block of :func:`extend_chunk`, listed: the set
    operations' ``state`` — a listing's universe is words only or lists
    only — through the step's filters (:func:`_mask_words` and
    :func:`_members`, or :func:`_extend_rows`). Returns the surviving
    ``(values, emb_of)`` as arrays of their own and writes the rows'
    ``counts``."""
    sets, values, emb_of, _ = state
    if sets is None:
        return _extend_rows(graph, step, prefixes, values, emb_of, ws, counts)
    _mask_words(columns, prefixes, _window(step, prefixes), sets, ws)
    _popcount(sets, ws, counts)
    return _members(sets, graph.indices.dtype)


def _extend_rows(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray,
    values: np.ndarray, emb_of: np.ndarray, ws: Workspace,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_list_sets` on a list half: ``values`` / ``emb_of``
    through the step's filters. Returns the surviving ``(values,
    emb_of)`` as arrays of their own and writes the rows' ``counts``."""
    # post-set-op filters, fused into one keep-mask over the batch
    mask, flag, of_row = _window_mask(
        _window(step, prefixes), values, emb_of, ws
    )
    for column in range(prefixes.shape[1]):
        # distinct-vertex constraint as a small-tuple comparison loop:
        # pattern sizes are tiny, so a few != passes beat any hash path
        prefixes[:, column].take(emb_of, mode="clip", out=of_row)
        mask &= np.not_equal(values, of_row, out=flag)
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
    emb_of = emb_of[mask]
    counts[:] = np.bincount(emb_of, minlength=len(prefixes))
    return values[mask], emb_of


def _inside(
    graph: Graph,
    prefixes: np.ndarray,
    connected: tuple[int, ...],
    disconnected: tuple[int, ...] = (),
    window: Sequence[tuple[np.ufunc, np.ndarray]] = (),
    adjacent: Optional[dict[tuple[int, int], np.ndarray]] = None,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """The distinct-vertex correction of a cardinality: how many of each
    row's own prefix vertices lie in the counted set (adjacent to every
    ``connected`` column's vertex, to no ``disconnected`` one's, within
    ``window``), where a listing drops them. Every column is probed, a
    source's own too: a self-loop puts a vertex in its own list.
    ``adjacent`` memoizes ``(source column, column)`` membership; the
    pairs it lacks are probed together, in groups of a quarter of
    :data:`BLOCK_ELEMENTS` pairs of vertices (unbounded, a 43 k-row
    chunk's probes become MB-sized temporaries). The result is a
    workspace view."""
    ws = workspace if workspace is not None else Workspace()
    adjacent = {} if adjacent is None else adjacent
    n, width = prefixes.shape
    # one take: the hit matrix (column-major), a row-sized scratch mask
    # and the rows the ``adjacent`` memo grows into
    bools = ws.take("inside.masks", (width + 1 + width * width) * n, np.bool_)
    hit = bools[:width * n].reshape(width, n).T
    flag = bools[width * n:(width + 1) * n]
    memo = bools[(width + 1) * n:].reshape(width * width, n)
    hit[:] = True
    for compare, bound in window:
        for column in range(width):
            hit[:, column] &= compare(prefixes[:, column], bound, out=flag)
    # a column nowhere within the window (a bound's own) needs no probe
    columns = hit.any(axis=0).nonzero()[0].tolist()
    sources = connected + disconnected
    missing = [
        (source, column) for column in columns for source in sources
        if (source, column) not in adjacent
    ]
    if missing:
        group = max(1, (BLOCK_ELEMENTS >> 2) // max(n, 1))
        for start in range(0, len(missing), group):
            pairs = missing[start:start + group]
            first = len(adjacent)
            answers = memo[first:first + len(pairs)]
            adjacency_member(
                graph,
                _end_to_end([prefixes[:, s] for s, _ in pairs], "a", ws),
                _end_to_end([prefixes[:, c] for _, c in pairs], "b", ws),
                workspace=ws, out=answers.reshape(-1),
            )
            adjacent.update(zip(pairs, answers))
    for column in columns:
        for source in sources:
            member = adjacent[source, column]
            hit[:, column] &= (
                member if source in connected
                else np.logical_not(member, out=flag)
            )
    return hit.sum(axis=1, out=ws.take("inside.total", n))


def _end_to_end(columns: list, name: str, ws: Workspace) -> np.ndarray:
    """``columns`` concatenated (one alone is passed through)."""
    if len(columns) == 1:
        return columns[0]
    return np.concatenate(columns, out=ws.take(
        ("inside.columns", name), sum(map(len, columns))
    ))


def _count_window(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray, ws: Workspace
) -> ChunkExtendResult:
    """Counting body of a step that reads one neighbor list: a row's
    candidates are the run of ``N(v)`` inside its ordering window, two
    CSR positions — the list's ends, each moved by one binary search of
    the row's bound in the composite keys. O(rows): no gather, no set
    operation (no merge elements, no probes); ``scanned`` = the degree.
    Worked in runs of :data:`BLOCK_ELEMENTS` prefix vertices, so the
    temporaries are a run's, not the chunk's."""
    n, width = prefixes.shape
    batch = ChunkExtendResult(
        ws.take("result.counts", n),
        # no set operation ran: one zero, read n times
        np.broadcast_to(np.zeros(1, dtype=np.int64), n),
        ws.take("result.scanned", n),
    )
    indptr, keys = graph.indptr, graph.adjacency_keys()
    run = max(1, BLOCK_ELEMENTS // width)
    for start in range(0, n, run):
        rows = prefixes[start:start + run]
        source = rows[:, step.connected[0]]
        size = len(source)
        key = ws.take("window.key", size)
        lo = indptr.take(source, mode="clip", out=ws.take("window.lo", size))
        hi = indptr.take(np.add(source, 1, out=key), mode="clip",
                         out=ws.take("window.hi", size))
        np.subtract(hi, lo, out=batch.scanned[start:start + run])
        window = _window(step, rows)
        for compare, bound in window:
            np.multiply(source, graph.num_vertices, out=key)
            key += bound
            if compare is np.greater:
                lo = keys.searchsorted(key, "right")
            else:
                hi = keys.searchsorted(key, "left")
        counts = np.subtract(hi, lo, out=batch.counts[start:start + run])
        np.maximum(counts, 0, out=counts)
        counts -= _inside(graph, rows, step.connected, window=window,
                          workspace=ws)
    return batch


def _count_sets(
    graph: Graph, columns: Optional[HubColumns], step: ExtensionStep,
    prefixes: np.ndarray, state: tuple, ws: Workspace, counts: np.ndarray,
) -> None:
    """One row block of :func:`extend_chunk`, counted, into the rows'
    ``counts``: the set operations' ``state`` through the ordering
    window — a mask on the word half (:func:`_mask_words`), one compare
    pass on the list half (the cost model prices the set operations,
    not this) — as popcounts plus ``bincount``, less the row's own
    vertices inside the set.

    That correction is a mask where the universe has no tail, probes
    (:func:`_drop_own`) where it has one — a choice measured, not
    derived: probing on a graph without a tail too reads ``motif5-mico``
    +14 % in wall time on a 2-CPU host (docs/performance.md, "Packed
    sets"), and with a tail the own vertices are not all columns."""
    sets, values, emb_of, size = state
    window = _window(step, prefixes)
    if sets is not None:
        _mask_words(columns, prefixes, window, sets, ws)
    if values is None:
        _popcount(sets, ws, counts)
        return
    if not window:
        counts[:] = size
    else:
        mask, _, _ = _window_mask(window, values, emb_of, ws)
        listed = np.bincount(emb_of[mask], minlength=len(prefixes))
        if sets is None:
            counts[:] = listed
        else:
            _popcount(sets, ws, counts)
            counts += listed
    _drop_own(graph, step, prefixes, counts, ws)


def _drop_own(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray,
    counts: np.ndarray, ws: Workspace,
) -> None:
    """The distinct-vertex correction of the rows' windowed ``counts``,
    in place (:func:`_inside`). It reads a row's prefix and count, not
    its list, and runs on the rows that count anything: only they can
    hold one of their own vertices, and under an ordering restriction
    most count nothing."""
    live = counts.nonzero()[0]
    rows = ws.matrix("inside.rows", len(live), prefixes.shape[1])
    for column in range(prefixes.shape[1]):
        prefixes[:, column].take(live, mode="clip", out=rows[:, column])
    counts[live] -= _inside(
        graph, rows, step.connected, step.disconnected, _window(step, rows),
        workspace=ws,
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
    #: the rows' running sizes before each stage, a stage counted once
    #: per distinct signature prefix per block (docs/metrics.md)
    probe_elements: int


def iep_chunk(
    graph: Graph,
    plan: CountingPlan,
    prefixes: np.ndarray,
    workspace: Optional[Workspace] = None,
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
    every graph this engine hosts. The result's arrays are views of
    ``workspace`` (a private one when ``None``), valid until its next
    kernel call. On a graph with hub columns the signatures run on
    :func:`extend_chunk`'s universe (:func:`_split_stage`): the hub
    part is ANDs of packed words and popcounts, only a tail is gathered
    and probed, and where there is no tail nothing is — given rows of
    distinct vertices, which prefix embeddings are.
    """
    ws = workspace if workspace is not None else Workspace()
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError("prefixes must be a 2-D (embeddings, prefix) array")
    n = prefixes.shape[0]
    batch = ChunkIepResult(
        ws.take("result.counts", n), ws.take("result.merge", n),
        ws.take("result.scanned", n), 0,
    )
    columns = graph.hub_columns()
    # Each regime keeps its row-block rule: ``probe_elements`` counts a
    # stage once per distinct signature prefix *per block*, so the
    # blocking is a pinned number (tests/data/scheduler_golden.json)
    if columns is not None and columns.tail_indptr is None:
        bounds = _word_blocks(n, columns.words.shape[1])
    else:
        # sized by the widest gather
        degrees = graph.degrees()
        volume = np.zeros(n, dtype=np.int64)
        for first in {s[0] for s in plan.signatures if len(s) > 1}:
            np.maximum(volume, degrees[prefixes[:, first]], out=volume)
        bounds = _row_blocks(volume)
    for start, stop in zip(bounds, bounds[1:]):
        batch.probe_elements += _iep_rows(
            graph, columns, plan, prefixes[start:stop], ws,
            batch.counts[start:stop], batch.merge_elements[start:stop],
            batch.scanned[start:stop],
        )
    return batch


def _iep_rows(
    graph: Graph,
    columns: Optional[HubColumns],
    plan: CountingPlan,
    prefixes: np.ndarray,
    ws: Workspace,
    totals: np.ndarray,
    merge_elements: np.ndarray,
    scanned: np.ndarray,
) -> int:
    """One row block of :func:`iep_chunk`: writes the rows' ``totals``,
    ``merge_elements`` and ``scanned``, returns the probes made.

    Signatures share their prefixes: ``(0, 1)`` and ``(0, 1, 2)`` pass
    through the same first state of column 0 and the same stage against
    column 1, so each stage's state (:func:`_split_stage`'s — words, a
    list or both, by ``columns``) is kept by signature prefix, in a
    workspace slot of its own, and runs once per block. Every signature
    still charges every stage it passes through — the
    ``merge_elements`` and ``scanned`` of a signature-at-a-time walk.
    The prefix vertices inside a signature's set are not suffix
    candidates: masked off its words where the universe has no tail,
    probed otherwise (:func:`_count_sets` says why)."""
    n = len(prefixes)
    degrees = graph.degrees()
    merge_elements[:] = 0
    scanned[:] = 0
    probe_elements = 0
    stages: dict[tuple[int, ...], tuple] = {}
    degree_of: dict[int, np.ndarray] = {}
    cards: dict[tuple[int, ...], np.ndarray] = {}
    words_only = columns is not None and columns.tail_indptr is None
    if words_only:
        others = _others(prefixes, columns.words.shape[1], ws)
        inside = ws.words("words.inside", n, columns.words.shape[1])
    # the signatures overlap: one membership memo (:func:`_inside`) per
    # block probes each ordered pair of columns once, on first use
    adjacent: dict[tuple[int, int], np.ndarray] = {}
    for signature in plan.signatures:
        for position in signature:
            if position not in degree_of:
                degree_of[position] = degrees.take(prefixes[:, position])
        if len(signature) == 1 and not words_only:
            card = degree_of[signature[0]]
        else:
            state = stages.get(signature[:1])
            if state is None:
                state = stages[signature[:1]] = _first_state(
                    graph, columns, prefixes, signature[:1], None,
                    degree_of[signature[0]], ws, len(stages),
                )
            for depth in range(2, len(signature) + 1):
                size = state[3]
                position = signature[depth - 1]
                merge_elements += size
                merge_elements += degree_of[position]
                prefix = signature[:depth]
                if prefix not in stages:
                    probe_elements += int(size.sum())
                    stages[prefix] = _split_stage(
                        graph, columns, prefixes, position, True, state,
                        ws, len(stages),
                    )
                state = stages[prefix]
            card = state[3]
        if len(signature) > 1:
            scanned += card
        if words_only:
            cards[signature] = _popcount(
                np.bitwise_and(state[0], others, out=inside), ws,
                ws.take(("words.card", len(cards)), n),
            )
        else:
            cards[signature] = card - _inside(
                graph, prefixes, signature, adjacent=adjacent, workspace=ws
            )
    _iep_totals(plan, cards, totals, ws)
    return probe_elements


def _iep_totals(
    plan: CountingPlan, cards: dict, totals: np.ndarray, ws: Workspace
) -> None:
    """The plan's inclusion-exclusion terms over the signatures'
    cardinalities ``cards``, summed into the rows' ``totals``."""
    totals[:] = 0
    value = ws.take("iep.value", len(totals))
    for term in plan.terms:
        value[:] = term.coefficient
        for block in term.blocks:
            value *= cards[block]
        totals += value
