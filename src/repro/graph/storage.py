"""Out-of-core CSR storage: on-disk stores and the streaming builder.

The paper's headline graphs (WDC12, 128.7B edges) are orders of
magnitude beyond RAM; HUGE (PAPERS.md) makes bounded-memory operation
the baseline requirement at that scale. This module generalizes the
graph substrate into a pluggable storage layer (docs/storage.md):

- :func:`write_store` / :func:`open_store` — serialize a
  :class:`~repro.graph.graph.Graph` into a single versioned store file
  and reopen it as a :class:`MmapGraph` whose CSR arrays are read-only
  ``numpy.memmap`` views. A memmap *is* an ndarray, so the kernels,
  the scheduler drains, and both execution backends run unchanged on
  it — storage selection never branches inside ``core/``.
- :func:`build_store` / :func:`from_edge_batches` — the streaming
  builder: edge batches flow through a counting pass plus an
  external-sort (spill runs + k-way vectorized merge) pipeline that
  never materializes the full edge list in memory, producing exactly
  the arrays :func:`~repro.graph.builder.from_edge_array` would
  (bit-identical normalization: self-loops dropped, undirected edges
  mirrored, duplicates collapse first-occurrence-wins).
- :func:`resolve_storage` — the ``--storage {ram,mmap,auto}`` policy:
  ``auto`` flips to ``mmap`` when :meth:`Graph.size_bytes` exceeds the
  configured resident cap.

File layout (docs/storage.md): a 16-byte preamble (magic, version,
header length, header CRC32) followed by a JSON header naming every
array's dtype/length/offset/CRC32, then the arrays themselves at
64-byte-aligned offsets. Stale, truncated, or corrupt stores are
rejected by name — the same manifest discipline the durable
checkpoints use (docs/faults.md, "Durability").
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

#: store-file magic ("Khuzdul CSR")
MAGIC = b"KCSR"
#: bump on any incompatible layout change; older stores are rejected
#: by name as stale
STORE_VERSION = 1
#: preamble: magic + u32 version + u32 header length + u32 header CRC
_PREAMBLE = struct.Struct("<4sIII")
#: array sections start on this alignment
_ALIGN = 64
#: edge batches are buffered up to this many normalized entries before
#: being sorted into one spill run (bounds builder memory)
DEFAULT_RUN_ENTRIES = 1 << 20
#: entries pulled per run per merge step (bounds merge memory at
#: ``runs * chunk`` entries)
DEFAULT_MERGE_CHUNK = 1 << 17
#: reverse-direction entries of an undirected edge rank after every
#: forward entry, mirroring from_edge_array's concat order
_REVERSE_RANK_BASE = np.int64(1) << 62

#: CRC is computed over arrays in slices of this many bytes
_CRC_BLOCK = 1 << 22


class MmapGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only file mappings.

    Identical array interface — the arrays *are* ndarrays (memmap
    views), so every kernel and accessor works unchanged; only the
    byte-accounting layers (admission control, ``storage.*`` metrics)
    look at :attr:`storage` to learn the graph is not resident.
    """

    __slots__ = ("store_path", "fingerprint", "builder_stats")

    #: storage mode tag ("ram" on the base class)
    storage = "mmap"


@dataclass(frozen=True)
class BuildStats:
    """What the streaming builder did (also recorded in the header)."""

    num_vertices: int
    num_entries: int  # directed adjacency entries written
    source_edges: int  # input rows consumed (before normalization)
    spill_runs: int
    merge_batches: int


def resolve_storage(
    mode: str,
    size_bytes: int,
    resident_cap_bytes: Optional[int] = None,
) -> str:
    """The ``--storage`` policy: ``ram``/``mmap`` are explicit;
    ``auto`` picks ``mmap`` exactly when the graph would not fit the
    configured resident cap."""
    if mode in ("ram", "mmap"):
        return mode
    if mode != "auto":
        raise GraphFormatError(
            f"storage must be 'ram', 'mmap', or 'auto', got {mode!r}"
        )
    if resident_cap_bytes is not None and size_bytes > resident_cap_bytes:
        return "mmap"
    return "ram"


# ---------------------------------------------------------------------
# store file format
# ---------------------------------------------------------------------
def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _array_crc(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes, computed in bounded slices (a
    memmapped operand is never pulled into memory whole)."""
    view = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
    crc = 0
    for start in range(0, view.nbytes, _CRC_BLOCK):
        crc = zlib.crc32(view[start:start + _CRC_BLOCK].tobytes(), crc)
    return crc


def _layout(arrays: dict[str, np.ndarray], header_hint: int = 4096):
    """Assign aligned offsets after a header of roughly ``header_hint``
    bytes; returns (sections, total_bytes). Re-run with the real header
    length until stable (the JSON mentions the offsets it implies)."""
    offset = _aligned(_PREAMBLE.size + header_hint)
    sections = {}
    for name, array in arrays.items():
        sections[name] = {
            "dtype": array.dtype.str,
            "length": int(len(array)),
            "offset": offset,
            "crc32": _array_crc(array),
        }
        offset = _aligned(offset + array.nbytes)
    return sections, offset


def _header_bytes(
    directed: bool,
    num_vertices: int,
    sections: dict,
    total_bytes: int,
    builder: Optional[dict],
) -> bytes:
    header = {
        "format": "khuzdul-csr-store",
        "version": STORE_VERSION,
        "directed": bool(directed),
        "num_vertices": int(num_vertices),
        "arrays": sections,
        "total_bytes": int(total_bytes),
        "builder": builder or {},
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _write_store_file(
    path: Path,
    arrays: dict[str, np.ndarray],
    directed: bool,
    num_vertices: int,
    builder: Optional[dict] = None,
) -> None:
    """Write one store file atomically (tmp + rename)."""
    # two passes: offsets depend on header length, header mentions
    # offsets; a second layout with the real length always converges
    # because offsets are monotone in the header size and aligned
    sections, total = _layout(arrays)
    header = _header_bytes(directed, num_vertices, sections, total, builder)
    sections, total = _layout(arrays, header_hint=len(header))
    header = _header_bytes(directed, num_vertices, sections, total, builder)
    if _aligned(_PREAMBLE.size + len(header)) != sections_start(sections):
        # one more round for the rare length flip at an alignment edge
        sections, total = _layout(arrays, header_hint=len(header))
        header = _header_bytes(directed, num_vertices, sections, total,
                               builder)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_PREAMBLE.pack(
                MAGIC, STORE_VERSION, len(header), zlib.crc32(header)
            ))
            handle.write(header)
            for name, array in arrays.items():
                handle.seek(sections[name]["offset"])
                np.ascontiguousarray(array).tofile(handle)
            handle.truncate(total)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def sections_start(sections: dict) -> int:
    return min(s["offset"] for s in sections.values()) if sections else 0


def write_store(graph: Graph, path: str | os.PathLike,
                builder: Optional[dict] = None) -> Path:
    """Serialize an in-RAM graph into a store file (atomic replace)."""
    arrays: dict[str, np.ndarray] = {
        "indptr": np.asarray(graph.indptr, dtype=np.int64),
        "indices": np.asarray(graph.indices, dtype=np.int32),
    }
    if graph.labels is not None:
        arrays["labels"] = np.asarray(graph.labels, dtype=np.int32)
    if graph.edge_labels is not None:
        arrays["edge_labels"] = np.asarray(graph.edge_labels,
                                           dtype=np.int32)
    path = Path(path)
    _write_store_file(path, arrays, graph.directed, graph.num_vertices,
                      builder)
    return path


def read_header(path: str | os.PathLike) -> dict:
    """Parse and validate the store preamble + header.

    Every rejection is a structured :class:`GraphFormatError` naming
    the file and the reason (truncated / foreign / stale / corrupt) —
    a bad store must never surface as an unpickling or numpy error
    deep inside a worker.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            preamble = handle.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                raise GraphFormatError(
                    f"{path}: truncated store (only {len(preamble)} "
                    f"bytes; even the preamble is incomplete)"
                )
            magic, version, header_len, header_crc = _PREAMBLE.unpack(
                preamble
            )
            if magic != MAGIC:
                raise GraphFormatError(
                    f"{path}: not a Khuzdul CSR store (magic {magic!r})"
                )
            if version != STORE_VERSION:
                raise GraphFormatError(
                    f"{path}: stale store version {version} (this build "
                    f"reads version {STORE_VERSION}); rebuild the store"
                )
            header_raw = handle.read(header_len)
    except OSError as exc:
        raise GraphFormatError(f"{path}: cannot read store: {exc}") from exc
    if len(header_raw) < header_len:
        raise GraphFormatError(
            f"{path}: truncated store (header cut short at "
            f"{len(header_raw)}/{header_len} bytes)"
        )
    if zlib.crc32(header_raw) != header_crc:
        raise GraphFormatError(
            f"{path}: corrupt store header (CRC mismatch)"
        )
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except ValueError as exc:  # pragma: no cover - crc catches this first
        raise GraphFormatError(
            f"{path}: corrupt store header (bad JSON: {exc})"
        ) from exc
    expected = int(header.get("total_bytes", -1))
    if size != expected:
        raise GraphFormatError(
            f"{path}: truncated store ({size} bytes on disk, header "
            f"promises {expected})"
        )
    header["_fingerprint"] = header_crc
    return header


def open_store(path: str | os.PathLike, verify: bool = False) -> MmapGraph:
    """Open a store read-only; the returned graph's arrays are
    ``numpy.memmap`` views (nothing is loaded eagerly beyond
    ``indptr`` validation).

    ``verify=True`` additionally checks every array's recorded CRC32 —
    a full sequential read, so it is opt-in (builders verify their own
    output; servers trust the header + size check).
    """
    path = Path(path)
    header = read_header(path)
    sections = header["arrays"]

    def _map(name: str) -> Optional[np.ndarray]:
        spec = sections.get(name)
        if spec is None:
            return None
        array = np.memmap(
            path, dtype=np.dtype(spec["dtype"]), mode="r",
            offset=spec["offset"], shape=(spec["length"],),
        )
        if verify and _array_crc(array) != spec["crc32"]:
            raise GraphFormatError(
                f"{path}: corrupt store: array {name!r} fails its "
                f"recorded CRC32"
            )
        return array

    indptr, indices = _map("indptr"), _map("indices")
    labels, edge_labels = _map("labels"), _map("edge_labels")
    try:
        graph = MmapGraph(
            indptr, indices, labels, header["directed"], edge_labels
        )
    except GraphFormatError as exc:
        # the mapped arrays parse but do not form a valid CSR graph
        raise GraphFormatError(
            f"{path}: corrupt store: {exc}"
        ) from exc
    graph.store_path = str(path)
    graph.fingerprint = header["_fingerprint"]
    graph.builder_stats = dict(header.get("builder") or {})
    return graph


# ---------------------------------------------------------------------
# streaming builder: normalize -> spill runs -> k-way merge
# ---------------------------------------------------------------------
def _normalize_batch(
    edges,
    elabels: Optional[np.ndarray],
    directed: bool,
    num_vertices: Optional[int],
    kept_base: int,
):
    """One batch through from_edge_array's normalization, streamed.

    Returns ``(keys, labels, ranks, max_id, kept_rows, raw_rows)``:
    composite
    ``(u << 32) | v`` keys of every directed entry the batch
    contributes (self-loops dropped, undirected mirrored), plus — when
    edge labels ride along — the labels and the global tie-break ranks
    reproducing from_edge_array's first-occurrence-wins order exactly
    (all forward entries outrank all reverse entries; within each,
    input order wins).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError("edges must have shape (m, 2)")
    if edges.size and edges.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    raw_rows = len(edges)
    max_id = int(edges.max()) if edges.size else -1
    if num_vertices is not None and max_id >= num_vertices:
        raise GraphFormatError("edge endpoint exceeds num_vertices")
    if max_id >= 1 << 31:
        raise GraphFormatError(
            "vertex ids must fit 31 bits (int32 adjacency)"
        )
    if elabels is not None:
        elabels = np.asarray(elabels, dtype=np.int64)
        if len(elabels) != len(edges):
            raise GraphFormatError("edge_labels length must equal edges")

    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    if elabels is not None:
        elabels = elabels[keep]
    kept = len(edges)

    keys = (edges[:, 0] << np.int64(32)) | edges[:, 1]
    labels = ranks = None
    if not directed:
        reverse = (edges[:, 1] << np.int64(32)) | edges[:, 0]
        keys = np.concatenate([keys, reverse])
        if elabels is not None:
            labels = np.concatenate([elabels, elabels]).astype(np.int32)
            base = np.arange(kept, dtype=np.int64) + kept_base
            ranks = np.concatenate([base, base + _REVERSE_RANK_BASE])
    elif elabels is not None:
        labels = elabels.astype(np.int32)
        ranks = np.arange(kept, dtype=np.int64) + kept_base
    return keys, labels, ranks, max_id, kept, raw_rows


def _dedup_sorted_run(keys, labels, ranks):
    """Sort one buffered run by key (ranked ties resolved by rank) and
    collapse duplicate keys, keeping the lowest-ranked occurrence. A
    run with neither labels nor ranks has no permutation to carry: its
    keys are sorted by value (several times cheaper than an argsort and
    a gather)."""
    if ranks is not None:
        order = np.lexsort((ranks, keys))
    elif labels is not None:
        order = np.argsort(keys, kind="stable")
    else:
        order = None
    keys = np.sort(keys) if order is None else keys[order]
    first = np.ones(len(keys), dtype=bool)
    if len(keys) > 1:
        first[1:] = keys[1:] != keys[:-1]
    out_labels = labels[order][first] if labels is not None else None
    out_ranks = ranks[order][first] if ranks is not None else None
    return keys[first], out_labels, out_ranks


class _RunSet:
    """Sorted, key-unique spill runs — on disk or in memory.

    With a spill directory, each run is saved via ``np.save`` and read
    back through ``np.load(mmap_mode='r')`` so the merge touches only
    the window it is consuming; without one (the in-RAM builder path)
    the runs stay plain arrays. Either way the merge code is identical.
    """

    def __init__(self, spill_dir: Optional[Path]):
        self._spill_dir = spill_dir
        self.runs: list[dict] = []

    def add(self, keys, labels, ranks) -> None:
        run = {"keys": keys, "labels": labels, "ranks": ranks}
        if self._spill_dir is not None:
            index = len(self.runs)
            for field in ("keys", "labels", "ranks"):
                if run[field] is None:
                    continue
                target = self._spill_dir / f"run{index}.{field}.npy"
                np.save(target, run[field])
                run[field] = np.load(target, mmap_mode="r")
        self.runs.append(run)


def _merge_runs(
    runs: list[dict],
    chunk: int,
    emit,
) -> int:
    """K-way vectorized merge of sorted key-unique runs.

    Each step windows every run, takes all entries strictly below the
    smallest not-yet-fully-windowed run's last visible key (so a key
    can never straddle two steps), sorts the gathered block once, and
    collapses cross-run duplicates lowest-rank-first. Memory stays at
    ``O(len(runs) * chunk)`` entries. Returns the merge-step count.
    """
    ranked = any(run["ranks"] is not None for run in runs)
    labeled = any(run["labels"] is not None for run in runs)
    pos = [0] * len(runs)
    lengths = [len(run["keys"]) for run in runs]
    merge_batches = 0
    window = chunk
    while True:
        active = [i for i in range(len(runs)) if pos[i] < lengths[i]]
        if not active:
            break
        bound = None
        ends = {}
        for i in active:
            end = min(pos[i] + window, lengths[i])
            ends[i] = end
            if end < lengths[i]:
                last = int(runs[i]["keys"][end - 1])
                if bound is None or last < bound:
                    bound = last
        key_parts, label_parts, rank_parts = [], [], []
        took = False
        for i in active:
            keys = np.asarray(runs[i]["keys"][pos[i]:ends[i]])
            take = (
                len(keys) if bound is None
                else int(np.searchsorted(keys, bound, side="left"))
            )
            if take == 0:
                continue
            took = True
            key_parts.append(keys[:take])
            if labeled:
                label_parts.append(
                    np.asarray(runs[i]["labels"][pos[i]:pos[i] + take])
                )
            if ranked:
                rank_parts.append(
                    np.asarray(runs[i]["ranks"][pos[i]:pos[i] + take])
                )
            pos[i] += take
        if not took:
            # every visible window is pinned at the bound key; widen
            # the windows until the bounding run reveals what follows
            window *= 2
            continue
        window = chunk
        keys = np.concatenate(key_parts)
        labels = np.concatenate(label_parts) if labeled else None
        ranks = np.concatenate(rank_parts) if ranked else None
        keys, labels, _ = _dedup_sorted_run(keys, labels, ranks)
        emit(keys, labels)
        merge_batches += 1
    return merge_batches


class _StreamingCsrBuilder:
    """Shared pipeline behind :func:`build_store` and
    :func:`from_edge_batches`: buffer normalized batches, spill sorted
    runs, merge once at the end."""

    def __init__(
        self,
        directed: bool,
        num_vertices: Optional[int],
        spill_dir: Optional[Path],
        run_entries: int,
        merge_chunk: int,
    ):
        self.directed = directed
        self.num_vertices = num_vertices
        self.run_entries = max(1024, run_entries)
        self.merge_chunk = max(1024, merge_chunk)
        self._runs = _RunSet(spill_dir)
        self._buffer: list[tuple] = []
        self._buffered = 0
        self._kept_rows = 0
        self._source_edges = 0
        self._max_id = -1

    def consume(self, batches: Iterable) -> None:
        for batch in batches:
            if isinstance(batch, tuple):
                edges, elabels = batch
            else:
                edges, elabels = batch, None
            keys, labels, ranks, max_id, kept, raw = _normalize_batch(
                edges, elabels, self.directed, self.num_vertices,
                self._kept_rows,
            )
            self._source_edges += raw
            self._kept_rows += kept
            self._max_id = max(self._max_id, max_id)
            if len(keys) == 0:
                continue
            self._buffer.append((keys, labels, ranks))
            self._buffered += len(keys)
            if self._buffered >= self.run_entries:
                self._spill()

    def _spill(self) -> None:
        if not self._buffer:
            return
        keys = np.concatenate([part[0] for part in self._buffer])
        labels = ranks = None
        if self._buffer[0][1] is not None:
            labels = np.concatenate([part[1] for part in self._buffer])
        if self._buffer[0][2] is not None:
            ranks = np.concatenate([part[2] for part in self._buffer])
        self._buffer.clear()
        self._buffered = 0
        self._runs.add(*_dedup_sorted_run(keys, labels, ranks))

    def finish(self, emit) -> tuple[int, int, int]:
        """Spill the tail, merge every run into ``emit(keys, labels)``;
        returns ``(num_vertices, spill_runs, merge_batches)``."""
        self._spill()
        num_vertices = (
            self.num_vertices if self.num_vertices is not None
            else self._max_id + 1
        )
        merge_batches = _merge_runs(
            self._runs.runs, self.merge_chunk, emit
        )
        return num_vertices, len(self._runs.runs), merge_batches

    @property
    def source_edges(self) -> int:
        return self._source_edges


def _split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return keys >> np.int64(32), (keys & np.int64(0xFFFFFFFF))


def from_edge_batches(
    batches: Iterable,
    num_vertices: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    directed: bool = False,
    run_entries: int = DEFAULT_RUN_ENTRIES,
    merge_chunk: int = DEFAULT_MERGE_CHUNK,
) -> Graph:
    """Build an in-RAM :class:`Graph` from a stream of edge batches.

    Each batch is an ``(m, 2)`` integer array, or an
    ``(edges, edge_labels)`` tuple for edge-labeled input. The result
    is bit-identical to concatenating every batch and calling
    :func:`~repro.graph.builder.from_edge_array` — pinned by
    ``tests/test_storage.py`` — but peak transient memory is bounded
    by the run/merge windows instead of the whole edge list.
    """
    builder = _StreamingCsrBuilder(
        directed, num_vertices, None, run_entries, merge_chunk
    )
    builder.consume(batches)
    index_parts: list[np.ndarray] = []
    label_parts: list[np.ndarray] = []
    counts: Optional[np.ndarray] = None

    def emit(keys: np.ndarray, elabels: Optional[np.ndarray]) -> None:
        nonlocal counts
        src, dst = _split_keys(keys)
        index_parts.append(dst.astype(np.int32))
        if elabels is not None:
            label_parts.append(elabels)
        block = np.bincount(src)
        if counts is None:
            counts = block.astype(np.int64)
        elif len(block) > len(counts):
            block = block.astype(np.int64)
            block[:len(counts)] += counts
            counts = block
        else:
            counts[:len(block)] += block

    n, _, _ = builder.finish(emit)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if counts is not None:
        indptr[1:len(counts) + 1] = np.cumsum(counts)
        indptr[len(counts) + 1:] = indptr[len(counts)]
    indices = (
        np.concatenate(index_parts) if index_parts
        else np.zeros(0, dtype=np.int32)
    )
    edge_labels = np.concatenate(label_parts) if label_parts else None
    label_array = (
        np.asarray(labels, dtype=np.int32) if labels is not None else None
    )
    return Graph(indptr, indices, label_array, directed, edge_labels)


def build_store(
    batches: Iterable,
    path: str | os.PathLike,
    num_vertices: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    directed: bool = False,
    run_entries: int = DEFAULT_RUN_ENTRIES,
    merge_chunk: int = DEFAULT_MERGE_CHUNK,
) -> BuildStats:
    """Stream edge batches into an on-disk store without ever holding
    the full edge list.

    The pipeline: normalized batches buffer up to ``run_entries``
    composite keys, spill as sorted unique runs into a scratch
    directory, and a final k-way merge streams the globally sorted
    adjacency straight to disk while a counting pass accumulates
    per-vertex degrees for ``indptr``. The finished file carries the
    versioned header + per-array CRCs; a crash mid-build leaves only
    scratch files, never a half-valid store (atomic rename).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=path.name + ".build.", dir=path.parent
    ) as scratch_name:
        scratch = Path(scratch_name)
        builder = _StreamingCsrBuilder(
            directed, num_vertices, scratch, run_entries, merge_chunk
        )
        builder.consume(batches)

        indices_tmp = open(scratch / "indices.i32", "w+b")
        elabels_tmp = open(scratch / "elabels.i32", "w+b")
        counts: Optional[np.ndarray] = None
        entries = 0
        labeled_edges = False

        def emit(keys: np.ndarray, elabels: Optional[np.ndarray]) -> None:
            nonlocal counts, entries, labeled_edges
            src, dst = _split_keys(keys)
            dst.astype(np.int32).tofile(indices_tmp)
            entries += len(keys)
            if elabels is not None:
                labeled_edges = True
                elabels.astype(np.int32).tofile(elabels_tmp)
            block = np.bincount(src)
            if counts is None:
                counts = block.astype(np.int64)
            elif len(block) > len(counts):
                block = block.astype(np.int64)
                block[:len(counts)] += counts
                counts = block
            else:
                counts[:len(block)] += block

        n, spill_runs, merge_batches = builder.finish(emit)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if counts is not None:
            indptr[1:len(counts) + 1] = np.cumsum(counts)
            indptr[len(counts) + 1:] = indptr[len(counts)]

        indices_tmp.flush()
        elabels_tmp.flush()
        arrays: dict[str, np.ndarray] = {
            "indptr": indptr,
            "indices": np.memmap(
                indices_tmp, dtype=np.int32, mode="r", shape=(entries,)
            ) if entries else np.zeros(0, dtype=np.int32),
        }
        if labels is not None:
            label_array = np.asarray(labels, dtype=np.int32)
            if len(label_array) != n:
                raise GraphFormatError(
                    "labels length must equal num_vertices"
                )
            arrays["labels"] = label_array
        if labeled_edges:
            arrays["edge_labels"] = np.memmap(
                elabels_tmp, dtype=np.int32, mode="r", shape=(entries,)
            )
        stats = BuildStats(
            num_vertices=n,
            num_entries=entries,
            source_edges=builder.source_edges,
            spill_runs=spill_runs,
            merge_batches=merge_batches,
        )
        _write_store_file(
            path, arrays, directed, n,
            builder={
                "spill_runs": stats.spill_runs,
                "merge_batches": stats.merge_batches,
                "source_edges": stats.source_edges,
            },
        )
        # release the scratch mappings before TemporaryDirectory sweeps
        arrays.clear()
        indices_tmp.close()
        elabels_tmp.close()
    return stats


def iter_graph_edge_batches(
    graph: Graph, batch_edges: int = 1 << 18
) -> Iterator[np.ndarray]:
    """Yield a graph's undirected edge set (``u < v`` once per edge, or
    every stored arc for directed graphs) as bounded ``(m, 2)`` batches
    — the bridge from an existing in-RAM graph to the streaming
    builder."""
    n = graph.num_vertices
    start = 0
    indptr = graph.indptr
    while start < n:
        stop = min(n, start + max(1, batch_edges // 4))
        values, offsets = graph.neighbors_batch(
            np.arange(start, stop, dtype=np.int64)
        )
        src = np.repeat(
            np.arange(start, stop, dtype=np.int64), np.diff(offsets)
        )
        dst = values.astype(np.int64)
        if not graph.directed:
            keep = src < dst
            src, dst = src[keep], dst[keep]
        if len(src):
            yield np.stack([src, dst], axis=1)
        start = stop
