"""Out-of-core CSR storage: on-disk stores and the streaming builder.

The paper's headline graphs (WDC12, 128.7B edges) are orders of
magnitude beyond RAM; HUGE (PAPERS.md) makes bounded-memory operation
the baseline requirement at that scale. This module generalizes the
graph substrate into a pluggable storage layer (docs/storage.md):

- :func:`write_store` / :func:`open_store` — serialize a
  :class:`~repro.graph.graph.Graph` into a single versioned store file
  and reopen it as a :class:`MmapGraph` whose CSR arrays are read-only
  ndarray views of a mapping of the file, so the kernels,
  the scheduler drains, and both execution backends run unchanged on
  it — storage selection never branches inside ``core/``.
- :func:`build_store` / :func:`from_edge_batches` — the streaming
  builder, the one edge normalization every builder shares
  (:func:`~repro.graph.builder.from_edge_array` is a stream of one
  batch): edge batches flow through a counting pass plus an
  external-sort (spill runs + k-way vectorized merge) pipeline that
  never materializes the full edge list in memory (self-loops dropped,
  undirected edges mirrored, duplicates collapse
  first-occurrence-wins).
- :func:`resolve_storage` — the ``--storage {ram,mmap,auto}`` policy:
  ``auto`` flips to ``mmap`` when :meth:`Graph.size_bytes` exceeds the
  configured resident cap.

File layout (docs/storage.md): a 16-byte preamble (magic, version,
header length, header CRC32) followed by a JSON header naming every
array's dtype/length/offset/CRC32, then the arrays themselves at
64-byte-aligned offsets. Stale, truncated, or corrupt stores are
rejected by name — the same manifest discipline the durable
checkpoints use (docs/faults.md, "Durability").

What the kernels derive from the CSR — the arrays of the table
:data:`~repro.graph.graph.DERIVED` — is the store's *derived section*,
a sidecar file of the same format (:func:`derived_path`): the first
process that needs it builds and writes it, every later one maps it.
"""

from __future__ import annotations

import glob
import json
import mmap
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import DERIVED, DERIVED_VERSION, Graph

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
#: forward entry of the stream
_REVERSE_RANK_BASE = np.int64(1) << 62
#: an unlabeled self-loop's key: above every ``(u << 32) | v`` of 31-bit
#: ids, so loops sort to a run's end
_LOOP_KEY = np.iinfo(np.int64).max
#: which int32 half of a native int64 key holds ``u`` and which ``v``
_HIGH, _LOW = (1, 0) if sys.byteorder == "little" else (0, 1)

#: CRC is computed over arrays in slices of this many bytes
_CRC_BLOCK = 1 << 22


class MmapGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only file mappings.

    Identical array interface — the arrays *are* ndarrays (views of
    the mapping), so every kernel and accessor works unchanged; only the
    byte-accounting layers (admission control, ``storage.*`` metrics)
    look at :attr:`storage` to learn the graph is not resident.

    So are the arrays the kernels derive (:data:`DERIVED`): the first
    lookup of any of them, through :meth:`_derive`, maps them all from
    the store's derived section (:func:`derived_path`).
    """

    #: ``storage`` is ``"mmap"``, or the sharing graph's tag where a
    #: worker maps a RAM graph's store (:mod:`repro.graph.csr`)
    __slots__ = ("store_path", "fingerprint", "builder_stats",
                 "derived_from", "storage")

    def _derive(self, builder: str) -> None:
        """Map every :data:`DERIVED` array from the derived section,
        whichever ``builder`` was asked for. A section that is missing
        or stale — derived from another store, row budget or table
        version, or short of a table array — is built with the
        :class:`Graph` code and written first (two processes racing
        write the same bytes; one rename wins). Where the directory
        takes no file the build is kept."""
        path = derived_path(self.store_path)
        source = {**self.derived_from, "version": DERIVED_VERSION,
                  "row_budget": self.DENSE_ADJACENCY_BYTES}
        header = read_header(path) if path.exists() else None
        if (header is None or header.get("derived_from") != source
                or header["arrays"].keys() != set(DERIVED._fields)):
            for group in dict.fromkeys(spec.builder for spec in DERIVED):
                Graph._derive(self, group)
            built = {name: getattr(self, "_" + name)
                     for name in DERIVED._fields}
            try:
                _write_store_file(path, built, self.directed,
                                  self.num_vertices, derived_from=source)
            except OSError:
                return
            header = read_header(path)
        for name, array in _mapped(path, header).items():
            setattr(self, "_" + name, array)


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
    """CRC32 of an array's raw bytes, read in place in bounded slices
    (a memmapped operand is never pulled into memory whole)."""
    view = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
    crc = 0
    for start in range(0, view.nbytes, _CRC_BLOCK):
        crc = zlib.crc32(view[start:start + _CRC_BLOCK], crc)
    return crc


def _layout(arrays: dict[str, np.ndarray], crcs: dict[str, int],
            header_hint: int = 4096):
    """Assign aligned offsets after a header of roughly ``header_hint``
    bytes; returns (sections, total_bytes). Re-run with the real header
    length until stable (the JSON mentions the offsets it implies), so
    ``crcs`` are taken once. An array of several dimensions records its
    shape; ``None``, ``null``."""
    offset = _aligned(_PREAMBLE.size + header_hint)
    sections = {}
    for name, array in arrays.items():
        if array is None:
            sections[name] = None
            continue
        sections[name] = {
            "dtype": array.dtype.str,
            "length": int(array.size),
            **({"shape": list(array.shape)} if array.ndim > 1 else {}),
            "offset": offset,
            "crc32": crcs[name],
        }
        offset = _aligned(offset + array.nbytes)
    return sections, offset


def _header_bytes(
    directed: bool,
    num_vertices: int,
    sections: dict,
    total_bytes: int,
    builder: Optional[dict],
    extra: dict,
) -> bytes:
    header = {
        "format": "khuzdul-csr-store",
        "version": STORE_VERSION,
        "directed": bool(directed),
        "num_vertices": int(num_vertices),
        "arrays": sections,
        "total_bytes": int(total_bytes),
        "builder": builder or {},
        **extra,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _reap_orphans(path: Path) -> None:
    """Remove the tmp files (``<name>.<pid>.*.tmp``) that writers of
    ``path`` killed before their rename left behind."""
    for tmp in path.parent.glob(glob.escape(path.name) + ".*.tmp"):
        try:
            os.kill(int(tmp.name[len(path.name) + 1:].split(".")[0]), 0)
        except ProcessLookupError:  # its writer is dead
            tmp.unlink(missing_ok=True)
        except (ValueError, OSError):  # not a pid; another user's process
            pass


def _write_store_file(
    path: Path,
    arrays: dict[str, np.ndarray],
    directed: bool,
    num_vertices: int,
    builder: Optional[dict] = None,
    **extra,
) -> None:
    """Write one store file atomically (tmp + rename); ``extra`` are
    further header fields."""
    # offsets depend on header length, header mentions offsets; a
    # layout with the real length converges because offsets are
    # monotone in the header size and aligned — a third round covers
    # the rare length flip at an alignment edge
    crcs = {name: _array_crc(array) for name, array in arrays.items()
            if array is not None}
    hint = 4096
    for _ in range(3):
        sections, total = _layout(arrays, crcs, header_hint=hint)
        header = _header_bytes(directed, num_vertices, sections, total,
                               builder, extra)
        if _aligned(_PREAMBLE.size + len(header)) == sections_start(sections):
            break
        hint = len(header)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _reap_orphans(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_PREAMBLE.pack(
                MAGIC, STORE_VERSION, len(header), zlib.crc32(header)
            ))
            handle.write(header)
            for name, array in arrays.items():
                if array is not None:
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
    return min((s["offset"] for s in sections.values() if s), default=0)


def derived_path(store: str | os.PathLike) -> Path:
    """The derived section of ``store``: the file beside it named
    ``<store>.derived``."""
    return Path(f"{os.fspath(store)}.derived")


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
    derived_path(path).unlink(missing_ok=True)
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


def _mapped(path: Path, header: dict,
            verify: bool = False) -> dict[str, np.ndarray]:
    """Every array of a store file, in its recorded shape, as a
    read-only view of one mapping of it (one file descriptor however
    many arrays), ``None`` where the header records ``null``; ``verify``
    checks each against its recorded CRC32."""
    with open(path, "rb") as handle:
        whole = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    arrays = {}
    for name, spec in header["arrays"].items():
        if spec is None:
            arrays[name] = None
            continue
        array = arrays[name] = np.ndarray(
            spec.get("shape", spec["length"]), spec["dtype"],
            buffer=whole, offset=spec["offset"])
        if verify and _array_crc(array) != spec["crc32"]:
            raise GraphFormatError(
                f"{path}: corrupt store: array {name!r} fails its "
                f"recorded CRC32"
            )
    return arrays


def open_store(path: str | os.PathLike, verify: bool = False) -> MmapGraph:
    """Open a store read-only; the returned graph's arrays are views of
    one mapping of it (nothing is loaded eagerly beyond
    ``indptr`` validation).

    ``verify=True`` additionally checks every array's recorded CRC32,
    the derived section's too where there is one — a full sequential
    read, so it is opt-in (builders verify their own output; servers
    trust the header + size check).
    """
    path = Path(path)
    header = read_header(path)
    arrays = _mapped(path, header, verify)
    section = derived_path(path)
    if verify and section.exists():
        _mapped(section, read_header(section), verify)
    try:
        graph = MmapGraph(
            arrays["indptr"], arrays["indices"], arrays.get("labels"),
            header["directed"], arrays.get("edge_labels"),
        )
    except GraphFormatError as exc:
        # the mapped arrays parse but do not form a valid CSR graph
        raise GraphFormatError(
            f"{path}: corrupt store: {exc}"
        ) from exc
    graph.store_path = str(path)
    graph.storage = "mmap"
    graph.fingerprint = header["_fingerprint"]
    graph.builder_stats = dict(header.get("builder") or {})
    graph.derived_from = {"fingerprint": graph.fingerprint,
                          "arrays": header["arrays"]}
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
    """One batch through the builders' normalization.

    Returns ``(keys, labels, ranks, max_id, kept_rows, raw_rows)``:
    composite ``(u << 32) | v`` keys of every directed entry the batch
    contributes (undirected edges mirrored), plus — when edge labels
    ride along — the labels and the global tie-break ranks of the
    first-occurrence-wins rule (all forward entries outrank all reverse
    entries; within each, input order wins). Self-loops are dropped
    from a labeled batch here, since ranks must skip them; an unlabeled
    batch keeps a loop as :data:`_LOOP_KEY`, which
    :func:`_dedup_sorted_run` cuts off. The caller's array is only
    read.
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

    src, dst = edges[:, 0], edges[:, 1]
    same = src == dst
    loops = np.flatnonzero(same)
    if elabels is not None and len(loops):
        keep = ~same
        src, dst, elabels = src[keep], dst[keep], elabels[keep]
    rows = len(src)
    keys = np.empty(rows if directed else 2 * rows, dtype=np.int64)
    directions = [(keys[:rows], src, dst)]
    if not directed:
        directions.append((keys[rows:], dst, src))
    for out, high, low in directions:
        np.left_shift(high, 32, out=out)
        out |= low
    if elabels is None:
        for out, _, _ in directions:
            out[loops] = _LOOP_KEY
        return keys, None, None, max_id, rows - len(loops), raw_rows
    labels = elabels.astype(np.int32)
    ranks = np.arange(kept_base, kept_base + rows, dtype=np.int64)
    if not directed:
        labels = np.concatenate([labels, labels])
        ranks = np.concatenate([ranks, ranks + _REVERSE_RANK_BASE])
    return keys, labels, ranks, max_id, rows, raw_rows


def _dedup_sorted_run(keys, labels, ranks):
    """Sort one run by key and collapse duplicate keys, keeping the
    lowest-ranked occurrence; ``keys`` is the caller's to reorder. A
    run without ranks (nor labels) has no permutation to carry: its
    keys are sorted in place, and the loop keys that sort last are cut
    off."""
    if ranks is None:
        keys.sort()
        keys = keys[:np.searchsorted(keys, _LOOP_KEY)]
    else:
        order = np.lexsort((ranks, keys))
        keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if ranks is not None:
        order = order[first]
        return keys[first], labels[order], ranks[order]
    # a gather by index: faster than a boolean mask on a random pattern
    return keys[np.flatnonzero(first)], None, None


class _Run(NamedTuple):
    """One sorted, key-unique spill run; an unlabeled one has neither
    labels nor ranks."""

    keys: np.ndarray
    labels: Optional[np.ndarray]
    ranks: Optional[np.ndarray]


class _RunSet:
    """Sorted, key-unique spill runs — on disk or in memory.

    With a spill directory, each run but the last is saved via
    ``np.save`` and read back through ``np.load(mmap_mode='r')`` so the
    merge touches only the window it is consuming; the last run, which
    the merge follows at once, stays in memory, as every run does
    without one (the in-RAM builder path). Either way the merge code is
    identical.
    """

    def __init__(self, spill_dir: Optional[Path]):
        self._spill_dir = spill_dir
        self.runs: list[_Run] = []

    def add(self, keys, labels, ranks, last: bool) -> None:
        run = _Run(keys, labels, ranks)
        if self._spill_dir is not None and not last:
            index = len(self.runs)
            spilled = []
            for field, array in zip(_Run._fields, run):
                if array is not None:
                    target = self._spill_dir / f"run{index}.{field}.npy"
                    np.save(target, array)
                    array = np.load(target, mmap_mode="r")
                spilled.append(array)
            run = _Run(*spilled)
        self.runs.append(run)


def _merge_runs(
    runs: list[_Run],
    chunk: int,
    emit,
) -> int:
    """K-way vectorized merge of sorted key-unique runs.

    Each step windows every run, takes all entries strictly below the
    smallest not-yet-fully-windowed run's last visible key (so a key
    can never straddle two steps), sorts the gathered block once, and
    collapses cross-run duplicates lowest-rank-first; a block from one
    run is already sorted and key-unique, and goes out as it is. Memory
    stays at ``O(len(runs) * chunk)`` entries. Returns the merge-step
    count. Labeled runs carry ranks, unlabeled ones neither.
    """
    labeled = any(run.labels is not None for run in runs)
    pos = [0] * len(runs)
    lengths = [len(run.keys) for run in runs]
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
                last = int(runs[i].keys[end - 1])
                if bound is None or last < bound:
                    bound = last
        key_parts, label_parts, rank_parts = [], [], []
        took = False
        for i in active:
            keys = np.asarray(runs[i].keys[pos[i]:ends[i]])
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
                    np.asarray(runs[i].labels[pos[i]:pos[i] + take])
                )
                rank_parts.append(
                    np.asarray(runs[i].ranks[pos[i]:pos[i] + take])
                )
            pos[i] += take
        if not took:
            # every visible window is pinned at the bound key; widen
            # the windows until the bounding run reveals what follows
            window *= 2
            continue
        window = chunk
        keys = key_parts[0]
        labels = label_parts[0] if labeled else None
        if len(key_parts) > 1:
            keys, labels, _ = _dedup_sorted_run(
                np.concatenate(key_parts),
                np.concatenate(label_parts) if labeled else None,
                np.concatenate(rank_parts) if labeled else None,
            )
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
        #: whether the stream carries edge labels (every batch alike)
        self.labeled = False
        self._runs = _RunSet(spill_dir)
        self._buffer: list[tuple] = []
        self._buffered = 0
        self._kept_rows = 0
        self._source_edges = 0
        self._max_id = -1

    def consume(self, batches: Iterable) -> None:
        """Normalize every batch into sorted, key-unique runs."""
        for index, batch in enumerate(batches):
            # a full buffer spills when another batch arrives, so the
            # run a stream ends on is never written and read back
            if self._buffered >= self.run_entries:
                self._spill()
            if isinstance(batch, tuple):
                edges, elabels = batch
            else:
                edges, elabels = batch, None
            if index == 0:
                self.labeled = elabels is not None
            elif self.labeled != (elabels is not None):
                this = "carries no" if self.labeled else "carries"
                first = "does" if self.labeled else "does not"
                raise GraphFormatError(
                    f"edge batch {index} {this} edge labels but batch 0 "
                    f"{first}; every batch of a stream must be alike"
                )
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
        self._spill(last=True)

    def _spill(self, last: bool = False) -> None:
        if not self._buffer:
            return
        run = [
            None if parts[0] is None
            else parts[0] if len(parts) == 1 else np.concatenate(parts)
            for parts in zip(*self._buffer)
        ]
        self._buffer.clear()
        self._buffered = 0
        keys, labels, ranks = _dedup_sorted_run(*run)
        if len(keys):  # not a run of self-loops only
            self._runs.add(keys, labels, ranks, last)

    def finish(self, emit) -> tuple[np.ndarray, int, int]:
        """Merge every run, in key order, into ``emit(targets,
        labels)`` (``targets`` an ``int32`` view); returns ``(indptr,
        spill_runs, merge_batches)``."""
        num_vertices = (
            self.num_vertices if self.num_vertices is not None
            else self._max_id + 1
        )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        degrees = indptr[1:]

        def count(keys: np.ndarray, labels: Optional[np.ndarray]) -> None:
            # a key's int32 halves are its source and target
            halves = keys.view(np.int32).reshape(-1, 2)
            sources = halves[:, _HIGH]
            low = int(sources[0])
            block = np.bincount(sources - low)
            degrees[low:low + len(block)] += block
            emit(halves[:, _LOW], labels)

        merge_batches = _merge_runs(self._runs.runs, self.merge_chunk, count)
        np.cumsum(degrees, out=degrees)
        return indptr, len(self._runs.runs), merge_batches

    @property
    def source_edges(self) -> int:
        return self._source_edges

    @property
    def capacity(self) -> int:
        """Entries the runs hold: the adjacency's length, unless a key
        recurs across runs."""
        return sum(len(run.keys) for run in self._runs.runs)


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
    ``(edges, edge_labels)`` tuple for edge-labeled input; every batch
    of a stream must be alike. The result is bit-identical to the
    eager normalization of every batch concatenated (the oracle in
    ``tests/reference.py``, pinned by ``tests/test_storage.py``), and
    peak transient memory is bounded by the run/merge windows instead
    of the whole edge list.
    """
    builder = _StreamingCsrBuilder(
        directed, num_vertices, None, run_entries, merge_chunk
    )
    builder.consume(batches)
    capacity = builder.capacity
    indices = np.empty(capacity, dtype=np.int32)
    edge_labels = (
        np.empty(capacity, dtype=np.int32) if builder.labeled else None
    )
    filled = 0

    def emit(targets: np.ndarray, elabels: Optional[np.ndarray]) -> None:
        nonlocal filled
        indices[filled:filled + len(targets)] = targets
        if elabels is not None:
            edge_labels[filled:filled + len(targets)] = elabels
        filled += len(targets)

    indptr, _, _ = builder.finish(emit)
    if filled < capacity:  # cross-run duplicates collapsed
        indices = indices[:filled].copy()
        if edge_labels is not None:
            edge_labels = edge_labels[:filled].copy()
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
    directory (all but the last, which stays in memory), and a final
    k-way merge streams the globally sorted adjacency straight to disk
    while a counting pass accumulates per-vertex degrees for
    ``indptr``. The finished file carries the
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
        entries = 0

        def emit(targets: np.ndarray, elabels: Optional[np.ndarray]) -> None:
            nonlocal entries
            # tofile writes a strided view one element at a time
            np.ascontiguousarray(targets).tofile(indices_tmp)
            entries += len(targets)
            if elabels is not None:
                np.ascontiguousarray(elabels).tofile(elabels_tmp)

        def written(handle):
            handle.flush()
            return np.memmap(
                handle, dtype=np.int32, mode="r", shape=(entries,)
            ) if entries else np.zeros(0, dtype=np.int32)

        indptr, spill_runs, merge_batches = builder.finish(emit)
        n = len(indptr) - 1
        arrays: dict[str, np.ndarray] = {
            "indptr": indptr, "indices": written(indices_tmp),
        }
        if labels is not None:
            label_array = np.asarray(labels, dtype=np.int32)
            if len(label_array) != n:
                raise GraphFormatError(
                    "labels length must equal num_vertices"
                )
            arrays["labels"] = label_array
        if builder.labeled:
            arrays["edge_labels"] = written(elabels_tmp)
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
        derived_path(path).unlink(missing_ok=True)
        # release the scratch mappings before TemporaryDirectory sweeps
        arrays.clear()
        indices_tmp.close()
        elabels_tmp.close()
    return stats
