"""Out-of-core graph storage (docs/storage.md).

Four invariants under test:

1. **Builder parity** — there is one normalization path:
   :func:`~repro.graph.builder.from_edge_array` is the streaming
   external-sort builder fed one batch (a source tripwire holds it so),
   and both produce bit-identical CSR arrays to the eager oracle
   ``tests.reference.from_edge_array_eager``, for any batch split,
   including the edge-label first-occurrence-wins tie-break across
   forward/reverse duplicates; a stream mixing labeled and unlabeled
   batches is rejected by name; and a store round-trips (build →
   reopen → ``Graph.__eq__``).
2. **Store hygiene** — truncated, corrupt, foreign, or stale store
   files are rejected by name with a structured
   :class:`~repro.errors.GraphFormatError`, never a numpy error deep
   inside a worker (the PR-7 manifest discipline).
3. **Engine transparency** — counts, metrics, and every simulated
   measurement are bit-identical across ``{ram, mmap}`` x
   ``{inline, process}``: storage is invisible
   to everything except byte accounting (admission baselines and the
   ``storage.*`` metric family).
4. **The derived section** — what the kernels derive from a store is
   built once, written beside it and mapped by every later process:
   mapped arrays equal built ones, a stale section is rebuilt, a
   damaged one is rejected by name like a store.

Run alone via ``make storage-check``.
"""

import ast
import inspect
import json
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.cache import EdgeCache
from repro.errors import ConfigurationError, GraphFormatError
from repro.exec import ProcessBackend
from repro.graph import Graph, dataset, from_edges, load_dataset
from repro.graph import builder, storage
from repro.graph.builder import (
    from_edge_array,
    iter_edge_list_batches,
    read_edge_list,
)
from repro.graph.csr import MmapCsrHandle, attach_csr, share_csr
from repro.graph.generators import power_law_edge_batches
from repro.graph.graph import DERIVED, DERIVED_VERSION, HubColumns
from repro.graph.orientation import orient_by_degree
from repro.graph.storage import (
    DEFAULT_MERGE_CHUNK,
    DEFAULT_RUN_ENTRIES,
    MmapGraph,
    build_store,
    derived_path,
    from_edge_batches,
    open_store,
    read_header,
    resolve_storage,
    write_store,
)
from repro.obs import Observability, names
from repro.obs.render import render_metrics_json
from repro.patterns import catalog
from repro.service.admission import (
    AdmissionController,
    resident_baseline_bytes,
)
from repro.systems import KAutomine
from tests.reference import (
    from_edge_array_eager,
    hit_rate,
    iter_graph_edge_batches,
)


def _random_edges(m, n, seed, with_labels=False):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    if with_labels:
        return edges, rng.integers(0, 7, size=m)
    return edges, None


def _batches(edges, labels=None, batch=509):
    for start in range(0, len(edges), batch):
        chunk = edges[start:start + batch]
        if labels is None:
            yield chunk
        else:
            yield chunk, labels[start:start + batch]


# ======================================================================
# streaming builder parity
# ======================================================================
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("labeled", [False, True])
def test_streaming_builder_matches_eager(directed, labeled):
    edges, elabels = _random_edges(20000, 700, seed=5, with_labels=labeled)
    reference = from_edge_array_eager(
        edges, num_vertices=700, directed=directed, edge_labels=elabels
    )
    # tiny runs/chunks force many spill runs and merge steps
    streamed = from_edge_batches(
        _batches(edges, elabels), num_vertices=700, directed=directed,
        run_entries=2048, merge_chunk=1024,
    )
    assert streamed == reference


#: bytes a normalized entry costs at a spill's peak, and at a merge
#: step's peak per entry of its window (docs/storage.md, "The streaming
#: builder")
ENTRY_BYTES = {False: 32, True: 72}


@pytest.mark.parametrize("labeled", [False, True])
def test_builder_memory_is_bounded_by_its_knobs(labeled, tmp_path,
                                                monkeypatch):
    run_entries, merge_chunk, n, rows = 4096, 1024, 4096, 512
    saves = []
    save = np.save
    monkeypatch.setattr(
        np, "save", lambda *args: (saves.append(args[0]), save(*args)))

    def build(runs):
        # generated lazily: the builder holds one batch, never the stream
        def stream():
            rng = np.random.default_rng(runs)
            for _ in range(runs * run_entries // (2 * rows)):
                edges = rng.integers(0, n, size=(rows, 2))
                yield (edges, rng.integers(0, 7, size=rows)) if labeled \
                    else edges
        return build_store(stream(), tmp_path / f"{runs}.kcsr",
                           num_vertices=n, run_entries=run_entries,
                           merge_chunk=merge_chunk)

    build(2)  # first-call allocations are not the builder's
    for runs in (1, 4, 16, 64):
        saves.clear()
        tracemalloc.start()
        try:
            stats = build(runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a run holds under run_entries plus one batch; the merge holds
        # at most merge_chunk entries of every run; indptr and one
        # window's degree counts take 8 bytes a vertex each
        bound = (ENTRY_BYTES[labeled]
                 * (run_entries + 2 * rows + stats.spill_runs * merge_chunk)
                 + 16 * (n + 1))
        assert peak <= bound, (runs, stats, peak, bound)
        # every run is spilled but the last, which is merged from memory
        fields = 3 if labeled else 1
        assert len(saves) == fields * (stats.spill_runs - 1), (runs, stats)


def test_streaming_builder_any_batch_split():
    edges, _ = _random_edges(3000, 64, seed=9)
    reference = from_edge_array_eager(edges, num_vertices=64)
    for batch in (1, 7, 501, 3000):
        streamed = from_edge_batches(
            _batches(edges, batch=batch), num_vertices=64,
            run_entries=1024, merge_chunk=1024,
        )
        assert streamed == reference, f"diverged at batch={batch}"


def test_edge_label_tie_break_across_batches():
    """First occurrence wins when duplicates collapse — including a
    forward edge beating its own reversed duplicate — no matter how
    the input is split across builder batches."""
    edges = np.array([[1, 2], [2, 1], [3, 4], [3, 4], [4, 3], [0, 0]])
    elabels = np.array([10, 20, 30, 40, 50, 60])
    reference = from_edge_array_eager(edges, num_vertices=5,
                                      edge_labels=elabels)
    for batch in (1, 2, 3, 6):
        streamed = from_edge_batches(
            _batches(edges, elabels, batch=batch), num_vertices=5,
            run_entries=1024, merge_chunk=1024,
        )
        assert streamed == reference, f"diverged at batch={batch}"


def test_builder_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        from_edge_batches([np.array([[1, 2, 3]])])
    with pytest.raises(GraphFormatError):
        from_edge_batches([np.array([[-1, 2]])])
    with pytest.raises(GraphFormatError):
        from_edge_batches([np.array([[0, 9]])], num_vertices=4)


def test_empty_stream_builds_empty_graph():
    graph = from_edge_batches([], num_vertices=3)
    assert graph.num_vertices == 3
    assert graph.num_edges == 0


def _assert_bit_equal(got: Graph, want: Graph) -> None:
    assert got.directed == want.directed
    for name in ("indptr", "indices", "labels", "edge_labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 2500),
    ids=st.integers(1, 400),
    extra=st.sampled_from([None, 0, 1, 9]),
    directed=st.booleans(),
    labeled=st.booleans(),
    loop_first=st.booleans(),
    loop_last=st.booleans(),
    loop_batch=st.integers(0, 40),
    cuts=st.lists(st.integers(0, 3000), max_size=6),
    run_entries=st.sampled_from([1024, DEFAULT_RUN_ENTRIES]),
    merge_chunk=st.sampled_from([1024, DEFAULT_MERGE_CHUNK]),
)
def test_builders_equal_eager_oracle(seed, rows, ids, extra, directed,
                                     labeled, loop_first, loop_last,
                                     loop_batch, cuts, run_entries,
                                     merge_chunk):
    """``from_edge_array`` and ``from_edge_batches`` under any split
    equal the eager oracle bit for bit: self-loops in the first and last
    row and an all-loop batch, duplicates and reversed duplicates,
    labeled or not, directed or not, spare vertices, empty input."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, ids, size=(rows, 2))
    again = edges[rng.integers(0, rows, size=rows // 4)] if rows else edges
    edges = np.concatenate([edges, again, again[:, ::-1]])
    edges = edges[rng.permutation(len(edges))]
    at = int(rng.integers(0, len(edges) + 1))
    loops = np.repeat(rng.integers(0, ids, size=(loop_batch, 1)), 2, axis=1)
    edges = np.concatenate([edges[:at], loops, edges[at:]])
    if len(edges) and loop_first:
        edges[0] = edges[0, 0]
    if len(edges) and loop_last:
        edges[-1] = edges[-1, 1]
    elabels = rng.integers(0, 5, size=len(edges)) if labeled else None
    top = int(edges.max()) + 1 if len(edges) else 0
    n = None if extra is None else top + extra
    want = from_edge_array_eager(edges, n, directed=directed,
                                 edge_labels=elabels)

    _assert_bit_equal(from_edge_array(edges, n, directed=directed,
                                      edge_labels=elabels), want)
    bounds = sorted({0, len(edges), at, at + loop_batch,
                     *(c for c in cuts if c <= len(edges))})
    pieces = [slice(a, b) for a, b in zip(bounds, bounds[1:])] or [
        slice(0, 0)]
    batches = [edges[cut] if elabels is None else (edges[cut], elabels[cut])
               for cut in pieces]
    _assert_bit_equal(
        from_edge_batches(batches, n, directed=directed,
                          run_entries=run_entries, merge_chunk=merge_chunk),
        want,
    )


def test_from_edge_array_reads_its_input_only():
    edges, elabels = _random_edges(4000, 90, seed=3, with_labels=True)
    edges[::7, 1] = edges[::7, 0]  # self-loops
    before = edges.copy(), elabels.copy()
    for directed in (False, True):
        for labels in (None, elabels):
            from_edge_array(edges, directed=directed, edge_labels=labels)
    assert np.array_equal(edges, before[0])
    assert np.array_equal(elabels, before[1])


@pytest.mark.parametrize("rows", [2, 5])
def test_from_edge_array_takes_a_tuple_of_pairs(rows):
    """A tuple batch means ``(edges, labels)`` to the streaming builder;
    a tuple of pairs given to ``from_edge_array`` is still edges."""
    edges, elabels = _random_edges(rows, 6, seed=rows, with_labels=True)
    pairs = tuple(map(tuple, edges.tolist()))
    assert from_edge_array(pairs) == from_edge_array(edges)
    assert (from_edge_array(pairs, edge_labels=elabels)
            == from_edge_array(edges, edge_labels=elabels))


@pytest.mark.parametrize("run_entries", [1024, DEFAULT_RUN_ENTRIES])
@pytest.mark.parametrize("labeled_first", [True, False])
def test_mixed_labeled_and_unlabeled_batches_rejected(labeled_first,
                                                      run_entries, tmp_path):
    """Every batch of a stream carries edge labels or none does; the
    first batch that differs is named, and ``build_store`` leaves no
    store and no scratch behind."""
    edges, elabels = _random_edges(3000, 100, seed=4, with_labels=True)
    labeled = list(_batches(edges[:1500], elabels[:1500], batch=500))
    bare = list(_batches(edges[1500:], batch=500))
    stream = labeled + bare if labeled_first else bare + labeled
    match = (r"edge batch 3 carries no edge labels but batch 0 does"
             if labeled_first else
             r"edge batch 3 carries edge labels but batch 0 does not")
    with pytest.raises(GraphFormatError, match=match):
        from_edge_batches(iter(stream), run_entries=run_entries,
                          merge_chunk=1024)
    store = tmp_path / "stores"
    store.mkdir()
    with pytest.raises(GraphFormatError, match=match):
        build_store(iter(stream), store / "g.kcsr",
                    run_entries=run_entries, merge_chunk=1024)
    assert list(store.iterdir()) == []


# the builder module makes none of these calls: its one normalizer is
# the streaming builder's
SORTS = {"unique", "lexsort", "argsort", "sort"}


def test_one_normalization_path():
    def called(tree):
        return {getattr(node.func, "attr", getattr(node.func, "id", None))
                for node in ast.walk(tree) if isinstance(node, ast.Call)}

    tree = ast.parse(inspect.getsource(builder))
    assert not called(tree) & SORTS
    eager = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "from_edge_array")
    assert called(eager) == {"asarray", "from_edge_batches"}


# ======================================================================
# chunked edge-list parsing
# ======================================================================
def test_read_edge_list_chunked_matches_eager(tmp_path):
    edges, _ = _random_edges(5000, 300, seed=11)
    path = tmp_path / "edges.txt"
    with open(path, "w") as handle:
        handle.write("# comment\n% other comment\n\n")
        for u, v in edges:
            handle.write(f"{u} {v}\n")
    reference = from_edge_array_eager(edges)
    for batch in (17, 1024, 10**6):
        assert read_edge_list(path, batch_edges=batch) == reference
    total = sum(len(b) for b in iter_edge_list_batches(path, 100))
    assert total == len(edges)
    assert all(len(b) <= 100
               for b in iter_edge_list_batches(path, 100))


def test_read_edge_list_errors_name_file_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:2: expected"):
        read_edge_list(path)
    path.write_text("1 2\nx y\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:2: non-integer"):
        read_edge_list(path)


# ======================================================================
# store round-trip and rejection
# ======================================================================
def test_store_round_trip(tmp_path):
    edges, elabels = _random_edges(8000, 400, seed=21, with_labels=True)
    reference = from_edge_array_eager(
        edges, num_vertices=400, edge_labels=elabels
    ).with_labels(np.arange(400) % 3)
    path = tmp_path / "g.kcsr"
    stats = build_store(
        _batches(edges, elabels), path, num_vertices=400,
        labels=np.arange(400) % 3, run_entries=2048, merge_chunk=1024,
    )
    assert stats.spill_runs >= 2  # the tiny run size forced spills
    reopened = open_store(path, verify=True)
    assert isinstance(reopened, MmapGraph)
    assert reopened.storage == "mmap"
    assert reopened == reference
    assert reopened.builder_stats["spill_runs"] == stats.spill_runs
    # memmap views are read-only: the store cannot be scribbled on
    assert not reopened.indices.flags.writeable


def test_write_store_round_trip(tmp_path):
    graph = dataset("mico", scale=0.3, labeled=True)
    path = tmp_path / "mico.kcsr"
    write_store(graph, path)
    assert open_store(path, verify=True) == graph


@pytest.mark.parametrize("spilled", [False, True])
@pytest.mark.parametrize("labeled", [False, True])
def test_build_store_sections_equal_write_store(labeled, spilled, tmp_path):
    edges, elabels = _random_edges(8000, 400, seed=23, with_labels=labeled)
    vertex_labels = np.arange(400) % 3 if labeled else None
    knobs = {"run_entries": 2048, "merge_chunk": 1024} if spilled else {}
    stats = build_store(
        _batches(edges, elabels), tmp_path / "built.kcsr",
        num_vertices=400, labels=vertex_labels, **knobs,
    )
    assert (stats.spill_runs > 1) == spilled
    write_store(
        from_edge_batches(_batches(edges, elabels), num_vertices=400,
                          labels=vertex_labels),
        tmp_path / "written.kcsr",
    )

    def sections(name):
        return {array: (section["dtype"], section["length"],
                        section["crc32"])
                for array, section in
                read_header(tmp_path / name)["arrays"].items()}

    assert sections("built.kcsr") == sections("written.kcsr")
    assert ("edge_labels" in sections("built.kcsr")) == labeled


def test_every_tofile_writes_a_contiguous_copy():
    # ndarray.tofile writes a strided view one element at a time
    writes = [node for node in ast.walk(ast.parse(inspect.getsource(storage)))
              if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "tofile"]
    assert writes
    for node in writes:
        source = node.func.value
        assert (isinstance(source, ast.Call)
                and ast.unparse(source.func) == "np.ascontiguousarray"), (
            f"line {node.lineno}: {ast.unparse(node)}")


def test_graph_edge_batches_round_trip(tmp_path):
    graph = dataset("mico", scale=0.3)
    rebuilt = from_edge_batches(
        iter_graph_edge_batches(graph, 512),
        num_vertices=graph.num_vertices,
    )
    assert rebuilt == graph


def test_store_rejections(tmp_path):
    graph = dataset("mico", scale=0.2)
    path = tmp_path / "g.kcsr"
    write_store(graph, path)
    raw = path.read_bytes()

    def rejects(name, data, needle):
        target = tmp_path / name
        target.write_bytes(data)
        with pytest.raises(GraphFormatError, match=needle):
            open_store(target, verify=True)

    rejects("trunc.kcsr", raw[:len(raw) // 2], "truncated store")
    rejects("tiny.kcsr", raw[:8], "truncated store")
    rejects("foreign.kcsr", b"XXXX" + raw[4:], "not a Khuzdul CSR store")
    stale = raw[:4] + struct.pack("<I", 99) + raw[8:]
    rejects("stale.kcsr", stale, "stale store version 99")
    flipped_header = bytearray(raw)
    flipped_header[20] ^= 0xFF
    rejects("hdr.kcsr", bytes(flipped_header), "corrupt store header")
    # a flipped byte inside an array section passes the cheap open but
    # fails the opt-in full verify
    offset = read_header(path)["arrays"]["indices"]["offset"]
    flipped_array = bytearray(raw)
    flipped_array[offset] ^= 0xFF
    damaged = tmp_path / "arr.kcsr"
    damaged.write_bytes(bytes(flipped_array))
    open_store(damaged)  # header + size still consistent
    with pytest.raises(GraphFormatError, match="recorded CRC32"):
        open_store(damaged, verify=True)
    with pytest.raises(GraphFormatError):
        open_store(tmp_path / "missing.kcsr")


def test_resolve_storage_policy():
    assert resolve_storage("ram", 10**9, 1) == "ram"
    assert resolve_storage("mmap", 1, 10**9) == "mmap"
    assert resolve_storage("auto", 100, 1000) == "ram"
    assert resolve_storage("auto", 1001, 1000) == "mmap"
    assert resolve_storage("auto", 10**9, None) == "ram"
    with pytest.raises(GraphFormatError):
        resolve_storage("disk", 1, 1)


def test_load_dataset_caches_and_rebuilds(tmp_path):
    ram = dataset("mico", scale=0.3)
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    assert mapped.storage == "mmap"
    assert mapped == ram
    store = tmp_path / "mico-s0.3-plain.kcsr"
    assert store.exists()
    # a corrupted cached store is rebuilt, not trusted
    store.write_bytes(store.read_bytes()[:64])
    again = load_dataset("mico", scale=0.3, storage="mmap",
                         store_dir=tmp_path)
    assert again == ram
    assert load_dataset("mico", scale=0.3, storage="ram").storage == "ram"


# ======================================================================
# worker distribution seam
# ======================================================================
def test_share_csr_mmap_is_pathonly_and_reattachable(tmp_path):
    ram = dataset("mico", scale=0.3)
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    shared = share_csr(mapped)
    try:
        handle = shared.handle
        assert isinstance(handle, MmapCsrHandle)
        # no segments: the durability ledger records nothing to reap
        assert handle.segment_names() == []
        revived = pickle.loads(pickle.dumps(handle))
        attached = attach_csr(revived)
        try:
            assert attached.graph == ram
            assert attached.graph.storage == "mmap"
        finally:
            attached.close()
    finally:
        shared.unlink()  # must be a safe no-op for mmap handles


def test_attach_csr_rejects_swapped_store(tmp_path):
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    handle = share_csr(mapped).handle
    # rebuild the store with a different graph behind the same path
    write_store(dataset("mico", scale=0.2), handle.path)
    with pytest.raises(ConfigurationError, match="fingerprint"):
        attach_csr(handle)


# ======================================================================
# engine transparency: {ram,mmap} x {inline,process}
# ======================================================================
def _run(graph, backend, pattern=None):
    obs = Observability()
    system = KAutomine(
        graph,
        ClusterConfig(num_machines=4),
        EngineConfig(),
        graph_name="mico",
        obs=obs,
        backend=backend,
    )
    report = system.count_pattern(pattern or catalog.clique(3))
    snapshot = obs.registry.snapshot()
    # two deliberate exclusions: storage.* exists to *describe* the
    # mmap backing, and exec.* is measured wall-clock (it differs
    # between any two process-backend runs, storage aside); everything
    # else — every simulated measurement — must match bit for bit
    trimmed = {
        kind: {
            name: series for name, series in table.items()
            if not name.startswith(("storage.", "exec."))
        }
        for kind, table in snapshot.items()
    }
    return report, trimmed


def test_counts_and_metrics_identical_across_storage(tmp_path):
    ram = dataset("mico", scale=0.3)
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    for label in ("inline", "process"):
        backend = ProcessBackend(workers=2) if label == "process" else None
        ram_report, ram_counters = _run(ram, backend)
        backend = ProcessBackend(workers=2) if label == "process" else None
        mmap_report, mmap_counters = _run(mapped, backend)
        assert mmap_report.counts == ram_report.counts, label
        assert mmap_report.simulated_seconds == \
            ram_report.simulated_seconds, label
        assert mmap_report.network_bytes == \
            ram_report.network_bytes, label
        assert mmap_report.cache_hit_rate == \
            ram_report.cache_hit_rate, label
        assert mmap_report.peak_memory_bytes == \
            ram_report.peak_memory_bytes, label
        assert mmap_report.breakdown == ram_report.breakdown, label
        assert mmap_counters == ram_counters, label


def test_kernels_run_unmodified_on_memmap_arrays(tmp_path):
    """The acceptance criterion stated directly: the graph the kernels
    see is a plain ndarray interface — same dtypes, same values — with
    no storage branch anywhere in core/ (grep-pinned by
    test_no_isinstance_storage_branches_in_core)."""
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    ram = dataset("mico", scale=0.3)
    assert mapped.indptr.dtype == ram.indptr.dtype
    assert mapped.indices.dtype == ram.indices.dtype
    assert np.array_equal(mapped.degrees(), ram.degrees())
    values, offsets = mapped.neighbors_batch(np.array([0, 3, 7]))
    ref_values, ref_offsets = ram.neighbors_batch(np.array([0, 3, 7]))
    assert np.array_equal(values, ref_values)
    assert np.array_equal(offsets, ref_offsets)


def test_no_isinstance_storage_branches_in_core():
    """core/ never dispatches on the graph's storage class: the only
    permitted storage awareness is engine.py reading the duck-typed
    ``graph.storage`` tag when assembling the report."""
    import repro.core

    for path in Path(repro.core.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "MmapGraph" not in source, path.name
        assert "memmap" not in source, path.name


# ======================================================================
# the derived section
# ======================================================================
def _derived(graph) -> dict:
    """Every :data:`DERIVED` array of ``graph`` by its table name
    (``None`` where the graph has none), built or mapped through the
    accessors the kernels call."""
    graph.adjacency_keys()
    graph.word_ranks()
    return {name: getattr(graph, "_" + name) for name in DERIVED._fields}


def _assert_same_derived(got, expected):
    assert got.keys() == expected.keys()
    for name, array in expected.items():
        if array is None:
            assert got[name] is None, name
        else:
            assert got[name].dtype == array.dtype, name
            assert np.array_equal(got[name], array), name


def _refuse_builds(monkeypatch):
    """Make every in-RAM build of a derived structure raise."""
    def refuse(*args):
        raise AssertionError("a derived structure was rebuilt")

    for builder in {spec.builder for spec in DERIVED}:
        monkeypatch.setattr(Graph, builder, refuse)


def _edge_labeled():
    edges, elabels = _random_edges(3000, 300, seed=4, with_labels=True)
    return from_edge_array(edges, num_vertices=300, edge_labels=elabels)


SECTION_GRAPHS = {
    # hubs, columns and a tail list
    "hub-heavy": lambda: dataset("wdc", scale=1.0),
    # every vertex a hub: the columns are a view of the rows
    "dense": lambda: dataset("mico", scale=0.2),
    "directed": lambda: orient_by_degree(dataset("wdc", scale=1.0)),
    "labeled": lambda: dataset("mico", scale=0.2, labeled=True),
    "edge-labeled": _edge_labeled,
    "edgeless": lambda: from_edges([], num_vertices=20),
}


@pytest.mark.parametrize("shape", sorted(SECTION_GRAPHS))
def test_section_is_written_once_and_mapped_after(shape, tmp_path,
                                                  monkeypatch):
    ram = SECTION_GRAPHS[shape]()
    path = tmp_path / "g.kcsr"
    write_store(ram, path)
    expected = _derived(ram)
    built = open_store(path)
    _assert_same_derived(_derived(built), expected)
    assert derived_path(path).exists()
    header = read_header(derived_path(path))
    assert header["derived_from"]["fingerprint"] == built.fingerprint
    assert header["derived_from"]["arrays"] == read_header(path)["arrays"]

    _refuse_builds(monkeypatch)
    mapped = open_store(path, verify=True)
    _assert_same_derived(_derived(mapped), expected)
    assert not mapped.adjacency_keys().flags.writeable
    assert mapped.derived_bytes() == ram.derived_bytes()
    columns = mapped.hub_columns()
    if shape == "dense":
        assert columns.words.base is mapped.adjacency_matrix()[0]
    if shape in ("hub-heavy", "directed"):
        assert columns.tail_indptr is not None


@pytest.mark.parametrize("shape", ["labeled", "hub-heavy"])
def test_writer_takes_each_crc_once(shape, tmp_path, monkeypatch):
    """The header loop lays the file out up to three times; each
    array's CRC is taken once, before it, for the base file and for
    the derived section alike."""
    from repro.graph import storage

    crc = storage._array_crc
    calls = []

    def counted(array):
        calls.append(array)
        return crc(array)

    monkeypatch.setattr(storage, "_array_crc", counted)
    path = tmp_path / "g.kcsr"
    write_store(SECTION_GRAPHS[shape](), path)
    arrays = read_header(path)["arrays"]
    assert len(calls) == sum(spec is not None for spec in arrays.values())
    del calls[:]
    _derived(open_store(path))
    section = read_header(derived_path(path))["arrays"]
    assert len(calls) == sum(spec is not None for spec in section.values())


@pytest.mark.exec
def test_process_workers_map_the_section_a_first_run_wrote(
    tmp_path, monkeypatch
):
    """Counts, simulated seconds and every simulated counter agree
    between an inline run on the RAM graph, a two-worker run on a store
    without a section (whose workers write it) and one on the same
    store with it — where the forked workers cannot build at all."""
    ram = dataset("wdc", scale=1.0)
    path = tmp_path / "wdc.kcsr"
    write_store(ram, path)
    reference, reference_counters = _run(ram, None)
    runs = [_run(open_store(path), ProcessBackend(workers=2))]
    assert derived_path(path).exists()
    _refuse_builds(monkeypatch)
    runs.append(_run(open_store(path),
                     ProcessBackend(workers=2, start_method="fork")))
    for report, counters in runs:
        assert report.outcome == "OK"
        assert report.counts == reference.counts
        assert report.simulated_seconds == reference.simulated_seconds
        assert counters == reference_counters


def test_section_rejections(tmp_path):
    path = tmp_path / "g.kcsr"
    write_store(dataset("mico", scale=0.2), path)
    open_store(path).adjacency_keys()
    section = derived_path(path)
    raw = section.read_bytes()

    def rejects(data, needle):
        section.write_bytes(data)
        with pytest.raises(GraphFormatError, match=needle) as error:
            open_store(path).adjacency_keys()
        assert str(error.value).startswith(str(section))

    rejects(raw[:len(raw) // 2], "truncated store")
    rejects(b"XXXX" + raw[4:], "not a Khuzdul CSR store")
    flipped_header = bytearray(raw)
    flipped_header[20] ^= 0xFF
    rejects(bytes(flipped_header), "corrupt store header")
    # a flipped array byte maps (the header is intact) but fails the
    # opt-in full verify, by the section's name
    section.write_bytes(raw)
    offset = read_header(section)["arrays"]["keys"]["offset"]
    flipped_array = bytearray(raw)
    flipped_array[offset] ^= 0xFF
    section.write_bytes(bytes(flipped_array))
    open_store(path).adjacency_keys()
    with pytest.raises(GraphFormatError, match="recorded CRC32") as error:
        open_store(path, verify=True)
    assert str(error.value).startswith(str(section))


def test_stale_section_is_rebuilt(tmp_path, monkeypatch):
    path = tmp_path / "g.kcsr"
    write_store(dataset("mico", scale=0.2), path)
    open_store(path).adjacency_keys()
    old = derived_path(path).read_bytes()
    other = dataset("mico", scale=0.3)
    write_store(other, path)
    assert not derived_path(path).exists()  # a rewrite drops the section
    # a section left behind by the graph the store used to hold
    derived_path(path).write_bytes(old)
    mapped = open_store(path)
    _assert_same_derived(_derived(mapped), _derived(other))
    assert read_header(derived_path(path))["derived_from"]["fingerprint"] \
        == mapped.fingerprint
    # another row budget derives other rows: stale too
    monkeypatch.setattr(Graph, "DENSE_ADJACENCY_BYTES",
                        20 * other.adjacency_row_bytes)
    mapped = open_store(path)
    assert len(mapped.adjacency_matrix()[0]) == 20
    assert mapped.hub_columns().tail_indptr is not None
    # the streaming builder drops the section as well
    build_store(iter_graph_edge_batches(other), path,
                num_vertices=other.num_vertices)
    assert not derived_path(path).exists()


def _distinct_bytes(graph) -> int:
    """Bytes of every derived array the accessors hand out, an array
    another one views (a dense graph's columns are its rows) once."""
    seen = []
    for array in [*_derived(graph).values(), *(graph.hub_columns() or ())]:
        if array is not None and not any(
                np.may_share_memory(array, other) for other in seen):
            seen.append(array)
    return sum(array.nbytes for array in seen)


@pytest.mark.parametrize("shape", sorted(SECTION_GRAPHS))
def test_section_holds_the_table(shape, tmp_path):
    """A fresh section names every :data:`DERIVED` array: the ones the
    graph has in the table's dtype and shape, the others ``null`` (the
    hub columns, where no vertex has a row; the words and tail, where
    every vertex has one). ``derived_bytes`` is the sum over the built
    arrays, views once; the mapped arrays equal the RAM graph's."""
    ram = SECTION_GRAPHS[shape]()
    path = tmp_path / "g.kcsr"
    write_store(ram, path)
    expected = _derived(ram)
    mapped = open_store(path)
    _assert_same_derived(_derived(mapped), expected)
    arrays = read_header(derived_path(path))["arrays"]
    assert arrays.keys() == set(DERIVED._fields)
    for name, spec in zip(DERIVED._fields, DERIVED):
        array = expected[name]
        assert (arrays[name] is None) == (array is None), name
        if array is not None:
            assert array.dtype == spec.dtype, name
            assert arrays[name]["dtype"] == array.dtype.str, name
            assert arrays[name]["length"] == array.size, name
            assert arrays[name].get("shape", [array.size]) == \
                list(array.shape), name
    columns = set(HubColumns._fields)
    absent = {"hub-heavy": set(), "directed": set(), "edgeless": columns}
    assert {name for name, spec in arrays.items() if spec is None} == \
        absent.get(shape, columns - {HubColumns._fields[0]})
    assert mapped.derived_bytes() == ram.derived_bytes() == \
        _distinct_bytes(ram) == _distinct_bytes(mapped)


OLD_SECTIONS = ["no-version", "older-version",
                *(f"missing-{name}" for name in DERIVED._fields)]


@pytest.mark.parametrize("old", OLD_SECTIONS)
def test_old_section_is_rebuilt(old, tmp_path):
    """A section written under another table is stale, so the next open
    rebuilds the section — and every array in it equals a RAM graph's:
    one without a ``version``, laid out as every section written before
    the table was (flattened arrays, their row counts and the flag in
    the header, no ``null`` entries), one of an older ``version``, and
    one short of a table array."""
    ram = dataset("wdc", scale=1.0)
    path = tmp_path / "g.kcsr"
    write_store(ram, path)
    open_store(path).adjacency_keys()
    section = derived_path(path)
    header = read_header(section)
    arrays = {name: np.array(array) for name, array in
              storage._mapped(section, header).items()}
    source = dict(header["derived_from"])
    extra = {}
    if old == "no-version":
        del source["version"]
        arrays = {name: array.reshape(-1) for name, array in arrays.items()}
        extra = {"loop_free": ram.loop_free(),
                 "hub_rows": len(ram.adjacency_matrix()[0]),
                 "width": ram.hub_columns().words.shape[1]}
        del arrays["loop_free"]
    elif old == "older-version":
        source["version"] = DERIVED_VERSION - 1
    else:
        del arrays[old.removeprefix("missing-")]
    storage._write_store_file(section, arrays, header["directed"],
                              header["num_vertices"], derived_from=source,
                              **extra)
    assert read_header(section)["derived_from"] == source
    mapped = open_store(path)
    _assert_same_derived(_derived(mapped), _derived(ram))
    rebuilt = read_header(section)
    assert rebuilt["derived_from"]["version"] == DERIVED_VERSION
    assert rebuilt["arrays"].keys() == set(DERIVED._fields)
    assert mapped.derived_bytes() == ram.derived_bytes()


@pytest.mark.parametrize("name", DERIVED._fields)
def test_verify_checks_the_word_ranks(name, tmp_path):
    """``open_store(verify=True)`` names any table array of the section
    whose bytes fail its CRC32 — the word ranks among them."""
    path = tmp_path / "g.kcsr"
    write_store(dataset("wdc", scale=1.0), path)
    open_store(path).word_ranks()
    section = derived_path(path)
    raw = bytearray(section.read_bytes())
    spec = read_header(section)["arrays"][name]
    # a byte of the element in the middle of the array
    itemsize = np.dtype(spec["dtype"]).itemsize
    raw[spec["offset"] + itemsize * (spec["length"] // 2)] ^= 0xFF
    section.write_bytes(bytes(raw))
    open_store(path).word_ranks()  # maps: the header is intact
    with pytest.raises(GraphFormatError, match=f"'{name}' fails its"):
        open_store(path, verify=True)


def test_derived_arrays_are_named_once():
    """The derived arrays are declared once, as the fields of
    ``DERIVED``: no string literal under ``src/repro/graph/`` names one,
    and the tests' lists of them — the ``membership_regime`` reset,
    ``_refuse_builds``, ``_derived`` — come from the table: no literal
    collection of two or more names and no ``_<name>`` slot string in
    ``tests/conftest.py`` or this file."""
    names = set(DERIVED._fields)
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "repro" / "graph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in names:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    for path in (root / "tests" / "conftest.py", Path(__file__)):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value[1:] in names and node.value[0] == "_"):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elements = (node.keys if isinstance(node, ast.Dict) else
                        getattr(node, "elts", None) or [])
            listed = [element.value for element in elements
                      if isinstance(element, ast.Constant)
                      and element.value in names]
            if len(listed) > 1:
                found.append(f"{path.name}:{node.lineno} {listed}")
    assert not found


def test_word_ranks_counted_once(tmp_path):
    """4 bytes a row word, one more a row; counted once in
    :meth:`Graph.derived_bytes`, mapped or built — and a RAM graph
    builds them only when a count asks for them."""
    shared = dataset("wdc", scale=1.0)  # memoized: its caches are warm
    ram = Graph(shared.indptr, shared.indices)
    _run(ram, None)  # triangles: no count reads one list
    assert ram._word_ranks is None
    rows, _ = ram.adjacency_matrix()
    ram.adjacency_keys()
    before = ram.derived_bytes()
    ranks = ram.word_ranks()
    assert ranks.shape == (len(rows), rows.shape[1] // 8 + 1)
    assert ranks.dtype == np.int32 and not ranks.flags.writeable
    assert ram.derived_bytes() == before + ranks.nbytes
    path = tmp_path / "g.kcsr"
    write_store(ram, path)
    mapped = open_store(path)
    _derived(mapped)
    assert mapped.derived_bytes() == ram.derived_bytes()


@pytest.mark.parametrize("pattern", [catalog.chain(4), catalog.star(3)],
                         ids=["chain4", "star3"])
def test_one_list_windows_mapped_and_built_agree(pattern, tmp_path):
    """Counts whose last step reads one list inside an ordering window,
    on a graph whose count windows mix sources with rows and without:
    a store's mapped ranks and a RAM graph's built ones agree in the
    whole report and every simulated counter."""
    ram = dataset("wdc", scale=0.3)
    path = tmp_path / "g.kcsr"
    write_store(ram, path)
    assert ram.hub_columns().tail_indptr is not None
    runs = [_run(graph, None, pattern) for graph in (ram, open_store(path))]
    (reference, reference_counters), (report, counters) = runs
    assert report.counts == reference.counts
    assert report.simulated_seconds == reference.simulated_seconds
    assert counters == reference_counters


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through procfs")
def test_mapped_section_holds_one_descriptor(tmp_path):
    path = tmp_path / "g.kcsr"
    write_store(dataset("wdc", scale=1.0), path)
    open_store(path).adjacency_keys()
    graph = open_store(path)
    before = len(os.listdir("/proc/self/fd"))
    _derived(graph)
    assert len(os.listdir("/proc/self/fd")) <= before + 1


def test_unwritable_directory_keeps_the_build(tmp_path, monkeypatch):
    directory = tmp_path / "ro"
    path = directory / "g.kcsr"
    ram = dataset("wdc", scale=1.0)
    write_store(ram, path)
    directory.chmod(0o555)
    try:
        if os.access(directory, os.W_OK):
            # a superuser writes through the mode bits: refuse the way
            # a read-only directory refuses everyone else
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(directory))

            monkeypatch.setattr(storage, "tempfile",
                                SimpleNamespace(mkstemp=refuse))
        mapped = open_store(path)
        report, counters = _run(mapped, None)
        reference, reference_counters = _run(ram, None)
        assert report.counts == reference.counts
        assert report.simulated_seconds == reference.simulated_seconds
        assert counters == reference_counters
        _assert_same_derived(_derived(mapped), _derived(ram))
        assert [entry.name for entry in directory.iterdir()] == ["g.kcsr"]
    finally:
        directory.chmod(0o755)


def test_dead_writers_tmp_files_are_reaped(tmp_path):
    path = tmp_path / "g.kcsr"
    write_store(dataset("mico", scale=0.2), path)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    orphan = tmp_path / f"g.kcsr.derived.{child.pid}.x1y2.tmp"
    orphan.write_bytes(b"half a section")
    # a live writer's tmp file is its own business
    live = tmp_path / f"g.kcsr.derived.{os.getpid()}.z3w4.tmp"
    live.write_bytes(b"being written")
    graph = open_store(path)
    graph.adjacency_keys()
    assert not orphan.exists()
    assert live.exists()
    assert read_header(derived_path(path))["derived_from"]["fingerprint"] \
        == graph.fingerprint


# ======================================================================
# storage metrics and NaN hygiene
# ======================================================================
def test_storage_metrics_emitted_for_mmap_only(tmp_path):
    mapped = load_dataset("mico", scale=0.3, storage="mmap",
                          store_dir=tmp_path)
    obs = Observability()
    system = KAutomine(mapped, ClusterConfig(num_machines=4),
                       graph_name="mico", obs=obs)
    report = system.count_pattern(catalog.clique(3))
    stats = report.extra["storage"]
    assert stats["mode"] == "mmap"
    assert stats["mapped_bytes"] == mapped.size_bytes()
    assert stats["page_miss_gathers"] >= 0
    snapshot = obs.registry.snapshot()
    assert snapshot["gauges"][names.STORAGE_MAPPED_BYTES][""] == \
        mapped.size_bytes()
    # a cache hit is a gather the mapping never saw: the two counters
    # partition cache queries (the Section 5.3 pricing argument)
    total_misses = sum(
        snapshot["counters"].get(names.CACHE_MISSES, {}).values()
    )
    assert snapshot["counters"][names.STORAGE_PAGE_MISS_GATHERS][""] \
        == total_misses

    ram_obs = Observability()
    ram_system = KAutomine(dataset("mico", scale=0.3),
                           ClusterConfig(num_machines=4),
                           graph_name="mico", obs=ram_obs)
    ram_report = ram_system.count_pattern(catalog.clique(3))
    assert "storage" not in ram_report.extra
    ram_snapshot = ram_obs.registry.snapshot()
    assert names.STORAGE_MAPPED_BYTES not in ram_snapshot["gauges"]


def test_fresh_cache_hit_rate_is_zero_not_nan():
    from repro.core.cache import CachePolicy

    cache = EdgeCache(1 << 20, 4, CachePolicy.STATIC, None,
                      num_vertices=0)
    assert hit_rate(cache) == 0.0


def test_metrics_json_never_emits_nan(tmp_path):
    """A run whose caches are never queried (one machine: every fetch
    is local) must render --metrics json with finite numbers only."""
    graph = dataset("mico", scale=0.3)
    obs = Observability()
    system = KAutomine(graph, ClusterConfig(num_machines=1),
                       graph_name="mico", obs=obs)
    report = system.count_pattern(catalog.clique(3))
    assert report.cache_hit_rate == 0.0

    def _reject(token):
        raise AssertionError(f"non-finite JSON token: {token}")

    rendered = render_metrics_json(report, obs)
    parsed = json.loads(rendered, parse_constant=_reject)
    assert parsed["report"]["cache_hit_rate"] == 0.0


# ======================================================================
# admission accounting
# ======================================================================
def test_resident_baseline_charges_working_set_for_mmap():
    graph_bytes = 100 << 20
    assert resident_baseline_bytes(graph_bytes, "ram") == graph_bytes
    mmap_baseline = resident_baseline_bytes(graph_bytes, "mmap")
    assert 0 < mmap_baseline < graph_bytes

    # a cap between the working-set baseline and the full graph:
    # servable out-of-core, impossible fully resident
    cap = (mmap_baseline + graph_bytes) // 2
    assert AdmissionController(
        cap, resident_baseline_bytes(graph_bytes, "ram")
    ).decide(1024) == "reject"
    assert AdmissionController(
        cap, resident_baseline_bytes(graph_bytes, "mmap")
    ).decide(1024) == "admit"


@pytest.mark.service
def test_over_cap_graph_servable_under_mmap_only(tmp_path, monkeypatch):
    """The satellite pinned end to end: a graph bigger than
    --resident-mb starts and serves under --storage mmap, and is
    rejected under ram with a hint naming the fix."""
    from repro.service.protocol import QueryRequest
    from repro.service.server import MiningServer, ServiceConfig

    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    graph = dataset("wdc", scale=2.0)
    assert graph.size_bytes() > 1 << 20  # the 1 MiB cap is below it

    with pytest.raises(ConfigurationError, match="--storage mmap"):
        MiningServer(ServiceConfig(
            graph="wdc", scale=2.0, machines=1, resident_mb=1,
            storage="ram",
        )).start()

    # a small per-query chunk budget keeps the *query* admissible; the
    # point of the test is the graph baseline, not chunk slack
    server = MiningServer(ServiceConfig(
        graph="wdc", scale=2.0, machines=1, resident_mb=1,
        storage="mmap", chunk_bytes=4096,
    )).start()
    try:
        assert server.graph.storage == "mmap"
        assert server.describe()["storage"] == "mmap"
        handle = server.submit(QueryRequest(id="q1", pattern="chain2"))
        result = handle.result(timeout=120)
        assert result.outcome not in ("REJECTED",), result
    finally:
        server.shutdown()

    # auto resolves the same way: over the cap means out-of-core
    auto = MiningServer(ServiceConfig(
        graph="wdc", scale=2.0, machines=1, resident_mb=1,
        storage="auto",
    )).start()
    try:
        assert auto.graph.storage == "mmap"
    finally:
        auto.shutdown()
