"""Out-of-core graph storage (docs/storage.md).

Three invariants under test:

1. **Builder parity** — the streaming external-sort builder produces
   bit-identical CSR arrays to the eager
   :func:`~repro.graph.builder.from_edge_array` path, for any batch
   split, including the edge-label first-occurrence-wins tie-break
   across forward/reverse duplicates; and a store round-trips
   (build → reopen → ``Graph.__eq__``).
2. **Store hygiene** — truncated, corrupt, foreign, or stale store
   files are rejected by name with a structured
   :class:`~repro.errors.GraphFormatError`, never a numpy error deep
   inside a worker (the PR-7 manifest discipline).
3. **Engine transparency** — counts, metrics, and every simulated
   measurement are bit-identical across ``{ram, mmap}`` x
   ``{inline, process}``: storage is invisible
   to everything except byte accounting (admission baselines and the
   ``storage.*`` metric family).

Run alone via ``make storage-check``.
"""

import json
import pickle
import struct

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.cache import EdgeCache
from repro.errors import ConfigurationError, GraphFormatError
from repro.exec import ProcessBackend
from repro.graph import dataset, load_dataset
from repro.graph.builder import (
    from_edge_array,
    iter_edge_list_batches,
    read_edge_list,
)
from repro.graph.csr import MmapCsrHandle, attach_csr, share_csr
from repro.graph.generators import power_law_edge_batches
from repro.graph.storage import (
    MmapGraph,
    build_store,
    from_edge_batches,
    iter_graph_edge_batches,
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
    reference = from_edge_array(
        edges, num_vertices=700, directed=directed, edge_labels=elabels
    )
    # tiny runs/chunks force many spill runs and merge steps
    streamed = from_edge_batches(
        _batches(edges, elabels), num_vertices=700, directed=directed,
        run_entries=2048, merge_chunk=1024,
    )
    assert streamed == reference


def test_streaming_builder_any_batch_split():
    edges, _ = _random_edges(3000, 64, seed=9)
    reference = from_edge_array(edges, num_vertices=64)
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
    reference = from_edge_array(edges, num_vertices=5, edge_labels=elabels)
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
    reference = from_edge_array(edges)
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
    reference = from_edge_array(
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
def _run(graph, backend):
    obs = Observability()
    system = KAutomine(
        graph,
        ClusterConfig(num_machines=4),
        EngineConfig(),
        graph_name="mico",
        obs=obs,
        backend=backend,
    )
    report = system.count_pattern(catalog.clique(3))
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
    from pathlib import Path

    import repro.core

    for path in Path(repro.core.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "MmapGraph" not in source, path.name
        assert "memmap" not in source, path.name


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

    cache = EdgeCache(1 << 20, 4, CachePolicy.STATIC, None)
    assert cache.hit_rate() == 0.0


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
