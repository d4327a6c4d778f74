"""Canonical names of every metric the engine emits.

This module is the single source of truth for the observability
surface: a metric may only be created through a
:class:`~repro.obs.metrics.MetricsRegistry` if its name appears in
:data:`SPECS`, and ``docs/metrics.md`` must document every name listed
here (``make docs-check`` / ``tests/test_docs_contract.py`` enforce
both directions). Adding a metric therefore means adding a
:class:`MetricSpec` here *and* a row to the docs table — the test
suite fails otherwise.

Naming convention: ``<component>.<event>`` in snake_case, with the
component matching the module that emits it (``fetch``, ``hds``,
``cache``, ``net``, ``extend``, ``kernel``, ``chunk``, ``time``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricSpec:
    """What one metric means: kind, unit, and the figure it feeds."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    figure: str  # the paper table/figure this metric reproduces
    description: str


# ---------------------------------------------------------------------
# fetch resolution (scheduler, Section 4.3 / Figure 19)
# ---------------------------------------------------------------------
FETCH_LOCAL = "fetch.local"
FETCH_REMOTE = "fetch.remote"
FETCH_CACHE = "fetch.cache"
FETCH_SHARED = "fetch.shared"

# ---------------------------------------------------------------------
# horizontal data sharing (Section 5.2 / Figure 12)
# ---------------------------------------------------------------------
HDS_PROBES = "hds.probes"
HDS_HITS = "hds.hits"
HDS_INSERTS = "hds.inserts"
HDS_DROPS = "hds.drops"
HDS_CHAIN_STEPS = "hds.chain_steps"

# ---------------------------------------------------------------------
# static cache (Section 5.3 / Figures 16-17, Table 6)
# ---------------------------------------------------------------------
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_INSERTS = "cache.inserts"
CACHE_EVICTIONS = "cache.evictions"
CACHE_USED_BYTES = "cache.used_bytes"

# ---------------------------------------------------------------------
# chunked exploration (Section 4.2 / Figure 18)
# ---------------------------------------------------------------------
CHUNKS_CREATED = "chunk.created"
CHUNK_ITEMS = "chunk.items"
CHUNK_OVERLAP = "chunk.overlap_hidden_seconds"

# ---------------------------------------------------------------------
# EXTEND kernel (Section 3.2 / Figure 11)
# ---------------------------------------------------------------------
EXTEND_CALLS = "extend.calls"
EXTEND_MERGE_ELEMENTS = "extend.merge_elements"
EXTEND_CANDIDATES = "extend.candidates"
MATCHES_EMITTED = "extend.matches_emitted"

# ---------------------------------------------------------------------
# chunk EXTEND kernels (docs/performance.md): emitted once per kernel
# call, where extend.* follows the rows the scheduler has consumed
# ---------------------------------------------------------------------
KERNEL_BATCHES = "kernel.batches"
KERNEL_BATCHED_EMBEDDINGS = "kernel.batched_embeddings"
KERNEL_PROBE_ELEMENTS = "kernel.probe_elements"
KERNEL_COUNT_ONLY_BATCHES = "kernel.count_only_batches"
KERNEL_IEP_BATCHES = "kernel.iep.batches"
KERNEL_IEP_EMBEDDINGS = "kernel.iep.embeddings"
KERNEL_IEP_TERMS = "kernel.iep.terms"
KERNEL_IEP_PROBE_ELEMENTS = "kernel.iep.probe_elements"

# ---------------------------------------------------------------------
# network (Section 4.3 / Figure 19)
# ---------------------------------------------------------------------
NET_REQUESTS = "net.requests"
NET_PAYLOAD_BYTES = "net.payload_bytes"
NET_WIRE_BYTES = "net.wire_bytes"
NET_BATCHES = "net.batches"
NET_BATCH_BYTES = "net.batch_bytes"
NET_BATCH_REQUESTS = "net.batch_requests"
NET_RETRIES = "net.retries"
NET_RETRY_BACKOFF_SECONDS = "net.retry_backoff_seconds"

# ---------------------------------------------------------------------
# fault injection & recovery (docs/faults.md)
# ---------------------------------------------------------------------
FAULT_CRASHES = "fault.crashes"
FAULT_FETCH_FAILURES = "fault.fetch_failures"
FAULT_STRAGGLERS = "fault.stragglers"
RECOVERY_CHECKPOINTS = "recovery.checkpoints"
RECOVERY_REASSIGNED_ROOTS = "recovery.reassigned_roots"
RECOVERY_REASSIGNED_CHUNKS = "recovery.reassigned_chunks"
RECOVERY_INVALIDATED_ENTRIES = "recovery.invalidated_entries"
RECOVERY_REDISTRIBUTED_MACHINES = "recovery.redistributed_machines"

# ---------------------------------------------------------------------
# durable checkpoints (docs/faults.md, "Durability")
# ---------------------------------------------------------------------
CHECKPOINT_RECORDS = "checkpoint.records"
CHECKPOINT_FLUSHES = "checkpoint.flushes"
CHECKPOINT_RESUMED_ROOTS = "checkpoint.resumed_roots"

# ---------------------------------------------------------------------
# execution backends (docs/execution.md) — wall-clock, not simulated
# ---------------------------------------------------------------------
EXEC_WORKERS = "exec.workers"
EXEC_WALL_SECONDS = "exec.wall_seconds"
EXEC_WORKER_BUSY_SECONDS = "exec.worker_busy_seconds"
EXEC_WORKER_WAIT_SECONDS = "exec.worker_wait_seconds"
EXEC_HEARTBEAT_CHECKS = "exec.heartbeat.checks"
EXEC_HEARTBEAT_INTERVAL = "exec.heartbeat.interval_seconds"
EXEC_WORKER_DEATHS = "exec.worker_deaths"

# ---------------------------------------------------------------------
# mining service (docs/service.md) — server-lifetime registry only;
# wall-clock, not simulated
# ---------------------------------------------------------------------
SERVICE_QUERIES = "service.queries"
SERVICE_REJECTED = "service.rejected"
SERVICE_FAILED = "service.failed"
SERVICE_LATENCY_SECONDS = "service.latency_seconds"
SERVICE_QUEUE_WAIT_SECONDS = "service.queue_wait_seconds"
SERVICE_ACTIVE_QUERIES = "service.active_queries"
SERVICE_ADMITTED_BYTES = "service.admitted_bytes"
SERVICE_WORKERS = "service.workers"
SERVICE_WORKER_DEATHS = "service.worker_deaths"

# ---------------------------------------------------------------------
# graph storage (docs/storage.md) — emitted only for mmap-backed runs
# ---------------------------------------------------------------------
STORAGE_MAPPED_BYTES = "storage.mapped_bytes"
STORAGE_SPILL_RUNS = "storage.spill_runs"
STORAGE_MERGE_BATCHES = "storage.merge_batches"
STORAGE_PAGE_MISS_GATHERS = "storage.page_miss_gathers"

# ---------------------------------------------------------------------
# simulated-time attribution (Figure 15 categories)
# ---------------------------------------------------------------------
TIME_COMPUTE = "time.compute_seconds"
TIME_SCHEDULER = "time.scheduler_seconds"
TIME_CACHE = "time.cache_seconds"
TIME_NETWORK = "time.network_seconds"
TIME_SERVE = "time.serve_seconds"


def _spec(name, kind, unit, figure, description) -> tuple[str, MetricSpec]:
    return name, MetricSpec(name, kind, unit, figure, description)


#: Every metric the engine may emit, keyed by name. The registry
#: rejects names missing from this table, and the docs-contract test
#: requires each name to appear in docs/metrics.md.
SPECS: dict[str, MetricSpec] = dict(
    [
        _spec(FETCH_LOCAL, "counter", "edge lists", "Fig 19",
              "active edge lists satisfied by the local partition"),
        _spec(FETCH_REMOTE, "counter", "edge lists", "Fig 19",
              "edge lists fetched over the network"),
        _spec(FETCH_CACHE, "counter", "edge lists", "Table 6",
              "edge lists served by the static cache"),
        _spec(FETCH_SHARED, "counter", "edge lists", "Fig 12",
              "edge lists shared through the HDS table"),
        _spec(HDS_PROBES, "counter", "probes", "Fig 12",
              "probes of the per-chunk horizontal-share table"),
        _spec(HDS_HITS, "counter", "probes", "Fig 12",
              "HDS probes that found the same vertex (fetch deduped)"),
        _spec(HDS_INSERTS, "counter", "probes", "Fig 12",
              "HDS probes that claimed an empty slot"),
        _spec(HDS_DROPS, "counter", "probes", "Fig 12",
              "HDS probes dropped on collision (fetched anyway)"),
        _spec(HDS_CHAIN_STEPS, "counter", "key comparisons", "Ablation A",
              "chain-walk steps of the chained HDS variant"),
        _spec(CACHE_HITS, "counter", "queries", "Fig 17",
              "static/replacement cache queries that hit"),
        _spec(CACHE_MISSES, "counter", "queries", "Fig 17",
              "cache queries that missed"),
        _spec(CACHE_INSERTS, "counter", "edge lists", "Table 6",
              "edge lists admitted into the cache"),
        _spec(CACHE_EVICTIONS, "counter", "edge lists", "Fig 16",
              "evictions performed by replacement policies"),
        _spec(CACHE_USED_BYTES, "gauge", "bytes", "Fig 17",
              "bytes resident in the cache after the run"),
        _spec(CHUNKS_CREATED, "counter", "chunks", "Fig 18",
              "chunks allocated across all levels"),
        _spec(CHUNK_ITEMS, "histogram", "embeddings", "Fig 18",
              "extendable embeddings per resolved chunk"),
        _spec(CHUNK_OVERLAP, "histogram", "seconds", "Ablation B",
              "communication hidden behind computation per chunk"),
        _spec(EXTEND_CALLS, "counter", "calls", "Fig 15",
              "invocations of the EXTEND kernel"),
        _spec(EXTEND_MERGE_ELEMENTS, "counter", "elements", "Fig 11",
              "elements streamed through set intersections/differences"),
        _spec(EXTEND_CANDIDATES, "counter", "vertices", "Fig 11",
              "candidate vertices surviving all EXTEND filters"),
        _spec(MATCHES_EMITTED, "counter", "embeddings", "Tables 2-5",
              "completed embeddings handed to the UDF"),
        _spec(KERNEL_BATCHES, "counter", "chunks",
              "docs/performance.md",
              "chunks extended through the vectorized kernel path"),
        _spec(KERNEL_BATCHED_EMBEDDINGS, "counter", "embeddings",
              "docs/performance.md",
              "embeddings extended inside batched kernel calls"),
        _spec(KERNEL_PROBE_ELEMENTS, "counter", "elements",
              "docs/performance.md",
              "candidate elements pushed through bulk adjacency probes"),
        _spec(KERNEL_COUNT_ONLY_BATCHES, "counter", "chunks",
              "docs/performance.md",
              "final-level batches that took the count-only fast path"),
        _spec(KERNEL_IEP_BATCHES, "counter", "chunks",
              "docs/performance.md",
              "prefix chunks evaluated by the IEP terminal kernel"),
        _spec(KERNEL_IEP_EMBEDDINGS, "counter", "embeddings",
              "docs/performance.md",
              "prefix embeddings counted via inclusion-exclusion"),
        _spec(KERNEL_IEP_TERMS, "counter", "terms",
              "docs/performance.md",
              "IEP formula terms evaluated across batched embeddings"),
        _spec(KERNEL_IEP_PROBE_ELEMENTS, "counter", "elements",
              "docs/performance.md",
              "probes made while intersecting IEP signature sets — a "
              "stage shared by several signatures is counted once"),
        _spec(NET_REQUESTS, "counter", "requests", "Fig 19",
              "edge-list fetch requests that crossed machines"),
        _spec(NET_PAYLOAD_BYTES, "counter", "bytes", "Fig 19",
              "payload bytes returned by remote fetches"),
        _spec(NET_WIRE_BYTES, "counter", "bytes", "Fig 19",
              "payload plus request-header bytes on the wire"),
        _spec(NET_BATCHES, "counter", "batches", "Fig 19",
              "circulant communication batches priced"),
        _spec(NET_BATCH_BYTES, "histogram", "bytes", "Fig 19",
              "wire bytes per communication batch"),
        _spec(NET_BATCH_REQUESTS, "histogram", "requests", "Fig 19",
              "fetch requests per communication batch"),
        _spec(NET_RETRIES, "counter", "requests", "docs/faults.md",
              "fetch attempts repeated after an injected transient failure"),
        _spec(NET_RETRY_BACKOFF_SECONDS, "counter", "seconds",
              "docs/faults.md",
              "simulated seconds spent in retry exponential backoff"),
        _spec(FAULT_CRASHES, "counter", "crashes", "docs/faults.md",
              "machine-crash triggers fired by the fault injector"),
        _spec(FAULT_FETCH_FAILURES, "counter", "failures", "docs/faults.md",
              "transient remote-fetch failures injected"),
        _spec(FAULT_STRAGGLERS, "counter", "machines", "docs/faults.md",
              "machines degraded by a straggler fault"),
        _spec(RECOVERY_CHECKPOINTS, "counter", "checkpoints",
              "docs/faults.md",
              "root-chunk-boundary checkpoints taken by schedulers"),
        _spec(RECOVERY_REASSIGNED_ROOTS, "counter", "roots",
              "docs/faults.md",
              "orphaned root vertices reassigned to surviving machines"),
        _spec(RECOVERY_REASSIGNED_CHUNKS, "counter", "chunks",
              "docs/faults.md",
              "chunks created by survivors while replaying reassigned work"),
        _spec(RECOVERY_INVALIDATED_ENTRIES, "counter", "edge lists",
              "docs/faults.md",
              "cache/HDS entries invalidated after a machine loss"),
        _spec(RECOVERY_REDISTRIBUTED_MACHINES, "counter", "machines",
              "docs/execution.md",
              "lost workers' hosted machines redistributed across "
              "surviving worker processes"),
        _spec(CHECKPOINT_RECORDS, "counter", "chunks",
              "docs/faults.md",
              "completed-root-chunk records appended to the durable "
              "checkpoint log"),
        _spec(CHECKPOINT_FLUSHES, "counter", "flushes",
              "docs/faults.md",
              "durable checkpoint flushes (log fsync + aggregates "
              "snapshot rewrite)"),
        _spec(CHECKPOINT_RESUMED_ROOTS, "counter", "roots",
              "docs/faults.md",
              "root vertices skipped by a resumed run because the "
              "checkpoint log already covered them"),
        _spec(EXEC_WORKERS, "gauge", "processes", "docs/execution.md",
              "worker processes spawned by the process backend"),
        _spec(EXEC_WALL_SECONDS, "gauge", "seconds", "docs/execution.md",
              "wall-clock duration of the whole backend execution"),
        _spec(EXEC_WORKER_BUSY_SECONDS, "counter", "seconds",
              "docs/execution.md",
              "wall-clock seconds a worker spent computing (per worker)"),
        _spec(EXEC_WORKER_WAIT_SECONDS, "counter", "seconds",
              "docs/execution.md",
              "always 0.0 per worker: nothing a worker does waits on "
              "another worker (kept as the series perfbench pairs with "
              "busy seconds)"),
        _spec(EXEC_HEARTBEAT_CHECKS, "counter", "sweeps",
              "docs/execution.md",
              "liveness sweeps the parent ran over worker sentinels"),
        _spec(EXEC_HEARTBEAT_INTERVAL, "gauge", "seconds",
              "docs/execution.md",
              "configured parent liveness-check interval"),
        _spec(EXEC_WORKER_DEATHS, "counter", "processes",
              "docs/execution.md",
              "worker processes that died before finishing their job"),
        _spec(SERVICE_QUERIES, "counter", "queries", "docs/service.md",
              "queries the mining service finished (any terminal "
              "outcome, REJECTED included)"),
        _spec(SERVICE_REJECTED, "counter", "queries", "docs/service.md",
              "queries the admission controller or shutdown drain "
              "declined to run"),
        _spec(SERVICE_FAILED, "counter", "queries", "docs/service.md",
              "queries that ran but ended with a fatal outcome "
              "(CRASHED/OUTOFMEM/TIMEOUT/DEGRADED)"),
        _spec(SERVICE_LATENCY_SECONDS, "histogram", "seconds",
              "docs/service.md",
              "wall-clock submit-to-report latency per query"),
        _spec(SERVICE_QUEUE_WAIT_SECONDS, "histogram", "seconds",
              "docs/service.md",
              "wall-clock seconds a query waited in the priority "
              "queue before dispatch"),
        _spec(SERVICE_ACTIVE_QUERIES, "gauge", "queries",
              "docs/service.md",
              "queries dispatched to a serving lane and not yet "
              "reported"),
        _spec(SERVICE_ADMITTED_BYTES, "gauge", "bytes",
              "docs/service.md",
              "estimated resident bytes of the in-flight queries the "
              "admission controller has admitted"),
        _spec(SERVICE_WORKERS, "gauge", "processes", "docs/service.md",
              "serving worker processes attached to the resident "
              "graph (0 = in-process serial lane)"),
        _spec(SERVICE_WORKER_DEATHS, "counter", "processes",
              "docs/service.md",
              "serving workers that died mid-query and were respawned "
              "(the query degrades to CRASHED, the server survives)"),
        _spec(STORAGE_MAPPED_BYTES, "gauge", "bytes", "docs/storage.md",
              "bytes of CSR arrays served from a read-only file "
              "mapping instead of resident memory"),
        _spec(STORAGE_SPILL_RUNS, "counter", "runs", "docs/storage.md",
              "sorted runs the streaming builder spilled while "
              "building the store backing this graph"),
        _spec(STORAGE_MERGE_BATCHES, "counter", "batches",
              "docs/storage.md",
              "bounded merge steps the builder's k-way merge took "
              "while writing the store backing this graph"),
        _spec(STORAGE_PAGE_MISS_GATHERS, "counter", "queries",
              "docs/storage.md",
              "edge-list gathers that bypassed the static cache and "
              "so priced a potential page fault on the mapping "
              "(cache misses while mmap-backed; compare cache.hits)"),
        _spec(TIME_COMPUTE, "counter", "seconds", "Fig 15",
              "simulated seconds charged to computation"),
        _spec(TIME_SCHEDULER, "counter", "seconds", "Fig 15",
              "simulated seconds charged to fine-grained scheduling"),
        _spec(TIME_CACHE, "counter", "seconds", "Fig 15",
              "simulated seconds charged to HDS/cache bookkeeping"),
        _spec(TIME_NETWORK, "counter", "seconds", "Fig 15",
              "simulated seconds of communication not hidden by overlap"),
        _spec(TIME_SERVE, "counter", "seconds", "Fig 19",
              "responder-side seconds serving remote fetches"),
    ]
)

#: Names of the Figure 15 phase buckets, in display order.
PHASE_METRICS: tuple[str, ...] = (
    TIME_COMPUTE, TIME_SCHEDULER, TIME_CACHE, TIME_NETWORK,
)
