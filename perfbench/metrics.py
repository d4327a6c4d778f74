"""The metric catalogue: names, units, directions, regression bounds.

``BENCHMARK.json`` lists exactly these (``test_perfbench.py`` checks
the two against each other); ``README.md`` says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

from typing import Optional

#: ``(name, unit, better, bound)``. ``bound`` is the share of the
#: parent's median by which the metric may worsen before a change is a
#: regression. Every timed metric is in seconds at the reference host
#: speed (:class:`perfbench.measure.Probe`); ``sim_s`` is the model's
#: own clock and is not rescaled. ``failed_share`` is the ninth end-to-end metric: it is
#: reported through ``failed`` / ``attempted`` (its bound is 0,
#: absolute) and is absent here because a healthy run reads exactly 0.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("sim_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
)

#: ``sim_s`` is deterministic: ``compare`` holds two runs of one seed
#: to this relative difference, in either direction. (The bound above
#: is what the ten-seed acceptance check needs — other seeds are other
#: graphs.)
SIM_RELATIVE_TOLERANCE = 1e-9

#: ``compare`` lets ``setup_s`` worsen by max(its bound, this many
#: seconds): most of the set-ups take milliseconds
SETUP_FLOOR_S = 0.25

#: ``(name, unit, better)`` of the traced run's metrics
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("graph.build_s", "s", "lower"),
    ("graph.store_build_s", "s", "lower"),
    ("graph.store_open_s", "s", "lower"),
    ("graph.adjacency_build_s", "s", "lower"),
    ("graph.gather_s", "s", "lower"),
    ("graph.gather_calls", "count", "lower"),
    ("cluster.build_s", "s", "lower"),
    ("cluster.net_requests", "count", "lower"),
    ("cluster.net_wire_bytes", "bytes", "lower"),
    ("patterns.schedule_s", "s", "lower"),
    ("patterns.schedule_calls", "count", "lower"),
    ("patterns.plan_s", "s", "lower"),
    ("patterns.plan_calls", "count", "lower"),
    ("core.scheduler.resolve_s", "s", "lower"),
    ("core.scheduler.fill_s", "s", "lower"),
    ("core.scheduler.drain_s", "s", "lower"),
    ("core.scheduler.other_s", "s", "lower"),
    ("core.scheduler.chunks", "count", "lower"),
    ("core.scheduler.embeddings", "count", "lower"),
    ("core.scheduler.us_per_embedding", "us", "lower"),
    ("core.kernels.extend_s", "s", "lower"),
    ("core.kernels.extend_calls", "count", "lower"),
    ("core.kernels.iep_s", "s", "lower"),
    ("core.kernels.iep_calls", "count", "lower"),
    ("core.kernels.probe_elements", "count", "lower"),
    ("core.kernels.ns_per_probe_element", "ns", "lower"),
    ("core.hds.probes", "count", "lower"),
    ("core.hds.hit_ratio", "ratio", "higher"),
    ("core.cache.queries", "count", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.engine.run_s", "s", "lower"),
    ("systems.merge_s", "s", "lower"),
    ("systems.census_solve_s", "s", "lower"),
    ("exec.run_s", "s", "lower"),
    ("exec.worker_busy_s", "s", "lower"),
    ("exec.worker_busy_max_s", "s", "lower"),
    ("exec.worker_wait_s", "s", "lower"),
    ("exec.overhead_s", "s", "lower"),
    ("exec.messages", "count", "lower"),
    ("exec.bytes_shipped", "bytes", "lower"),
    ("exec.ring_fallbacks", "count", "lower"),
    ("exec.speedup_vs_inline", "ratio", "higher"),
    ("service.start_s", "s", "lower"),
    ("service.shutdown_s", "s", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.execute_p50_ms", "ms", "lower"),
    ("service.overhead_p50_ms", "ms", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.failed", "count", "lower"),
    ("obs.overhead_share", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("cold_run_s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("host.calib_s", "s", "lower"),
)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
    "failed_share": "ratio",
}


# ---------------------------------------------------------------------
# reading a ``MetricsRegistry.snapshot()``
# ---------------------------------------------------------------------
def registry_totals(snapshot: dict) -> dict[str, float]:
    """Every counter summed over its label series, and every
    histogram's ``total``, by metric name (names are unique across
    kinds). Gauges are per-series state, read with :func:`series`."""
    totals: dict[str, float] = {}
    for name, by_label in snapshot.get("counters", {}).items():
        totals[name] = sum(by_label.values())
    for name, by_label in snapshot.get("histograms", {}).items():
        totals[name] = sum(entry["total"] for entry in by_label.values())
    return totals


def series(snapshot: dict, kind: str, name: str) -> list[float]:
    """The values of one metric's label series (e.g. per worker)."""
    return list(snapshot.get(kind, {}).get(name, {}).values())


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def counts_from_totals(totals: dict[str, float]) -> dict:
    """The registry-derived per-layer counts of one traced unit."""
    get = totals.get
    hits, misses = get("cache.hits", 0), get("cache.misses", 0)
    return {
        "cluster.net_requests": get("net.requests", 0),
        "cluster.net_wire_bytes": get("net.wire_bytes", 0),
        "core.scheduler.chunks": get("chunk.created", 0),
        "core.scheduler.embeddings": get("chunk.items", 0),
        "core.kernels.probe_elements": (
            get("kernel.probe_elements", 0)
            + get("kernel.iep.probe_elements", 0)
        ),
        "core.hds.probes": get("hds.probes", 0),
        "core.hds.hit_ratio": ratio(get("hds.hits", 0),
                                    get("hds.probes", 0)),
        "core.cache.queries": hits + misses,
        "core.cache.hit_ratio": ratio(hits, hits + misses),
    }


def exec_from_snapshot(snapshot: dict) -> dict:
    """``exec.*`` as the process backend publishes them — no wrapper
    crosses the fork."""
    run = series(snapshot, "gauges", "exec.wall_seconds")
    if not run:
        return {}
    busy = series(snapshot, "counters", "exec.worker_busy_seconds")
    wait = series(snapshot, "counters", "exec.worker_wait_seconds")
    totals = registry_totals(snapshot)
    occupied = max((b + w for b, w in zip(busy, wait)), default=0.0)
    return {
        "exec.run_s": run[0],
        "exec.worker_busy_s": sum(busy),
        "exec.worker_busy_max_s": max(busy, default=0.0),
        "exec.worker_wait_s": sum(wait),
        # spawn, attach, merge, teardown: what no worker was busy with
        "exec.overhead_s": run[0] - occupied,
        "exec.messages": totals.get("exec.messages", 0),
        "exec.bytes_shipped": totals.get("exec.bytes_shipped", 0),
        "exec.ring_fallbacks": totals.get("exec.ring.fallbacks", 0),
    }
