"""Tests for the observability layer (repro.obs) and its engine wiring."""

import json

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine
from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_OBS,
    MetricsRegistry,
    NullRegistry,
    Observability,
    Span,
    Tracer,
    names,
)
from repro.obs.tracer import PHASE_ATTRS
from repro.patterns import clique, motifs
from repro.patterns.schedule import automine_schedule


def _engine(graph, machines=4, obs=None, **config):
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=64 << 20)
    )
    return KhuzdulEngine(cluster, EngineConfig(**config), obs=obs)


# ---------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------
def test_counter_series_are_independent_and_cumulative():
    registry = MetricsRegistry()
    registry.counter(names.FETCH_LOCAL, machine=0).inc()
    registry.counter(names.FETCH_LOCAL, machine=0).inc(4)
    registry.counter(names.FETCH_LOCAL, machine=1).inc(2)
    assert registry.counter_value(names.FETCH_LOCAL, machine=0) == 5
    assert registry.counter_value(names.FETCH_LOCAL, machine=1) == 2
    assert registry.total(names.FETCH_LOCAL) == 7
    # the same (name, labels) pair always resolves to the same instrument
    assert registry.counter(names.FETCH_LOCAL, machine=0) is registry.counter(
        names.FETCH_LOCAL, machine=0
    )


def test_histogram_summary_statistics():
    registry = MetricsRegistry()
    hist = registry.histogram(names.CHUNK_ITEMS)
    for value in (4, 1, 7):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == 12
    assert hist.min == 1
    assert hist.max == 7
    assert hist.mean == 4
    assert registry.histogram(names.CHUNK_ITEMS).summary()["count"] == 3


def test_empty_histogram_summary_is_zeroed():
    empty = MetricsRegistry().histogram(names.CHUNK_ITEMS)
    assert empty.summary() == {
        "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
    }


def test_gauge_keeps_last_value():
    gauge = MetricsRegistry().gauge(names.CACHE_USED_BYTES, machine=0)
    gauge.set(10)
    gauge.set(3)
    assert gauge.value == 3


def test_scope_preapplies_labels():
    registry = MetricsRegistry()
    scope = registry.scope(machine=2)
    scope.counter(names.HDS_PROBES).inc(9)
    assert registry.counter_value(names.HDS_PROBES, machine=2) == 9
    nested = scope.scope(extra="x")
    nested.counter(names.HDS_HITS).inc()
    assert registry.counter_value(names.HDS_HITS, machine=2, extra="x") == 1


def test_strict_registry_rejects_undeclared_names():
    registry = MetricsRegistry()
    with pytest.raises(KeyError, match="not declared"):
        registry.counter("bogus.metric")
    # declared, but as a counter — asking for a histogram is a bug
    with pytest.raises(TypeError, match="declared as a counter"):
        registry.histogram(names.FETCH_LOCAL)
    # non-strict registries are for scratch use only
    MetricsRegistry(strict=False).counter("bogus.metric").inc()


def test_every_spec_name_creates_its_declared_kind():
    registry = MetricsRegistry()
    factories = {
        "counter": registry.counter,
        "gauge": registry.gauge,
        "histogram": registry.histogram,
    }
    for name, spec in names.SPECS.items():
        factories[spec.kind](name)
    assert registry.emitted_names() == set(names.SPECS)


def test_null_registry_hands_out_shared_noop_instruments():
    registry = NullRegistry()
    assert not registry.enabled
    assert registry.counter(names.FETCH_LOCAL, machine=0) is NULL_COUNTER
    assert registry.gauge(names.CACHE_USED_BYTES) is NULL_GAUGE
    assert registry.histogram(names.CHUNK_ITEMS) is NULL_HISTOGRAM
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(5)
    NULL_HISTOGRAM.observe(5)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0
    assert NULL_HISTOGRAM.count == 0
    # even undeclared names are fine: nothing is created
    registry.counter("bogus.metric").inc()
    assert not NULL_OBS.enabled


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter(names.FETCH_LOCAL, machine=0).inc(3)
    registry.histogram(names.CHUNK_ITEMS, machine=0).observe(2.0)
    registry.gauge(names.CACHE_USED_BYTES, machine=0).set(64)
    snap = registry.snapshot()
    assert snap["counters"][names.FETCH_LOCAL] == {"machine=0": 3}
    assert snap["gauges"][names.CACHE_USED_BYTES] == {"machine=0": 64}
    assert snap["histograms"][names.CHUNK_ITEMS]["machine=0"]["count"] == 1
    registry.reset()
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }


# ---------------------------------------------------------------------
# tracer semantics
# ---------------------------------------------------------------------
def test_tracer_phase_aggregation_survives_span_cap():
    tracer = Tracer(max_spans=2)
    for chunk in range(5):
        tracer.record(Span(
            "chunk", machine=0, level=1, chunk=chunk,
            attrs={"compute": 1.0, "network": 0.5},
        ))
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    # the aggregation saw all five spans
    phases = tracer.phase_seconds()[0]
    assert phases["compute"] == pytest.approx(5.0)
    assert phases["network"] == pytest.approx(2.5)
    summary = tracer.summary()
    assert summary["num_spans"] == 2
    assert summary["dropped_spans"] == 3
    assert summary["spans_by_name"] == {"chunk": 2}
    tracer.reset()
    assert tracer.phase_seconds() == {}


def test_span_export_roundtrips_through_json():
    tracer = Tracer()
    tracer.record(Span("batch", machine=1, level=2, chunk=3, batch=4,
                       start=0.5, attrs={"requests": 7}))
    exported = json.loads(json.dumps(tracer.export()))
    assert exported == [{
        "name": "batch", "machine": 1, "level": 2, "chunk": 3,
        "batch": 4, "start": 0.5, "attrs": {"requests": 7},
    }]


# ---------------------------------------------------------------------
# engine wiring
# ---------------------------------------------------------------------
def test_noop_and_instrumented_runs_are_identical(small_random_graph):
    schedule = automine_schedule(clique(4))
    plain = _engine(small_random_graph).run(schedule)
    obs = Observability()
    traced = _engine(small_random_graph, obs=obs).run(schedule)
    assert traced.counts == plain.counts
    assert traced.simulated_seconds == plain.simulated_seconds
    assert traced.network_bytes == plain.network_bytes
    assert traced.breakdown == plain.breakdown
    assert traced.machine_breakdowns == plain.machine_breakdowns
    assert traced.extra["hds"] == plain.extra["hds"]
    assert traced.extra["fetch_sources"] == plain.extra["fetch_sources"]
    # only the obs summary differs
    assert "obs" in traced.extra and "obs" not in plain.extra


def test_chunk_spans_reproduce_clock_buckets(small_random_graph):
    obs = Observability()
    report = _engine(small_random_graph, obs=obs).run(
        automine_schedule(clique(4))
    )
    phases = obs.tracer.phase_seconds()
    assert set(phases) == set(range(report.num_machines))
    for machine, buckets in enumerate(report.machine_breakdowns):
        for phase in PHASE_ATTRS:
            assert phases[machine][phase] == pytest.approx(
                buckets[phase], abs=1e-12
            ), f"machine {machine} phase {phase}"


def test_counters_match_report_aggregates(skewed_graph):
    obs = Observability()
    report = _engine(skewed_graph, obs=obs).run(automine_schedule(clique(3)))
    registry = obs.registry
    fetch = report.extra["fetch_sources"]
    assert registry.total(names.FETCH_LOCAL) == fetch["local"]
    assert registry.total(names.FETCH_REMOTE) == fetch["remote"]
    assert registry.total(names.FETCH_CACHE) == fetch["cache"]
    assert registry.total(names.FETCH_SHARED) == fetch["shared"]
    assert registry.total(names.CHUNKS_CREATED) == report.extra["chunks"]
    assert registry.total(names.NET_REQUESTS) == report.extra["requests"]
    assert registry.total(names.MATCHES_EMITTED) == report.counts
    assert registry.total(names.NET_WIRE_BYTES) == report.network_bytes
    assert registry.total(names.TIME_SERVE) == pytest.approx(
        sum(b["serve"] for b in report.machine_breakdowns)
    )
    # every emitted name is part of the documented surface
    assert registry.emitted_names() <= set(names.SPECS)


def test_hds_stats_not_double_counted(skewed_graph):
    """The engine builds a fresh scheduler (and HDS table) per (pattern
    group, machine) — for one pattern, and for a fused census whose
    patterns share one scheduler a machine; summing their stats must
    count each probe exactly once — i.e. match the per-machine registry
    series exactly and satisfy the probe identity."""
    for schedules in ([automine_schedule(clique(3))],
                      [automine_schedule(p) for p in motifs(4)]):
        obs = Observability()
        report = _engine(skewed_graph, obs=obs).run_many(schedules)
        hds = report.extra["hds"]
        assert hds["probes"] > 0, "test graph produced no HDS traffic"
        registry = obs.registry
        assert registry.total(names.HDS_PROBES) == hds["probes"]
        assert registry.total(names.HDS_HITS) == hds["hits"]
        assert registry.total(names.HDS_DROPS) == hds["drops"]
        # every probe is exactly one of hit / fresh insert / collision
        # drop
        assert hds["probes"] == (
            hds["hits"]
            + registry.total(names.HDS_INSERTS)
            + hds["drops"]
        )
        # shared fetches are exactly the HDS hits
        assert registry.total(names.FETCH_SHARED) == hds["hits"]


def test_obs_summary_resets_between_runs(small_random_graph):
    obs = Observability()
    engine = _engine(small_random_graph, obs=obs)
    first = engine.run(automine_schedule(clique(3)))
    second = engine.run(automine_schedule(clique(3)))
    # the second summary describes one run, not two
    assert (
        second.extra["obs"]["num_spans"] == first.extra["obs"]["num_spans"]
    )
    assert obs.registry.total(names.CHUNKS_CREATED) == second.extra["chunks"]


# ---------------------------------------------------------------------
# CLI output (golden shape)
# ---------------------------------------------------------------------
def _key_paths(value, prefix=""):
    """Sorted list of key paths of a JSON document (values ignored)."""
    if not isinstance(value, dict):
        return [prefix or "."]
    paths = []
    for key, child in value.items():
        paths.extend(_key_paths(child, f"{prefix}/{key}"))
    return sorted(paths)


def test_metrics_json_golden_shape(capsys):
    from pathlib import Path

    from repro.__main__ import main

    code = main([
        "count", "--graph", "mico", "--scale", "0.3",
        "--pattern", "clique3", "--machines", "2", "--metrics", "json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"report", "metrics", "trace"}
    golden = Path(__file__).parent / "data" / "metrics_json_shape.txt"
    expected = [
        line for line in golden.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert _key_paths(document) == expected, (
        "the --metrics json document shape changed; if intentional, "
        "regenerate tests/data/metrics_json_shape.txt (see its header)"
    )


def test_metrics_table_prints_per_machine_breakdown(capsys):
    from repro.__main__ import main

    code = main([
        "count", "--graph", "mico", "--scale", "0.3",
        "--pattern", "clique3", "--machines", "2", "--metrics", "table",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-machine breakdown" in out
    assert "cache: hit-rate=" in out
    assert "network: traffic=" in out
    assert "counters (summed over machines):" in out
    assert names.FETCH_LOCAL in out
