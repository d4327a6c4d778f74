"""One workload, one interpreter: the measuring protocol.

Untraced run (``trace=False``) — the end-to-end metrics, measured with
``repro.obs`` off and no wrapper installed::

    one set-up (cold) -> groups of set-ups, a probe either side (setup_s)
              -> 1 cold unit
              -> probe, unit, probe, unit, ... for ``seconds``
              -> tear down -> peak RSS -> reference answer
              -> check every count

Traced run (``trace=True``) — the per-layer metrics::

    set-up (spans) -> 1 cold unit (traced)
              -> probe, untraced unit, probe, traced unit, ... for
                 ``seconds``
              -> tear down -> per-layer numbers

Every timed sample is reported at the reference host speed: multiplied
by ``PROBE_REFERENCE_S`` over the mean of the two probes either side of
it (:class:`perfbench.measure.Probe` says why). The measured seconds
are kept beside every number as ``raw``.

A traced unit runs with an enabled ``Observability`` and the wrappers
of :mod:`perfbench.seams` installed; the untraced unit beside it is the
program exactly as shipped, so ``obs.overhead_share`` is an A/B inside
one process, not a difference between two runs.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from perfbench import DEFAULT_SEED, metrics as catalogue, seams
from perfbench.measure import (
    Probe,
    at_reference_speed,
    cpu_seconds,
    host_info,
    peak_rss_mb,
    pin_to_one_cpu,
    quartiles,
    summarize,
    tail_percentile,
)
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Sizes, Unit, Workload

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: a ``setup_s`` sample is a group of set-ups (with their tear-downs)
#: that lasts at least this long ...
SETUP_GROUP_SECONDS = 0.05
#: ... of at most this many
MAX_SETUP_GROUP = 64
#: the spread beside a pooled latency percentile is taken over this
#: many consecutive blocks of rounds
LATENCY_BLOCKS = 5


def load_pin(expected_path: Path, sizes: Sizes, name: str, seed: int):
    """The pinned answer of ``name``, or ``None`` when this seed/size
    has none (pins belong to the default seed)."""
    if seed != DEFAULT_SEED:
        return None
    with open(expected_path) as handle:
        return json.load(handle).get(sizes.mode, {}).get(name)


class _Checker:
    """Counts operations attempted and failed across a run."""

    def __init__(self, workload: Workload, pin):
        self.workload = workload
        self.pin = pin
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, label: str, unit: Unit,
              reference: Optional[Unit]) -> None:
        """A query fails when it raised, ended in a non-OK outcome or
        was rejected (``unit.failures``), or when its count differs
        from the pin or from the reference answer."""
        bad = len(unit.failures)
        for message in unit.failures:
            self.note(f"{label}: {message}")
        wrong = 0
        if self.pin is not None:
            wrong = self.workload.mismatches(unit, self.pin)
            if wrong:
                self.note(f"{label}: count {unit.counts} != pin {self.pin}")
        if reference is not None:
            differing = self.workload.mismatches(unit, reference.counts)
            if differing:
                self.note(f"{label}: count {unit.counts} != reference "
                          f"{reference.counts}")
            if (reference.sim_s is not None
                    and unit.sim_s != reference.sim_s):
                differing = unit.queries
                self.note(f"{label}: sim_s {unit.sim_s!r} != reference "
                          f"{reference.sim_s!r}")
            wrong = max(wrong, differing)
        self.attempted += unit.queries
        self.failed += min(unit.queries, bad + wrong)

    def check_deterministic(self, units: list[Unit]) -> None:
        """Every unit answers the same question on the same inputs."""
        first = units[0]
        for index, unit in enumerate(units[1:], 1):
            if unit.counts != first.counts or unit.sim_s != first.sim_s:
                self.failed = min(self.attempted,
                                  self.failed + unit.queries)
                self.note(f"unit {index}: counts/sim_s differ from the "
                          f"first unit's")


def _timed(workload: Workload, state, traced: bool, warm: bool = False):
    gc.collect()  # every unit starts from the same collector state
    cpu = cpu_seconds()
    started = perf_counter()
    unit = (workload.warm if warm else workload.unit)(state, traced)
    wall = perf_counter() - started
    return unit, wall, cpu_seconds() - cpu


def _metric(name: str, value, **detail) -> dict:
    return {"value": value, "unit": catalogue.UNITS[name], **detail}


# ---------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------
def _time_setups(workload, seed, sizes, scratch, tracer, probe):
    """``(samples, factors, probes, state)``: seconds per set-up as
    measured, and what turns each into seconds at the reference speed.

    The first set-up pays lazy imports and is not a sample. Each sample
    is a group of set-ups, every set-up timed on its own with its
    tear-down outside the timing, a probe either side of the group. A
    group lasts long enough for its probes to mean something (the
    ``mico`` set-ups take a millisecond)."""
    state = workload.setup(seed, sizes, scratch, tracer, False)
    samples, factors, probes = [], [], [probe.run()]
    group = 1
    while len(samples) < sizes.setup_samples:
        spent, began = 0.0, perf_counter()
        for _ in range(group):
            workload.teardown(state, tracer)
            started = perf_counter()
            state = workload.setup(seed, sizes, scratch, tracer, False)
            spent += perf_counter() - started
        lasted = perf_counter() - began
        probes.append(probe.run())
        if lasted < SETUP_GROUP_SECONDS and group < MAX_SETUP_GROUP:
            # too short: a larger group, and this one is no sample
            group = min(MAX_SETUP_GROUP, max(
                group + 1, int(group * 1.5 * SETUP_GROUP_SECONDS / lasted)))
            continue
        samples.append(spent / group)
        factors.append(at_reference_speed(*probes[-2:]))
    return samples, factors, probes, state


def _run_untraced(workload, seed, seconds, sizes, scratch, checker, probe):
    tracer = Tracer()  # never enabled: its spans are no-ops
    setups, setup_factors, probes, state = _time_setups(
        workload, seed, sizes, scratch, tracer, probe)
    try:
        cold, cold_wall, _ = _timed(workload, state, False, warm=True)
        units, walls, cpus, factors = [], [], [], []
        probes.append(probe.run())
        window = perf_counter()
        while (len(units) < sizes.min_units
               or perf_counter() - window < seconds):
            unit, wall, cpu = _timed(workload, state, False)
            probes.append(probe.run())
            units.append(unit)
            walls.append(wall)
            cpus.append(cpu)
            factors.append(at_reference_speed(*probes[-2:]))
    finally:
        workload.teardown(state, tracer)
    rss = peak_rss_mb()  # before the reference run inflates it
    reference = workload.reference(state, False)

    checker.check("cold", cold, reference)
    for index, unit in enumerate(units):
        checker.check(f"unit {index}", unit, reference)
    checker.check_deterministic(units)

    result = {
        "wall_s": _metric("wall_s", **_median(walls, factors)),
        "cpu_s": _metric("cpu_s", **_median(cpus, factors)),
        "sim_s": _metric("sim_s", units[0].sim_s, n=len(units)),
        "peak_rss_mb": _metric("peak_rss_mb", rss, n=1),
        "setup_s": _metric("setup_s", **_median(setups, setup_factors)),
    }
    if workload.serves:
        # throughput is per round; latency is pooled over every round's
        # queries, with the spread over five blocks of rounds beside it
        rates = [unit.queries / wall for unit, wall in zip(units, walls)]
        latencies = [[factor * latency for latency in unit.latencies]
                     for unit, factor in zip(units, factors)]
        pooled = [latency for round_ in latencies for latency in round_]
        raw = [latency for unit in units for latency in unit.latencies]
        size = -(-len(latencies) // LATENCY_BLOCKS)
        blocks = [[latency for round_ in latencies[index:index + size]
                   for latency in round_]
                  for index in range(0, len(latencies), size)]
        tail, percentile = tail_percentile(pooled)
        result.update({
            "queries_per_s": _metric("queries_per_s", **_median(
                rates, [1.0 / factor for factor in factors])),
            "query_p50_ms": _metric(
                "query_p50_ms", 1e3 * quartiles(pooled)[1],
                **summarize([1e3 * quartiles(block)[1] for block in blocks]),
                raw=1e3 * quartiles(raw)[1], pooled=len(pooled)),
            "query_p95_ms": _metric(
                "query_p95_ms", 1e3 * tail,
                **summarize([1e3 * tail_percentile(block)[0]
                             for block in blocks]),
                raw=1e3 * tail_percentile(raw)[0], pooled=len(pooled),
                percentile=percentile),
        })
    detail = {
        "samples": {"wall_s": walls, "cpu_s": cpus, "factor": factors,
                    "setup_s": setups, "setup_factor": setup_factors},
        "host_probe_s": summarize(probes),
        "cold_run_s": cold_wall,
        "units": len(units),
        "queries_per_unit": units[0].queries,
        "counts": units[0].counts,
    }
    return result, detail


def _median(samples: list[float], factors: list[float]) -> dict:
    """A timed metric is the median of its samples at the reference
    host speed, with their quartiles, extremes, count and noise
    recorded beside it — and ``raw``, the median as measured."""
    summary = summarize([sample * factor
                         for sample, factor in zip(samples, factors)])
    return {"value": summary["median"], **summary,
            "raw": statistics.median(samples)}


# ---------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------
def _run_traced(workload, seed, seconds, sizes, scratch, checker, probe,
                import_s, trace_path):
    tracer = Tracer()
    missing: set[str] = set()

    tracer.iteration = "setup"
    tracer.enabled = True
    try:
        state = workload.setup(seed, sizes, scratch, tracer, True)
    finally:
        tracer.enabled = False
    edge_seconds, _ = tracer.take_totals()  # set-up spans
    try:
        with tracer.tracing(seams.SEAMS, "cold") as gone:
            missing.update(gone)
            with tracer.span("iteration"):
                cold, cold_wall, _ = _timed(workload, state, True,
                                            warm=True)
        cold_seconds, _ = tracer.take_totals()

        plain, plain_walls, traced_units, traced_walls = [], [], [], []
        raw_plain_walls, raw_traced_walls, probes = [], [], [probe.run()]
        window = perf_counter()
        while (len(traced_units) < sizes.min_units - 1
               or perf_counter() - window < seconds):
            unit, wall, _ = _timed(workload, state, False)
            probes.append(probe.run())
            plain.append(unit)
            raw_plain_walls.append(wall)
            plain_walls.append(wall * at_reference_speed(*probes[-2:]))
            with tracer.tracing(seams.SEAMS, len(traced_units)):
                with tracer.span("iteration"):
                    unit, wall, _ = _timed(workload, state, True)
            probes.append(probe.run())
            traced_units.append(unit)
            raw_traced_walls.append(wall)
            traced_walls.append(wall * at_reference_speed(*probes[-2:]))
        self_seconds, calls = tracer.take_totals()
    finally:
        tracer.iteration = "teardown"
        tracer.enabled = True
        try:
            workload.teardown(state, tracer)
        finally:
            tracer.enabled = False
    edge_seconds.update(tracer.take_totals()[0])  # tear-down spans
    reference = workload.reference(state, True)
    extra, gone = workload.layer_metrics(state, plain)
    missing.update(gone)

    checker.check("cold", cold, reference)
    for index, unit in enumerate(plain + traced_units):
        checker.check(f"unit {index}", unit, reference)
    checker.check_deterministic(plain + traced_units)

    pairs = len(traced_units)
    values: dict[str, Any] = {}
    for name, paths in seams.SEAMS.items():
        if all(path in missing for path in paths):
            values[name] = None  # the hole shows in trace.coverage
        else:
            values[name] = self_seconds.get(name, 0.0) / pairs
    for name, timed_name in seams.CALL_COUNTS.items():
        values[name] = (None if values[timed_name] is None
                        else calls.get(timed_name, 0) / pairs)
    if values["graph.adjacency_build_s"] is not None:
        # the lazy adjacency index is built by the first query only
        values["graph.adjacency_build_s"] = cold_seconds.get(
            "graph.adjacency_build_s", 0.0)
    for name in ("graph.build_s", "graph.store_build_s",
                 "graph.store_open_s", "service.start_s",
                 "service.shutdown_s"):
        values[name] = edge_seconds.get(name)

    last = traced_units[-1]
    if last.snapshot:
        values.update(catalogue.counts_from_totals(
            catalogue.registry_totals(last.snapshot)))
        values.update(catalogue.exec_from_snapshot(last.snapshot))
    values.update(extra)

    scheduler = [values.get(f"core.scheduler.{part}_s")
                 for part in ("resolve", "fill", "drain")]
    embeddings = values.get("core.scheduler.embeddings")
    if embeddings and None not in scheduler and sum(scheduler):
        values["core.scheduler.us_per_embedding"] = (
            1e6 * sum(scheduler) / embeddings)
    kernels = [values.get("core.kernels.extend_s"),
               values.get("core.kernels.iep_s")]
    probed = values.get("core.kernels.probe_elements")
    if probed and None not in kernels and sum(kernels):
        values["core.kernels.ns_per_probe_element"] = (
            1e9 * sum(kernels) / probed)

    if reference is not None and reference.latencies:
        # as measured, both: the reference has no probe either side
        values["exec.speedup_vs_inline"] = (
            statistics.median(reference.latencies)
            / statistics.median(raw_plain_walls))
    values["obs.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        - 1.0)
    covered = sum(seconds for name, seconds in self_seconds.items()
                  if name != "iteration")
    values["trace.coverage"] = covered / (
        sum(raw_traced_walls) * workload.clients)
    values["cold_run_s"] = cold_wall
    values["import_s"] = import_s
    values["host.calib_s"] = statistics.median(probes)

    tracer.dump(trace_path, {"workload": workload.name, "seed": seed,
                             "mode": sizes.mode})
    result = {name: _metric(name, values.get(name))
              for name, _, _ in catalogue.PER_LAYER}
    detail = {
        "pairs": pairs,
        "untraced_wall_s": summarize(plain_walls),
        "traced_wall_s": summarize(traced_walls),
        "host_probe_s": summarize(probes),
        "missing_seams": sorted(missing),
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped,
        "trace_file": os.path.basename(trace_path),
        "counts": last.counts,
    }
    return result, detail


# ---------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    sizes: Sizes,
    out_dir: str,
    import_s: float,
    expected_path: Path = EXPECTED_PATH,
) -> dict:
    """Measure one workload in this interpreter; returns its record.
    ``import_s`` is what importing the program cost this interpreter."""
    workload = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    pin = load_pin(expected_path, sizes, name, seed)
    checker = _Checker(workload, pin)
    if workload.cpus == 1:
        pin_to_one_cpu()
    probe = Probe()
    with tempfile.TemporaryDirectory(prefix=f"{name}.", dir=out_dir) \
            as scratch:
        if traced:
            result, detail = _run_traced(
                workload, seed, seconds, sizes, scratch, checker, probe,
                import_s, os.path.join(out_dir, f"{name}.trace.json"),
            )
        else:
            result, detail = _run_untraced(
                workload, seed, seconds, sizes, scratch, checker, probe)
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "mode": sizes.mode,
        "trace": traced,
        "seconds": seconds,
        "host": host_info(),
        "counts_pinned": pin is not None,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_share": checker.failed / max(1, checker.attempted),
        "correct": checker.failed == 0,
        "failures": checker.messages,
        "metrics": result,
        **detail,
    }


def driver_line(record: dict) -> str:
    """The one-line result the benchmark contract asks for.

    The contract wants every end-to-end metric from every workload and
    none that is ever 0, so for a batch workload — which has no service
    metrics: its record, ``run`` and ``compare`` leave them out — the
    line restates ``wall_s`` as a closed loop of one client would read
    it (1 / wall_s queries per second, every latency 1000 x wall_s).
    A per-layer metric that does not apply to the workload, or whose
    seam is gone, is ``null`` in the record and 0 here (the line
    carries numbers only)."""
    values = {name: metric["value"] or 0.0
              for name, metric in record["metrics"].items()}
    if not record["trace"] and "queries_per_s" not in values:
        values["queries_per_s"] = 1.0 / values["wall_s"]
        values["query_p50_ms"] = values["query_p95_ms"] = (
            1e3 * values["wall_s"])
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": catalogue.UNITS[name]}
                    for name, value in values.items()},
    })
