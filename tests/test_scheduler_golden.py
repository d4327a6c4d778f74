"""Golden of the chunk scheduler's observables (tests/data/scheduler_golden.json).

The golden was recorded at the commit *before* chunks became columnar
(the per-embedding-object scheduler), by running this very file:

    PYTHONPATH=src python tests/test_scheduler_golden.py --write

Every case is one inline engine run with observability on. What is
pinned: counts, chunk/HDS/fetch-source tallies, the traffic matrix,
peak memory, the fault/recovery tallies and the whole metrics registry
(per-machine ``extend.*``/``kernel.*``/``cache.*``/``hds.*``/...
series). Integers must reproduce exactly. Simulated floats are priced
from order-free integer tallies (docs/performance.md), so they may sit
ulps away from the recorded per-embedding fold: they must agree within
``1e-12`` relative. One kind of float has no meaningful relative
error: a chunk whose communication is fully hidden charges
``max(0, wall - compute)`` of exposed network time, which is 0 or the
last-bit residue of two nearly equal seconds (1e-21 where the run takes
1e-5), so a bucket made only of those is compared on the scale of the
run — within ``1e-12`` of its ``simulated_seconds``.

``EngineConfig`` floors ``chunk_bytes`` at 1 KiB, so the smallest
chunk is 1024 bytes — about 40 bare embeddings, or a dozen with a
reserved edge list each, which is small enough that most fills pause
in the middle of one parent's candidates.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import CachePolicy, EngineConfig, KhuzdulEngine
from repro.faults import FaultPlan
from repro.graph.generators import erdos_renyi, power_law_graph
from repro.obs import Observability
from repro.patterns import catalog
from repro.patterns.schedule import automine_schedule, graphpi_schedule

GOLDEN = Path(__file__).parent / "data" / "scheduler_golden.json"
RELATIVE = 1e-12

GRAPHS = {
    "er": lambda: erdos_renyi(48, 180, seed=3),
    "skew": lambda: power_law_graph(90, 330, exponent=2.0, seed=7),
}

#: name -> (schedules, extra config)
WORKLOADS = {
    "clique3": lambda: ([automine_schedule(catalog.clique(3))], {}),
    "clique4-induced": lambda: (
        [automine_schedule(catalog.clique(4), induced=True)], {}),
    "chain4": lambda: ([automine_schedule(catalog.chain(4))], {}),
    "chain5": lambda: ([automine_schedule(catalog.chain(5))], {}),
    "motif4-iep": lambda: (
        [graphpi_schedule(p) for p in catalog.motifs(4)],
        {"counting": "iep"}),
}

CHUNK_BYTES = (1024, 2048, 1 << 20)

VARIANTS = {
    "base": {},
    "hds-off": {"hds": False},
    "hds-chaining": {"hds_chaining": True, "hds_slots": 16},
    "cache0": {"cache_fraction": 0.0},
    "cache20": {"cache_fraction": 0.2},
    "vcs-off": {"vcs": False},
    "lru": {"cache_policy": CachePolicy.LRU, "cache_fraction": 0.05,
            "hds": False},
    # cuts the larger workloads short (TIMEOUT) with chunks half
    # consumed on the stack: what was metered by then is pinned too
    "budget": {"time_budget": 2e-5},
}

#: one crash mid-run (its shard is replayed by the survivors), flaky
#: fetches with retries, one straggler: ends RECOVERED with full counts
FAULTS = "crash:m1@chunk=3;flaky:p=0.05;slow:m2@x=2;seed:5"


def cases():
    for graph in GRAPHS:
        for workload in WORKLOADS:
            for chunk_bytes in CHUNK_BYTES:
                for variant in VARIANTS:
                    # the full product under the default config; the
                    # config axes on the smallest chunk size, where the
                    # resolve/refund/pause paths run most often
                    if variant != "base" and chunk_bytes != CHUNK_BYTES[0]:
                        continue
                    for faulty in (False, True):
                        if faulty and variant not in ("base", "cache20",
                                                      "hds-chaining"):
                            continue
                        yield (graph, workload, chunk_bytes, variant, faulty)


def case_id(case) -> str:
    graph, workload, chunk_bytes, variant, faulty = case
    return (f"{graph}/{workload}/chunk{chunk_bytes}/{variant}/"
            f"{'faults' if faulty else 'clean'}")


def observe(case) -> dict:
    """One run's pinned observables, JSON-shaped."""
    graph_name, workload, chunk_bytes, variant, faulty = case
    graph = GRAPHS[graph_name]()
    schedules, extra = WORKLOADS[workload]()
    config = dict(chunk_bytes=chunk_bytes, **VARIANTS[variant], **extra)
    if faulty:
        config["faults"] = FaultPlan.parse(FAULTS)
    cluster = Cluster(
        graph, ClusterConfig(num_machines=4, memory_bytes=64 << 20)
    )
    obs = Observability()
    engine = KhuzdulEngine(cluster, EngineConfig(**config), obs=obs)
    report = engine.run_many(schedules)
    extra_out = {
        key: report.extra[key]
        for key in ("chunks", "hds", "fetch_sources", "requests",
                    "serve_seconds", "faults", "recovery")
        if key in report.extra
    }
    return {
        "counts": report.counts,
        "outcome": report.outcome,
        "simulated_seconds": report.simulated_seconds,
        "breakdown": report.breakdown,
        "machine_breakdowns": report.machine_breakdowns,
        "machine_seconds": report.machine_seconds,
        "network_bytes": report.network_bytes,
        "traffic": cluster.network.traffic_bytes.tolist(),
        "peak_memory_bytes": report.peak_memory_bytes,
        "cache_entries": report.cache_entries,
        "extra": extra_out,
        "registry": _compact(obs.registry.snapshot()),
    }


def _compact(snapshot: dict) -> dict:
    """``{kind: {name: [one value per label series, in label order]}}``
    — the label strings themselves (``machine=0`` ...) repeat on every
    series of every case and pin nothing the order does not."""
    return {
        kind: {
            name: [series[label] for label in sorted(series)]
            for name, series in names.items()
        }
        for kind, names in snapshot.items()
    }


def mismatches(expected, actual, scale, path=""):
    """Paths where ``actual`` departs from ``expected``: integers and
    strings exactly, floats within ``RELATIVE`` of themselves or of
    ``scale`` (the run's simulated seconds)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            yield f"{path}: keys {sorted(expected)} != {sorted(actual)}"
            return
        for key in expected:
            yield from mismatches(expected[key], actual[key], scale,
                                  f"{path}/{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            yield f"{path}: length differs"
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            yield from mismatches(e, a, scale, f"{path}[{index}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        if not math.isclose(expected, actual, rel_tol=RELATIVE,
                            abs_tol=RELATIVE * scale):
            yield f"{path}: {expected!r} != {actual!r}"
    elif expected != actual:
        yield f"{path}: {expected!r} != {actual!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case_id(case) for case in cases())


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_reproduces_golden(golden, case):
    # through JSON so tuples/ints/floats compare in the recorded shape
    actual = json.loads(json.dumps(observe(case)))
    expected = golden[case_id(case)]
    assert math.isclose(expected["simulated_seconds"],
                        actual["simulated_seconds"], rel_tol=RELATIVE)
    assert list(mismatches(expected, actual,
                           expected["simulated_seconds"])) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_scheduler_golden.py --write")
    GOLDEN.write_text(json.dumps(
        {case_id(case): observe(case) for case in cases()},
        sort_keys=True, separators=(",", ":"),
    ).replace('},"', '},\n"') + "\n")
    print(f"wrote {GOLDEN}")
