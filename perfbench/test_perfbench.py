"""Self-test of the benchmark: ``pytest perfbench/`` (outside tier-1's
``testpaths``; about a minute, almost all of it the smoke run).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, metrics, seams
from perfbench.measure import (
    PROBE_REFERENCE_S,
    Probe,
    at_reference_speed,
    tail_percentile,
)
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BATCH = ("tri-2x", "chain5-mico", "motif5-mico", "tri-2x-proc-mmap")
SERVICE_ONLY = ("queries_per_s", "query_p50_ms", "query_p95_ms")


def _perfbench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT,
        text=True, stdout=subprocess.PIPE, timeout=600,
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = _perfbench("run", "--smoke", "--out", str(out))
    with open(out / "result.json") as handle:
        return done, json.load(handle), out


def test_manifest_lists_the_catalogue(manifest):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(metrics.PER_LAYER)
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])


def test_smoke_prints_every_metric_with_a_unit(manifest, smoke):
    done, result, _ = smoke
    assert done.returncode == 0, done.stdout[-2000:]
    assert [w["name"] for w in manifest["workloads"]] == list(
        result["workloads"])
    for workload in manifest["workloads"]:
        entry = result["workloads"][workload["name"]]
        assert entry["why"] == workload["why"]
        for kind in ("end_to_end", "per_layer"):
            for metric in manifest[kind]:
                assert f"  {metric['name']} " in done.stdout
                if (metric["name"] in SERVICE_ONLY
                        and workload["name"] in BATCH):
                    # it would restate wall_s: the driver's line only
                    assert metric["name"] not in entry[kind]
                    continue
                reported = entry[kind][metric["name"]]
                assert reported["unit"] == metric["unit"], metric["name"]
                if kind == "end_to_end":
                    assert reported["value"] > 0, metric["name"]
                    if metric["unit"] in ("s", "ms", "1/s") \
                            and metric["name"] != "sim_s":
                        # timed: the seconds as measured stay beside it
                        assert reported["raw"] > 0, metric["name"]


def test_smoke_pins_hold_and_invariants_run(smoke):
    _, result, _ = smoke
    for name, entry in result["workloads"].items():
        assert entry["counts_pinned"], name
        assert entry["failed_share"] == 0, (name, entry["failures"])
        assert entry["traced"]["missing_seams"] == [], name
    assert result["invariants"]["tri-2x == tri-2x-proc-mmap"] == {
        "counts": True, "sim_s": True}


def test_trace_covers_the_batch_workloads(smoke):
    _, result, out = smoke
    for name in BATCH:
        entry = result["workloads"][name]
        coverage = entry["per_layer"]["trace.coverage"]["value"]
        assert coverage >= 0.9, (name, coverage)
        assert "obs.overhead_share" in entry["per_layer"]
        with open(out / entry["traced"]["trace_file"]) as handle:
            trace = json.load(handle)
        assert trace["columns"] == ["name", "start_ns", "end_ns", "parent",
                                    "iteration"]
        assert len(trace["spans"]) == entry["traced"]["spans"]


def test_a_wrong_pin_fails_the_run(tmp_path, manifest):
    with open(ROOT / "perfbench" / "expected.json") as handle:
        expected = json.load(handle)
    expected["smoke"]["tri-2x"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    done = _perfbench("bench", "--workload", "tri-2x", "--seed", "19",
                      "--smoke", "--out", str(tmp_path),
                      "--expected", str(wrong))
    line = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode != 0
    assert not line["correct"] and line["failed"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # the driver's line carries every end-to-end metric, none of them 0
    assert list(line["metrics"]) == [m["name"]
                                     for m in manifest["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_other_seeds_skip_the_pins(tmp_path):
    done = _perfbench("bench", "--workload", "tri-2x", "--seed", "7",
                      "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0
    assert "counts_pinned=false" in done.stdout


def test_compare_verdicts(smoke):
    _, result, _ = smoke
    rows = compare.compare(result, result)
    assert len(rows) == (5 * (len(metrics.END_TO_END) + 1)
                         - len(BATCH) * len(SERVICE_ONLY))
    assert {row["verdict"] for row in rows} <= {"within", "unresolved"}

    slower = json.loads(json.dumps(result))
    wall = slower["workloads"]["tri-2x"]["end_to_end"]["wall_s"]
    wall["value"] *= 2
    wall["noise"] = result["workloads"]["tri-2x"]["end_to_end"][
        "wall_s"]["noise"] = 0.0
    sim = slower["workloads"]["chain5-mico"]["end_to_end"]["sim_s"]
    sim["value"] *= 1 - 1e-6  # "better", but the model moved
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.compare(result, slower)}
    assert verdicts["tri-2x", "wall_s"] == "worse"
    assert verdicts["chain5-mico", "sim_s"] == "worse"
    assert verdicts["motif5-mico", "sim_s"] == "within"


def test_compare_gives_setup_an_absolute_floor():
    def document(setup_s):
        return {"workloads": {"w": {
            "failed_share": 0.0,
            "end_to_end": {"setup_s": {"value": setup_s, "noise": 0.0}},
        }}}

    def verdict(base, new):
        rows = compare.compare(document(base), document(new))
        return rows[0]["verdict"]

    assert verdict(0.001, 0.2) == "within"  # 200x, but under 0.25 s
    assert verdict(0.001, 0.3) == "worse"
    assert verdict(2.0, 2.4) == "within"
    assert verdict(2.0, 2.6) == "worse"  # over 25 %


def test_a_vanished_seam_degrades():
    tracer = Tracer()
    table = {"gone_s": ("perfbench.measure:NoSuchClass.method",
                        "no_such_module:function")}
    with tracer.tracing(table, 0) as missing:
        assert sorted(missing) == sorted(table["gone_s"])
    assert seams.resolve("perfbench.measure:quartiles") is not None


def test_samples_are_reported_at_the_reference_speed():
    assert at_reference_speed(PROBE_REFERENCE_S, PROBE_REFERENCE_S) == 1.0
    # a host half as fast: the probes take twice as long, and so did
    # the sample between them
    assert at_reference_speed(2 * PROBE_REFERENCE_S,
                              2 * PROBE_REFERENCE_S) == 0.5
    assert 0.2 * PROBE_REFERENCE_S < Probe().run() < 20 * PROBE_REFERENCE_S


def test_tail_percentile_needs_samples_beyond():
    assert tail_percentile(list(range(1000))) == (949, 0.95)
    assert tail_percentile(list(range(40)))[1] == 0.75
    assert tail_percentile([3.0, 1.0, 2.0]) == (2.0, 0.5)
