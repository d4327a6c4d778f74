"""Latency/throughput load harness for the resident mining service.

One resident :class:`MiningServer` answers a seed-deterministic mixed
trace (triangle counts, clique counts, motif censuses, mixed
priorities) through the in-process :class:`ServiceClient`; the harness
reports per-query p50/p99 latency and sustained queries/sec, then
pits the server against honest *one-shot* baselines — fresh
``python -m repro`` subprocesses that pay the interpreter, dataset
build, and cluster partitioning on every query, exactly what a user
without the service pays. The headline the smoke test gates on: the
resident server's p50 latency beats the one-shot wall-clock (graph
load amortized across tenants), while every served count stays
bit-identical to its one-shot run.

Two entry points:

- ``pytest benchmarks/bench_service.py`` — what ``make service-check``
  runs; writes ``.benchmarks/service.json`` (git-ignored, like
  ``wallclock.json``; the tracked ``BENCH_PR8.json`` is the frozen
  record of the PR that added the service).
- ``python benchmarks/bench_service.py [--out PATH]`` — the same
  measurement standalone, with a configurable trace length.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import pytest

from benchmarks.conftest import emit_json
from repro.service import (
    MiningServer,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
)

pytestmark = pytest.mark.service

REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT = REPO_ROOT / ".benchmarks" / "service.json"

#: the serving shape: small enough for CI, large enough that a
#: one-shot run pays visible graph-load + partitioning cost
SHAPE = dict(graph="mico", scale=0.2, machines=2, cores=2)
CLI_SHAPE = ("--graph", "mico", "--scale", "0.2", "--machines", "2")

CLI_TIMEOUT = 240

#: the query mix — (kind, CLI argv, request fields); every kind in the
#: trace is also measured once as a one-shot subprocess baseline
MIX = (
    ("triangle", ("count", "--pattern", "clique3"),
     dict(app="triangle")),
    ("clique4", ("count", "--pattern", "clique4"),
     dict(app="count", pattern="clique4")),
    ("chain3", ("count", "--pattern", "chain3"),
     dict(app="count", pattern="chain3")),
    ("star3", ("count", "--pattern", "star3"),
     dict(app="count", pattern="star3")),
    ("motifs3", ("motifs", "--size", "3"),
     dict(app="motifs", size=3)),
)


def build_trace(length: int = 20, seed: int = 8) -> list[QueryRequest]:
    """Seed-deterministic mixed trace with interleaved priorities."""
    rng = random.Random(seed)
    trace = []
    for index in range(length):
        kind, _, fields = MIX[rng.randrange(len(MIX))]
        trace.append(QueryRequest(
            id=f"{kind}-{index:02d}",
            priority=rng.randrange(0, 10),
            **fields,
        ))
    return trace


def one_shot_cli(argv: tuple[str, ...]) -> tuple[float, object]:
    """One fresh CLI subprocess; returns (wall seconds, counts)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", argv[0], *CLI_SHAPE, *argv[1:],
         "--metrics", "json"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env=env, timeout=CLI_TIMEOUT,
    )
    wall = perf_counter() - started
    assert proc.returncode == 0, (
        f"one-shot run failed ({proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}")
    report = json.loads(proc.stdout)["report"]
    return wall, report["counts"]


def measure(trace_length: int = 20, seed: int = 8,
            workers: int = 0) -> dict:
    """Serve the trace and the one-shot baselines; build the document."""
    trace = build_trace(trace_length, seed)
    server = MiningServer(ServiceConfig(**SHAPE, workers=workers)).start()
    try:
        reports = ServiceClient(server).run_trace(trace)
    finally:
        summary = server.shutdown()

    # honest baselines: every kind the trace used, one fresh process
    # each (the dataset cache in this process would be a lie)
    baselines = {}
    kinds_used = {request.id.rsplit("-", 1)[0] for request in trace}
    for kind, argv, _ in MIX:
        if kind in kinds_used:
            wall, counts = one_shot_cli(argv)
            baselines[kind] = {"wall_seconds": wall, "counts": counts}

    rows = []
    for request, report in zip(trace, reports):
        kind = request.id.rsplit("-", 1)[0]
        rows.append({
            "id": report.id,
            "kind": kind,
            "priority": report.priority,
            "outcome": report.outcome,
            "wall_ms": report.wall_seconds * 1e3,
            "queue_ms": report.queue_seconds * 1e3,
            # time actually spent serving: submit-to-report minus the
            # open-loop queue wait behind earlier tenants
            "service_ms": (report.wall_seconds
                           - report.queue_seconds) * 1e3,
            "counts_match_one_shot": (
                _normalize(report.counts)
                == _normalize(baselines[kind]["counts"])
            ),
        })
    service_ms = sorted(row["service_ms"] for row in rows)
    one_shot_walls = sorted(b["wall_seconds"] for b in baselines.values())
    return {
        "bench": "service-load",
        "shape": SHAPE,
        "trace_length": trace_length,
        "seed": seed,
        "workers": workers,
        # open-loop numbers: all queries submitted up front, so wall
        # latency includes queue wait — the throughput-side view
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "queries_per_second": summary["queries_per_second"],
        "wall_seconds": summary["wall_seconds"],
        # per-query service latency with the queue wait stripped —
        # what one tenant pays on an idle resident server, and the
        # number the one-shot amortization headline compares against
        "p50_service_ms": _nearest_rank(service_ms, 0.50),
        "p99_service_ms": _nearest_rank(service_ms, 0.99),
        "ok": summary["ok"],
        "rejected": summary["rejected"],
        "failed": summary["failed"],
        "one_shot_min_wall_seconds": one_shot_walls[0],
        "one_shot_walls_seconds": {
            kind: b["wall_seconds"] for kind, b in baselines.items()
        },
        "amortization_speedup_p50": (
            one_shot_walls[0] / (_nearest_rank(service_ms, 0.50) / 1e3)
            if service_ms and service_ms[0] > 0 else 0.0
        ),
        "rows": rows,
    }


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _normalize(counts):
    """Counts with string keys on both sides of the comparison (the
    CLI report stringifies motif-census tuple keys already)."""
    if isinstance(counts, dict):
        return {str(key): value for key, value in counts.items()}
    return counts


# ---------------------------------------------------------------------
# pytest entry point (make service-check)
# ---------------------------------------------------------------------
def test_service_load_harness():
    """The acceptance gate: a 20-query mixed trace served by one
    resident server is bit-identical to one-shot runs, nothing fails,
    and the amortized p50 beats the cheapest one-shot wall-clock."""
    result = measure(trace_length=20, seed=8)
    emit_json(result, _OUT)
    assert result["ok"] == result["trace_length"], result
    assert result["failed"] == 0 and result["rejected"] == 0
    mismatched = [row["id"] for row in result["rows"]
                  if not row["counts_match_one_shot"]]
    assert not mismatched, f"served counts diverged: {mismatched}"
    p50 = result["p50_service_ms"] / 1e3
    assert p50 < result["one_shot_min_wall_seconds"], (
        f"resident server service p50 "
        f"({result['p50_service_ms']:.1f}ms) did not beat the fastest "
        f"one-shot run "
        f"({result['one_shot_min_wall_seconds'] * 1e3:.1f}ms) — the "
        f"graph-load amortization headline regressed"
    )


# ---------------------------------------------------------------------
# standalone sweep
# ---------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="latency/throughput load bench of the mining service"
    )
    parser.add_argument("--trace-length", type=int, default=20)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--workers", type=int, default=0,
                        help="serving worker processes (0 = in-process)")
    parser.add_argument("--out", type=Path, default=_OUT,
                        help=f"output JSON path (default {_OUT})")
    args = parser.parse_args(argv)
    result = measure(args.trace_length, args.seed, workers=args.workers)
    emit_json(result, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
