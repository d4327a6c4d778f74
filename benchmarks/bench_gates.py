"""Wall-clock gates: what ``make perf-check`` holds about real seconds.

The paper-figure benchmarks beside this file report *simulated* time.
These tests hold the few things a change must not lose in *wall* time,
each as a pass/fail bound next to the exact-answer check that makes the
comparison fair. Every gate runs both of its variants on one loaded
graph in one process and prints both answers and both times on one
line (GraphPi's ``restricts_compare_test`` idiom):

- **backends agree** — inline and ``ProcessBackend`` give the same
  counts and simulated seconds;
- **process gate** — the process backend reaches the CPU- and
  work-aware floor :func:`process_speedup_floor` (report-only on fewer
  than 4 CPUs);
- **storage ceiling** — an mmap-backed graph equals the eager build and
  costs at most :data:`MMAP_OVER_RAM_MAX` times its wall;
- **census ratio** — IEP counting gives enumeration's census at least
  :data:`MOTIF_GATE_FLOOR` times faster;
- **service amortization** — a resident server answers a mixed trace
  bit-identically to one-shot CLI runs, and its service p50 beats the
  fastest of them.

Wall-clock claims (how fast, per layer) come from ``python -m
perfbench``; docs/performance.md, "Measuring".
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.exec import ProcessBackend
from repro.graph import dataset, from_edge_batches
from repro.graph.generators import power_law_edge_batches
from repro.graph.storage import build_store, open_store, resolve_storage
from repro.patterns import catalog
from repro.service import (
    MiningServer,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
)
from repro.systems import KAutomine, KGraphPi, apps

from benchmarks.conftest import SCALE

REPO_ROOT = Path(__file__).resolve().parent.parent

#: simulated machine count shared by every timed run
_NUM_MACHINES = 8


def best_of(repeats, system, run):
    """Best-of-``repeats`` wall seconds of ``run(system())`` and the
    last result. Each repeat builds a fresh system off the clock, so
    graph-side lazy caches warm exactly once per process, the same way
    for both variants of a gate."""
    best = result = None
    for _ in range(repeats):
        subject = system()
        started = perf_counter()
        result = run(subject)
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _pattern(spec: str):
    """``clique3``/``chain5``-style spec -> catalog pattern."""
    return getattr(catalog, spec[:-1])(int(spec[-1]))


def _count(graph, name, pattern, backend=None, repeats=1):
    return best_of(
        repeats,
        lambda: KAutomine(graph, ClusterConfig(num_machines=_NUM_MACHINES),
                          graph_name=name, backend=backend),
        lambda system: system.count_pattern(pattern),
    )


# ---------------------------------------------------------------------
# backends agree
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name,scale,spec", [
    ("mico", 0.3, "clique3"),
    ("mico", 0.3, "clique4"),
    # the bundled graphs at full size; the process gate below adds
    # wdc@1.0 clique3 and mico@0.5 chain5
    ("livejournal", 1.0, "clique3"),
    ("mico", 1.0, "clique3"),
    ("mico", 1.0, "clique4"),
    ("livejournal", 0.5, "clique4"),
])
def test_backends_agree(name, scale, spec):
    """Inline and 2-worker process runs report the same counts and
    simulated seconds."""
    graph = dataset(name, scale=scale * SCALE)
    pattern = _pattern(spec)
    inline_wall, inline = _count(graph, name, pattern)
    process_wall, process = _count(graph, name, pattern,
                                   ProcessBackend(workers=2))
    print(f"\n{name}@{scale} {spec}: inline {inline.counts} "
          f"{inline_wall:.3f}s, process(2) {process.counts} "
          f"{process_wall:.3f}s")
    assert process.counts == inline.counts
    assert process.simulated_seconds == inline.simulated_seconds


# ---------------------------------------------------------------------
# process gate
# ---------------------------------------------------------------------
#: CPU seconds one worker process costs on top of its share of the
#: compute: fork, graph attach, the derived structures it rebuilds,
#: shipping its partial, teardown. Measured 0.019-0.034 per worker as
#: (process cpu - inline cpu) / workers on the two gated rows and four
#: small ones at 4 workers (docs/performance.md, "The process
#: backend"); the gate budgets a quarter more.
WORKER_OVERHEAD_CPU_SECONDS = 0.045


def effective_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def process_speedup_floor(inline_seconds: float, workers: int,
                          cpus: int | None = None) -> float:
    """The CPU- and work-aware process-over-inline floor.

    The compute splits essentially perfectly over
    ``lanes = min(workers, cpus)``; what a process run adds is
    per-worker CPU work that shares those lanes:
    ``process ≈ (inline + workers · overhead) / lanes``. So the speedup
    a healthy backend reaches is
    ``lanes · inline / (inline + workers · overhead)`` — at 4 workers
    and 0.2 s of inline work about 2.1x on 4 CPUs, 1.05x on 2, an
    honest regression bound (0.53x) on 1 — and it falls as the inline
    run gets faster, which a constant floor cannot follow.
    """
    cpus = effective_cpus() if cpus is None else cpus
    lanes = min(workers, cpus)
    return lanes * inline_seconds / (
        inline_seconds + workers * WORKER_OVERHEAD_CPU_SECONDS
    )


@pytest.mark.parametrize("name,scale,spec", [
    ("wdc", 1.0, "clique3"),   # the largest bundled graph, triangles
    ("mico", 0.5, "chain5"),   # the deepest search, ~0.2 s inline
])
def test_process_gate(name, scale, spec):
    """4 workers clear the floor this row's inline wall and this host's
    CPUs allow. Best of 4: at ~0.2 s a run, the first process repeats
    can end inside the second or so a shared host takes to give an
    idle-until-now CPU back."""
    graph = dataset(name, scale=scale * SCALE)
    pattern = _pattern(spec)
    workers = 4
    inline_wall, inline = _count(graph, name, pattern, repeats=4)
    process_wall, process = _count(graph, name, pattern,
                                   ProcessBackend(workers=workers),
                                   repeats=4)
    assert process.counts == inline.counts
    assert process.simulated_seconds == inline.simulated_seconds
    speedup = inline_wall / process_wall
    # the backend clamps workers to the machine count
    floor = process_speedup_floor(inline_wall,
                                  min(workers, _NUM_MACHINES))
    cpus = effective_cpus()
    line = (f"{name}@{scale} {spec}: inline {inline.counts} "
            f"{inline_wall:.3f}s, process({workers}) {process.counts} "
            f"{process_wall:.3f}s, speedup {speedup:.2f}, "
            f"floor {floor:.2f} on {cpus} CPUs")
    print("\n" + line)
    if cpus < 4:
        # four workers on fewer CPUs sit *at* the floor (the formula's
        # break-even), so the comparison is a coin toss at any commit:
        # report it, gate it where the lanes exist
        pytest.skip(f"process gate is report-only: {line}")
    assert speedup >= floor, f"process-backend speedup regressed: {line}"


# ---------------------------------------------------------------------
# storage ceiling
# ---------------------------------------------------------------------
#: the mmap-backed run may cost at most this multiple of the
#: resident-array run. Measured ratios sit near 1.0 (the kernels gather
#: from the page-cache-warm mapping at RAM speed); 2.0 leaves room for
#: cold caches and noisy hosts.
MMAP_OVER_RAM_MAX = 2.0
#: resident cap as a fraction of ``Graph.size_bytes()`` — below 1.0, so
#: every decade models a graph that does not fit
RESIDENT_CAP_FRACTION = 0.5


def decade_batches(factor: int):
    """``factor`` times the ``wdc`` analogue's Chung-Lu shape (7 000
    vertices, 90 000 candidate edges, exponent 1.9) as a deterministic
    edge stream. The hub cap stays at 4 000 whatever the factor, so
    per-edge triangle work is bounded by the same constant at every
    decade (docs/storage.md)."""
    return power_law_edge_batches(
        7_000 * factor, 90_000 * factor,
        exponent=1.9, max_degree=4_000, seed=19,
    )


@pytest.mark.parametrize("factor", [1, 3])
def test_storage_ceiling(factor, tmp_path):
    """The store built from a decade's edge stream equals the eager
    build array for array, ``--storage auto`` maps it under a cap below
    its size, both count the same, and mmap costs at most
    :data:`MMAP_OVER_RAM_MAX` times ram."""
    name = f"wdc-like-{factor}x"
    ram = from_edge_batches(decade_batches(factor))
    path = tmp_path / f"{name}.kcsr"
    build_store(decade_batches(factor), path)
    mapped = open_store(path)
    assert mapped == ram, f"{name}: store deviates from eager build"
    cap = int(ram.size_bytes() * RESIDENT_CAP_FRACTION)
    assert resolve_storage("auto", ram.size_bytes(), cap) == "mmap"

    pattern = catalog.clique(3)
    ram_wall, ram_report = _count(ram, name, pattern, repeats=2)
    mmap_wall, mmap_report = _count(mapped, name, pattern, repeats=2)
    ratio = mmap_wall / ram_wall
    print(f"\n{name} clique3: ram {ram_report.counts} {ram_wall:.3f}s, "
          f"mmap {mmap_report.counts} {mmap_wall:.3f}s, "
          f"mmap/ram {ratio:.2f} (max {MMAP_OVER_RAM_MAX})")
    assert mmap_report.counts == ram_report.counts
    assert mmap_report.simulated_seconds == ram_report.simulated_seconds
    assert ratio <= MMAP_OVER_RAM_MAX


# ---------------------------------------------------------------------
# census ratio
# ---------------------------------------------------------------------
#: IEP over enumeration on a full census. Measured well above this
#: (~3x on the 5-motif row); the floor is slack for noisy hosts.
MOTIF_GATE_FLOOR = 1.3


def _census(graph, name, k, counting):
    """Best of 2 full ``k``-motif censuses on k-GraphPi: counting plans
    compile off GraphPi-style schedules, and the IEP-aware order search
    lives in ``graphpi_schedule``. From the second repeat on both sides'
    compiles are memo hits, so the ratio is engine against engine."""
    return best_of(
        2,
        lambda: KGraphPi(graph, ClusterConfig(num_machines=_NUM_MACHINES),
                         EngineConfig(counting=counting), graph_name=name),
        lambda system: apps.motif_count(system, k),
    )


@pytest.mark.parametrize("name,scale,k", [
    ("mico", 0.3, 4),
    ("mico", 1.0, 4),
    ("mico", 0.6, 5),
])
def test_census_ratio(name, scale, k):
    """IEP terminal counting gives the enumeration oracle's induced
    census exactly, at least :data:`MOTIF_GATE_FLOOR` times faster."""
    graph = dataset(name, scale=scale * SCALE)
    enum_wall, enum_report = _census(graph, name, k, "enumerate")
    iep_wall, iep_report = _census(graph, name, k, "iep")
    ratio = enum_wall / iep_wall
    total = sum(enum_report.counts.values())
    print(f"\n{name}@{scale} {k}-MC: enumerate {total} {enum_wall:.3f}s, "
          f"iep {sum(iep_report.counts.values())} {iep_wall:.3f}s, "
          f"ratio {ratio:.2f} (floor {MOTIF_GATE_FLOOR})")
    assert iep_report.counts == enum_report.counts
    assert ratio >= MOTIF_GATE_FLOOR


# ---------------------------------------------------------------------
# service amortization
# ---------------------------------------------------------------------
#: the serving shape: small enough for CI, large enough that a
#: one-shot run pays visible graph-load and partitioning cost
SHAPE = dict(graph="mico", scale=0.2, machines=2, cores=2)
CLI_SHAPE = ("--graph", "mico", "--scale", "0.2", "--machines", "2")

#: the query mix — (kind, CLI argv, request fields)
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
    """One fresh ``python -m repro`` process — interpreter, dataset
    build and partitioning included, what a user without the service
    pays; returns (wall seconds, counts)."""
    env = dict(os.environ, PYTHONPATH="src")
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", argv[0], *CLI_SHAPE, *argv[1:],
         "--metrics", "json"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env=env, timeout=240,
    )
    wall = perf_counter() - started
    assert proc.returncode == 0, (
        f"one-shot run failed ({proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}")
    return wall, json.loads(proc.stdout)["report"]["counts"]


def _normalize(counts):
    """Counts with string keys on both sides of the comparison (the
    CLI report stringifies motif-census tuple keys already)."""
    if isinstance(counts, dict):
        return {str(key): value for key, value in counts.items()}
    return counts


@pytest.mark.service
def test_service_amortization():
    """One resident server answers the seed-8 20-query trace: every
    answer is bit-identical to a one-shot CLI run, nothing is rejected
    or fails, and the per-query service p50 (submit to report, minus
    the open-loop queue wait) beats the fastest one-shot wall."""
    trace = build_trace()
    server = MiningServer(ServiceConfig(**SHAPE)).start()
    try:
        reports = ServiceClient(server).run_trace(trace)
    finally:
        summary = server.shutdown()
    assert summary["ok"] == len(trace), summary
    assert summary["failed"] == 0 and summary["rejected"] == 0

    kinds = [request.id.rsplit("-", 1)[0] for request in trace]
    one_shot = {kind: one_shot_cli(argv) for kind, argv, _ in MIX
                if kind in kinds}
    mismatched = [
        report.id for kind, report in zip(kinds, reports)
        if _normalize(report.counts) != _normalize(one_shot[kind][1])
    ]
    assert not mismatched, f"served counts diverged: {mismatched}"

    service = sorted(report.wall_seconds - report.queue_seconds
                     for report in reports)
    p50 = service[round(0.5 * (len(service) - 1))]
    fastest = min(wall for wall, _ in one_shot.values())
    print(f"\nservice p50 {p50 * 1e3:.1f}ms over {len(trace)} queries, "
          f"fastest one-shot {fastest * 1e3:.1f}ms")
    assert p50 < fastest, (
        f"resident server service p50 ({p50 * 1e3:.1f}ms) did not beat "
        f"the fastest one-shot run ({fastest * 1e3:.1f}ms)"
    )
