"""Out-of-core scale sweep: ram vs mmap storage across decades (docs/storage.md).

Like ``bench_wallclock`` this measures *real* seconds, not simulated
time. The question it answers: what does backing the CSR with a
memory-mapped store file (``--storage mmap``) cost relative to the
resident-array baseline, and does that cost stay bounded as the graph
grows past the resident cap? Both storages are built from the *same*
edge-batch stream — the in-memory graph through
``from_edge_batches``, the store through the spill/merge builder —
so the sweep also pins, at every decade, that the two are equal array
for array and count for count.

Every decade is a Chung-Lu graph with the ``wdc`` analogue's shape
(exponent 1.9, hub cap 4000) scaled to ``factor`` times its
vertex/edge counts, with the resident cap pinned *below* the graph's
``size_bytes()`` so ``--storage auto`` would flip to mmap at every
row (asserted inside :func:`measure`).

Two entry points:

- ``pytest benchmarks/bench_scale.py`` — the smoke variant (1x and 3x
  the wdc analogue, what ``make perf-check``/``make storage-check``
  CI runs): counts must be bit-identical and the mmap-over-ram wall
  ratio must stay under :data:`MMAP_OVER_RAM_MAX`.
- ``python benchmarks/bench_scale.py --gate`` — the full 10x/30x/100x
  sweep, written to ``.benchmarks/scale.json`` (git-ignored; the
  tracked BENCH_PR10.json is the frozen record of the last committed
  sweep):
  additionally gates that the out-of-core *slowdown* grows
  sub-linearly per decade — between consecutive decades the
  mmap-over-ram ratio may grow by far less than the CSR-entry ratio
  (:data:`SUBLINEAR_MARGIN`), i.e. taking the graph another 10x past
  the resident cap must not multiply the storage penalty.

The decade gate is about the *storage* cost, deliberately not the
mining wall itself: triangle work on the wdc-shaped hub distribution
is mildly super-linear in edges by nature (``decade_steps`` records
the raw wall ratios for the curious), whereas the mapped-vs-resident
penalty is the thing this layer owns and must keep flat.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.cluster import ClusterConfig
from repro.graph import from_edge_batches
from repro.graph.generators import power_law_edge_batches
from repro.graph.storage import build_store, open_store, resolve_storage
from repro.patterns import catalog
from repro.systems import KAutomine

from benchmarks.bench_wallclock import cpu_info
from benchmarks.conftest import BENCH_DIR, emit_json, run_once

#: the base decade — the ``wdc`` analogue's generator shape at scale
#: 1.0, the largest bundled synthetic dataset (datasets.py)
BASE_VERTICES = 7_000
BASE_EDGES = 90_000
_EXPONENT = 1.9
_SEED = 19
#: the hub cap stays *fixed* across decades (unlike ``dataset(scale=)``,
#: which grows it): per-edge triangle work is then bounded by the same
#: constant at every decade, so wall time growing slower than edge
#: count is a storage-layer property, not a degree-distribution one
_MAX_DEGREE = 4_000

#: multiples of the wdc analogue; the sweep of BENCH_PR10.json
_FULL_DECADES = (10, 30, 100)
#: the CI smoke set (seconds, not minutes)
_SMOKE_DECADES = (1, 3)
#: simulated machine count shared by every timed run
_NUM_MACHINES = 8
#: resident cap as a fraction of ``Graph.size_bytes()`` — below 1.0 by
#: construction, so every row models a graph that does NOT fit
RESIDENT_CAP_FRACTION = 0.5

#: ``make perf-check`` floor: the mmap-backed run may cost at most
#: this multiple of the resident-array run. Measured smoke ratios sit
#: near 1.0 (the kernels gather from the page-cache-warm mapping at
#: RAM speed); 2.0 leaves room for cold caches and noisy CI hosts.
MMAP_OVER_RAM_MAX = 2.0
#: full-sweep decade gate: the growth of the mmap-over-ram ratio
#: between consecutive decades must stay below the CSR-entry growth
#: times this margin. Measured ratio growth is ~1.0x (the penalty is
#: flat) against ~3.3x entry growth, so 0.5 still means "another
#: decade out of core costs far less than another decade of graph"
#: while tolerating very noisy hosts.
SUBLINEAR_MARGIN = 0.5

_OUT = BENCH_DIR / "scale.json"
_PATTERN = "clique3"


def _edge_batches(factor: int):
    """The decade's deterministic Chung-Lu edge stream."""
    return power_law_edge_batches(
        BASE_VERTICES * factor,
        BASE_EDGES * factor,
        exponent=_EXPONENT,
        max_degree=_MAX_DEGREE,
        seed=_SEED,
    )


def _time_run(graph, graph_name, repeats):
    """Best-of-``repeats`` wall seconds of one triangle-count run."""
    pattern = catalog.clique(3)
    best = None
    report = None
    for _ in range(repeats):
        system = KAutomine(
            graph,
            ClusterConfig(num_machines=_NUM_MACHINES),
            graph_name=graph_name,
        )
        started = perf_counter()
        report = system.count_pattern(pattern)
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, report


def measure(decades, repeats: int = 2,
            store_dir: Optional[Path] = None) -> dict:
    """Build every decade both ways, assert equality, time both.

    ``store_dir`` holds the ``.kcsr`` files (a fresh temp directory
    when None — the sweep always measures a *build*, never a cached
    store).
    """
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as scratch:
        directory = Path(store_dir) if store_dir is not None else Path(scratch)
        for factor in decades:
            name = f"wdc-like-{factor}x"
            started = perf_counter()
            ram = from_edge_batches(_edge_batches(factor))
            ram_build = perf_counter() - started

            path = directory / f"{name}.kcsr"
            started = perf_counter()
            stats = build_store(_edge_batches(factor), path)
            store_build = perf_counter() - started
            mapped = open_store(path)

            assert mapped == ram, f"{name}: store deviates from eager build"
            cap = int(ram.size_bytes() * RESIDENT_CAP_FRACTION)
            assert resolve_storage("auto", ram.size_bytes(), cap) == "mmap", (
                f"{name}: resident cap {cap} failed to force mmap"
            )

            ram_wall, ram_report = _time_run(ram, name, repeats)
            mmap_wall, mmap_report = _time_run(mapped, name, repeats)
            assert mmap_report.counts == ram_report.counts, (
                f"storage divergence on {name}: "
                f"{mmap_report.counts} != {ram_report.counts}"
            )
            assert (
                mmap_report.simulated_seconds
                == ram_report.simulated_seconds
            ), f"simulated-time divergence on {name}"

            # what the kernels built in RAM beside the CSR on first use
            # (the runs above did): composite keys, hub rows and ranks,
            # hub columns and tails. A mapped graph pays them resident
            # like any other.
            adjacency_rows, _ = mapped.adjacency_matrix()
            rows.append({
                "decade": factor,
                "graph": name,
                "pattern": _PATTERN,
                "vertices": ram.num_vertices,
                "candidate_edges": BASE_EDGES * factor,
                "csr_entries": ram.num_directed_edges,
                "graph_bytes": ram.size_bytes(),
                "derived_bytes": mapped.derived_bytes(),
                "adjacency_rows": len(adjacency_rows),
                "store_bytes": path.stat().st_size,
                "resident_cap_bytes": cap,
                "spill_runs": stats.spill_runs,
                "merge_batches": stats.merge_batches,
                "ram_build_seconds": ram_build,
                "store_build_seconds": store_build,
                "count": ram_report.counts,
                "simulated_seconds": ram_report.simulated_seconds,
                "ram_wall_seconds": ram_wall,
                "mmap_wall_seconds": mmap_wall,
                "mmap_over_ram": (
                    mmap_wall / ram_wall if ram_wall else 0.0
                ),
            })
    steps = []
    for prev, cur in zip(rows, rows[1:]):
        entries_ratio = cur["csr_entries"] / prev["csr_entries"]
        steps.append({
            "from_decade": prev["decade"],
            "to_decade": cur["decade"],
            "entries_ratio": entries_ratio,
            "ram_wall_ratio": (
                cur["ram_wall_seconds"] / prev["ram_wall_seconds"]
                if prev["ram_wall_seconds"] else 0.0
            ),
            "mmap_wall_ratio": (
                cur["mmap_wall_seconds"] / prev["mmap_wall_seconds"]
                if prev["mmap_wall_seconds"] else 0.0
            ),
            "slowdown_growth": (
                cur["mmap_over_ram"] / prev["mmap_over_ram"]
                if prev["mmap_over_ram"] else 0.0
            ),
        })
    return {
        "bench": "scale_sweep_storage",
        "cpus": cpu_info(),
        "repeats": repeats,
        "resident_cap_fraction": RESIDENT_CAP_FRACTION,
        "rows": rows,
        "decade_steps": steps,
    }


def gate_failures(result: dict, ratio_max: float = MMAP_OVER_RAM_MAX,
                  sublinear_margin: Optional[float] = None):
    """Storage gates: per-row mmap-over-ram ceiling, and (full sweep
    only — pass ``sublinear_margin``) sub-linear decade scaling."""
    failures = []
    for row in result["rows"]:
        if row["mmap_over_ram"] > ratio_max:
            failures.append(
                f"{row['graph']}: mmap_over_ram "
                f"{row['mmap_over_ram']:.2f} > gate {ratio_max:.2f}"
            )
    if sublinear_margin is not None:
        for step in result["decade_steps"]:
            bound = step["entries_ratio"] * sublinear_margin
            if step["slowdown_growth"] >= bound:
                failures.append(
                    f"decade {step['from_decade']}x->"
                    f"{step['to_decade']}x: mmap-over-ram slowdown "
                    f"grew {step['slowdown_growth']:.2f}x for "
                    f"{step['entries_ratio']:.2f}x the entries "
                    f"(sub-linear bound {bound:.2f})"
                )
    return failures


def test_scale_smoke(benchmark):
    """The storage leg of ``make perf-check``: at 1x and 3x the wdc
    analogue, the mmap-backed graph must equal the resident one array
    for array, count bit-identically, and cost at most
    :data:`MMAP_OVER_RAM_MAX` times the resident wall clock (the
    equality/count assertions live inside :func:`measure`)."""
    result = run_once(benchmark, lambda: measure(_SMOKE_DECADES, repeats=2))
    emit_json(result, _OUT)
    assert result["rows"]
    failures = gate_failures(result, MMAP_OVER_RAM_MAX)
    assert not failures, (
        "mmap-over-ram wall gate failed: " + "; ".join(failures)
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="ram-vs-mmap storage scale sweep (docs/storage.md)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the 1x/3x CI decades instead of the full 10x/30x/100x",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="runs per (decade, storage); best is reported (default 2)",
    )
    parser.add_argument(
        "--out", type=Path, default=_OUT,
        help=f"output JSON path (default {_OUT})",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="fail (exit 1) if any row exceeds the mmap-over-ram "
             f"ceiling ({MMAP_OVER_RAM_MAX}) or, unless --smoke, the "
             "mmap-over-ram slowdown grows super-linearly across any "
             f"decade step (margin {SUBLINEAR_MARGIN})",
    )
    parser.add_argument(
        "--store-dir", type=Path, default=None, metavar="DIR",
        help="keep the built .kcsr stores in DIR instead of a "
             "throwaway temp directory",
    )
    args = parser.parse_args(argv)
    decades = _SMOKE_DECADES if args.smoke else _FULL_DECADES
    result = measure(decades, repeats=args.repeats,
                     store_dir=args.store_dir)
    emit_json(result, args.out)
    if args.gate:
        margin = None if args.smoke else SUBLINEAR_MARGIN
        failures = gate_failures(result, MMAP_OVER_RAM_MAX, margin)
        if failures:
            print("storage scale gate FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"storage scale gate ok (ratio <= {MMAP_OVER_RAM_MAX}"
              + ("" if margin is None
                 else f", sub-linear margin {margin}") + ")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
