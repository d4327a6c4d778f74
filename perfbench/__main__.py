"""Command line of the benchmark (run from the repo root).

``bench``    one workload in this interpreter — what the benchmark
             driver calls: ``--workload W --seed N --seconds S --trace
             0|1``; the last line of standard output is the result.
``run``      all five workloads, each in fresh child interpreters (an
             untraced and a traced ``bench``), cross-workload checks,
             one result document.
``compare``  two result documents, one verdict per (workload, metric).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from perfbench import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
#: measuring window of one bench run, seconds (BENCHMARK.json run_seconds)
RUN_SECONDS = 20
#: build outputs, traces and per-workload records (git-ignored)
DEFAULT_OUT = ".perfbench_out"
WORKLOAD_NAMES = ("tri-2x", "chain5-mico", "motif5-mico",
                  "tri-2x-proc-mmap", "service-mix")


def _require_repro() -> None:
    """Make the program under test importable here and in every child
    process: the benchmark builds nothing, it runs this checkout's
    ``src/`` in place — and refuses to measure any other copy."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"perfbench: no program under test at {source / 'repro'}")
    sys.path.insert(0, str(source))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(source) + (os.pathsep + inherited if inherited else ""))


def _stop_resource_tracker() -> None:
    """``multiprocessing`` starts a helper process the first time a
    shared-memory segment is created and leaves it to die with this
    interpreter. Stop it and wait for it, so that every process the
    run started has ended before the result is printed. (No public
    call does this; without the private one the helper simply exits a
    moment after we do.)"""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if callable(stop):
        stop()


def _record_path(out: str, workload: str, traced: bool) -> str:
    kind = "traced" if traced else "untraced"
    return os.path.join(out, f"{workload}.{kind}.json")


def _print_metrics(record: dict) -> None:
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        line = f"  {name:<36}{shown:>14} {metric['unit']}"
        if "noise" in metric:
            line += (f"   q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}"
                     f"  n {metric['n']}  noise {metric['noise']:.3f}")
        if "raw" in metric:  # as measured; the value is at reference speed
            line += f"  raw {metric['raw']:.6g}"
        print(line)


def cmd_bench(args) -> int:
    _require_repro()
    started = perf_counter()  # nothing of the program is imported yet
    from perfbench.bench import EXPECTED_PATH, driver_line, run_workload
    from perfbench.workloads import FULL, SMOKE
    import_s = perf_counter() - started

    sizes = SMOKE if args.smoke else FULL
    try:
        record = run_workload(
            args.workload, args.seed, 0.0 if args.smoke else args.seconds,
            bool(args.trace), sizes, args.out, import_s,
            expected_path=Path(args.expected or EXPECTED_PATH),
        )
    finally:
        _stop_resource_tracker()
    with open(_record_path(args.out, args.workload, bool(args.trace)),
              "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"{record['workload']} seed={record['seed']} mode={record['mode']} "
          f"trace={int(record['trace'])} "
          f"counts_pinned={str(record['counts_pinned']).lower()} "
          f"attempted={record['attempted']} failed={record['failed']}")
    _print_metrics(record)
    for message in record["failures"]:
        print(f"  FAILED {message}")
    print(driver_line(record))
    return 0 if record["correct"] else 1


def cmd_run(args) -> int:
    _require_repro()
    from perfbench.measure import host_info
    from perfbench.metrics import SIM_RELATIVE_TOLERANCE

    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    document = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "mode": "smoke" if args.smoke else "full",
        "host": host_info(),
        "workloads": {},
        "invariants": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        entry = {}
        for traced in (False, True):
            command = [
                sys.executable, "-m", "perfbench", "bench",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(RUN_SECONDS),
                "--trace", str(int(traced)), "--out", args.out,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            status |= done.returncode
            # everything but the driver's one-line result
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            with open(_record_path(args.out, name, traced)) as handle:
                record = json.load(handle)
            if traced:
                entry["per_layer"] = record["metrics"]
                entry["traced"] = {
                    key: record[key] for key in (
                        "attempted", "failed", "pairs", "missing_seams",
                        "untraced_wall_s", "traced_wall_s", "spans",
                        "dropped_spans", "trace_file", "host_probe_s")
                }
                entry["failed_share"] = max(entry["failed_share"],
                                            record["failed_share"])
            else:
                entry["why"] = record["why"]
                entry["end_to_end"] = record["metrics"]
                for key in ("counts_pinned", "counts", "attempted",
                            "failed", "failed_share", "failures", "units",
                            "queries_per_unit", "cold_run_s",
                            "host_probe_s"):
                    entry[key] = record[key]
        document["workloads"][name] = entry

    # cross-workload invariant, on every seed: the process+mmap path
    # must reproduce the inline+ram path bit for bit
    inline = document["workloads"]["tri-2x"]
    process = document["workloads"]["tri-2x-proc-mmap"]
    same_counts = inline["counts"] == process["counts"]
    same_sim = (inline["end_to_end"]["sim_s"]["value"]
                == process["end_to_end"]["sim_s"]["value"])
    document["invariants"]["tri-2x == tri-2x-proc-mmap"] = {
        "counts": same_counts, "sim_s": same_sim,
    }
    if not (same_counts and same_sim):
        status |= 1
        process["failed_share"] = 1.0
        process["failures"].append(
            "counts/sim_s differ from tri-2x's (separate runs)")
    document["invariants"]["exec.speedup_vs_inline (across runs)"] = (
        inline["end_to_end"]["wall_s"]["value"]
        / process["end_to_end"]["wall_s"]["value"])

    result_path = os.path.join(args.out, "result.json")
    with open(result_path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nperfbench run: seed={args.seed} mode={document['mode']} "
          f"sim_s tolerance {SIM_RELATIVE_TOLERANCE:g} -> {result_path}")
    for name, entry in document["workloads"].items():
        print(f"  {name:<18} failed_share {entry['failed_share']:.4f} ratio"
              f"  counts_pinned {str(entry['counts_pinned']).lower()}")
    for label, value in document["invariants"].items():
        print(f"  {label}: {value}")
    return 1 if status else 0


def cmd_compare(args) -> int:
    from perfbench.compare import main

    return main(args.a, args.b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="one workload, this process")
    bench.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, default=RUN_SECONDS)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument("--smoke", action="store_true")
    bench.add_argument("--out", default=DEFAULT_OUT)
    bench.add_argument("--expected", help="pins file (self-test only)")
    bench.set_defaults(handler=cmd_bench)

    run = commands.add_parser("run", help="all workloads, child processes")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out", default=DEFAULT_OUT)
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="two result documents")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
