"""Command-line interface.

Usage:

    python -m repro count --graph livejournal --pattern clique4
    python -m repro count --graph mico --pattern clique4 --metrics table
    python -m repro triangle --graph mico --faults "crash:m1@chunk=2"
    python -m repro motifs --graph mico --size 3 --machines 8
    python -m repro fsm --graph mico --threshold 30
    python -m repro experiment table2 --scale 0.5
    python -m repro serve --graph mico --scale 0.3 --machines 4
    python -m repro datasets

``--metrics table`` prints the per-machine compute/communication/cache
breakdown after the run; ``--metrics json`` replaces the normal output
with one JSON document (report + counters + trace summary) suitable
for piping into ``jq``. See docs/metrics.md for every emitted metric.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.errors import ConfigurationError, GraphFormatError
from repro.faults import FaultPlan
from repro.exec import BACKENDS, make_backend
from repro.graph.datasets import DATASETS, load_dataset
from repro.obs import Observability
from repro.obs.render import render_metrics_json, render_metrics_table
from repro.patterns.pattern import Pattern
from repro.service.cli import add_serve_parser, cmd_serve
from repro.service.protocol import parse_pattern_spec
from repro.systems import KAutomine, KGraphPi, motif_count, run_fsm


def _parse_pattern(spec: str) -> Pattern:
    """Parse a pattern spec: clique3..7, chain2..7, cycle3..7, starN,
    house, tailed_triangle, or an explicit edge list ' 0-1,1-2,0-2 '."""
    try:
        return parse_pattern_spec(spec)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))


def _build_engine_config(args) -> EngineConfig | None:
    """EngineConfig from fault/memory CLI flags; None keeps defaults."""
    kwargs = {}
    if getattr(args, "faults", None):
        try:
            kwargs["faults"] = FaultPlan.parse(args.faults)
        except ConfigurationError as exc:
            raise SystemExit(f"bad --faults spec: {exc}")
    if getattr(args, "no_recover", False):
        kwargs["recover"] = False
    if getattr(args, "chunk_bytes", None):
        kwargs["chunk_bytes"] = args.chunk_bytes
    if getattr(args, "no_auto_fit", False):
        kwargs["auto_fit_chunks"] = False
    if getattr(args, "counting", None):
        kwargs["counting"] = args.counting
    if getattr(args, "checkpoint_dir", None):
        kwargs["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "checkpoint_every", None):
        kwargs["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "resume", False):
        kwargs["resume"] = True
    try:
        return EngineConfig(**kwargs) if kwargs else None
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}")


def _build_system(args):
    resident_mb = getattr(args, "resident_mb", None)
    try:
        graph = load_dataset(
            args.graph, scale=args.scale,
            labeled=getattr(args, "labeled", False),
            storage=getattr(args, "storage", "ram"),
            resident_cap_bytes=(
                resident_mb << 20 if resident_mb else None
            ),
        )
    except GraphFormatError as exc:
        raise SystemExit(f"storage error: {exc}")
    cluster_kwargs = {}
    if getattr(args, "memory_kb", None):
        cluster_kwargs["memory_bytes"] = args.memory_kb << 10
    config = ClusterConfig(
        num_machines=args.machines,
        cores_per_machine=args.cores,
        sockets_per_machine=args.sockets,
        **cluster_kwargs,
    )
    obs = Observability() if args.metrics != "off" else None
    try:
        backend = make_backend(
            args.backend,
            getattr(args, "workers", None),
            heartbeat=getattr(args, "heartbeat", None),
            on_worker_death=getattr(args, "on_worker_death", None),
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    cls = KGraphPi if args.system == "k-graphpi" else KAutomine
    return cls(graph, config, _build_engine_config(args),
               graph_name=args.graph, obs=obs, backend=backend)


def _guarded(fn, *args, **kwargs):
    """Run a subcommand's engine call; configuration problems surfaced
    at run time (e.g. a stale checkpoint rejected by ``--resume``)
    exit with a message instead of a traceback."""
    try:
        return fn(*args, **kwargs)
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}")


def _finish(args, report) -> int:
    """Outcome line + exit status shared by every run subcommand.

    Fatal outcomes (``CRASHED``/``OUTOFMEM``/``TIMEOUT``/``DEGRADED``)
    exit nonzero but never with a traceback — the engine already turned
    the exception into a structured partial report (docs/faults.md).
    """
    failure = report.failure
    if args.metrics != "json":
        if failure is None:
            print(f"outcome: OK backend={args.backend}")
        else:
            print(f"outcome: {failure.outcome.value} "
                  f"backend={args.backend} — {failure.message}")
    if failure is None:
        return 0
    return 1 if failure.fatal else 0


def _emit_metrics(args, system, report) -> bool:
    """Print the requested metrics view; True if JSON replaced output."""
    if args.metrics == "json":
        print(render_metrics_json(report, system.obs))
        return True
    if args.metrics == "table":
        print(render_metrics_table(report, system.obs))
    return False


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", default="livejournal",
                        choices=sorted(DATASETS))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--sockets", type=int, default=2)
    parser.add_argument("--memory-kb", type=int, default=None,
                        help="per-machine memory budget in KiB "
                             "(default: the 64 MiB testbed analogue)")
    parser.add_argument("--storage", default="ram",
                        choices=["ram", "mmap", "auto"],
                        help="graph storage backing: ram (resident "
                             "arrays), mmap (out-of-core store file), "
                             "or auto (mmap only when the graph "
                             "exceeds --resident-mb; docs/storage.md)")
    parser.add_argument("--resident-mb", type=int, default=None,
                        metavar="MB",
                        help="resident cap steering --storage auto "
                             "(default: unlimited, auto stays in ram)")
    parser.add_argument("--system", default="k-automine",
                        choices=["k-automine", "k-graphpi"])
    parser.add_argument(
        "--backend", default="inline", choices=list(BACKENDS),
        help="execution backend: 'inline' is the single-process "
             "simulated path, 'process' runs one OS process per group "
             "of simulated machines over a shared-memory graph; counts "
             "are bit-identical either way (docs/execution.md)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-backend worker count (default: one per simulated "
             "machine, capped at the machine count)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="process-backend liveness interval: the parent sweeps "
             "worker exit codes at least this often while idle (a "
             "death is normally seen at once, as an EOF on the "
             "worker's pipe) (default: 1s; docs/execution.md)",
    )
    parser.add_argument(
        "--on-worker-death", default=None, choices=["fail", "recover"],
        help="process-backend policy when a worker process dies: "
             "'fail' returns a structured CRASHED report immediately, "
             "'recover' redistributes the lost workers' hosted "
             "machines to the surviving workers (the parent replays "
             "only machines no survivor covers) and reports RECOVERED "
             "with complete counts (default: fail)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist chunk-granular checkpoints under DIR (append-only "
             "completed-chunk log + aggregates snapshot under a "
             "versioned manifest) so a killed run can restart with "
             "--resume and skip completed root chunks; resumed counts "
             "are bit-identical to an uninterrupted run "
             "(docs/faults.md, 'Durability')",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="flush every N-th completed root chunk to the checkpoint "
             "log (default: 1); larger values trade IO for more replay "
             "after a kill",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint under --checkpoint-dir; "
             "refused (stale checkpoint) unless the saved manifest "
             "matches this run's graph, pattern, and configuration "
             "exactly",
    )
    parser.add_argument(
        "--metrics", default="off", choices=["off", "table", "json"],
        help="emit the run's observability surface: 'table' appends a "
             "per-machine breakdown, 'json' prints one JSON document "
             "instead of the normal output (see docs/metrics.md)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan, e.g. "
             "'crash:m1@chunk=2;flaky:p=0.05;slow:m2@x=3' "
             "(grammar in docs/faults.md)",
    )
    parser.add_argument(
        "--no-recover", action="store_true",
        help="disable chunk-granular recovery: a crash ends its machine's "
             "walk, and the run ends CRASHED with a partial report",
    )
    parser.add_argument("--chunk-bytes", type=int, default=None,
                        help="override the engine chunk budget in bytes")
    parser.add_argument(
        "--no-auto-fit", action="store_true",
        help="disable automatic chunk shrinking under memory pressure "
             "(undersized clusters then report OUTOFMEM)",
    )
    parser.add_argument(
        "--counting", default=None, choices=["enumerate", "iep"],
        help="counting strategy for count-only queries: 'enumerate' "
             "materializes the full embedding tree, 'iep' replaces "
             "eligible schedules' independent suffix with the "
             "inclusion-exclusion terminal kernel; counts are "
             "bit-identical either way (docs/performance.md; "
             "default: enumerate)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Khuzdul (ASPLOS'23) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count one pattern's embeddings")
    _add_cluster_flags(count)
    count.add_argument("--pattern", default="clique3")
    count.add_argument("--induced", action="store_true")
    count.add_argument("--oriented", action="store_true",
                       help="degree-orientation preprocessing (cliques)")

    triangle = sub.add_parser(
        "triangle", help="triangle counting (shorthand for count clique3)"
    )
    _add_cluster_flags(triangle)
    triangle.set_defaults(pattern="clique3", induced=False, oriented=False)

    motifs = sub.add_parser("motifs", help="k-motif census")
    _add_cluster_flags(motifs)
    motifs.add_argument("--size", type=int, default=3)

    fsm = sub.add_parser("fsm", help="frequent subgraph mining")
    _add_cluster_flags(fsm)
    fsm.add_argument("--threshold", type=int, required=True)
    fsm.add_argument("--max-edges", type=int, default=3)
    fsm.set_defaults(labeled=True)

    experiment = sub.add_parser(
        "experiment", help="reproduce a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=1.0)

    add_serve_parser(sub)

    sub.add_parser("datasets", help="list dataset analogues")

    args = parser.parse_args(argv)

    if args.command == "serve":
        return cmd_serve(args)

    if args.command == "datasets":
        print(f"{'name':<14}{'|V|':>8}{'|E|':>9}  paper size")
        for name, spec in sorted(DATASETS.items()):
            print(
                f"{name:<14}{spec.num_vertices:>8}{spec.num_edges:>9}  "
                f"{spec.paper_vertices:.3g} vertices / "
                f"{spec.paper_edges:.3g} edges"
            )
        return 0

    if args.command == "experiment":
        result = run_experiment(args.name, scale=args.scale)
        print(result.format())
        return 0

    if args.command in ("count", "triangle"):
        system = _build_system(args)
        pattern = _parse_pattern(args.pattern)
        report = _guarded(
            system.count_pattern,
            pattern, induced=args.induced, oriented=args.oriented,
            app="triangle" if args.command == "triangle" else args.pattern,
        )
        if args.metrics == "json":
            _emit_metrics(args, system, report)
            return _finish(args, report)
        print(report.describe())
        print("breakdown:", {k: f"{v:.1%}"
                             for k, v in report.breakdown_fractions().items()})
        _emit_metrics(args, system, report)
        return _finish(args, report)

    if args.command == "motifs":
        system = _build_system(args)
        report = _guarded(motif_count, system, args.size)
        if args.metrics == "json":
            _emit_metrics(args, system, report)
            return _finish(args, report)
        for code, value in report.counts.items():
            labels, edges = code
            print(f"  {len(labels)}v/{len(edges)}e {edges}: {value}")
        print(f"simulated: {report.simulated_seconds * 1e3:.3f}ms")
        _emit_metrics(args, system, report)
        return _finish(args, report)

    if args.command == "fsm":
        system = _build_system(args)
        result = _guarded(run_fsm, system, args.threshold, args.max_edges)
        if args.metrics == "json":
            _emit_metrics(args, system, result.report)
            return _finish(args, result.report)
        print(
            f"{len(result.frequent)} frequent patterns "
            f"({result.candidates_evaluated} candidates, "
            f"{result.rounds} rounds)"
        )
        for pattern, support in sorted(result.frequent, key=lambda x: -x[1])[:20]:
            print(f"  support={support:<6} {pattern}")
        # for multi-round jobs the trace covers the last round only
        # (the engine resets its observability bundle per run); the
        # merged per-machine breakdown covers all rounds
        _emit_metrics(args, system, result.report)
        return _finish(args, result.report)

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
