"""The ``serve`` subcommand: a JSON-lines front end for the server.

    python -m repro serve --graph mico --scale 0.3 --machines 4

reads one JSON request object per stdin line (the
:class:`~repro.service.protocol.QueryRequest` fields), answers each
with the standard ``outcome:`` line (plus, under ``--metrics json``,
the full :class:`QueryReport` as a JSON line on stdout), and prints a
session summary on exit. Configuration problems — bad ``--workers``,
``--memory-kb``, ``--checkpoint-dir``, unknown graph — surface as
``ConfigurationError`` before any query is read; a malformed or
inadmissible *query* only ever fails itself (docs/service.md).

SIGINT/SIGTERM take the leak-free drain path: queued queries return
``REJECTED``, the in-flight one gets the drain budget, and the shm
janitor runs exactly once.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.errors import ConfigurationError
from repro.graph.datasets import DATASETS
from repro.service.protocol import QueryRequest
from repro.service.server import MiningServer, ServiceConfig


def add_serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="resident mining server over a JSON-lines query stream",
    )
    serve.add_argument("--graph", default="mico", choices=sorted(DATASETS))
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--machines", type=int, default=8)
    serve.add_argument("--cores", type=int, default=16)
    serve.add_argument("--sockets", type=int, default=2)
    serve.add_argument("--memory-kb", type=int, default=None,
                       help="per-machine simulated memory budget in KiB "
                            "(default: the 64 MiB testbed analogue)")
    serve.add_argument("--system", default="k-automine",
                       choices=["k-automine", "k-graphpi"],
                       help="default ported system for requests that "
                            "name none")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="serving worker processes attached zero-copy "
                            "to the shared-memory graph; 0 (default) "
                            "serves in-process on one serial lane")
    serve.add_argument("--resident-mb", type=int, default=512,
                       metavar="MB",
                       help="resident memory cap the admission "
                            "controller schedules against "
                            "(docs/service.md)")
    serve.add_argument("--storage", default="ram",
                       choices=["ram", "mmap", "auto"],
                       help="graph storage backing: ram (resident), "
                            "mmap (out-of-core store file), or auto "
                            "(mmap when the graph exceeds the resident "
                            "cap; docs/storage.md)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for the shm ledger: a SIGKILLed "
                            "server's leaked segments are reaped by the "
                            "next server started with the same DIR")
    serve.add_argument("--heartbeat", type=float, default=0.25,
                       metavar="SECONDS",
                       help="worker liveness-sweep interval; a dying "
                            "worker degrades one query, not the server")
    serve.add_argument("--drain-seconds", type=float, default=60.0,
                       metavar="SECONDS",
                       help="shutdown budget for in-flight queries "
                            "before they report TIMEOUT")
    serve.add_argument("--time-budget", type=float, default=None,
                       metavar="SIMSECONDS",
                       help="default simulated-seconds budget per query "
                            "(a query may override); exceeding it ends "
                            "in TIMEOUT")
    serve.add_argument("--chunk-bytes", type=int, default=None,
                       help="default engine chunk budget in bytes")
    serve.add_argument("--counting", default=None,
                       choices=["enumerate", "iep"],
                       help="default counting strategy for count-only "
                            "queries (a query may override; "
                            "docs/performance.md)")
    serve.add_argument("--metrics", default="off", choices=["off", "json"],
                       help="'json' streams one QueryReport JSON line "
                            "per query on stdout (outcome lines move to "
                            "stderr) and snapshots per-query registries")
    serve.add_argument("--input", default=None, metavar="FILE",
                       help="read request lines from FILE instead of "
                            "stdin")


def _emit_report(report, json_mode: bool) -> None:
    if json_mode:
        print(report.to_json_line(), flush=True)
        print(report.outcome_line(), file=sys.stderr, flush=True)
    else:
        print(report.outcome_line(), flush=True)


def _emit_summary(summary: dict, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(summary, default=str), flush=True)
    line = (
        f"service session: {summary['queries']} queries "
        f"(ok={summary['ok']} rejected={summary['rejected']} "
        f"failed={summary['failed']}) "
        f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms "
        f"throughput={summary['queries_per_second']:.2f}/s "
        f"wall={summary['wall_seconds']:.2f}s"
    )
    print(line, file=sys.stderr if json_mode else sys.stdout, flush=True)


def cmd_serve(args) -> int:
    """Run the server over ``--input``/stdin; exit 1 if any query
    ended with a fatal outcome."""
    try:
        config = ServiceConfig(
            graph=args.graph,
            scale=args.scale,
            machines=args.machines,
            cores=args.cores,
            sockets=args.sockets,
            memory_kb=args.memory_kb,
            system=args.system,
            workers=args.workers,
            resident_mb=args.resident_mb,
            storage=args.storage,
            metrics=(args.metrics == "json"),
            checkpoint_dir=args.checkpoint_dir,
            heartbeat=args.heartbeat,
            drain_seconds=args.drain_seconds,
            time_budget=args.time_budget,
            chunk_bytes=args.chunk_bytes,
            counting=args.counting,
        )
        if args.input:
            try:
                stream = open(args.input)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read --input: {exc}"
                ) from exc
        else:
            stream = sys.stdin
        server = MiningServer(config).start()
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}")

    json_mode = args.metrics == "json"
    if json_mode:
        print(json.dumps(server.describe()), flush=True)
    else:
        hello = server.describe()
        print(f"service: ready graph={hello['graph']} "
              f"scale={hello['scale']:g} machines={hello['machines']} "
              f"workers={hello['workers']} "
              f"resident_mb={hello['resident_mb']} "
              f"storage={hello['storage']}", flush=True)

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _raise_interrupt)
    handles: list = []
    printed = 0

    def flush_ready(block: bool) -> None:
        nonlocal printed
        while printed < len(handles):
            handle = handles[printed]
            if not block and not handle.done():
                return
            _emit_report(handle.result(timeout=None), json_mode)
            printed += 1

    try:
        try:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = QueryRequest.from_json_line(line)
                except ConfigurationError as exc:
                    handles.append(server.reject(str(exc)))
                else:
                    handles.append(server.submit(request))
                flush_ready(block=False)
            flush_ready(block=True)
        except KeyboardInterrupt:
            pass  # drain below resolves every outstanding handle
        finally:
            # hand SIGTERM back to the janitor chain *before*
            # shutdown() runs remove_janitor — restoring afterwards
            # would re-arm a handler whose cleanup has already run
            signal.signal(signal.SIGTERM, previous_term)
        summary = server.shutdown()
        flush_ready(block=True)
        _emit_summary(summary, json_mode)
    finally:
        if stream is not sys.stdin:
            stream.close()
    fatal = sum(1 for handle in handles if handle.report.fatal)
    return 1 if fatal else 0
