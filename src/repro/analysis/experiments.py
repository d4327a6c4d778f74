"""Experiment harness: one function per paper table/figure.

Each ``table*``/``fig*`` function runs the corresponding evaluation on
the scaled synthetic analogues and returns an
:class:`~repro.analysis.report.ExperimentResult` whose rows mirror the
paper's. Benchmarks call these; ``python -m repro.analysis.experiments``
regenerates EXPERIMENTS.md content.

Cluster sizing follows the paper: 8 nodes with two 8-core sockets and
64 GB for the main tables (single-socket runs for Table 2, matching the
parenthesized numbers the paper uses for speedups), an 18-node cluster
with 128 GB nodes for the massive graphs of Table 5. Memory is scaled
so each dataset keeps its paper-faithful memory-to-graph ratio, which
is what makes the CRASHED/OUTOFMEM cells emerge from the same causes.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.analysis.report import ExperimentResult
from repro.baselines import (
    FractalLike,
    GraphPiReplicated,
    GThinker,
    MovingComputation,
    PangolinLike,
    SingleMachine,
)
from repro.baselines.single_machine import peregrine_like
from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.cache import CachePolicy
from repro.errors import OutOfMemoryError, ReproError, SimTimeoutError
from repro.graph import dataset
from repro.graph.datasets import DATASETS
from repro.graph.graph import Graph
from repro.patterns import clique
from repro.systems import (
    KAutomine,
    KGraphPi,
    clique_count,
    motif_count,
    run_fsm,
    triangle_count,
)

#: paper on-disk sizes (Table 1, "Size" column), in bytes
_PAPER_GRAPH_BYTES = {
    "mico": 9.1e6,
    "patents": 154.9e6,
    "livejournal": 363.9e6,
    "uk": 7.3e9,
    "twitter": 11.5e9,
    "friendster": 13.9e9,
    "clueweb": 324.7e9,
    "uk14": 360.5e9,
    "wdc": 984.9e9,
    "skitter": 140e6,
    "orkut": 1.7e9,
}
#: node memory in the paper's clusters
_PAPER_NODE_MEMORY = {"clueweb": 128e9, "uk14": 128e9, "wdc": 128e9}
_DEFAULT_NODE_MEMORY = 64e9
_MAX_MEMORY_RATIO = 4096.0

#: short display names (paper abbreviations)
ABBR = {
    "mico": "mc",
    "patents": "pt",
    "livejournal": "lj",
    "uk": "uk",
    "twitter": "tw",
    "friendster": "fr",
    "clueweb": "cl",
    "uk14": "uk14",
    "wdc": "wdc",
    "skitter": "sk",
    "orkut": "ok",
}


def memory_ratio(name: str) -> float:
    """Paper-faithful (node memory) / (graph size) ratio for a dataset."""
    node = _PAPER_NODE_MEMORY.get(name, _DEFAULT_NODE_MEMORY)
    return min(_MAX_MEMORY_RATIO, node / _PAPER_GRAPH_BYTES[name])


def node_memory_bytes(name: str, graph: Graph) -> int:
    """Scaled per-node memory preserving the paper's memory ratio."""
    return max(1 << 16, int(memory_ratio(name) * graph.size_bytes()))


def _cluster_config(
    name: str,
    graph: Graph,
    machines: int = 8,
    cores: int = 8,
    sockets: int = 1,
) -> ClusterConfig:
    return ClusterConfig(
        num_machines=machines,
        cores_per_machine=cores,
        sockets_per_machine=sockets,
        memory_bytes=node_memory_bytes(name, graph),
    )


def _run_app(system, app: str):
    """Dispatch a paper app name onto a GPM system."""
    if app == "TC":
        return triangle_count(system)
    if app.endswith("-MC"):
        return motif_count(system, int(app.split("-")[0]))
    if app.endswith("-CC"):
        return clique_count(system, int(app.split("-")[0]))
    raise ValueError(f"unknown app {app!r}")


def _attempt(fn: Callable[[], object]):
    """Run a cell, mapping failures to the paper's outcome strings.

    The Khuzdul engine converts faults into partial reports with a
    structured :class:`~repro.faults.FailureSummary` instead of raising
    (docs/faults.md); baselines still raise the underlying errors.
    Both paths land on the same cell strings here. ``RECOVERED``
    reports carry complete counts and pass through unchanged.
    """
    try:
        result = fn()
    except OutOfMemoryError:
        return "CRASHED"
    except SimTimeoutError:
        return "TIMEOUT"
    failure = getattr(result, "failure", None)
    if failure is not None and failure.fatal:
        if failure.outcome.value == "TIMEOUT":
            return "TIMEOUT"
        return "CRASHED"
    return result


def _cell_time(result) -> object:
    if isinstance(result, str):
        return result
    return result.simulated_seconds


# ======================================================================
# Table 2: comparing with GraphPi (replicated) and G-thinker
# ======================================================================
_TABLE2_ROWS = [
    ("TC", ["mico", "patents", "livejournal", "uk", "twitter", "friendster"]),
    ("3-MC", ["mico", "patents", "livejournal", "uk", "twitter", "friendster"]),
    ("4-CC", ["mico", "patents", "livejournal", "uk", "twitter", "friendster"]),
    ("5-CC", ["mico", "patents", "livejournal", "friendster"]),
]
_TABLE2_SMALL = {"mico", "patents", "livejournal"}


def table2(scale: float = 1.0, heavy: bool = True) -> ExperimentResult:
    """Distributed comparison: k-Automine/k-GraphPi vs GraphPi/G-thinker.

    ``heavy=False`` restricts to the three small graphs (quick mode).
    """
    rows = []
    for app, graphs in _TABLE2_ROWS:
        for name in graphs:
            if not heavy and name not in _TABLE2_SMALL:
                continue
            if app in ("4-CC", "5-CC") and name in ("uk", "twitter") and scale >= 1.0 and not heavy:
                continue
            graph = dataset(name, scale=scale)
            config = _cluster_config(name, graph)
            memory = config.memory_bytes
            row = {"app": app, "graph": ABBR[name]}
            row["k-automine"] = _cell_time(
                _attempt(lambda: _run_app(
                    KAutomine(graph, config, graph_name=name), app))
            )
            row["k-graphpi"] = _cell_time(
                _attempt(lambda: _run_app(
                    KGraphPi(graph, config, graph_name=name), app))
            )
            row["graphpi"] = _cell_time(
                _attempt(lambda: _run_app(
                    GraphPiReplicated(
                        graph, num_machines=8, cores=8,
                        memory_bytes=memory, graph_name=name),
                    app))
            )
            row["g-thinker"] = _cell_time(
                _attempt(lambda: _run_app(
                    GThinker(graph, num_machines=8, cores=8,
                             memory_bytes=memory, graph_name=name),
                    app))
            )
            if isinstance(row["k-automine"], float) and isinstance(
                row["g-thinker"], float
            ):
                row["speedup"] = (
                    f"{row['g-thinker'] / row['k-automine']:.1f}x"
                )
            rows.append(row)
    return ExperimentResult(
        "Table 2",
        "Comparing with GraphPi (replicated) / G-thinker (partitioned)",
        ["app", "graph", "k-automine", "k-graphpi", "graphpi", "g-thinker",
         "speedup"],
        rows,
        notes=[
            "single-socket configuration (the paper's parenthesized runs)",
            "the paper additionally reports G-thinker CRASHED on lj 5-CC "
            "due to an internal G-thinker bug this model does not emulate",
        ],
    )


# ======================================================================
# Table 3: single-node comparison with single-machine systems
# ======================================================================
_TABLE3_ROWS = [
    ("TC", ["mico", "patents", "livejournal", "uk", "twitter", "friendster"]),
    ("3-MC", ["mico", "patents", "livejournal", "uk", "friendster"]),
    ("4-CC", ["mico", "patents", "livejournal", "friendster"]),
    ("5-CC", ["mico", "patents", "livejournal", "friendster"]),
]


def table3(scale: float = 1.0, heavy: bool = True) -> ExperimentResult:
    """Single-node k-Automine vs AutomineIH / Peregrine / Pangolin."""
    rows = []
    for app, graphs in _TABLE3_ROWS:
        for name in graphs:
            if not heavy and name not in _TABLE2_SMALL:
                continue
            graph = dataset(name, scale=scale)
            memory = node_memory_bytes(name, graph)
            config = ClusterConfig(
                num_machines=1, cores_per_machine=16,
                sockets_per_machine=2, memory_bytes=memory,
            )
            row = {"app": app, "graph": ABBR[name]}
            row["k-automine"] = _cell_time(
                _attempt(lambda: _run_app(
                    KAutomine(graph, config, graph_name=name), app))
            )
            row["automine-ih"] = _cell_time(
                _attempt(lambda: _run_app(
                    SingleMachine(graph, cores=16, memory_bytes=memory,
                                  graph_name=name), app))
            )
            row["peregrine"] = _cell_time(
                _attempt(lambda: _run_app(
                    peregrine_like(graph, cores=16, memory_bytes=memory,
                                   graph_name=name), app))
            )
            row["pangolin"] = _cell_time(
                _attempt(lambda: _run_app(
                    PangolinLike(graph, cores=16, memory_bytes=memory,
                                 graph_name=name), app))
            )
            rows.append(row)
    return ExperimentResult(
        "Table 3",
        "Single-node comparison with single-machine systems",
        ["app", "graph", "k-automine", "automine-ih", "peregrine", "pangolin"],
        rows,
        notes=["Pangolin applies orientation for TC/k-CC (its Table 3 edge)"],
    )


# ======================================================================
# Table 4: FSM
# ======================================================================
#: (dataset, scale, thresholds) — thresholds scaled from the paper's
#: 3-5% of |V| to keep the frequent sets comparable in relative size
_FSM_SETUPS = [
    ("mico", 0.5, (36, 38, 40)),
    ("patents", 0.35, (60, 70, 80)),
    ("livejournal", 0.2, (55, 65, 75)),
]


def table4(scale: float = 1.0) -> ExperimentResult:
    """FSM: k-Automine (1/8 nodes) vs AutomineIH / Peregrine / Fractal."""
    rows = []
    for name, base_scale, thresholds in _FSM_SETUPS:
        graph = dataset(name, scale=base_scale * scale, labeled=True)
        memory = node_memory_bytes(name, graph)
        fractal = _attempt(lambda: FractalLike(
            graph, num_machines=8, cores=16, memory_bytes=memory,
            graph_name=name))
        for threshold in thresholds:
            row = {"graph": ABBR[name], "threshold": threshold}
            one_node = ClusterConfig(1, 16, 2, memory)
            eight_node = ClusterConfig(8, 16, 2, memory)
            row["k-automine(1)"] = _cell_time(_attempt(
                lambda: run_fsm(
                    KAutomine(graph, one_node, graph_name=name), threshold
                ).report
            ))
            row["k-automine(8)"] = _cell_time(_attempt(
                lambda: run_fsm(
                    KAutomine(graph, eight_node, graph_name=name), threshold
                ).report
            ))
            row["automine-ih"] = _cell_time(_attempt(
                lambda: run_fsm(
                    SingleMachine(graph, cores=16, memory_bytes=memory,
                                  graph_name=name), threshold
                ).report
            ))
            row["peregrine"] = _cell_time(_attempt(
                lambda: run_fsm(
                    peregrine_like(graph, cores=16, memory_bytes=memory,
                                   graph_name=name), threshold
                ).report
            ))
            row["fractal(8)"] = _cell_time(
                fractal if isinstance(fractal, str)
                else _attempt(lambda: fractal.fsm_report(threshold)))
            rows.append(row)
    return ExperimentResult(
        "Table 4",
        "FSM performance (patterns with <= 3 edges, MNI support)",
        ["graph", "threshold", "k-automine(1)", "k-automine(8)",
         "automine-ih", "peregrine", "fractal(8)"],
        rows,
    )


# ======================================================================
# Table 5: massive graphs on an 18-node cluster
# ======================================================================
def table5(scale: float = 1.0) -> ExperimentResult:
    """TC/4-CC on cl/uk14/wdc analogues; orientation preprocessing on."""
    rows = []
    replication_notes = []
    for name in ("clueweb", "uk14", "wdc"):
        graph = dataset(name, scale=scale)
        config = _cluster_config(name, graph, machines=18, cores=32,
                                 sockets=2)
        # the paper's single-machine comparison: 64 cores, 1 TB RAM
        # (1 TB / 984.9 GB for wdc: the graph barely fits)
        single_memory = int(graph.size_bytes() * (1000e9 / _PAPER_GRAPH_BYTES[name])) \
            if _PAPER_GRAPH_BYTES[name] < 1000e9 else int(graph.size_bytes() * 1.02)
        # Section 7.6: the cache is cut to 3-4% of the graph size for
        # massive datasets, and chunks must fit the tighter nodes
        engine_config = EngineConfig(
            cache_fraction=0.035,
            chunk_bytes=max(2048, config.memory_bytes // 10),
        )
        for app in ("TC", "4-CC"):
            k_system = KAutomine(graph, config, engine_config,
                                 graph_name=name)
            pattern = clique(3 if app == "TC" else 4)
            row = {"graph": ABBR[name], "app": app}
            row["k-automine(18)"] = _cell_time(_attempt(
                lambda: k_system.count_pattern(pattern, oriented=True, app=app)
            ))
            row["automine-ih(1)"] = _cell_time(_attempt(
                lambda: SingleMachine(
                    graph, cores=64, memory_bytes=single_memory,
                    graph_name=name,
                ).count_pattern(pattern, oriented=True, app=app)
            ))
            if isinstance(row["k-automine(18)"], float) and isinstance(
                row["automine-ih(1)"], float
            ):
                row["speedup"] = (
                    f"{row['automine-ih(1)'] / row['k-automine(18)']:.1f}x"
                )
            rows.append(row)
        # replication-based systems cannot hold the graph at all
        outcome = _attempt(lambda: GraphPiReplicated(
            graph, num_machines=18,
            memory_bytes=node_memory_bytes(name, graph), graph_name=name,
        ))
        if isinstance(outcome, str):
            replication_notes.append(
                f"{ABBR[name]}: replicated GraphPi fails ({outcome}: graph "
                "exceeds per-node memory), as the paper reports"
            )
    return ExperimentResult(
        "Table 5",
        "Khuzdul's performance on large-scale graphs (orientation on)",
        ["graph", "app", "k-automine(18)", "automine-ih(1)", "speedup"],
        rows,
        notes=replication_notes,
    )


# ======================================================================
# Figure 10: aDFS comparison
# ======================================================================
def fig10(scale: float = 1.0) -> ExperimentResult:
    """TC vs the moving-computation (aDFS-like) baseline."""
    rows = []
    for name in ("skitter", "orkut", "friendster"):
        graph = dataset(name, scale=scale)
        config = _cluster_config(name, graph, machines=8, cores=16,
                                 sockets=2)
        row = {"graph": ABBR[name]}
        row["adfs"] = _cell_time(_attempt(
            lambda: MovingComputation(
                graph, num_machines=8, cores=28, graph_name=name
            ).count_pattern(clique(3), app="TC")
        ))
        row["k-automine"] = _cell_time(_attempt(
            lambda: triangle_count(KAutomine(graph, config, graph_name=name))
        ))
        row["k-graphpi"] = _cell_time(_attempt(
            lambda: triangle_count(KGraphPi(graph, config, graph_name=name))
        ))
        if isinstance(row["adfs"], float) and isinstance(
            row["k-automine"], float
        ):
            row["speedup"] = f"{row['adfs'] / row['k-automine']:.1f}x"
        rows.append(row)
    return ExperimentResult(
        "Figure 10",
        "Comparing with aDFS (moving computation to data), TC",
        ["graph", "adfs", "k-automine", "k-graphpi", "speedup"],
        rows,
        notes=["aDFS gets 28 cores/node vs Khuzdul's 16, as in the paper"],
    )


# ======================================================================
# Figures 11/12 + Tables 6/7: optimization analyses (k-GraphPi)
# ======================================================================
_ABLATION_CHUNK = 16 << 10  # small chunks so cross-chunk effects show


def _kgraphpi(graph, name, machines=8, **engine_kwargs):
    config = _cluster_config(name, graph, machines=machines, cores=16,
                             sockets=2)
    return KGraphPi(
        graph, config, EngineConfig(**engine_kwargs), graph_name=name
    )


def fig11(scale: float = 1.0) -> ExperimentResult:
    """Speedup from vertical computation sharing (VCS on vs off)."""
    rows = []
    for app in ("4-CC", "5-CC"):
        for name in ("mico", "patents", "livejournal", "friendster"):
            graph = dataset(name, scale=scale)
            on = _run_app(_kgraphpi(graph, name, vcs=True), app)
            off = _run_app(_kgraphpi(graph, name, vcs=False), app)
            rows.append({
                "app": app,
                "graph": ABBR[name],
                "with-vcs": on.simulated_seconds,
                "without-vcs": off.simulated_seconds,
                "speedup": f"{off.simulated_seconds / on.simulated_seconds:.2f}x",
            })
    return ExperimentResult(
        "Figure 11",
        "Speedup by vertical computation sharing (k-GraphPi)",
        ["app", "graph", "with-vcs", "without-vcs", "speedup"],
        rows,
    )


def fig12(scale: float = 1.0) -> ExperimentResult:
    """Horizontal data sharing: normalized traffic and comm time."""
    rows = []
    for app in ("4-CC", "5-CC"):
        for name in ("mico", "patents", "livejournal", "friendster"):
            graph = dataset(name, scale=scale)
            on = _run_app(
                _kgraphpi(graph, name, hds=True, chunk_bytes=512 << 10),
                app,
            )
            off = _run_app(
                _kgraphpi(graph, name, hds=False, chunk_bytes=512 << 10),
                app,
            )
            comm_on = on.breakdown.get("network", 0.0)
            comm_off = max(off.breakdown.get("network", 0.0), 1e-12)
            rows.append({
                "app": app,
                "graph": ABBR[name],
                "norm-traffic": f"{on.network_bytes / max(1, off.network_bytes):.3f}",
                "norm-comm-time": f"{comm_on / comm_off:.3f}",
            })
    return ExperimentResult(
        "Figure 12",
        "Effect of horizontal data sharing (normalized to HDS off)",
        ["app", "graph", "norm-traffic", "norm-comm-time"],
        rows,
    )


_TABLE6_ROWS = [
    ("TC", ["patents", "livejournal", "uk", "friendster"]),
    ("4-CC", ["patents", "livejournal", "friendster"]),
    ("5-CC", ["patents", "livejournal", "friendster"]),
]


def table6(scale: float = 1.0) -> ExperimentResult:
    """Static data cache on/off: network traffic and runtime."""
    rows = []
    for app, graphs in _TABLE6_ROWS:
        for name in graphs:
            graph = dataset(name, scale=scale)
            cached = _run_app(
                _kgraphpi(graph, name, cache_fraction=0.15,
                          chunk_bytes=_ABLATION_CHUNK),
                app,
            )
            uncached = _run_app(
                _kgraphpi(graph, name, cache_fraction=0.0,
                          chunk_bytes=_ABLATION_CHUNK),
                app,
            )
            rows.append({
                "app": app,
                "graph": ABBR[name],
                "traffic(cache)": ("bytes", cached.network_bytes),
                "traffic(none)": ("bytes", uncached.network_bytes),
                "time(cache)": cached.simulated_seconds,
                "time(none)": uncached.simulated_seconds,
            })
    return ExperimentResult(
        "Table 6",
        "Analyzing the static data cache (k-GraphPi)",
        ["app", "graph", "traffic(cache)", "traffic(none)", "time(cache)",
         "time(none)"],
        rows,
    )


def table7(scale: float = 1.0) -> ExperimentResult:
    """NUMA-aware support on a single two-socket node."""
    rows = []
    for app in ("4-CC", "5-CC"):
        for name in ("patents", "livejournal", "friendster"):
            graph = dataset(name, scale=scale)
            aware = _run_app(
                _kgraphpi(graph, name, machines=1, numa_aware=True,
                          chunk_bytes=_ABLATION_CHUNK), app
            )
            oblivious = _run_app(
                _kgraphpi(graph, name, machines=1, numa_aware=False,
                          chunk_bytes=_ABLATION_CHUNK), app
            )
            rows.append({
                "app": app,
                "graph": ABBR[name],
                "with-numa": aware.simulated_seconds,
                "without-numa": oblivious.simulated_seconds,
                "gain": f"{oblivious.simulated_seconds / aware.simulated_seconds:.2f}x",
            })
    return ExperimentResult(
        "Table 7",
        "NUMA-aware support (single node, two sockets)",
        ["app", "graph", "with-numa", "without-numa", "gain"],
        rows,
    )


# ======================================================================
# Figures 13/14: scalability
# ======================================================================
def fig13(scale: float = 1.0) -> ExperimentResult:
    """Inter-node scalability on lj: k-GraphPi vs GraphPi, 1-8 nodes."""
    name = "livejournal"
    graph = dataset(name, scale=scale)
    memory = node_memory_bytes(name, graph)
    rows = []
    for app in ("TC", "3-MC", "4-CC", "5-CC"):
        for machines in (1, 2, 4, 8):
            config = ClusterConfig(machines, 16, 2, memory)
            k = _run_app(KGraphPi(graph, config, graph_name=name), app)
            g = _run_app(
                GraphPiReplicated(graph, num_machines=machines, cores=16,
                                  memory_bytes=memory, graph_name=name),
                app,
            )
            rows.append({
                "app": app,
                "nodes": machines,
                "k-graphpi": k.simulated_seconds,
                "graphpi": g.simulated_seconds,
            })
    # derive the 8-node speedups over 1 node per system
    notes = []
    for system in ("k-graphpi", "graphpi"):
        speedups = []
        for app in ("TC", "3-MC", "4-CC", "5-CC"):
            t1 = next(r[system] for r in rows if r["app"] == app and r["nodes"] == 1)
            t8 = next(r[system] for r in rows if r["app"] == app and r["nodes"] == 8)
            speedups.append(t1 / t8)
        notes.append(
            f"{system}: 8-node speedup over 1 node = "
            f"{min(speedups):.2f}-{max(speedups):.2f} "
            f"(avg {sum(speedups) / len(speedups):.2f})"
        )
    return ExperimentResult(
        "Figure 13",
        "Inter-node scalability (graph: lj)",
        ["app", "nodes", "k-graphpi", "graphpi"],
        rows,
        notes=notes,
    )


def fig14(scale: float = 1.0) -> ExperimentResult:
    """Intra-node core scaling on lj, plus the COST metric."""
    name = "livejournal"
    graph = dataset(name, scale=scale)
    memory = node_memory_bytes(name, graph)
    core_counts = (5, 6, 8, 12, 16)
    rows = []
    references: dict[str, float] = {}
    for app in ("TC", "3-MC", "4-CC"):
        # reference: fastest single-thread single-machine system
        single = SingleMachine(graph, cores=1, memory_bytes=memory,
                               graph_name=name)
        pangolin = PangolinLike(graph, cores=1, memory_bytes=memory,
                                graph_name=name)
        references[app] = min(
            _run_app(single, app).simulated_seconds,
            _run_app(pangolin, app).simulated_seconds,
        )
        for cores in core_counts:
            # the paper reserves 4 communication cores at every size
            cost = ClusterConfig().cost.derive(comm_thread_ratio=4.0 / cores)
            config = ClusterConfig(1, cores, 2, memory, cost)
            system = KAutomine(graph, config, graph_name=name)
            report = _run_app(system, app)
            rows.append({
                "app": app,
                "cores": cores,
                "k-automine": report.simulated_seconds,
                "reference(1-thread)": references[app],
            })
    notes = []
    for app in ("TC", "3-MC", "4-CC"):
        cost_metric: Optional[int] = None
        for cores in core_counts:
            t = next(r["k-automine"] for r in rows
                     if r["app"] == app and r["cores"] == cores)
            if t < references[app]:
                cost_metric = cores
                break
        notes.append(
            f"{app}: COST metric = "
            f"{cost_metric if cost_metric is not None else '>16'} cores"
        )
    return ExperimentResult(
        "Figure 14",
        "Intra-node scalability and the COST metric (graph: lj)",
        ["app", "cores", "k-automine", "reference(1-thread)"],
        rows,
        notes=notes,
    )


# ======================================================================
# Figure 15: runtime breakdown
# ======================================================================
def _span_phase_fractions(report) -> Optional[dict[str, float]]:
    """Figure 15 fractions of the critical-path machine, derived from
    the run's *span data* (``extra['obs']['phase_seconds']``) rather
    than the pre-aggregated clock. Returns None when the report was
    produced without instrumentation (baselines)."""
    obs_summary = (report.extra or {}).get("obs")
    if not obs_summary or not report.machine_seconds:
        return None
    phases_by_machine = obs_summary.get("phase_seconds") or {}
    slowest = max(
        range(len(report.machine_seconds)),
        key=lambda m: report.machine_seconds[m],
    )
    phase = phases_by_machine.get(str(slowest))
    if not phase:
        return None
    total = sum(phase.values())
    if total <= 0:
        return None
    return {key: value / total for key, value in phase.items()}


def fig15(scale: float = 1.0) -> ExperimentResult:
    """Runtime breakdown of G-thinker vs k-Automine.

    The k-Automine run executes with tracing enabled, and its bars are
    computed from the recorded chunk spans (the scheduler's per-chunk
    compute/scheduler/cache/exposed-network attribution) aggregated
    per machine — the baseline's bars come from its clock, since only
    the Khuzdul engine is span-instrumented.
    """
    from repro.obs import Observability

    rows = []
    apps_by_graph = {
        "mico": ("TC", "3-MC", "4-CC", "5-CC"),
        "patents": ("TC", "3-MC", "4-CC", "5-CC"),
        "livejournal": ("TC", "3-MC", "4-CC"),
    }
    for name, apps in apps_by_graph.items():
        graph = dataset(name, scale=scale)
        config = _cluster_config(name, graph, machines=8, cores=8)
        memory = config.memory_bytes
        for app in apps:
            obs = Observability()
            k_report = _run_app(
                KAutomine(graph, config, graph_name=name, obs=obs), app
            )
            g_report = _attempt(lambda: _run_app(
                GThinker(graph, num_machines=8, cores=8,
                         memory_bytes=memory, graph_name=name),
                app,
            ))
            for system, report in (("k-automine", k_report),
                                   ("g-thinker", g_report)):
                if isinstance(report, str):
                    rows.append({"system": system, "app": app,
                                 "graph": ABBR[name], "compute": report})
                    continue
                fractions = _span_phase_fractions(report)
                source = "spans"
                if fractions is None:
                    fractions = report.breakdown_fractions()
                    source = "clock"
                rows.append({
                    "system": system,
                    "app": app,
                    "graph": ABBR[name],
                    "compute": f"{fractions.get('compute', 0):.1%}",
                    "scheduler": f"{fractions.get('scheduler', 0):.1%}",
                    "cache": f"{fractions.get('cache', 0):.1%}",
                    "network": f"{fractions.get('network', 0):.1%}",
                    "source": source,
                })
    return ExperimentResult(
        "Figure 15",
        "Runtime breakdown of G-thinker / k-Automine",
        ["system", "app", "graph", "compute", "scheduler", "cache",
         "network", "source"],
        rows,
        notes=["'source=spans' rows aggregate per-chunk trace spans "
               "(repro.obs); 'clock' rows fall back to the machine clock"],
    )


# ======================================================================
# Figures 16/17: cache design analysis
# ======================================================================
def fig16(scale: float = 1.0) -> ExperimentResult:
    """Cache replacement policies vs the static no-replacement cache."""
    rows = []
    for name in ("livejournal", "friendster"):
        graph = dataset(name, scale=scale)
        for app in ("TC", "3-MC", "4-CC", "5-CC"):
            baseline = None
            measured = {}
            for policy in (CachePolicy.STATIC, CachePolicy.FIFO,
                           CachePolicy.LIFO, CachePolicy.LRU,
                           CachePolicy.MRU):
                report = _run_app(
                    _kgraphpi(graph, name, cache_policy=policy,
                              cache_fraction=0.10,
                              chunk_bytes=_ABLATION_CHUNK),
                    app,
                )
                measured[policy.value] = report
                if policy is CachePolicy.STATIC:
                    baseline = report
            assert baseline is not None
            for policy_name, report in measured.items():
                rows.append({
                    "workload": f"{ABBR[name]}-{app}",
                    "policy": policy_name.upper(),
                    "norm-runtime": f"{report.simulated_seconds / baseline.simulated_seconds:.2f}",
                    "norm-traffic": f"{report.network_bytes / max(1, baseline.network_bytes):.2f}",
                })
    return ExperimentResult(
        "Figure 16",
        "Comparing cache replacement policies (normalized to STATIC)",
        ["workload", "policy", "norm-runtime", "norm-traffic"],
        rows,
    )


def fig17(scale: float = 1.0) -> ExperimentResult:
    """Sweeping the cache size from 1% to 50% of the graph size."""
    workloads = [
        ("livejournal", "TC"), ("livejournal", "3-MC"),
        ("livejournal", "4-CC"), ("livejournal", "5-CC"),
        ("friendster", "TC"), ("friendster", "4-CC"),
        ("uk", "TC"),
    ]
    fractions = (0.01, 0.05, 0.10, 0.20, 0.30, 0.50)
    rows = []
    for name, app in workloads:
        graph = dataset(name, scale=scale)
        baseline = None
        for fraction in fractions:
            report = _run_app(
                _kgraphpi(graph, name, cache_fraction=fraction,
                          chunk_bytes=_ABLATION_CHUNK),
                app,
            )
            if baseline is None:
                baseline = report
            rows.append({
                "workload": f"{ABBR[name]}-{app}",
                "cache/graph": f"{fraction:.0%}",
                "norm-traffic": f"{report.network_bytes / max(1, baseline.network_bytes):.3f}",
                "hit-rate": f"{report.cache_hit_rate:.1%}",
                "norm-runtime": f"{report.simulated_seconds / baseline.simulated_seconds:.3f}",
            })
    return ExperimentResult(
        "Figure 17",
        "Varying the cache size (normalized to the 1% configuration)",
        ["workload", "cache/graph", "norm-traffic", "hit-rate",
         "norm-runtime"],
        rows,
    )


# ======================================================================
# Figure 18: chunk size sensitivity
# ======================================================================
def fig18(scale: float = 1.0) -> ExperimentResult:
    """Chunk-size sweep on lj (with the paper's OOM at the top end)."""
    name = "livejournal"
    graph = dataset(name, scale=scale)
    # the paper's node has 64 GB against 1 MB..16 GB chunks; scale the
    # memory so the largest chunk times the deepest pattern's chunk
    # count overflows (chunks are pre-allocated, Section 4.2)
    memory = 52 * graph.size_bytes()
    chunk_sizes = [2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10,
                   2 << 20, 4 << 20]
    rows = []
    for app in ("TC", "3-MC", "4-CC", "5-CC"):
        for chunk in chunk_sizes:
            config = ClusterConfig(8, 16, 2, int(memory))
            system = KGraphPi(
                graph, config,
                EngineConfig(chunk_bytes=chunk, auto_fit_chunks=False),
                graph_name=name,
            )
            outcome = _attempt(lambda: _run_app(system, app))
            cell = _cell_time(outcome)
            rows.append({
                "app": app,
                "chunk": f"{chunk >> 10}KB",
                "runtime": "OOM" if cell == "CRASHED" else cell,
            })
    return ExperimentResult(
        "Figure 18",
        "Varying chunk size (k-GraphPi, lj; OOM reproduces Figure 18's)",
        ["app", "chunk", "runtime"],
        rows,
    )


# ======================================================================
# Figure 19: network bandwidth utilization
# ======================================================================
def fig19(scale: float = 1.0) -> ExperimentResult:
    """Peak network utilization per workload.

    Runs instrumented: besides the paper's headline peak-link number,
    each row reports the spread of per-machine link utilization and
    the responder-side serve time (both from the run's observability
    summary) — the serve-bound effect is what keeps utilization low on
    Patents-like workloads in the paper's Figure 19.
    """
    from repro.obs import Observability

    rows = []
    for name in ("mico", "patents", "livejournal", "friendster"):
        graph = dataset(name, scale=scale)
        for app in ("TC", "3-MC", "4-CC", "5-CC"):
            config = _cluster_config(name, graph, machines=8, cores=16,
                                     sockets=2)
            obs = Observability()
            report = _run_app(
                KGraphPi(graph, config, graph_name=name, obs=obs), app
            )
            net = report.extra["obs"]["network"]
            utils = net["per_machine_utilization"]
            serve = report.extra.get("serve_seconds", 0.0)
            rows.append({
                "graph": ABBR[name],
                "app": app,
                "net-utilization": f"{report.network_utilization:.1%}",
                "per-machine": (
                    f"{min(utils):.1%}-{max(utils):.1%}" if utils else "n/a"
                ),
                "batches": net["num_batches"],
                "serve-share": (
                    f"{serve / report.simulated_seconds:.1%}"
                    if report.simulated_seconds > 0 else "0.0%"
                ),
            })
    return ExperimentResult(
        "Figure 19",
        "Network bandwidth utilization (k-GraphPi, instrumented)",
        ["graph", "app", "net-utilization", "per-machine", "batches",
         "serve-share"],
        rows,
        notes=["per-machine/batches/serve-share come from the run's "
               "observability summary (repro.obs), not the clock"],
    )



# ======================================================================
# Design-choice ablations (DESIGN.md: beyond the paper's figures)
# ======================================================================
def ablation_hds_chaining(scale: float = 1.0) -> ExperimentResult:
    """Collision-dropping vs chained HDS table (Section 5.2's trade).

    The paper drops colliding insertions to keep the table nearly free,
    accepting a little redundant communication. The chained variant
    eliminates those duplicate fetches but pays chain walks on every
    colliding probe.
    """
    rows = []
    for name in ("livejournal", "friendster"):
        graph = dataset(name, scale=scale)
        for app in ("4-CC", "5-CC"):
            # a small slot table makes collisions actually happen, so
            # the two designs genuinely diverge
            drop = _run_app(
                _kgraphpi(graph, name, hds_chaining=False, hds_slots=256,
                          chunk_bytes=256 << 10), app
            )
            chain = _run_app(
                _kgraphpi(graph, name, hds_chaining=True, hds_slots=256,
                          chunk_bytes=256 << 10), app
            )
            rows.append({
                "workload": f"{ABBR[name]}-{app}",
                "traffic(drop)": ("bytes", drop.network_bytes),
                "traffic(chain)": ("bytes", chain.network_bytes),
                "time(drop)": drop.simulated_seconds,
                "time(chain)": chain.simulated_seconds,
            })
    return ExperimentResult(
        "Ablation A",
        "HDS collision handling: dropping (paper) vs chaining",
        ["workload", "traffic(drop)", "traffic(chain)", "time(drop)",
         "time(chain)"],
        rows,
        notes=["chaining saves the duplicate fetches dropping leaves "
               "behind but pays a chain walk per colliding probe"],
    )


def ablation_circulant(scale: float = 1.0) -> ExperimentResult:
    """Circulant pipelined scheduling vs fetch-everything-then-compute."""
    rows = []
    for name in ("livejournal", "uk", "friendster"):
        graph = dataset(name, scale=scale)
        for app in ("TC", "4-CC"):
            on = _run_app(_kgraphpi(graph, name, circulant=True), app)
            off = _run_app(_kgraphpi(graph, name, circulant=False), app)
            rows.append({
                "workload": f"{ABBR[name]}-{app}",
                "pipelined": on.simulated_seconds,
                "serial-fetch": off.simulated_seconds,
                "speedup": f"{off.simulated_seconds / on.simulated_seconds:.2f}x",
            })
    return ExperimentResult(
        "Ablation B",
        "Circulant scheduling: pipelined vs serialized fetches (S4.3)",
        ["workload", "pipelined", "serial-fetch", "speedup"],
        rows,
    )


def ablation_cache_threshold(scale: float = 1.0) -> ExperimentResult:
    """Static-cache admission degree threshold sweep (paper uses 64)."""
    rows = []
    name = "uk"
    graph = dataset(name, scale=scale)
    for threshold in (0, 4, 16, 64, 256):
        report = _run_app(
            _kgraphpi(graph, name, cache_degree_threshold=threshold,
                      cache_fraction=0.05, chunk_bytes=4 << 10), "4-CC"
        )
        rows.append({
            "threshold": threshold,
            "traffic": ("bytes", report.network_bytes),
            "hit-rate": f"{report.cache_hit_rate:.1%}",
            "runtime": report.simulated_seconds,
        })
    return ExperimentResult(
        "Ablation C",
        "Static cache admission threshold (uk analogue, 4-CC)",
        ["threshold", "traffic", "hit-rate", "runtime"],
        rows,
        notes=["a threshold of 0 admits cold low-degree lists, wasting "
               "capacity; very high thresholds leave the cache empty"],
    )

#: every reproducible experiment, keyed by its paper label
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "table6": table6,
    "table7": table7,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "ablation_hds_chaining": ablation_hds_chaining,
    "ablation_circulant": ablation_circulant,
    "ablation_cache_threshold": ablation_cache_threshold,
}


def run_experiment(name: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by key (see :data:`EXPERIMENTS`)."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; one of {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](scale=scale)


def main() -> None:  # pragma: no cover - manual utility
    """Run every experiment and print its table (slow: several minutes)."""
    import sys

    names = sys.argv[1:] or list(EXPERIMENTS)
    for name in names:
        print(run_experiment(name).format())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
