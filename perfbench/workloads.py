"""The five workloads: inputs from a seed, one timed unit, its check.

Everything here goes through ``repro``'s public API only (``dataset``
specs, ``from_edge_batches``, ``build_store``/``open_store``, the two
ports, ``apps.motif_count``, ``ProcessBackend``, the mining service),
so end-to-end numbers survive any internal rename. Why each workload
exists is in its ``why`` (one line, copied into ``BENCHMARK.json``)
and at length in ``README.md``.

A *unit* is what one timed sample measures: for the batch workloads a
full query on a fresh system object (constructor -> ``RunReport``, so
partitioning and schedule compilation are inside the timing while
graph-level lazy caches are warm); for ``service-mix`` one closed-loop
round of the query mix.
"""

from __future__ import annotations

import math
import os
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

import numpy as np

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.exec import ProcessBackend
from repro.graph import (
    DATASETS,
    build_store,
    dataset,
    from_edge_array,
    from_edge_batches,
    open_store,
    power_law_edge_batches,
    power_law_graph,
)
from repro.obs import Observability
from repro.patterns import catalog
from repro.service import (
    MiningServer,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
    parse_pattern_spec,
)
from repro.systems import KAutomine, KGraphPi, apps

from perfbench import seams
from perfbench.measure import quartiles
from perfbench.metrics import registry_totals

#: simulated machines of every batch workload
NUM_MACHINES = 8
#: generator seeds are taken modulo this, so any integer --seed works
_SEED_SPACE = 1 << 32


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one mode. ``full`` is sized for a 2-CPU shared
    box so that a unit takes 0.4-1.3 s and fifteen to forty of them fit
    the measuring window: the host's speed changes within seconds, and
    a sample is only as good as the two probes either side of it are
    close to it in time. ``smoke`` shrinks every input so all five
    workloads finish within a minute."""

    mode: str
    #: multiple of the ``wdc`` analogue's vertex/edge counts (Chung-Lu)
    tri_factor: int
    chain_scale: float
    motif_scale: float
    service_scale: float
    #: per client and round: this many of each query kind, in seeded
    #: order
    service_per_kind: int
    service_warmup: int
    #: ``setup_s`` samples per untraced run (their median is reported)
    setup_samples: int
    #: units measured even when the window is already spent
    min_units: int


FULL = Sizes(
    mode="full", tri_factor=2, chain_scale=0.1, motif_scale=0.1,
    service_scale=0.2, service_per_kind=2,
    service_warmup=20, setup_samples=9, min_units=5,
)
SMOKE = Sizes(
    mode="smoke", tri_factor=1, chain_scale=0.1, motif_scale=0.1,
    service_scale=0.2, service_per_kind=4,
    service_warmup=4, setup_samples=2, min_units=2,
)


@dataclass
class Unit:
    """Outcome of one timed unit."""

    #: the answer, in a JSON-comparable form
    counts: Any
    sim_s: float
    queries: int
    #: client-observed latency of every query in the unit, seconds
    latencies: list[float]
    #: why queries of this unit count as failed (empty = none did)
    failures: list[str] = field(default_factory=list)
    #: ``Observability().registry.snapshot()`` of a traced unit (for a
    #: service round: its queries' snapshots, counters summed by name)
    snapshot: Optional[dict] = None
    extra: dict = field(default_factory=dict)


def mico_sampled(scale: float, seed: int):
    """The ``mico`` analogue at ``scale`` with one edge in a hundred
    dropped, the seed choosing which. Redrawing the whole graph moves
    the 5-vertex counts — the work — by several percent from seed to
    seed; sampling its edges moves them by a few tenths of a percent,
    so runs on different seeds stay comparable while ``sim_s`` and the
    counts still depend on the seed. The graph is generated from its
    spec as ``dataset("mico", scale)`` generates it, but every time:
    ``dataset`` memoizes, and a set-up that is a cache hit measures
    nothing."""
    spec = DATASETS["mico"].scaled(scale)
    graph = power_law_graph(
        spec.num_vertices, spec.num_edges, exponent=spec.exponent,
        max_degree=spec.max_degree, seed=spec.seed,
    )
    edges = np.array(list(graph.edges()), dtype=np.int64)
    rng = np.random.default_rng(seed % _SEED_SPACE)
    dropped = rng.choice(len(edges), size=max(1, len(edges) // 100),
                         replace=False)
    return from_edge_array(np.delete(edges, dropped, axis=0),
                           num_vertices=graph.num_vertices)


def wdc_shaped_batches(factor: int, seed: int):
    """Edge stream of the ``wdc``-shaped Chung-Lu graph at ``factor``
    times the analogue (hub cap fixed, as in the scale sweep)."""
    spec = DATASETS["wdc"]
    return power_law_edge_batches(
        spec.num_vertices * factor,
        spec.num_edges * factor,
        exponent=spec.exponent,
        max_degree=spec.max_degree,
        seed=seed % _SEED_SPACE,
    )


class Workload:
    """One named workload; subclasses fill in the four steps."""

    name = ""
    why = ""
    #: threads issuing queries concurrently inside one unit
    clients = 1
    #: CPUs a unit can keep busy; a workload with one is pinned to one,
    #: so that the probes run where the unit does
    cpus = 1
    #: a unit is a round of many queries against a resident server, so
    #: the three service metrics (rate, latency percentiles) apply
    serves = False

    def setup(self, seed: int, sizes: Sizes, scratch: str, tracer,
              traced: bool) -> Any:
        """Build the inputs from ``seed`` (timed as ``setup_s``)."""
        raise NotImplementedError

    def warm(self, state, traced: bool) -> Unit:
        """The cold unit (timed as ``cold_run_s``)."""
        return self.unit(state, traced)

    def unit(self, state, traced: bool) -> Unit:
        raise NotImplementedError

    def reference(self, state, timed: bool) -> Optional[Unit]:
        """An independent answer to compare every unit against on any
        seed (``None`` = the pin is the only oracle). ``timed`` asks
        for a warm latency as well (the traced run's A/B)."""
        return None

    def teardown(self, state, tracer) -> None:
        pass

    def mismatches(self, unit: Unit, oracle) -> int:
        """How many of ``unit``'s queries disagree with ``oracle``
        (a pin or a reference's counts)."""
        return int(unit.counts != oracle)

    def layer_metrics(self, state, plain: list[Unit]):
        """``(metrics, missing seams)`` only this workload can compute
        from its untraced units (traced run, after teardown)."""
        return {}, []


def _plain(counts):
    """Counts in one JSON-comparable form: a census (a dict keyed by
    canonical code, or by its string once it crossed the service) as
    its per-motif list."""
    if isinstance(counts, dict):
        return list(counts.values())
    return counts


def _query_unit(run, traced: bool) -> Unit:
    """Time ``run(obs) -> RunReport`` as one unit."""
    obs = Observability() if traced else None
    started = perf_counter()
    report = run(obs)
    latency = perf_counter() - started
    failures = []
    if report.outcome != "OK":
        failures.append(f"outcome {report.outcome}")
    return Unit(
        counts=_plain(report.counts),
        sim_s=report.simulated_seconds,
        queries=1,
        latencies=[latency],
        failures=failures,
        snapshot=obs.registry.snapshot() if obs else None,
    )


class BatchWorkload(Workload):
    """A full query on a fresh system object."""

    def query(self, state, obs):
        raise NotImplementedError

    def unit(self, state, traced: bool) -> Unit:
        return _query_unit(lambda obs: self.query(state, obs), traced)


def _count_triangles(graph, name, obs, backend=None):
    system = KAutomine(
        graph, ClusterConfig(num_machines=NUM_MACHINES),
        graph_name=name, obs=obs, backend=backend,
    )
    return system.count_pattern(catalog.clique(3))


class Tri2x(BatchWorkload):
    name = "tri-2x"
    why = ("kernel-bound: clique3 on a hub-heavy graph too big for the "
           "dense adjacency bitmap, so the searchsorted fallback and "
           "resolve dominate")

    def setup(self, seed, sizes, scratch, tracer, traced):
        with tracer.span("graph.build_s"):
            return from_edge_batches(
                wdc_shaped_batches(sizes.tri_factor, seed)
            )

    def query(self, graph, obs):
        return _count_triangles(graph, self.name, obs)


class Chain5Mico(BatchWorkload):
    name = "chain5-mico"
    why = ("scheduler bookkeeping: 5-path enumeration with almost no "
           "fetches, so fill and count-only drain dominate and HDS/cache "
           "are bypassed")

    def setup(self, seed, sizes, scratch, tracer, traced):
        with tracer.span("graph.build_s"):
            return mico_sampled(sizes.chain_scale, seed)

    def query(self, graph, obs):
        system = KAutomine(
            graph, ClusterConfig(num_machines=NUM_MACHINES),
            graph_name=self.name, obs=obs,
        )
        return system.count_pattern(catalog.chain(5))


class Motif5Mico(BatchWorkload):
    name = "motif5-mico"
    why = ("multi-pattern: the 21-schedule 5-motif census under IEP, the "
           "only workload where order search, plan compilation, iep_chunk "
           "and the census solve do visible work")

    def setup(self, seed, sizes, scratch, tracer, traced):
        with tracer.span("graph.build_s"):
            return mico_sampled(sizes.motif_scale, seed)

    def query(self, graph, obs):
        system = KGraphPi(
            graph, ClusterConfig(num_machines=NUM_MACHINES),
            EngineConfig(counting="iep"),
            graph_name=self.name, obs=obs,
        )
        return apps.motif_count(system, 5)


class Tri2xProcMmap(BatchWorkload):
    name = "tri-2x-proc-mmap"
    why = ("same graph and pattern as tri-2x through a .kcsr store and "
           "ProcessBackend(workers=2): isolates exec and graph.storage, "
           "counts and sim_s must equal tri-2x")
    cpus = 2

    def setup(self, seed, sizes, scratch, tracer, traced):
        path = os.path.join(scratch, "tri.kcsr")
        with tracer.span("graph.store_build_s"):
            build_store(wdc_shaped_batches(sizes.tri_factor, seed), path)
        with tracer.span("graph.store_open_s"):
            mapped = open_store(path)
        return {"graph": mapped, "seed": seed, "factor": sizes.tri_factor}

    def query(self, state, obs):
        return _count_triangles(state["graph"], self.name, obs,
                                backend=ProcessBackend(workers=2))

    def reference(self, state, timed: bool):
        """The same query inline on the same graph built in RAM — what
        ``tri-2x`` runs. Counts and ``sim_s`` must match it bit for
        bit; when ``timed``, one more (warm) run gives the base of
        ``exec.speedup_vs_inline``."""
        graph = from_edge_batches(
            wdc_shaped_batches(state["factor"], state["seed"])
        )
        # the first run builds the lazy adjacency keys
        units = [
            _query_unit(
                lambda obs: _count_triangles(graph, self.name, obs), False
            )
            for _ in range(2 if timed else 1)
        ]
        units[0].latencies = [unit.latencies[0] for unit in units[1:]]
        return units[0]


#: the service-mix query kinds (``QueryRequest`` fields)
SERVICE_KINDS = (
    {"app": "triangle"},
    {"app": "count", "pattern": "clique4"},
    {"app": "count", "pattern": "chain3"},
    {"app": "count", "pattern": "star3"},
    {"app": "motifs", "size": 3},
)
#: the two cheapest kinds: they cost the host the same 4 ms and the
#: simulated cluster 59 and 142 us
SERVICE_EXTRAS = ({"app": "triangle"}, {"app": "count", "pattern": "chain3"})
SERVICE_CLIENTS = 2


def _kind_key(fields: dict) -> str:
    if fields["app"] == "motifs":
        return f"motifs{fields['size']}"
    return fields.get("pattern", fields["app"])


class ServiceMix(Workload):
    name = "service-mix"
    why = ("closed loop, 2 clients on one resident MiningServer: 5-60 ms "
           "queries, so queue, admission, dispatch, pipe IPC and report "
           "assembly are a real share")
    clients = SERVICE_CLIENTS
    serves = True

    def _config(self, sizes: Sizes, metrics: bool) -> ServiceConfig:
        return ServiceConfig(
            graph="mico", scale=sizes.service_scale, machines=2, cores=2,
            workers=1, metrics=metrics,
        )

    def traces(self, state) -> list[list[dict]]:
        """One query list per client for one round: ``service_per_kind``
        of every kind plus the client's extra, so every round of a run
        is the same work, in an order and with priorities 0-9 drawn
        from the run's generator. Every round draws anew: who waits
        behind whom decides the latencies, and a run has to see many
        orders for its percentiles not to depend on one."""
        rng = state["rng"]
        traces = []
        for extra in state["extras"]:
            kinds = [kind for kind in SERVICE_KINDS
                     for _ in range(state["sizes"].service_per_kind)]
            kinds.append(extra)
            rng.shuffle(kinds)
            traces.append([dict(kind, priority=rng.randrange(10))
                           for kind in kinds])
        return traces

    def setup(self, seed, sizes, scratch, tracer, traced):
        servers = {}
        rng = random.Random(seed)
        with tracer.span("service.start_s"):
            servers[False] = MiningServer(self._config(sizes, False)).start()
        if traced:
            # the traced rounds go to a second resident server with
            # per-query metrics on; rounds alternate between the two
            servers[True] = MiningServer(self._config(sizes, True)).start()
        return {
            "servers": servers,
            "rng": rng,
            # one more query per client, the same in every round, drawn
            # by the seed: sim_s depends on it while the work does not
            "extras": [rng.choice(SERVICE_EXTRAS)
                       for _ in range(SERVICE_CLIENTS)],
            "sizes": sizes,
            "tracer": tracer,
            "summaries": [],
        }

    def reference(self, state, timed: bool) -> Unit:
        """Every kind's count straight from the public batch API on
        the same dataset — what each service answer must equal."""
        sizes = state["sizes"]
        system = KAutomine(
            dataset("mico", sizes.service_scale),
            self._config(sizes, False).cluster_config(),
        )
        counts = {}
        for kind in SERVICE_KINDS:
            if kind["app"] == "motifs":
                report = apps.motif_count(system, kind["size"])
            else:
                report = system.count_pattern(
                    parse_pattern_spec(
                        QueryRequest(**kind).effective_pattern()
                    )
                )
            counts[_kind_key(kind)] = _plain(report.counts)
        return Unit(counts=counts, sim_s=None, queries=0, latencies=[])

    def mismatches(self, unit: Unit, oracle) -> int:
        return sum(1 for key, counts in unit.extra["answers"]
                   if counts != oracle.get(key))

    def _round(self, state, traced: bool, traces) -> Unit:
        client = ServiceClient(state["servers"][traced])
        tracer = state["tracer"]
        results: list[list] = [[] for _ in traces]

        def run_client(index: int) -> None:
            for fields in traces[index]:
                started = perf_counter_ns()
                try:
                    report = client.query(QueryRequest(**fields))
                except Exception as exc:  # a lost query is a failed one
                    report = exc
                ended = perf_counter_ns()
                tracer.record("service.query", started, ended)
                results[index].append((fields, report, ended - started))

        threads = [threading.Thread(target=run_client, args=(index,))
                   for index in range(len(traces))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        unit = Unit(counts={}, sim_s=0.0, queries=0, latencies=[])
        answers, queue_waits, service_times, simulated = [], [], [], []
        totals: dict[str, float] = {}
        for fields, report, latency_ns in (
                item for client_results in results
                for item in client_results):
            key = _kind_key(fields)
            unit.queries += 1
            unit.latencies.append(latency_ns / 1e9)
            if isinstance(report, Exception):
                unit.failures.append(f"{key}: {report!r}")
                continue
            if report.outcome != "OK":
                unit.failures.append(f"{key}: outcome {report.outcome}")
                continue
            counts = _plain(report.counts)
            answers.append((key, counts))
            unit.counts[key] = counts
            simulated.append(report.report["simulated_seconds"])
            queue_waits.append(report.queue_seconds)
            service_times.append(report.wall_seconds - report.queue_seconds)
            if report.metrics:
                for name, value in registry_totals(report.metrics).items():
                    totals[name] = totals.get(name, 0) + value
        # every round answers the same queries in another order
        unit.sim_s = math.fsum(simulated)
        if totals:
            unit.snapshot = {"counters": {name: {"": value}
                                          for name, value in totals.items()}}
        unit.extra = {"answers": answers, "queue_waits": queue_waits,
                      "service_times": service_times}
        return unit

    def warm(self, state, traced: bool) -> Unit:
        share = -(-state["sizes"].service_warmup // SERVICE_CLIENTS)
        traces = [trace[:share]
                  for trace in self.traces(state)]
        for server in sorted(state["servers"], reverse=True):
            unit = self._round(state, server, traces)
        return unit

    def unit(self, state, traced: bool) -> Unit:
        return self._round(state, traced, self.traces(state))

    def teardown(self, state, tracer) -> None:
        servers = state["servers"]
        with tracer.span("service.shutdown_s"):
            state["summaries"].append(servers.pop(False).shutdown())
        for server in servers.values():
            state["summaries"].append(server.shutdown())
        servers.clear()

    def layer_metrics(self, state, plain: list[Unit]):
        waits = [wait for unit in plain
                 for wait in unit.extra["queue_waits"]]
        served = [seconds for unit in plain
                  for seconds in unit.extra["service_times"]]
        metrics = {
            "service.queue_wait_p50_ms": 1e3 * quartiles(waits)[1],
            "service.rejected": sum(summary["rejected"]
                                    for summary in state["summaries"]),
            "service.failed": sum(summary["failed"]
                                  for summary in state["summaries"]),
        }
        found = seams.resolve(seams.QUERY_EXECUTOR)
        if found is None:
            return metrics, [seams.QUERY_EXECUTOR]
        # A/B inside the harness: the same trace straight through a
        # serving lane in this process, no queue, no pipe, no threads
        sizes = state["sizes"]
        executor = found[2](dataset("mico", sizes.service_scale),
                            self._config(sizes, False))
        executed = []
        for trace in self.traces(state):
            for fields in trace:
                started = perf_counter()
                executor.execute(QueryRequest(**fields))
                executed.append(perf_counter() - started)
        execute_p50 = quartiles(executed)[1]
        metrics["service.execute_p50_ms"] = 1e3 * execute_p50
        metrics["service.overhead_p50_ms"] = 1e3 * (
            quartiles(served)[1] - execute_p50
        )
        return metrics, []


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (Tri2x(), Chain5Mico(), Motif5Mico(), Tri2xProcMmap(),
                     ServiceMix())
}
