"""Lockstep machines (docs/performance.md, "Lockstep machines").

Every run walks its hosted machines together, and the requests one trie
node makes on several machines are served by one kernel call. Nothing a
report says may depend on that:

- inline lockstep (every machine at once) equals the process backend
  with one machine a worker, and the sum of one ``hosted_run`` a
  machine (each walk alone: a lockstep of width one), in the whole
  report, over the pattern kinds a walk can make requests for, every
  membership regime and every resolve setting;
- an abort ends only its own machine's walk, so an aborted run agrees
  across backends too. The abort golden (tests/data/abort_golden.json)
  holds the whole report of one OUTOFMEM run and one TIMEOUT run.

Re-record the golden (only in a change whose point is that an abort
report moves) with ``PYTHONPATH=src python tests/test_lockstep.py
--write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.workloads import mico_sampled
from repro.cluster import Cluster, ClusterConfig
from repro.core import CachePolicy, EngineConfig, KhuzdulEngine, kernels
from repro.core.cache import EdgeCache
from repro.core.chunk import Chunk, EdgeListSource
from repro.core.extend import ScheduleExtender
from repro.core.scheduler import MachineScheduler, _circulant
from repro.exec import ProcessBackend
from repro.exec.process import merge_reports
from repro.exec.worker import hosted_run
from repro.graph.generators import erdos_renyi, power_law_graph
from repro.graph.graph import edge_list_bytes_of
from repro.obs import Observability, names
from repro.patterns import catalog
from repro.patterns.schedule import (
    ExtensionStep, automine_schedule, compile_counting_plan,
    graphpi_schedule,
)
from repro.systems import KGraphPi, apps

ABORT_GOLDEN = Path(__file__).parent / "data" / "abort_golden.json"

#: name -> (memory bytes, engine config): machine 2 runs out of memory
#: while machines 0, 1 and 3 run to their end; machines 1 and 2 overrun
#: the budget, machine 2 first on its own clock
ABORTS = {
    "outofmem": (7328, dict(chunk_bytes=1024, auto_fit_chunks=False,
                            cache_fraction=0.0)),
    "timeout": (64 << 20, dict(chunk_bytes=2048, time_budget=5e-4)),
}


def _abort_engine(name: str, backend=None, **config) -> KhuzdulEngine:
    memory_bytes, base = ABORTS[name]
    graph = power_law_graph(300, 1500, exponent=2.0, seed=11)
    cluster = Cluster(graph, ClusterConfig(num_machines=4,
                                           memory_bytes=memory_bytes))
    return KhuzdulEngine(cluster, EngineConfig(**{**base, **config}),
                         obs=Observability(), backend=backend)


def abort_report(name: str) -> dict:
    """The whole report of one abort case (``RunReport.to_dict``),
    observability on, through JSON."""
    report = _abort_engine(name).run(automine_schedule(catalog.chain(4)))
    return json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("name", sorted(ABORTS))
def test_abort_report_reproduces_golden(name):
    golden = json.loads(ABORT_GOLDEN.read_text())
    actual = abort_report(name)
    assert actual["outcome"] == name.upper()
    assert actual == golden[name]


def _walks_alone(engine, plan):
    """``(counts, report)`` of ``plan`` summed from one ``hosted_run`` a
    machine, each machine's walk alone, folded as the process backend
    folds its workers' (``merge_reports``)."""
    engine.obs.reset()
    return merge_reports(plan, [
        hosted_run(engine.cluster.graph, plan, None, {machine},
                   engine.obs.enabled)
        for machine in range(engine.cluster.num_machines)], engine.obs)


#: (case, time budget): both abort cases, then the timeout case's graph
#: under budgets from one that stops every machine early to one that
#: none reaches
ABORT_SWEEP = [("outofmem", None), ("timeout", None),
               *[("timeout", budget) for budget in (1e-5, 3e-4, 6e-4, 1e-3)]]


@pytest.mark.exec
@pytest.mark.parametrize("name,budget", ABORT_SWEEP)
def test_aborts_agree_across_backends(name, budget, comparable):
    """An abort ends only its own machine's walk, so where a machine
    runs cannot change the report: inline (every machine in lockstep),
    ``ProcessBackend(workers=2)`` and the sum of one
    ``hosted_run`` a machine agree in the whole report."""
    config = {} if budget is None else {"time_budget": budget}
    schedule = automine_schedule(catalog.chain(4))
    inline = _abort_engine(name, **config).run(schedule)
    process = _abort_engine(name, ProcessBackend(workers=2),
                            **config).run(schedule)
    emitted = process.extra["obs"]["emitted_metrics"]
    process.extra["obs"]["emitted_metrics"] = [
        metric for metric in emitted if not metric.startswith("exec.")]
    engine = _abort_engine(name, **config)
    counts, alone = _walks_alone(engine, engine.plan(
        [schedule], None, "khuzdul", "pattern"))
    alone.counts = counts[0]
    print(f"{name} budget={budget}: {inline.outcome} {inline.counts}")
    assert comparable(inline) == comparable(process) == comparable(alone)


# ----------------------------------------------------------------------
# lockstep against one machine at a time
# ----------------------------------------------------------------------
#: graph -> seed (printed by every test that draws one)
SEEDS = {"er": 29, "powerlaw": 31}

GRAPHS = {
    "er": lambda seed: erdos_renyi(80, 400, seed=seed),
    "powerlaw": lambda seed: power_law_graph(120, 520, exponent=2.0,
                                             seed=seed),
}

#: name -> (schedules, engine config): a listing chain, an induced
#: clique (its drain reuses a stored intersection), a fill that reuses
#: one and stores its own (VCS), and a fused census under IEP
WORKLOADS = {
    "chain5": lambda: ([automine_schedule(catalog.chain(5))], {}),
    "clique4-induced": lambda: (
        [automine_schedule(catalog.clique(4), induced=True)], {}),
    "clique5-vcs": lambda: ([automine_schedule(catalog.clique(5))], {}),
    "motif4-iep": lambda: (
        [graphpi_schedule(p) for p in catalog.motifs(4)],
        {"counting": "iep"}),
}


def _run(graph, workload, chunk_bytes, backend=None, alone=False,
         **config):
    """``(report, metrics)``: one run's report and its registry
    snapshot, the process backend's own ``exec.*`` series left out.
    ``workload`` names one of :data:`WORKLOADS`, or is what one makes.
    With ``alone`` the report is :func:`_walks_alone`'s — in this
    process, so a ``membership_regime`` graph keeps its regime."""
    schedules, extra = (WORKLOADS[workload]() if isinstance(workload, str)
                        else workload)
    cluster = Cluster(graph, ClusterConfig(num_machines=8,
                                           memory_bytes=64 << 20))
    obs = Observability()
    engine = KhuzdulEngine(
        cluster, EngineConfig(chunk_bytes=chunk_bytes, **extra, **config),
        obs=obs, backend=backend,
    )
    if alone:
        counts, report = _walks_alone(engine, engine.plan(schedules))
        report.counts = counts
    else:
        report = engine.run_many(schedules)
    names = report.extra["obs"]["emitted_metrics"]
    report.extra["obs"]["emitted_metrics"] = [
        name for name in names if not name.startswith("exec.")]
    metrics = {
        kind: {name: series for name, series in found.items()
               if not name.startswith("exec.")}
        for kind, found in obs.registry.snapshot().items()
    }
    return report, metrics


def _approx(tree):
    """``tree`` with every float compared within 1e-12 relative."""
    if isinstance(tree, dict):
        return {key: _approx(value) for key, value in tree.items()}
    if isinstance(tree, float):
        return pytest.approx(tree, rel=1e-12, abs=0.0)
    return tree


@pytest.mark.exec
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_lockstep_equals_one_machine_a_worker(graph_name, workload,
                                              comparable):
    """Inline, the 8 machines run in lockstep; with 8 workers each one
    walks alone. Every report field but the per-attempt ones agrees —
    the per-machine ``kernel.*`` counters among them."""
    seed = SEEDS[graph_name]
    print(f"{graph_name} seed={seed}")
    graph = GRAPHS[graph_name](seed)
    inline, inline_metrics = _run(graph, workload, 1024)
    alone, alone_metrics = _run(graph, workload, 1024,
                                ProcessBackend(workers=8))
    assert alone.extra["exec"]["workers"] == 8
    assert comparable(inline) == comparable(alone)
    # integers exact; a float series the parent sums over workers
    # (``time.serve_seconds``) may sit an ulp away
    assert _approx(inline_metrics) == alone_metrics


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_lockstep_equals_width_one_in_every_regime(membership_regime,
                                                   workload, comparable):
    """The same, in process and in every membership regime (words only,
    words + tail, lists): the 8 machines in lockstep against the sum of
    8 walks of width one (one ``hosted_run`` a machine), equal in the
    whole report and the registry."""
    seed = SEEDS["powerlaw"]
    print(f"powerlaw seed={seed}")
    graph = membership_regime(GRAPHS["powerlaw"](seed))
    for chunk_bytes in (1024, 1 << 20):
        lockstep, lockstep_metrics = _run(graph, workload, chunk_bytes)
        width_one, width_one_metrics = _run(graph, workload, chunk_bytes,
                                            alone=True)
        assert comparable(lockstep) == comparable(width_one)
        assert _approx(lockstep_metrics) == width_one_metrics


def test_motif5_census_makes_few_kernel_calls(monkeypatch):
    """The benchmark's census (``motif5-mico``: its own graph, 8
    machines) made 293 kernel calls with one call a chunk; in lockstep a
    trie site's chunks share calls, up to ``BATCH_ELEMENTS`` prefix
    entries a call (docs/performance.md, "Lockstep machines")."""
    calls = []
    for name in ("extend_chunk", "iep_chunk"):
        method = getattr(ScheduleExtender, name)

        def counted(self, *args, _method=method, **kwargs):
            calls.append(len(args[2]))
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(ScheduleExtender, name, counted)
    system = KGraphPi(mico_sampled(0.1, 19), ClusterConfig(num_machines=8),
                      EngineConfig(counting="iep"))
    report = apps.motif_count(system, 5)
    print(f"motif5-mico: {len(calls)} kernel calls for {sum(calls)} "
          f"chunk requests, {report.extra['chunks']} chunks")
    assert len(calls) <= 60
    assert max(calls) == 8


# ----------------------------------------------------------------------
# resolve in lockstep: one pass over a site's chunks
# ----------------------------------------------------------------------
#: a graph whose chunks fetch: hubs on every machine, so HDS shares,
#: caches fill (the 2 % static cache is full after a list or two, the
#: 20 % one is not on every machine) and circulant batches go to every
#: owner
FETCH_SEED = 47

#: two cliques fused on a shared prefix: every fill resolves a fetch
FETCH_WORKLOAD = ([automine_schedule(catalog.clique(4)),
                   automine_schedule(catalog.clique(3))], {})

RESOLVE_HDS = {
    "hds-off": dict(hds=False),
    "hds-on": {},
    "hds-chaining": dict(hds_chaining=True),
}

RESOLVE_CACHES = {
    "static-0": dict(cache_fraction=0.0),
    "static-20": dict(cache_fraction=0.2),
    "static-saturating": dict(cache_fraction=0.02),
    "lru": dict(cache_policy=CachePolicy.LRU, cache_fraction=0.2),
    "mru": dict(cache_policy=CachePolicy.MRU, cache_fraction=0.2),
}

#: every HDS design crossed with every cache, then the ablations that
#: change what a resolve hands on (no stored intersections, no pipeline)
RESOLVE_SETTINGS = {
    **{f"{hds}/{cache}": {**RESOLVE_HDS[hds], **RESOLVE_CACHES[cache]}
       for hds in RESOLVE_HDS for cache in RESOLVE_CACHES},
    "vcs-off": dict(vcs=False),
    "circulant-off": dict(circulant=False),
}


@pytest.mark.parametrize("setting", sorted(RESOLVE_SETTINGS))
def test_lockstep_resolve_equals_width_one(setting, comparable):
    """A resolve over every machine's chunk at a trie site settles each
    machine as a resolve of its chunk alone would: lockstep against the
    sum of one ``hosted_run`` a machine, with 1 KiB and 1 MiB chunks,
    equal in the whole report and the registry."""
    print(f"powerlaw seed={FETCH_SEED} setting={setting}")
    graph = power_law_graph(300, 1200, exponent=2.0, seed=FETCH_SEED)
    config = RESOLVE_SETTINGS[setting]
    for chunk_bytes in (1024, 1 << 20):
        lockstep, lockstep_metrics = _run(graph, FETCH_WORKLOAD, chunk_bytes,
                                          **config)
        width_one, width_one_metrics = _run(
            graph, FETCH_WORKLOAD, chunk_bytes, alone=True, **config)
        assert lockstep.extra["fetch_sources"]["remote"] > 0
        assert comparable(lockstep) == comparable(width_one)
        assert _approx(lockstep_metrics) == width_one_metrics


def test_static_cache_sizes_reach_their_regimes():
    """The static cache sizes above are what they are named for: the
    2 % cache has stopped admitting on every machine, the 20 % one still
    has room on some."""
    print(f"powerlaw seed={FETCH_SEED}")
    graph = power_law_graph(300, 1200, exponent=2.0, seed=FETCH_SEED)
    least = edge_list_bytes_of(EngineConfig().cache_degree_threshold)
    for cache, saturated in (("static-saturating", all), ("static-20", any)):
        fraction = RESOLVE_CACHES[cache]["cache_fraction"]
        _, metrics = _run(graph, FETCH_WORKLOAD, 1 << 20,
                          cache_fraction=fraction)
        capacity = int(fraction * graph.size_bytes())
        used = metrics["gauges"][names.CACHE_USED_BYTES].values()
        if saturated is all:
            assert all(capacity - u < least for u in used)
        else:
            assert any(capacity - u >= least for u in used)


def test_motif5_census_resolves_in_few_calls(monkeypatch):
    """The benchmark's census resolved each chunk in a call of its own
    (125 calls); in lockstep one call settles a trie site's newly filled
    chunks on every machine, up to ``RESOLVE_ROWS`` rows a call — 17
    calls (docs/performance.md, "Lockstep machines")."""
    calls = []
    method = MachineScheduler._resolve_chunk

    def counted(self, chunk, state, peers=()):
        calls.append(1 + len(peers))
        return method(self, chunk, state, peers)

    monkeypatch.setattr(MachineScheduler, "_resolve_chunk", counted)
    system = KGraphPi(mico_sampled(0.1, 19), ClusterConfig(num_machines=8),
                      EngineConfig(counting="iep"))
    report = apps.motif_count(system, 5)
    print(f"motif5-mico: {len(calls)} resolve calls for {sum(calls)} "
          f"chunks resolved, {report.extra['chunks']} chunks")
    assert len(calls) <= 20
    assert max(calls) == 8


# ----------------------------------------------------------------------
# the batched kernel call
# ----------------------------------------------------------------------
def _chunks_of(graph, sizes, seed):
    """Prefix rows of distinct vertices, cut into chunks of ``sizes``
    rows; the chunks alternate between low- and high-degree first
    columns, so the probe direction flips on some and not on others."""
    rng = np.random.default_rng(seed)
    order = np.argsort(graph.degrees(), kind="stable")
    low, high = order[: len(order) // 3], order[-len(order) // 3:]
    chunks = []
    for index, size in enumerate(sizes):
        first, second = (low, high) if index % 2 else (high, low)
        rows = np.stack([rng.choice(first, size), rng.choice(second, size),
                         rng.integers(0, graph.num_vertices, size)], 1)
        keep = (rows[:, 0] != rows[:, 1]) & (rows[:, 0] != rows[:, 2]) & (
            rows[:, 1] != rows[:, 2])
        chunks.append(rows[keep])
    return chunks


def _same(ours, theirs):
    assert ours.probe_elements == theirs.probe_elements
    for name in ("counts", "merge_elements", "scanned", "values", "offsets",
                 "rows", "raw_values", "raw_offsets"):
        mine, other = getattr(ours, name, None), getattr(theirs, name, None)
        assert (mine is None) == (other is None), name
        if mine is not None:
            assert np.asarray(mine).tolist() == np.asarray(other).tolist(), \
                name


def _step(connected, disconnected=(), larger=(), smaller=(), store=False):
    return ExtensionStep(3, connected, disconnected, larger, smaller, None,
                         None, None, (), store, ())


#: set operations of every shape a fill or drain runs on three columns
STEPS = [
    _step((0, 1), store=True),
    _step((0, 1, 2), larger=(2,)),
    _step((0, 1), disconnected=(2,), smaller=(0,)),
]


@pytest.mark.parametrize("count_only", [False, True])
def test_one_call_over_chunks_splits_into_per_chunk_calls(
        membership_regime, count_only):
    """``kernels.extend_chunk`` / ``iep_chunk`` over chunks laid end to
    end, cut at their bounds, return what one call a chunk returns —
    every array and ``probe_elements`` — with chunks whose probe
    direction disagrees in one call."""
    seed = SEEDS["powerlaw"]
    print(f"powerlaw seed={seed}")
    graph = membership_regime(GRAPHS["powerlaw"](seed))
    chunks = _chunks_of(graph, [7, 30, 1, 12, 25], seed)
    bounds = np.cumsum([0] + [len(c) for c in chunks]).tolist()
    prefixes = np.concatenate(chunks)
    degrees = graph.degrees()
    assert {bool(degrees[c[:, 1]].sum() < degrees[c[:, 0]].sum())
            for c in chunks} == {False, True}
    for step in STEPS:
        batch = kernels.extend_chunk(graph, step, prefixes,
                                     count_only=count_only,
                                     chunk_bounds=bounds)
        for part, rows in zip(kernels.split(batch, bounds), chunks):
            _same(part, kernels.extend_chunk(graph, step, rows,
                                             count_only=count_only))
    for motif in (3, 5, 10, 15):
        plan = compile_counting_plan(
            graphpi_schedule(catalog.motifs(5)[motif]))
        assert plan.prefix_schedule.pattern.num_vertices == 3
        batch = kernels.iep_chunk(graph, plan, prefixes)
        for part, rows in zip(kernels.split(batch, bounds), chunks):
            # the batch's arrays are workspace views: read before the
            # next call, copied here to hold them side by side
            part = kernels.ChunkIepResult(*(
                np.array(column) for column in
                (part.counts, part.merge_elements, part.scanned,
                 part.probes)))
            _same(part, kernels.iep_chunk(graph, plan, rows))


def test_extender_meters_every_chunk_on_its_own_machine():
    """One batched call bumps each chunk's extender's ``kernel.*``
    counters once, as a call of its own would."""
    graph = GRAPHS["er"](SEEDS["er"])
    obs = Observability()
    cluster = Cluster(graph, ClusterConfig(num_machines=2))
    extenders = [
        ScheduleExtender(metrics=obs.registry.scope(machine=m))
        for m in range(2)
    ]
    chunks = []
    for machine, size in zip(cluster.machines, (9, 14)):
        chunk = Chunk(0, 1 << 16, machine)  # root chunks: one column
        chunk.fill(np.arange(size), None, np.full(size, 24),
                   EdgeListSource.LOCAL)
        chunks.append(chunk)
    step = ExtensionStep(1, (0,), (), (), (), None, None, None, (), False,
                         ())
    results = extenders[0].extend_chunk(graph, step,
                                        list(zip(extenders, chunks)))
    assert [len(r) for r in results] == [len(c) for c in chunks]
    counters = obs.registry.snapshot()["counters"]
    assert counters["kernel.batches"] == {"machine=0": 1, "machine=1": 1}
    assert counters["kernel.batched_embeddings"] == {
        f"machine={m}": len(c) for m, c in enumerate(chunks)}


def test_circulant_order_is_the_wide_sort():
    """The narrow hop column's radix sort cuts the same batches, in the
    same row order, as the stable int64 sort — past 255 machines too."""
    rng = np.random.default_rng(SEEDS["er"])
    print(f"seed={SEEDS['er']}")
    for machines in (2, 8, 255, 256, 300):
        for me in (0, machines - 1):
            hops = rng.integers(0, machines, 2_900)
            narrow = hops.astype(np.min_scalar_type(machines))
            order, batches = _circulant(narrow, me, machines)
            wide_order, wide_batches = _circulant(hops, me, machines)
            assert order.tolist() == wide_order.tolist()
            assert batches == wide_batches


def test_hop_column_is_narrow_and_exact():
    """Each vertex's circulant hop to its serving owner — a dead
    owner's failover after a crash — in the narrowest unsigned type."""
    graph = GRAPHS["er"](SEEDS["er"])
    for machines in (4, 300):
        cluster = Cluster(graph, ClusterConfig(num_machines=machines))
        trie = KhuzdulEngine(cluster).plan(
            [automine_schedule(catalog.clique(3))]).groups[0].trie
        serving = cluster.partitioned.owners_all().astype(np.int64)
        for dead in (None, 1):
            if dead is not None:
                cluster.mark_dead(dead)
                serving[serving == dead] = cluster.failover_owner(dead)
            for me in (0, machines - 1):
                hop = MachineScheduler(
                    cluster, cluster.machines[me], ScheduleExtender(),
                    EdgeCache(0, 16, CachePolicy.STATIC, cluster.cost,
                              num_vertices=graph.num_vertices),
                    None, 1024, True, 64, True, True, trie)._vertex_hop
                assert hop.dtype == np.min_scalar_type(machines)
                assert hop.tolist() == ((serving - me) % machines).tolist()



def test_hop_column_is_built_once_per_dead_set():
    """Every scheduler of a machine shares one read-only hop column;
    a crash rebuilds it, and so does the reset that revives the
    machine."""
    graph = GRAPHS["er"](SEEDS["er"])
    cluster = Cluster(graph, ClusterConfig(num_machines=4))
    trie = KhuzdulEngine(cluster).plan(
        [automine_schedule(catalog.clique(3))]).groups[0].trie

    def hop(me):
        return MachineScheduler(
            cluster, cluster.machines[me], ScheduleExtender(),
            EdgeCache(0, 16, CachePolicy.STATIC, cluster.cost,
                      num_vertices=graph.num_vertices),
            None, 1024, True, 64, True, True, trie)._vertex_hop

    live = hop(1)
    assert hop(1) is live
    assert not live.flags.writeable
    cluster.mark_dead(2)
    crashed = hop(1)
    assert crashed is not live and hop(1) is crashed
    serving = cluster.partitioned.owners_all().astype(np.int64)
    serving[serving == 2] = cluster.failover_owner(2)
    assert crashed.tolist() == ((serving - 1) % 4).tolist()
    cluster.reset_clocks()
    assert hop(1) is not crashed
    assert hop(1).tolist() == live.tolist()

if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_lockstep.py --write")
    ABORT_GOLDEN.write_text(json.dumps(
        {name: abort_report(name) for name in sorted(ABORTS)},
        sort_keys=True, indent=1,
    ) + "\n")
    print(f"wrote {ABORT_GOLDEN}")
