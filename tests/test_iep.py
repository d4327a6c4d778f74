"""Inclusion-exclusion counting plans (docs/performance.md).

The central contract: ``--counting iep`` is bit-identical to the
enumeration oracle for every catalog pattern, on every graph, on both
backends, and the terminal kernel agrees row by row — counts and
accounting — with its reference :func:`tests.reference.iep_count`.
The IEP terminal kernel only changes *where* work happens, never what
is counted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import kernels
from repro.core.engine import EngineConfig, KhuzdulEngine
from repro.errors import ConfigurationError
from repro.exec import ProcessBackend
from repro.graph.generators import erdos_renyi, random_labels
from repro.patterns import Pattern, automorphisms, catalog
from repro.patterns.generation import connected_patterns
from repro.patterns.schedule import (
    compile_counting_plan,
    compile_schedule,
    graphpi_schedule,
)
from repro.patterns.symmetry import symmetry_restrictions
from repro.systems import apps
from repro.systems.graphpi import KGraphPi
from tests.reference import compute_candidates, iep_count

#: every named catalog pattern with <= 5 vertices
CATALOG = {
    "triangle": catalog.triangle(),
    "clique4": catalog.clique(4),
    "clique5": catalog.clique(5),
    "chain3": catalog.chain(3),
    "chain4": catalog.chain(4),
    "chain5": catalog.chain(5),
    "cycle4": catalog.cycle(4),
    "cycle5": catalog.cycle(5),
    "star2": catalog.star(2),
    "star3": catalog.star(3),
    "star4": catalog.star(4),
    "tailed_triangle": catalog.tailed_triangle(),
    "house": catalog.house(),
    "bowtie": catalog.bowtie(),
    "bull": catalog.bull(),
}


def _cluster(graph, machines=2):
    return Cluster(graph, ClusterConfig(num_machines=machines))


def _count(cluster, schedule, **config):
    return KhuzdulEngine(cluster, EngineConfig(**config)).run(schedule).counts


# ---------------------------------------------------------------------
# plan compilation
# ---------------------------------------------------------------------
def test_star_plan_shape():
    schedule = graphpi_schedule(catalog.star(3), counting="iep")
    plan = compile_counting_plan(schedule)
    assert plan is not None
    assert plan.suffix_size == 3
    # all 3! leaf orderings collapse into one restricted embedding
    assert plan.divisor == len(automorphisms(catalog.star(3)))
    assert plan.prefix_schedule.pattern.num_vertices == 1
    # the set-partition expansion of 3 identical blocks has 3 terms
    assert len(plan.terms) == 3
    assert 0 in plan.fetch_positions


def test_plan_rejects_ineligible_schedules():
    # adjacent last two vertices: no independent suffix
    assert compile_counting_plan(graphpi_schedule(catalog.triangle())) is None
    # induced matching cannot be expressed as cardinalities
    assert compile_counting_plan(
        graphpi_schedule(catalog.star(3), induced=True)
    ) is None
    # labeled patterns fall back to enumeration
    labeled = catalog.star(3).with_labels([0, 1, 1, 1])
    assert compile_counting_plan(graphpi_schedule(labeled)) is None


def test_plan_compiles_without_restrictions():
    schedule = graphpi_schedule(
        catalog.star(3), use_restrictions=False, counting="iep"
    )
    plan = compile_counting_plan(schedule)
    assert plan is not None
    assert schedule.restrictions == ()
    assert plan.divisor == 1


def test_counting_config_validated():
    with pytest.raises(ConfigurationError):
        EngineConfig(counting="magic")


# ---------------------------------------------------------------------
# bit-identity against the enumeration oracle
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CATALOG), ids=sorted(CATALOG))
def test_iep_matches_enumerate_catalog(small_random_graph, name):
    pattern = CATALOG[name]
    cluster = _cluster(small_random_graph)
    oracle = _count(cluster, graphpi_schedule(pattern))
    schedule = graphpi_schedule(pattern, counting="iep")
    assert _count(cluster, schedule, counting="iep") == oracle
    # the IEP-aware order must also agree under plain enumeration
    assert _count(cluster, schedule) == oracle


@pytest.mark.parametrize("name", ["star3", "chain4", "star4", "chain5"])
def test_iep_on_labeled_graph(labeled_graph, name):
    """Unlabeled patterns on a vertex-labeled graph still plan."""
    pattern = CATALOG[name]
    cluster = _cluster(labeled_graph)
    schedule = graphpi_schedule(pattern, counting="iep")
    assert compile_counting_plan(schedule) is not None
    assert _count(cluster, schedule, counting="iep") == _count(
        cluster, graphpi_schedule(pattern)
    )


def test_iep_unrestricted_matches_unrestricted_enumerate(
    small_random_graph,
):
    """Without symmetry restrictions the numerator IS the count."""
    cluster = _cluster(small_random_graph)
    for pattern in (catalog.star(3), catalog.chain(4)):
        schedule = graphpi_schedule(
            pattern, use_restrictions=False, counting="iep"
        )
        assert _count(cluster, schedule, counting="iep") == _count(
            cluster, graphpi_schedule(pattern, use_restrictions=False)
        )


def test_iep_seeded_er_sweep():
    """Property sweep: several seeded graphs, every planning pattern."""
    for seed in (1, 5, 9):
        graph = erdos_renyi(40, 160, seed=seed)
        cluster = _cluster(graph)
        for name in ("star3", "chain4", "chain5", "star4"):
            pattern = CATALOG[name]
            schedule = graphpi_schedule(pattern, counting="iep")
            assert compile_counting_plan(schedule) is not None, name
            assert _count(cluster, schedule, counting="iep") == _count(
                cluster, graphpi_schedule(pattern)
            ), (name, seed)


def _prefix_embeddings(graph, schedule):
    """Every embedding of ``schedule``'s pattern, row by row."""
    frontier = [(v,) for v in range(graph.num_vertices)]
    for step in schedule.steps:
        frontier = [
            vertices + (candidate,)
            for vertices in frontier
            for candidate in compute_candidates(
                graph, step, vertices, None, False
            ).candidates.tolist()
        ]
    return frontier


PLANNED = sorted(
    name for name, pattern in CATALOG.items()
    if compile_counting_plan(graphpi_schedule(pattern, counting="iep"))
)


def _plan(name):
    if name == "prefix4":
        # no pattern of <= 5 vertices leaves a prefix wider than three:
        # a tailed triangle (0-1-2, tail 3) under two unconnected
        # vertices whose constraint sets overlap -> signatures (0, 3),
        # (1, 2, 3) and their union over all four prefix columns
        pattern = Pattern(6, [(0, 1), (0, 2), (1, 2), (2, 3),
                              (0, 4), (3, 4), (1, 5), (2, 5), (3, 5)])
        return compile_counting_plan(compile_schedule(pattern, range(6)))
    return compile_counting_plan(
        graphpi_schedule(CATALOG[name], counting="iep"))


@pytest.mark.parametrize("name", PLANNED + ["prefix4"])
def test_iep_chunk_matches_row_by_row_reference(small_random_graph, name,
                                                monkeypatch):
    """The terminal kernel's counts and accounting quantities equal the
    reference's on every complete prefix embedding."""
    graph = small_random_graph
    plan = _plan(name)
    rows = _prefix_embeddings(graph, plan.prefix_schedule)
    assert rows
    expected = [iep_count(graph, plan, row) for row in rows]
    batch = kernels.iep_chunk(graph, plan, np.array(rows, dtype=np.int64))
    got = zip(batch.counts.tolist(), batch.merge_elements.tolist(),
              batch.scanned.tolist())
    assert list(got) == expected
    # cut into many tiny row blocks: same rows, same probe volume
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 7)
    blocked = kernels.iep_chunk(graph, plan, np.array(rows, dtype=np.int64))
    got = zip(blocked.counts.tolist(), blocked.merge_elements.tolist(),
              blocked.scanned.tolist())
    assert list(got) == expected
    assert blocked.probe_elements == batch.probe_elements


def test_iep_rows_probe_each_prefix_pair_once(small_random_graph,
                                              count_calls):
    """The distinct-vertex correction asks "is column c's vertex a
    neighbour of column s's" for every signature holding s: overlapping
    signatures repeat the question, one row block answers each ordered
    pair once (36 correction probes on this plan before, now <= 16)."""
    plan = _plan("prefix4")
    size = plan.prefix_schedule.pattern.num_vertices
    assert (size, plan.signatures) == (4, ((0, 1, 2, 3), (0, 3), (1, 2, 3)))
    rows = np.array(
        _prefix_embeddings(small_random_graph, plan.prefix_schedule),
        dtype=np.int64)
    intersections = sum(len(s) - 1 for s in plan.signatures)
    assert count_calls(
        kernels.iep_chunk, small_random_graph, plan, rows,
        only={"adjacency_member"},
    ) <= intersections + size * size


def _stage_probes(graph, signatures, rows):
    """Candidates pushed through membership probes when every stage in
    ``signatures`` runs: a stage ``D`` probes, per row, the running
    intersection of all its columns but the last."""
    probes = 0
    for stage in signatures:
        for row in rows:
            running = graph.neighbors(row[stage[0]])
            for column in stage[1:-1]:
                running = np.intersect1d(
                    running, graph.neighbors(row[column]), assume_unique=True)
            probes += len(running)
    return probes


def test_shared_prefixes_keep_the_reference_and_run_each_stage_once(
    small_random_graph, membership_regime
):
    """Every 5-motif plan (the census's 21 patterns, those that plan),
    each membership regime: a stage shared by several signatures runs
    once per block, yet counts, ``merge_elements`` and ``scanned`` are
    still :func:`iep_count`'s, row by row — every signature is charged
    every stage it passes through. The probes made are those of the
    *distinct* signature prefixes; a plan that shares none makes
    exactly the probes a signature-at-a-time walk made."""
    graph = membership_regime(small_random_graph)
    rng = np.random.default_rng(5)
    shared = unshared = 0
    # the order search prices with the graph's size and density: the
    # default estimate and a small dense graph's (the benchmark census)
    # choose different orders, so different signature sets
    plans = {
        compile_counting_plan(graphpi_schedule(
            pattern, counting="iep", **shape))
        for pattern in connected_patterns(5)
        for shape in ({}, {"avg_degree": 20.0, "num_vertices": 40.0})
    } - {None}
    assert len(plans) > 12
    for plan in sorted(plans, key=lambda plan: plan.signatures):
        rows = _prefix_embeddings(graph, plan.prefix_schedule)
        rows = [rows[i] for i in rng.permutation(len(rows))[:120]]
        batch = kernels.iep_chunk(graph, plan, np.array(rows, dtype=np.int64))
        got = zip(batch.counts.tolist(), batch.merge_elements.tolist(),
                  batch.scanned.tolist())
        assert list(got) == [iep_count(graph, plan, row) for row in rows]
        stages = [s[:depth] for s in plan.signatures
                  for depth in range(2, len(s) + 1)]
        one_at_a_time = _stage_probes(graph, stages, rows)
        assert batch.probe_elements == _stage_probes(
            graph, set(stages), rows)
        if len(set(stages)) == len(stages):
            assert batch.probe_elements == one_at_a_time
            unshared += 1
        else:
            assert batch.probe_elements < one_at_a_time
            shared += 1
    assert shared and unshared


def test_iep_process_backend_matches_inline(small_random_graph):
    cluster = _cluster(small_random_graph)
    for name in ("star3", "chain5"):
        schedule = graphpi_schedule(CATALOG[name], counting="iep")
        inline = _count(cluster, schedule, counting="iep")
        engine = KhuzdulEngine(
            cluster,
            EngineConfig(counting="iep"),
            backend=ProcessBackend(workers=2),
        )
        assert engine.run(schedule).counts == inline


# ---------------------------------------------------------------------
# new 5-vertex patterns: the restricted x |Aut| invariant
# ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern", [catalog.bowtie(), catalog.bull()], ids=["bowtie", "bull"]
)
def test_new_pattern_restriction_factor(small_random_graph, pattern):
    assert symmetry_restrictions(pattern) != ()
    cluster = _cluster(small_random_graph)
    restricted = _count(cluster, graphpi_schedule(pattern))
    unrestricted = _count(
        cluster, graphpi_schedule(pattern, use_restrictions=False)
    )
    assert unrestricted == restricted * len(automorphisms(pattern))


# ---------------------------------------------------------------------
# motif census tiers
# ---------------------------------------------------------------------
@pytest.mark.parametrize("k", [3, 4, 5])
def test_motif_census_iep_equals_enumerate(small_random_graph, k):
    config = ClusterConfig(num_machines=2)
    census_e = apps.motif_count(
        KGraphPi(small_random_graph, config, EngineConfig()), k
    ).counts
    census_i = apps.motif_count(
        KGraphPi(small_random_graph, config,
                 EngineConfig(counting="iep")), k
    ).counts
    assert census_e == census_i
    assert len(census_i) == len(catalog.motifs(k))


def test_motif_census_totals_are_nonnegative(small_random_graph):
    """The back-substituted induced counts can never dip below zero."""
    config = ClusterConfig(num_machines=2)
    census = apps.motif_count(
        KGraphPi(small_random_graph, config, EngineConfig(counting="iep")),
        5,
    ).counts
    assert all(count >= 0 for count in census.values())


# ---------------------------------------------------------------------
# satellite pin: _order_cost threads induced/use_restrictions/counting
# ---------------------------------------------------------------------
def test_order_cost_threads_execution_flags():
    """Orders must be costed as they will execute. Before the fix,
    ``_order_cost`` always compiled candidates with the default
    ``induced=False, use_restrictions=True``, so these pairs chose the
    same order regardless of the flags."""
    # restriction-halving off changes the winner for symmetric cycles
    assert (
        graphpi_schedule(catalog.cycle(4), use_restrictions=False).order
        != graphpi_schedule(catalog.cycle(4)).order
    )
    assert (
        graphpi_schedule(catalog.cycle(5), use_restrictions=False).order
        != graphpi_schedule(catalog.cycle(5)).order
    )
    # IEP costing prefers orders that leave an independent suffix
    iep_order = graphpi_schedule(catalog.chain(4), counting="iep").order
    assert iep_order != graphpi_schedule(catalog.chain(4)).order
    assert compile_counting_plan(
        graphpi_schedule(catalog.chain(4), counting="iep")
    ) is not None


# ---------------------------------------------------------------------
# satellite pin: edge-label filter on unlabeled graphs (the kernel is
# held to compute_candidates on both branches in tests/test_kernels.py)
# ---------------------------------------------------------------------
def test_edge_labeled_pattern_on_unlabeled_graph(small_random_graph):
    """An unlabeled graph satisfies exactly the all-zero edge-label
    requirement."""
    cluster = _cluster(small_random_graph)
    triangle = catalog.triangle()
    nonzero = triangle.with_edge_labels(
        {(0, 1): 1, (0, 2): 0, (1, 2): 0}
    )
    allzero = triangle.with_edge_labels(
        {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    )
    plain = _count(cluster, graphpi_schedule(triangle))
    assert plain > 0
    for pattern, expected in ((nonzero, 0), (allzero, plain)):
        schedule = graphpi_schedule(pattern)
        assert _count(cluster, schedule) == expected


def _brute_force_star3(graph) -> int:
    degrees = graph.degrees()
    total = 0
    for v in range(graph.num_vertices):
        d = int(degrees[v])
        total += d * (d - 1) * (d - 2) // 6
    return total


def test_star_counts_against_closed_form(small_random_graph):
    """IEP star counts equal the closed-form sum of C(deg, 3)."""
    cluster = _cluster(small_random_graph)
    schedule = graphpi_schedule(catalog.star(3), counting="iep")
    assert _count(cluster, schedule, counting="iep") == _brute_force_star3(
        small_random_graph
    )


def test_iep_metrics_emitted(small_random_graph):
    from repro.obs import Observability, names

    cluster = _cluster(small_random_graph)
    schedule = graphpi_schedule(catalog.star(3), counting="iep")
    obs = Observability()
    KhuzdulEngine(cluster, EngineConfig(counting="iep"), obs=obs).run(
        schedule
    )
    assert obs.registry.total(names.KERNEL_IEP_BATCHES) > 0
    assert obs.registry.total(names.KERNEL_IEP_EMBEDDINGS) > 0


def test_udf_queries_never_take_the_iep_path(small_random_graph):
    """A real UDF consumes candidate arrays, so counting='iep' must
    transparently enumerate."""
    cluster = _cluster(small_random_graph)
    seen = []

    def udf(prefix, candidates):
        seen.append((prefix, len(candidates)))

    schedule = graphpi_schedule(catalog.star(3), counting="iep")
    engine = KhuzdulEngine(cluster, EngineConfig(counting="iep"))
    report = engine.run(schedule, udf=udf)
    assert report.counts == sum(n for _, n in seen)
    assert report.counts == _count(cluster, schedule, counting="iep")


def test_run_many_mixes_planned_and_unplanned(small_random_graph):
    """run_many under IEP: eligible schedules plan, the rest enumerate;
    each count is still exact."""
    cluster = _cluster(small_random_graph)
    patterns = [catalog.triangle(), catalog.star(3), catalog.chain(4)]
    schedules = [graphpi_schedule(p, counting="iep") for p in patterns]
    oracle = [
        _count(cluster, graphpi_schedule(p)) for p in patterns
    ]
    engine = KhuzdulEngine(cluster, EngineConfig(counting="iep"))
    assert engine.run_many(schedules).counts == oracle


def test_service_request_accepts_counting():
    from repro.service.protocol import QueryRequest

    QueryRequest(app="count", pattern="bowtie", counting="iep").validate()
    QueryRequest(app="count", pattern="bull").validate()
    with pytest.raises(ConfigurationError):
        QueryRequest(app="count", counting="magic").validate()


def test_new_patterns_shape():
    assert catalog.bowtie().num_edges == 6
    assert catalog.bull().num_edges == 5
    assert len(automorphisms(catalog.bowtie())) == 8
    assert len(automorphisms(catalog.bull())) == 2
