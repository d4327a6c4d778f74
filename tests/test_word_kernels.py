"""Set operations on packed adjacency words (docs/performance.md).

Where every vertex has a bit row (``Graph.adjacency_words``) a step
with a set operation, and every IEP signature, runs as AND + popcount
instead of a gather and a probe per element. The contract is the list
path's, integer for integer: ``tests/test_kernels.py`` and
``tests/test_iep.py`` already hold whichever body runs to
``compute_candidates`` / ``iep_count`` on their (dense-regime)
fixtures; this file crosses the word widths and input shapes those
fixtures do not reach, holds the two bodies to *each other* — every
array and ``probe_elements`` — on the same graph, and keeps the
per-element calls from creeping back.
"""

from __future__ import annotations

import cProfile
import pstats
from itertools import permutations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine, kernels
from repro.core.extend import compute_candidates, iep_count
from repro.graph import Graph, dataset, from_edges
from repro.graph.generators import erdos_renyi
from repro.graph.orientation import orient_by_degree
from repro.patterns import catalog
from repro.patterns.generation import connected_patterns
from repro.patterns.schedule import (
    automine_schedule, compile_counting_plan, compile_schedule,
    graphpi_schedule,
)
from repro.systems import KGraphPi, apps

from tests.test_kernels import (
    PATTERNS, _seeds, _segments, _with_self_loops,
)


def _listed_twin(graph):
    """The same CSR with no adjacency row at all (the ``keys`` regime):
    the list path's answers to hold the word path's against."""
    twin = Graph(graph.indptr, graph.indices, graph.labels, graph.directed,
                 graph.edge_labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "DENSE_ADJACENCY_BYTES", 0)
        twin.adjacency_matrix()
    assert twin.adjacency_words() is None
    return twin


def _same_result(ours, theirs):
    """Two ``ChunkExtendResult`` / ``ChunkIepResult``, field for field."""
    assert ours.probe_elements == theirs.probe_elements
    for name in ("counts", "merge_elements", "scanned", "values", "offsets",
                 "rows", "raw_values", "raw_offsets"):
        mine, other = getattr(ours, name, None), getattr(theirs, name, None)
        assert (mine is None) == (other is None), name
        if mine is not None:
            assert mine.tolist() == other.tolist(), name


def _check(graph, schedule, vcs=True, keep=60, seed=0, allow_empty=False):
    """``schedule`` level by level over a sampled frontier (``keep``
    rows carried down a level, intermediates threaded as the scheduler
    does): the word path against ``compute_candidates`` row by row, and
    against the list path array by array — listed and counted."""
    assert graph.adjacency_words() is not None
    rng = np.random.default_rng(seed)
    twin = _listed_twin(graph)
    frontier = [((v,), {}) for v in range(graph.num_vertices)]
    for level, step in enumerate(schedule.steps, 1):
        if len(frontier) > keep:
            picked = np.sort(rng.choice(len(frontier), keep, replace=False))
            frontier = [frontier[i] for i in picked.tolist()]
        reuse = vcs and step.reuse_level is not None
        inters = [raws[step.reuse_level] if reuse else None
                  for _, raws in frontier]
        expected = [
            compute_candidates(graph, step, vertices, inter, vcs)
            for (vertices, _), inter in zip(frontier, inters)
        ]
        prefixes = np.array(
            [vertices for vertices, _ in frontier], dtype=np.int64
        ).reshape(len(frontier), level)
        stored = _segments(inters) if reuse else None
        listed = kernels.extend_chunk(graph, step, prefixes, stored, vcs=vcs)
        counted = kernels.extend_chunk(graph, step, prefixes, stored, vcs=vcs,
                                       count_only=True)
        assert counted.values is None
        assert listed.rows.tolist() == [
            i for i, row in enumerate(expected) for _ in row.candidates]
        for i, row in enumerate(expected):
            assert listed.candidates_for(i).tolist() == row.candidates.tolist()
            if step.store_intermediate:
                assert listed.raw_for(i).tolist() == row.raw.tolist()
        for batch in (listed, counted):
            assert batch.counts.tolist() == [
                len(row.candidates) for row in expected]
            assert batch.merge_elements.tolist() == [
                row.merge_elements for row in expected]
            assert batch.scanned.tolist() == [row.scanned for row in expected]
        for ours, count_only in ((listed, False), (counted, True)):
            _same_result(ours, kernels.extend_chunk(
                twin, step, prefixes, stored, vcs=vcs, count_only=count_only))
        frontier = [
            (vertices + (int(candidate),),
             {**raws, level: row.raw} if vcs and row.raw is not None
             else raws)
            for (vertices, raws), row in zip(frontier, expected)
            for candidate in row.candidates
        ]
    assert frontier or allow_empty


#: ``(vertices, edges)``: one, two and four words a row; 37 and 100 are
#: multiples of neither 8 nor 64, 200 of 8 only — the last word of a
#: row is part padding, and so is the last byte
SHAPES = {"W1": (37, 160), "W1-full": (64, 400), "W2": (100, 700),
          "W4": (200, 2600)}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def dense_graph(request):
    graph = erdos_renyi(*SHAPES[request.param], seed=17)
    words = graph.adjacency_words()
    assert words.shape == (graph.num_vertices,
                           -(-graph.num_vertices // 64))
    return graph


def test_words_are_the_rows_the_matrix_holds(dense_graph):
    """No second copy: the word matrix is a view of ``adjacency_matrix``'s
    rows, in vertex order, and bit ``u`` of row ``v`` is ``has_edge``."""
    graph = dense_graph
    rows, rank = graph.adjacency_matrix()
    words = graph.adjacency_words()
    assert words.base is rows and not words.flags.writeable
    assert rows.shape[1] == graph.adjacency_row_bytes == 8 * words.shape[1]
    assert rank.tolist() == list(range(graph.num_vertices))
    for v in range(0, graph.num_vertices, 7):
        members = [
            u for u in range(64 * words.shape[1])
            if int(words[v, u >> 6]) >> (u & 63) & 1
        ]
        assert members == graph.neighbors(v).tolist()


def test_a_graph_over_the_budget_has_no_words(skewed_graph):
    """The regime test is ``adjacency_matrix``'s own all-rows condition:
    one row short of every vertex, the list path runs."""
    graph = Graph(skewed_graph.indptr, skewed_graph.indices)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Graph, "DENSE_ADJACENCY_BYTES",
            (graph.num_vertices - 1) * graph.adjacency_row_bytes)
        assert graph.adjacency_words() is None
    assert from_edges([], num_vertices=9).adjacency_words() is None


@pytest.mark.parametrize("name", ["cl4", "cyc4", "house", "tailtri"])
def test_word_path_matches_reference_and_lists(dense_graph, name):
    _check(dense_graph, automine_schedule(PATTERNS[name]))


@pytest.mark.parametrize("name", ["cl4", "cyc4", "house"])
def test_word_path_induced_and_vcs_off(dense_graph, name):
    _check(dense_graph, automine_schedule(PATTERNS[name], induced=True))
    _check(dense_graph, graphpi_schedule(PATTERNS[name]), vcs=False)


def test_word_path_self_loops_and_out_rows(dense_graph):
    """A loop puts a vertex in its own set (the own-vertex mask takes it
    out of the candidates, not out of the sizes); an oriented graph's
    rows are out-rows, so its ANDs stay directed."""
    looped = _with_self_loops(dense_graph)
    _check(looped, automine_schedule(catalog.clique(4)))
    _check(looped, automine_schedule(catalog.cycle(4), induced=True))
    oriented = orient_by_degree(dense_graph)
    _check(oriented,
           automine_schedule(catalog.clique(4), use_restrictions=False))


def test_word_path_row_blocks_and_empty_chunk(dense_graph, monkeypatch):
    """One row a block (a row's words alone fill a seven-element
    block): the reference's rows, the list path's ``probe_elements``
    (which no blocking moves); and a chunk of no rows."""
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 7)
    house = automine_schedule(catalog.house())
    _check(dense_graph, house, keep=25)
    no_lists = (np.empty(0, np.int32), np.zeros(1, np.int64),
                np.empty(0, np.int64))
    for step in house.steps:
        if len(step.connected) < 2:
            continue
        for count_only in (False, True):
            empty = kernels.extend_chunk(
                dense_graph, step, np.empty((0, step.level), np.int64),
                no_lists, count_only=count_only,
            )
            assert len(empty) == 0 and empty.probe_elements == 0
            assert (empty.values is None) == count_only


def _sampled_embeddings(graph, schedule, rows, rng):
    """Up to ``rows`` embeddings of ``schedule``'s pattern, each grown
    from a drawn root by drawn candidates."""
    found = []
    for root in rng.integers(0, graph.num_vertices, size=rows).tolist():
        vertices = (root,)
        for step in schedule.steps:
            candidates = compute_candidates(
                graph, step, vertices, None, False).candidates
            if not len(candidates):
                break
            vertices += (int(candidates[rng.integers(len(candidates))]),)
        else:
            found.append(vertices)
    return np.array(found, dtype=np.int64).reshape(
        len(found), schedule.pattern.num_vertices)


def test_iep_words_match_reference_and_lists(dense_graph, monkeypatch):
    """Every 5-motif plan over prefix embeddings: ``iep_count`` row by
    row, and the list path's ``probe_elements`` — once per distinct
    signature prefix per block, so unmoved by the blocking."""
    twin = _listed_twin(dense_graph)
    rng = np.random.default_rng(3)
    plans = {
        compile_counting_plan(graphpi_schedule(pattern, counting="iep"))
        for pattern in connected_patterns(5)
    } - {None}
    for plan in sorted(plans, key=lambda plan: plan.signatures):
        rows = _sampled_embeddings(dense_graph, plan.prefix_schedule, 60, rng)
        assert len(rows) > 5
        batch = kernels.iep_chunk(dense_graph, plan, rows)
        got = zip(batch.counts.tolist(), batch.merge_elements.tolist(),
                  batch.scanned.tolist())
        assert list(got) == [
            iep_count(dense_graph, plan, tuple(row)) for row in rows.tolist()
        ]
        _same_result(batch, kernels.iep_chunk(twin, plan, rows))
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BLOCK_ELEMENTS", 7)
            _same_result(kernels.iep_chunk(dense_graph, plan, rows), batch)
        assert len(kernels.iep_chunk(dense_graph, plan, rows[:0]).counts) == 0


@_seeds
def test_word_path_equals_list_path_on_drawn_schedules(seed):
    """A drawn graph (2 to 140 vertices — one to three words a row —
    at any density that keeps every row; loops or an orientation now
    and then) under a drawn pattern, matching order and induced /
    restricted / VCS choice: at every level the word path returns the
    reference's rows and the list path's arrays and probes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 141))
    pairs = n * (n - 1) // 2
    # every row fits iff 8 bytes a word <= 8 bytes a directed entry
    fewest = min(pairs, -(-n * -(-n // 64) // 2))
    graph = erdos_renyi(n, int(rng.integers(fewest, pairs + 1)),
                        seed=int(rng.integers(1 << 30)))
    shape = rng.random()
    if shape < 0.2:
        graph = _with_self_loops(graph, every=int(rng.integers(1, 4)))
    elif shape < 0.4:
        graph = orient_by_degree(graph)
    if graph.adjacency_words() is None:  # an orientation halves the entries
        return
    patterns = [p for k in (3, 4) for p in connected_patterns(k)]
    pattern = patterns[rng.integers(len(patterns))]
    orders = [
        order for order in permutations(range(pattern.num_vertices))
        if all(any(pattern.has_edge(order[i], order[j]) for j in range(i))
               for i in range(1, len(order)))
    ]
    schedule = compile_schedule(
        pattern, orders[rng.integers(len(orders))],
        induced=bool(rng.random() < 0.5),
        use_restrictions=bool(rng.random() < 0.7),
    )
    with pytest.MonkeyPatch.context() as patch:
        if rng.random() < 0.3:
            patch.setattr(kernels, "BLOCK_ELEMENTS", 7)
        _check(graph, schedule, vcs=bool(rng.random() < 0.7), keep=20,
               seed=seed, allow_empty=True)


# ---------------------------------------------------------------------
# whole runs: a chunk that fills mid-row, and what a drain calls
# ---------------------------------------------------------------------
def _report(graph, schedule, comparable, **config):
    cluster = Cluster(graph, ClusterConfig(num_machines=2))
    engine = KhuzdulEngine(cluster, EngineConfig(**config))
    return comparable(engine.run(schedule))


@pytest.mark.parametrize("counting", ["enumerate", "iep"])
def test_runs_agree_across_regimes_when_chunks_pause(
    small_random_graph, comparable, counting
):
    """1 KiB chunks: ``_fill_next_chunk`` stops inside a parent row and
    resumes there, level after level. The whole report — counts,
    simulated seconds, every tally and the ``kernel.*`` counters — is
    the list path's."""
    twin = _listed_twin(small_random_graph)
    for pattern, induced in ((catalog.house(), False),
                             (catalog.clique(4), False),
                             (catalog.cycle(4), True)):
        for vcs in (True, False):
            schedule = graphpi_schedule(
                pattern, induced=induced, counting=counting)
            config = dict(chunk_bytes=1024, auto_fit_chunks=False,
                          vcs=vcs, counting=counting)
            ours = _report(small_random_graph, schedule, comparable,
                           **config)
            assert ours == _report(twin, schedule, comparable, **config)
            assert ours["counts"]


def test_word_drains_make_no_per_element_calls(dense_graph, count_calls):
    """A counting drain with a set operation, and an IEP drain, end at
    a popcount: no membership probe, no gathered list."""
    final = automine_schedule(catalog.clique(4)).steps[-1]
    plan = compile_counting_plan(
        graphpi_schedule(catalog.chain(5), counting="iep"))
    rng = np.random.default_rng(1)
    prefixes = rng.permuted(
        np.tile(np.arange(dense_graph.num_vertices), (500, 1)), axis=1)
    watched = {"adjacency_member", "neighbors_batch", "gather_segments"}
    width = plan.prefix_schedule.pattern.num_vertices
    assert count_calls(
        lambda: kernels.extend_chunk(
            dense_graph, final, prefixes[:, :3], count_only=True),
        only=watched,
    ) == 0
    assert count_calls(
        kernels.iep_chunk, dense_graph, plan, prefixes[:, :width],
        only=watched,
    ) == 0
    # and ten times the rows make the same calls
    small = count_calls(kernels.iep_chunk, dense_graph, plan,
                        prefixes[:50, :width])
    assert count_calls(kernels.iep_chunk, dense_graph, plan,
                       prefixes[:, :width]) == small


def test_motif5_calls_per_chunk():
    """docs/performance.md's per-chunk constant on the benchmark census
    (``motif5-mico``'s graph): 260 interpreter-level calls a chunk
    before the word path; the tripwire sits a little above today's."""
    graph = dataset("mico", 0.1)

    def run():
        return apps.motif_count(
            KGraphPi(graph, ClusterConfig(num_machines=8),
                     EngineConfig(counting="iep")), 5)

    run()
    profile = cProfile.Profile()
    report = profile.runcall(run)
    calls = pstats.Stats(profile).total_calls / report.extra["chunks"]
    print(f"motif5-mico: {calls:.0f} calls a chunk")
    assert calls < 260
