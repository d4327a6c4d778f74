"""Set operations on packed sets (docs/performance.md, "Packed sets").

The vertices with a bit row are packed *columns* of every vertex
(``Graph.hub_columns``). Where every vertex has one, the columns are the
rows and a step with a set operation, and every IEP signature, runs as
AND + popcount instead of a gather and a probe per element; on a graph
over the row budget a counting set operation runs on both halves of
its universe — words for the hubs, a probed list for the tail. The
contract is the list path's, integer for integer:
``tests/test_kernels.py`` and ``tests/test_iep.py`` already hold
whichever body runs to ``compute_candidates`` / ``iep_count`` under the
``membership_regime`` fixture; this file crosses the word widths and
input shapes those fixtures do not reach, holds the bodies to *each
other* — every array and ``probe_elements`` — on the same graph, and
keeps the per-element calls from creeping back.
"""

from __future__ import annotations

import cProfile
import pstats
from itertools import permutations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine, kernels
from repro.core.workspace import Workspace
from repro.graph import Graph, dataset, from_edges
from repro.graph.generators import erdos_renyi
from repro.graph.orientation import orient_by_degree
from repro.obs import Observability
from repro.patterns import catalog
from repro.patterns.generation import connected_patterns
from repro.patterns.schedule import (
    automine_schedule, compile_counting_plan, compile_schedule,
    graphpi_schedule,
)
from repro.systems import KAutomine, KGraphPi, apps

from tests.reference import compute_candidates, iep_count
from tests.test_kernels import (
    PATTERNS, _distinct_rows, _drawn_step, _seeds, _segments, _step,
    _with_self_loops,
)


def _twin(graph, hubs=0):
    """The same CSR with ``hubs`` adjacency rows at most (as many as
    the entries pay for, if fewer): with none the ``keys`` regime, with
    some the hubs are columns of every vertex as well — and a tail
    lists the rest unless every vertex is a hub."""
    twin = Graph(graph.indptr, graph.indices, graph.labels, graph.directed,
                 graph.edge_labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "DENSE_ADJACENCY_BYTES",
                      hubs * graph.adjacency_row_bytes)
        rows, _ = twin.adjacency_matrix()
    columns = twin.hub_columns()
    assert (columns is not None) == (len(rows) > 0)
    if columns is not None:
        assert (columns.tail_indptr is None) == (
            len(rows) == graph.num_vertices)
    return twin


def _listed_twin(graph):
    """The list path's answers to hold the other bodies' against: no
    adjacency row, no hub column."""
    twin = _twin(graph)
    assert twin.hub_columns() is None
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
    does): the graph's packed representation (every vertex's words, or
    the hub columns a counted step splits its universe at) against
    ``compute_candidates`` row by row, and against the list path array
    by array — listed and counted."""
    assert graph.hub_columns() is not None
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
            assert (listed.values[listed.offsets[i]:listed.offsets[i + 1]]
                    .tolist() == row.candidates.tolist())
            if step.store_intermediate:
                assert listed.raw_values[
                    listed.raw_offsets[i]:listed.raw_offsets[i + 1]
                ].tolist() == row.raw.tolist()
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
    columns = graph.hub_columns()
    assert columns.tail_indptr is None
    assert columns.words.shape == (graph.num_vertices,
                                   -(-graph.num_vertices // 64))
    return graph


def test_words_are_the_rows_the_matrix_holds(dense_graph):
    """No second copy: every vertex a hub, the columns are a view of
    ``adjacency_matrix``'s rows, in vertex order — a column is its
    vertex, there is no tail — and bit ``u`` of row ``v`` is
    ``has_edge``."""
    graph = dense_graph
    rows, rank = graph.adjacency_matrix()
    below, words, tail_indptr, tail_indices = graph.hub_columns()
    assert words.base is rows and not words.flags.writeable
    assert tail_indptr is None and tail_indices is None
    assert below.tolist() == list(range(graph.num_vertices + 1))
    assert not below.flags.writeable
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
    one row short of every vertex, the universe has a tail (words for
    the hubs alone); with no row at all there are no columns."""
    graph = Graph(skewed_graph.indptr, skewed_graph.indices)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Graph, "DENSE_ADJACENCY_BYTES",
            (graph.num_vertices - 1) * graph.adjacency_row_bytes)
        columns = graph.hub_columns()
    assert int(columns.below[-1]) == graph.num_vertices - 1
    assert columns.tail_indptr is not None
    assert from_edges([], num_vertices=9).hub_columns() is None


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


def _check_iep(graph, monkeypatch, rows=60):
    """Every 5-motif plan over prefix embeddings of ``graph``:
    ``iep_count`` row by row, and the list path's ``probe_elements`` —
    once per distinct signature prefix per block, so unmoved by the
    blocking."""
    twin = _listed_twin(graph)
    rng = np.random.default_rng(3)
    plans = {
        compile_counting_plan(graphpi_schedule(pattern, counting="iep"))
        for pattern in connected_patterns(5)
    } - {None}
    for plan in sorted(plans, key=lambda plan: plan.signatures):
        prefixes = _sampled_embeddings(graph, plan.prefix_schedule, rows, rng)
        assert len(prefixes) > 5
        batch = kernels.iep_chunk(graph, plan, prefixes)
        got = zip(batch.counts.tolist(), batch.merge_elements.tolist(),
                  batch.scanned.tolist())
        assert list(got) == [
            iep_count(graph, plan, tuple(row)) for row in prefixes.tolist()
        ]
        _same_result(batch, kernels.iep_chunk(twin, plan, prefixes))
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BLOCK_ELEMENTS", 7)
            _same_result(kernels.iep_chunk(graph, plan, prefixes), batch)
        assert len(kernels.iep_chunk(graph, plan, prefixes[:0]).counts) == 0


def test_iep_words_match_reference_and_lists(dense_graph, monkeypatch):
    _check_iep(dense_graph, monkeypatch)


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
    columns = graph.hub_columns()
    if columns is None or columns.tail_indptr is not None:
        return  # an orientation halves the entries
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
# hub columns: a counted step's universe split into words and a tail
# ---------------------------------------------------------------------
@pytest.fixture
def stage_halves(monkeypatch):
    """Every set-operation stage run (``kernels._split_stage``, the one
    stage helper) as ``(halves, rows)`` — ``"words"``, ``"lists"`` or
    ``"both"``, over a block of ``rows`` rows — in a list that grows: a
    test of a body that never reached it proves nothing."""
    ran = []
    stage = kernels._split_stage

    def spy(graph, columns, prefixes, position, keep, state, *rest):
        sets, values = state[:2]
        halves = ("both" if values is not None else "words") if (
            sets is not None) else "lists"
        ran.append((halves, len(prefixes)))
        return stage(graph, columns, prefixes, position, keep, state, *rest)

    monkeypatch.setattr(kernels, "_split_stage", spy)
    return ran


def _halves(ran):
    return {halves for halves, _ in ran}


#: which halves of the universe a drain's stages run on, by membership
#: regime: words only where every vertex is a column; both where the
#: columns leave a tail and the set is only counted, fresh; lists else
DISPATCH = {
    "dense": dict.fromkeys(("listed", "counted", "iep", "reused"), "words"),
    "rows+tail": {"listed": "lists", "counted": "both", "iep": "both",
                  "reused": "lists"},
    "keys": dict.fromkeys(("listed", "counted", "iep", "reused"), "lists"),
}


@pytest.mark.parametrize("body", ["listed", "counted", "iep", "reused"])
def test_dispatch_rule_by_regime(membership_regime, stage_halves, request,
                                 body):
    """One universe rule for every body: listed and counted two-source
    steps, an IEP drain, and a counted step that reuses a stored
    intersection (``clique4``'s last, over what its second step
    stored)."""
    graph = membership_regime(erdos_renyi(60, 240, seed=3))
    regime = request.node.callspec.params["membership_regime"]
    prefixes = _distinct_rows(np.random.default_rng(5), graph, 40, 5)
    step = _step(3, (0, 1), larger_than=(2,))
    if body == "iep":
        plan = compile_counting_plan(
            graphpi_schedule(catalog.chain(5), counting="iep"))
        kernels.iep_chunk(graph, plan, prefixes)
    elif body == "reused":
        schedule = automine_schedule(catalog.clique(4))
        final = schedule.steps[-1]
        stores = schedule.steps[final.reuse_level - 1]
        stored = _segments([
            compute_candidates(graph, stores, tuple(row), None, True).raw
            for row in prefixes[:, :2].tolist()
        ])
        kernels.extend_chunk(graph, final, prefixes[:, :3], stored,
                             count_only=True)
    else:
        kernels.extend_chunk(graph, step, prefixes[:, :3],
                             count_only=body == "counted")
    assert _halves(stage_halves) == {DISPATCH[regime][body]}


def _check_split(split, step, prefixes):
    """A counted ``step`` on ``split`` (a graph with hub columns, or a
    twin without): ``compute_candidates``' integers row by row, and
    the list path's result — ``probe_elements`` too."""
    counted = kernels.extend_chunk(split, step, prefixes, count_only=True)
    assert counted.values is None and counted.rows is None
    reference = [
        compute_candidates(split, step, tuple(row), None, True)
        for row in prefixes.tolist()
    ]
    assert counted.counts.tolist() == [len(r.candidates) for r in reference]
    assert counted.merge_elements.tolist() == [
        r.merge_elements for r in reference]
    assert counted.scanned.tolist() == [r.scanned for r in reference]
    _same_result(counted, kernels.extend_chunk(
        _listed_twin(split), step, prefixes, count_only=True))


#: two- and three-source intersections, induced differences (one
#: list less another is two sources), a bound on either side, both,
#: none, and one that sits on a source column
SPLIT_STEPS = {
    "2": _step(3, (0, 1)),
    "2>": _step(3, (0, 1), larger_than=(0, 1)),
    "2<": _step(3, (1, 2), smaller_than=(0,)),
    "2<>": _step(3, (0, 2), larger_than=(1,), smaller_than=(2,)),
    "3>": _step(3, (0, 1, 2), larger_than=(2,)),
    "1-1": _step(2, (0,), disconnected=(1,)),
    "1-2<": _step(3, (1,), disconnected=(0, 2), smaller_than=(1,)),
    "2-1>": _step(3, (0, 2), disconnected=(1,), larger_than=(0,)),
}


def _split_graphs(skewed_graph):
    """``name -> (graph, hubs)``: 70 columns are two words a row, the
    second mostly padding; 12 are a fifth of one."""
    random = erdos_renyi(60, 400, seed=5)
    return {
        "skewed": (skewed_graph, 70),
        "random": (random, 12),
        "one-hub": (random, 1),
        "self-loops": (_with_self_loops(random), 12),
        # out-rows and out-columns: the ANDs stay directed
        "oriented": (orient_by_degree(skewed_graph), 40),
    }


def test_hub_columns_split_every_list_at_the_hubs(skewed_graph, monkeypatch):
    """The hubs are the vertices with a row, as columns in vertex
    order; a vertex's words are its hub neighbors (out-neighbors on an
    oriented graph), its tail list the others, ascending — whatever the
    builder's run length."""
    for name, (graph, hubs) in _split_graphs(skewed_graph).items():
        for run in (1 << 18, 8):
            monkeypatch.setattr("repro.graph.graph._ROW_BUILD_ELEMENTS", run)
            split = _twin(graph, hubs)
            _, rank = split.adjacency_matrix()
            below, words, tail_indptr, tail_indices = split.hub_columns()
            assert not any(array.flags.writeable
                           for array in split.hub_columns())
            hub_of = np.flatnonzero(rank >= 0)
            assert below.tolist() == np.searchsorted(
                hub_of, np.arange(graph.num_vertices + 1)).tolist()
            for v in range(graph.num_vertices):
                in_words = [
                    int(hub_of[c]) for c in range(64 * words.shape[1])
                    if int(words[v, c >> 6]) >> (c & 63) & 1
                ]
                tail = tail_indices[tail_indptr[v]:tail_indptr[v + 1]]
                neighbors = graph.neighbors(v).tolist()
                assert in_words == [u for u in neighbors if rank[u] >= 0]
                assert tail.tolist() == [
                    u for u in neighbors if rank[u] < 0], name


@pytest.mark.parametrize("shape", sorted(SPLIT_STEPS))
def test_split_universe_matches_reference_and_lists(
    skewed_graph, stage_halves, shape
):
    step = SPLIT_STEPS[shape]
    rng = np.random.default_rng(11)
    for name, (graph, hubs) in _split_graphs(skewed_graph).items():
        split = _twin(graph, hubs)
        columns = split.hub_columns()
        assert columns.words.shape == (graph.num_vertices, -(-hubs // 64))
        assert int(columns.below[-1]) == hubs, name
        del stage_halves[:]
        _check_split(split, step, _distinct_rows(rng, graph, 50, step.level))
        # one block of both halves; the listed twin's, of lists
        assert set(stage_halves) == {("both", 50), ("lists", 50)}, name


def test_split_universe_without_columns_is_the_list_path(
    skewed_graph, stage_halves
):
    """No hub, no column — an edgeless graph, a zero budget: the list
    path, no word half. Every vertex a hub: the rows are the columns,
    there is no tail, and the stages run on words alone."""
    step = SPLIT_STEPS["2>"]
    rng = np.random.default_rng(12)
    edgeless = from_edges([], num_vertices=20)
    for graph, hubs, halves in ((edgeless, 20, "lists"),
                                (skewed_graph, 0, "lists"),
                                (erdos_renyi(60, 400, seed=5), 60, "words")):
        split = _twin(graph, hubs)
        columns = split.hub_columns()
        assert (columns is None) == (halves == "lists")
        del stage_halves[:]
        _check_split(split, step, _distinct_rows(rng, graph, 30, 3))
        assert _halves(stage_halves) == {halves, "lists"}


def test_split_universe_row_blocks_and_empty_chunk(
    skewed_graph, stage_halves, monkeypatch
):
    """One row a block (a row weighs its two words and its tail, so a
    row with no tail fills a three-element block): the same integers,
    ``probe_elements`` unmoved by the blocking; and a chunk of no
    rows."""
    split = _twin(skewed_graph, 70)
    rng = np.random.default_rng(13)
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 3)
    for shape in ("2>", "3>", "2-1>"):
        step = SPLIT_STEPS[shape]
        del stage_halves[:]
        _check_split(split, step, _distinct_rows(rng, split, 25, step.level))
        stages = len(step.connected) + len(step.disconnected) - 1
        assert [ran for ran in stage_halves if ran[0] == "both"] == (
            [("both", 1)] * 25 * stages)
        empty = kernels.extend_chunk(
            split, step, np.empty((0, step.level), np.int64), count_only=True)
        assert len(empty) == 0 and empty.probe_elements == 0
        assert empty.values is None


@_seeds
def test_split_universe_on_drawn_steps(skewed_graph, seed):
    """A drawn graph family and hub count (none and all included),
    drawn step shapes — any mix of connected / disconnected positions
    and crossing bounds — over drawn rows, whole chunks and
    seven-element blocks."""
    rng = np.random.default_rng(seed)
    graphs = _split_graphs(skewed_graph)
    graph, _ = graphs[sorted(graphs)[rng.integers(len(graphs))]]
    split = _twin(graph, int(rng.integers(0, graph.num_vertices + 1)))
    level = int(rng.integers(2, 5))
    prefixes = _distinct_rows(rng, graph, int(rng.integers(0, 41)), level)
    with pytest.MonkeyPatch.context() as patch:
        if rng.random() < 0.5:
            patch.setattr(kernels, "BLOCK_ELEMENTS", 7)
        _check_split(split, _drawn_step(rng, level), prefixes)


@pytest.mark.parametrize("name", ["cl4", "cyc4", "house", "tailtri"])
def test_split_universe_down_a_schedule(skewed_graph, stage_halves, name):
    """Level by level as the scheduler would, listed and counted, with
    and without stored intersections (a step that reuses one stays on
    lists) and induced."""
    split = _twin(skewed_graph, 70)
    _check(split, automine_schedule(PATTERNS[name]), keep=40)
    _check(split, graphpi_schedule(PATTERNS[name]), vcs=False, keep=40)
    _check(split, automine_schedule(PATTERNS[name], induced=True), keep=40)
    assert "both" in _halves(stage_halves)


def test_iep_rows_split_match_reference_and_lists(monkeypatch):
    """``_iep_rows`` keeps its stage state by signature prefix as words
    and a tail (70 of 100 vertices are columns: two words a row)."""
    split = _twin(erdos_renyi(*SHAPES["W2"], seed=17), 70)
    assert split.hub_columns().words.shape == (100, 2)
    _check_iep(split, monkeypatch, rows=40)


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
    resumes there, level after level. On every vertex's words, and on a
    fifth of the vertices as hub columns with a tail, the whole report
    — counts, simulated seconds, every tally and the ``kernel.*``
    counters — is the list path's."""
    twin = _listed_twin(small_random_graph)
    split = _twin(small_random_graph, small_random_graph.num_vertices // 5)
    assert small_random_graph.hub_columns().tail_indptr is None
    assert split.hub_columns().tail_indptr is not None
    for pattern, induced in ((catalog.house(), False),
                             (catalog.clique(4), False),
                             (catalog.cycle(4), True)):
        for vcs in (True, False):
            schedule = graphpi_schedule(
                pattern, induced=induced, counting=counting)
            config = dict(chunk_bytes=1024, auto_fit_chunks=False,
                          vcs=vcs, counting=counting)
            listed = _report(twin, schedule, comparable, **config)
            assert listed["counts"]
            for graph in (small_random_graph, split):
                assert _report(graph, schedule, comparable,
                               **config) == listed


def test_traced_runs_read_the_same_with_the_columns_dropped(
    skewed_graph, stage_halves
):
    """What a counted run on hub columns leaves in the registry — every
    counter and histogram, the ``kernel.*`` ones included — is what the
    same graph, same hub rows, leaves on lists."""
    split = _twin(skewed_graph, 40)
    dropped = _twin(skewed_graph, 40)
    dropped._hub_columns = None
    # clique4's final step reuses a stored intersection unless vertical
    # sharing is off: a list, so the step stays on lists
    for pattern, induced, vcs in ((catalog.clique(3), False, True),
                                  (catalog.clique(4), False, True),
                                  (catalog.clique(4), False, False),
                                  (catalog.chain(3), True, True)):
        runs = []
        for graph in (split, dropped):
            reached = len(stage_halves)
            obs = Observability()
            report = KAutomine(
                graph, ClusterConfig(num_machines=2), EngineConfig(vcs=vcs),
                obs=obs,
            ).count_pattern(pattern, induced=induced)
            assert ("both" in _halves(stage_halves[reached:])) == (
                graph is split and (pattern.num_vertices == 3 or not vcs))
            runs.append((report.counts, report.simulated_seconds,
                         obs.registry.snapshot()))
        assert runs[0] == runs[1]
        assert runs[0][0] > 0 and runs[0][2]


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


def test_split_drains_make_no_per_row_calls(skewed_graph, count_calls,
                                            stage_halves):
    """Both halves of a split universe are whole-block passes: a
    counting drain, or an IEP drain, of four times the rows (the same
    rows four times over, so every data-dependent branch goes the same
    way) makes the same Python- and C-level calls."""
    split = _twin(skewed_graph, 70)
    split.adjacency_keys()  # built on first use
    plan = compile_counting_plan(
        graphpi_schedule(catalog.chain(5), counting="iep"))
    width = plan.prefix_schedule.pattern.num_vertices
    once = _distinct_rows(np.random.default_rng(1), split, 50, width)
    fourfold = np.tile(once, (4, 1))
    for shape in ("2>", "3>", "2-1>"):
        step = SPLIT_STEPS[shape]

        def drain(prefixes):
            return count_calls(
                lambda: kernels.extend_chunk(
                    split, step, prefixes[:, :step.level], count_only=True))

        del stage_halves[:]
        assert drain(fourfold) == drain(once)
        # each drain one block, every stage on both halves
        assert set(stage_halves) == {("both", 200), ("both", 50)}
    del stage_halves[:]
    assert count_calls(kernels.iep_chunk, split, plan, fourfold) == (
        count_calls(kernels.iep_chunk, split, plan, once))
    assert _halves(stage_halves) == {"both"}


def test_loop_free_steps_make_no_correction_probe(skewed_graph,
                                                  count_calls):
    """On a split universe a counted drain probes for the rows' own
    vertices (``kernels._inside``), and only in the columns a candidate
    could equal (``kernels._own_columns``): the probes it makes beyond
    the listing drain's set-operation stages are its corrections. On a
    loop-free graph the ``tri-2x`` last step (every column a bound), an
    intersection step whose unbounded column is a source, and star3's
    leaf step make none; on a self-loop twin a source is a column to
    check, so the last two make at least one (the ``tri-2x`` step still
    none: every column is a bound)."""
    rng = np.random.default_rng(4)
    plain = _twin(skewed_graph, 70)
    looped = _twin(_with_self_loops(skewed_graph), 70)
    for step, checks_looped in (
        (_step(2, (0, 1), larger_than=(0, 1)), False),
        (_step(2, (0, 1), larger_than=(1,)), True),
        (automine_schedule(catalog.star(3)).steps[-1], True),
    ):
        prefixes = _distinct_rows(rng, plain, 50, step.level)
        for graph, checks in ((plain, False), (looped, checks_looped)):
            counted, listed = (
                count_calls(
                    lambda: kernels.extend_chunk(
                        graph, step, prefixes, count_only=count_only),
                    only={"adjacency_member"})
                for count_only in (True, False))
            assert (counted > listed) == checks, step
            assert counted >= listed


@pytest.mark.parametrize("width", [1, 2, 17, 94])
def test_popcount_totals_each_row(width):
    """A row's cardinality is the sum of its words' popcounts, up to
    ``64 W`` for an all-ones row."""
    rng = np.random.default_rng(width)
    sets = np.frombuffer(rng.bytes(200 * width * 8), dtype=np.uint64)
    sets = sets.reshape(200, width).copy()
    sets[::5] = np.uint64(0xFFFFFFFFFFFFFFFF)
    sets[1::5] = 0
    out = np.empty(len(sets), dtype=np.int64)
    assert kernels._popcount(sets, Workspace(), out) is out
    assert out.tolist() == np.bitwise_count(sets).sum(axis=1).tolist()
    assert set(out[::5].tolist()) == {64 * width}


def test_motif5_calls_per_census():
    """docs/performance.md's per-chunk constant on the benchmark census
    (``motif5-mico``'s graph), counted per census: a fused chunk drains
    several patterns, so calls a chunk no longer compare across the
    fusion (docs/performance.md, "Census fusion"). The unfused census
    made 160 435 interpreter-level calls (239 a chunk over 670 chunks),
    the fused one 74 567, with the machines' kernel calls in lockstep
    (docs/performance.md, "Lockstep machines") 63 379, and with their
    resolves in lockstep too it makes 60 111; the tripwire sits a
    little above that."""
    graph = dataset("mico", 0.1)

    def run():
        return apps.motif_count(
            KGraphPi(graph, ClusterConfig(num_machines=8),
                     EngineConfig(counting="iep")), 5)

    run()
    profile = cProfile.Profile()
    report = profile.runcall(run)
    calls = pstats.Stats(profile).total_calls
    print(f"motif5-mico: {calls} calls, "
          f"{calls / report.extra['chunks']:.0f} a chunk")
    assert calls < 62_000
