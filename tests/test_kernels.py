"""Chunk EXTEND kernels (repro.core.kernels, docs/performance.md).

The contract under test: every kernel agrees *element-for-element*
with its reference — ``intersect_sorted`` / ``setdiff_sorted`` with
``np.intersect1d`` / ``np.setdiff1d``, and ``extend_chunk`` with the
row-by-row :func:`compute_candidates`, including the
``merge_elements``/``scanned`` accounting quantities and the stored VCS
intermediates. What whole engine runs measure on top of the kernels is
pinned by ``tests/test_scheduler_golden.py``.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import kernels
from repro.core.extend import compute_candidates, iep_count
from repro.core.workspace import Workspace
from repro.graph import Graph, from_edges, open_store, write_store
from repro.graph.generators import erdos_renyi
from repro.graph.orientation import orient_by_degree
from repro.patterns import Pattern, catalog
from repro.patterns.generation import connected_patterns
from repro.patterns.schedule import (
    ExtensionStep,
    automine_schedule,
    compile_counting_plan,
    graphpi_schedule,
)

try:  # Hypothesis draws (and shrinks) the seeds where it is installed
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def _seeds(test):
        return settings(max_examples=60, deadline=None)(
            given(seed=st.integers(0, 2**32 - 1))(test)
        )
except ImportError:  # a bare container: the same body over a fixed sweep
    _seeds = pytest.mark.parametrize("seed", range(60))


# ======================================================================
# pairwise sorted-set kernels vs numpy
# ======================================================================
def _sorted_unique(rng, size, universe):
    return np.unique(rng.integers(0, universe, size=size).astype(np.int32))


@pytest.mark.parametrize("seed", range(8))
def test_intersect_sorted_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        a = _sorted_unique(rng, int(rng.integers(0, 60)), 80)
        b = _sorted_unique(rng, int(rng.integers(0, 60)), 80)
        expected = np.intersect1d(a, b, assume_unique=True)
        got = kernels.intersect_sorted(a, b)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(8))
def test_setdiff_sorted_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        a = _sorted_unique(rng, int(rng.integers(0, 60)), 80)
        b = _sorted_unique(rng, int(rng.integers(0, 60)), 80)
        expected = np.setdiff1d(a, b, assume_unique=True)
        got = kernels.setdiff_sorted(a, b)
        assert np.array_equal(got, expected)


def test_pairwise_kernels_edge_cases():
    empty = np.empty(0, dtype=np.int32)
    a = np.array([1, 5, 9], dtype=np.int32)
    assert len(kernels.intersect_sorted(empty, a)) == 0
    assert len(kernels.intersect_sorted(a, empty)) == 0
    assert np.array_equal(kernels.setdiff_sorted(a, empty), a)
    assert len(kernels.setdiff_sorted(empty, a)) == 0
    # disjoint, identical, and values past the other array's maximum
    b = np.array([2, 6, 10, 99], dtype=np.int32)
    assert len(kernels.intersect_sorted(a, b)) == 0
    assert np.array_equal(kernels.setdiff_sorted(b, a), b)
    assert np.array_equal(kernels.intersect_sorted(a, a), a)
    assert len(kernels.setdiff_sorted(a, a)) == 0


# ======================================================================
# graph batch gathers
# ======================================================================
def test_neighbors_batch_matches_scalar(small_random_graph):
    g = small_random_graph
    rng = np.random.default_rng(0)
    vs = rng.integers(0, g.num_vertices, size=50)
    values, offsets = g.neighbors_batch(vs)
    assert offsets[0] == 0 and offsets[-1] == len(values)
    for i, v in enumerate(vs):
        assert np.array_equal(
            values[offsets[i] : offsets[i + 1]], g.neighbors(int(v))
        )


def test_neighbors_batch_empty_input(small_random_graph):
    values, offsets = small_random_graph.neighbors_batch([])
    assert len(values) == 0
    assert np.array_equal(offsets, [0])


def test_adjacency_member_matches_has_edge(small_random_graph):
    g = small_random_graph
    rng = np.random.default_rng(1)
    sources = rng.integers(0, g.num_vertices, size=200).astype(np.int64)
    cands = rng.integers(0, g.num_vertices, size=200).astype(np.int64)
    member = kernels.adjacency_member(g, sources, cands)
    for s, c, m in zip(sources, cands, member):
        assert bool(m) == g.has_edge(int(s), int(c))


def test_adjacency_position_indexes_csr(small_random_graph):
    g = small_random_graph
    pairs = [(u, int(v)) for u in range(0, g.num_vertices, 7)
             for v in g.neighbors(u)]
    sources = np.array([p[0] for p in pairs], dtype=np.int64)
    cands = np.array([p[1] for p in pairs], dtype=np.int64)
    pos = kernels.adjacency_position(g, sources, cands)
    assert np.array_equal(g.indices[pos], cands)


def test_degrees_memoized(small_random_graph):
    g = small_random_graph
    first = g.degrees()
    assert first is g.degrees()  # same array object: computed once
    assert not first.flags.writeable
    assert np.array_equal(first, np.diff(g.indptr))


def test_adjacency_keys_memoized_and_sorted(small_random_graph):
    g = small_random_graph
    keys = g.adjacency_keys()
    assert keys is g.adjacency_keys()
    assert not keys.flags.writeable
    assert np.all(np.diff(keys) > 0)  # strictly increasing
    assert len(keys) == len(g.indices)


# ======================================================================
# extend_chunk vs the scalar reference, level by level
# ======================================================================
def _levels(graph, schedule, vcs=True):
    """Enumerate the full embedding frontier level by level.

    Yields ``(step, prefixes, intermediates, scalar_results)`` per
    level, where ``scalar_results[i]`` is ``compute_candidates`` run on
    row ``i`` — the ground truth ``extend_chunk`` must reproduce.
    Intermediates are threaded exactly like the scheduler does: a child
    inherits its ancestors' stored raws, keyed by the level whose
    extension produced them.
    """
    frontier = [((v,), {}) for v in range(graph.num_vertices)]
    for level in range(1, schedule.pattern.num_vertices):
        step = schedule.steps[level - 1]
        inters = []
        scalars = []
        for vertices, raws in frontier:
            inter = None
            if vcs and step.reuse_level is not None:
                inter = raws.get(step.reuse_level)
            inters.append(inter)
            scalars.append(
                compute_candidates(graph, step, vertices, inter, vcs)
            )
        prefixes = np.array(
            [v for v, _ in frontier], dtype=np.int64
        ).reshape(len(frontier), level)
        yield step, prefixes, inters, scalars
        new_frontier = []
        for (vertices, raws), res in zip(frontier, scalars):
            child_raws = raws
            if res.raw is not None and vcs:
                child_raws = dict(raws)
                child_raws[level] = res.raw
            for c in res.candidates:
                new_frontier.append((vertices + (int(c),), child_raws))
        frontier = new_frontier


def _segments(arrays):
    """Per-row arrays in the kernel's ``(values, offsets, segments)``
    form (what :meth:`Chunk.intermediates` hands over)."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    values = np.concatenate(arrays or [np.empty(0, dtype=np.int32)])
    return values, offsets, np.arange(len(arrays))


def _check_schedule(graph, schedule, vcs=True):
    checked = 0
    for step, prefixes, inters, scalars in _levels(graph, schedule, vcs):
        use_inters = (
            _segments(inters) if (vcs and step.reuse_level is not None)
            else None
        )
        batch = kernels.extend_chunk(
            graph, step, prefixes, use_inters, vcs=vcs
        )
        counts = kernels.extend_chunk(
            graph, step, prefixes, use_inters, vcs=vcs, count_only=True
        )
        # a label-free count never materializes; a labeled one lists
        label_free = step.label is None and step.edge_labels is None
        assert (counts.values is None) == label_free
        assert counts.probe_elements == batch.probe_elements
        assert len(batch) == len(scalars)
        assert batch.rows.tolist() == [
            i for i, res in enumerate(scalars) for _ in res.candidates
        ]
        for i, res in enumerate(scalars):
            assert np.array_equal(batch.candidates_for(i), res.candidates)
            assert int(batch.merge_elements[i]) == res.merge_elements
            assert int(batch.scanned[i]) == res.scanned
            assert int(batch.counts[i]) == len(res.candidates)
            assert int(counts.counts[i]) == len(res.candidates)
            assert int(counts.merge_elements[i]) == res.merge_elements
            assert int(counts.scanned[i]) == res.scanned
            if step.store_intermediate:
                assert np.array_equal(batch.raw_for(i), res.raw)
            else:
                assert batch.raw_for(i) is None
            checked += 1
    assert checked > 0


PATTERNS = {
    "tri": catalog.clique(3),
    "cl4": catalog.clique(4),
    "chain4": catalog.chain(4),
    "cyc4": catalog.cycle(4),
    "star3": catalog.star(3),
    "house": catalog.house(),
    "tailtri": catalog.tailed_triangle(),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_extend_chunk_matches_scalar(small_random_graph, name):
    _check_schedule(small_random_graph, automine_schedule(PATTERNS[name]))


@pytest.mark.parametrize("name", ["cl4", "cyc4"])
def test_extend_chunk_matches_scalar_induced(small_random_graph, name):
    _check_schedule(
        small_random_graph, automine_schedule(PATTERNS[name], induced=True)
    )


@pytest.mark.parametrize("name", ["cl4", "house"])
def test_extend_chunk_matches_scalar_vcs_off(small_random_graph, name):
    _check_schedule(
        small_random_graph, automine_schedule(PATTERNS[name]), vcs=False
    )


def test_extend_chunk_matches_scalar_graphpi(small_random_graph):
    _check_schedule(small_random_graph, graphpi_schedule(catalog.clique(4)))


def test_extend_chunk_matches_scalar_skewed(skewed_graph):
    _check_schedule(skewed_graph, automine_schedule(catalog.clique(4)))


@pytest.mark.parametrize("name", ["cl4", "chain4", "house"])
def test_extend_chunk_row_blocks(small_random_graph, skewed_graph,
                                 monkeypatch, name):
    """The kernel works a chunk in row blocks; cut into many tiny ones
    (a block may be a single row, or rows without candidates) the rows
    still equal the reference and ``probe_elements`` does not move."""
    schedule = automine_schedule(PATTERNS[name])
    for graph in (small_random_graph, skewed_graph):
        whole = [
            kernels.extend_chunk(graph, step, prefixes, (
                _segments(inters) if step.reuse_level is not None else None
            )).probe_elements
            for step, prefixes, inters, _ in _levels(graph, schedule)
        ]
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 7)
        _check_schedule(graph, schedule)
        blocked = [
            kernels.extend_chunk(graph, step, prefixes, (
                _segments(inters) if step.reuse_level is not None else None
            )).probe_elements
            for step, prefixes, inters, _ in _levels(graph, schedule)
        ]
        monkeypatch.undo()
        assert blocked == whole


def test_extend_chunk_vertex_labels(labeled_graph):
    pattern = Pattern(3, [(0, 1), (1, 2)], labels=(0, 1, 2))
    _check_schedule(labeled_graph, automine_schedule(pattern))


def test_extend_chunk_edge_labels():
    rng = np.random.default_rng(3)
    edges = [
        (u, v) for u in range(30) for v in range(u + 1, 30)
        if rng.random() < 0.3
    ]
    labels = [int(rng.integers(0, 2)) for _ in edges]
    graph = from_edges(edges, edge_labels=labels)
    pattern = Pattern(3, [(0, 1), (1, 2)],
                      edge_labels={(0, 1): 1, (1, 2): 0})
    _check_schedule(graph, automine_schedule(pattern))


def test_extend_chunk_edge_labels_on_unlabeled_graph(small_random_graph):
    """An unlabeled graph satisfies exactly the all-zero edge-label
    requirement: kernel and reference agree on both branches."""
    triangle = catalog.triangle()
    for labels in ({(0, 1): 1, (0, 2): 0, (1, 2): 0},
                   {(0, 1): 0, (0, 2): 0, (1, 2): 0}):
        _check_schedule(
            small_random_graph,
            automine_schedule(triangle.with_edge_labels(labels)),
        )


def test_extend_chunk_empty_chunk(small_random_graph):
    schedule = automine_schedule(catalog.clique(3))
    step = schedule.steps[0]
    batch = kernels.extend_chunk(
        small_random_graph, step, np.empty((0, 1), dtype=np.int64)
    )
    assert len(batch) == 0
    assert len(batch.values) == 0


# ======================================================================
# counting drains: count_only on a label-free step answers with
# cardinalities — straight off the CSR when the step reads one list
# (kernels._count_window), after the set operations otherwise
# (kernels._count_sets) — held to the reference on every shape the two
# bodies add
# ======================================================================
@pytest.mark.parametrize("induced", [False, True])
@pytest.mark.parametrize("compiler", [automine_schedule, graphpi_schedule])
def test_counting_every_pattern_up_to_five(compiler, induced):
    """Every connected pattern with k <= 5, both compilers, induced and
    not. Between them the steps carry a lower bound and disconnected
    positions at one-list steps and at intersections alike, an upper
    bound and both bounds at once at one-list steps (no compiled
    intersection has an upper bound: the drawn steps below do)."""
    graph = erdos_renyi(16, 48, seed=4)
    shapes = set()
    for k in (2, 3, 4, 5):
        for pattern in connected_patterns(k):
            schedule = compiler(pattern, induced=induced)
            _check_schedule(graph, schedule)
            shapes |= {
                (len(step.connected) == 1, bool(step.larger_than),
                 bool(step.smaller_than), bool(step.disconnected))
                for step in schedule.steps
            }
    for one_list in (True, False):
        assert (one_list, True, False, False) in shapes
        assert (one_list, False, False, False) in shapes
        assert ((one_list, True, False, True) in shapes) == induced
    assert (True, True, True, induced) in shapes
    if compiler is graphpi_schedule:
        assert (True, False, True, induced) in shapes


def _with_self_loops(graph, every=3):
    """``graph`` plus a loop on every ``every``-th vertex, built straight
    from CSR arrays (the edge-list builders drop loops)."""
    lists = [
        sorted(set(graph.neighbors(v).tolist()) | ({v} if v % every == 0
                                                  else set()))
        for v in range(graph.num_vertices)
    ]
    indptr = np.cumsum([0] + [len(row) for row in lists])
    return Graph(indptr, np.concatenate(lists).astype(np.int32))


@functools.cache  # a Graph hashes by identity; the fixture is one object
def _counting_graphs(skewed_graph):
    random = erdos_renyi(40, 150, seed=1)
    edges = list(random.edges())
    return {
        "random": random,
        "skewed": skewed_graph,
        "oriented": orient_by_degree(skewed_graph),
        "edgeless": from_edges([], num_vertices=12),
        # vertices 40..49 have no edge: roots whose lists are empty
        "isolated": from_edges(edges, num_vertices=50),
        "self-loops": _with_self_loops(random),
    }


def _step(level, connected, larger_than=(), smaller_than=(),
          disconnected=()):
    """A label-free step placing position ``level``, built by hand."""
    return ExtensionStep(
        level=level, connected=connected, disconnected=disconnected,
        larger_than=larger_than, smaller_than=smaller_than, label=None,
        edge_labels=None, reuse_level=None, extra_connected=connected,
        store_intermediate=False, active_after=(),
    )


def _drawn_step(rng, level):
    """A label-free step over ``level`` prefix columns with any mix of
    connected / disconnected positions and ordering bounds — a bound
    may sit on a connected column, and the two sides may cross."""
    connected = np.flatnonzero(rng.random(level) < 0.5)
    if not len(connected):
        connected = rng.integers(0, level, size=1)
    rest = np.setdiff1d(np.arange(level), connected)

    def pick(columns, share):
        return tuple(columns[rng.random(len(columns)) < share].tolist())

    return _step(
        level, tuple(connected.tolist()), disconnected=pick(rest, 0.5),
        larger_than=pick(np.arange(level), 0.3),
        smaller_than=pick(np.arange(level), 0.3),
    )


def _check_counted_rows(graph, step, prefixes):
    """Count mode, row by row, against the reference; its probes
    against the listing path's."""
    listed = kernels.extend_chunk(graph, step, prefixes)
    counted = kernels.extend_chunk(graph, step, prefixes, count_only=True)
    assert counted.values is None and counted.rows is None
    reference = [
        compute_candidates(graph, step, tuple(row), None, True)
        for row in prefixes.tolist()
    ]
    assert counted.counts.tolist() == [len(r.candidates) for r in reference]
    assert counted.merge_elements.tolist() == [
        r.merge_elements for r in reference]
    assert counted.scanned.tolist() == [r.scanned for r in reference]
    assert counted.probe_elements == listed.probe_elements
    assert listed.counts.tolist() == counted.counts.tolist()


@_seeds
def test_counting_matches_reference_on_drawn_steps(skewed_graph, seed):
    """Drawn step shapes over drawn rows of distinct vertices — every
    graph family, one to four prefix columns, none to forty rows (an
    empty chunk included), whole chunks and seven-element row blocks."""
    rng = np.random.default_rng(seed)
    graphs = _counting_graphs(skewed_graph)
    graph = graphs[sorted(graphs)[rng.integers(len(graphs))]]
    level = int(rng.integers(1, 5))
    rows = int(rng.integers(0, 41))
    prefixes = rng.permuted(
        np.tile(np.arange(graph.num_vertices), (rows, 1)), axis=1
    )[:, :level]
    step = _drawn_step(rng, level)
    with pytest.MonkeyPatch.context() as patch:
        if rng.random() < 0.5:
            patch.setattr(kernels, "BLOCK_ELEMENTS", 7)
        _check_counted_rows(graph, step, prefixes)


@pytest.mark.parametrize("connected", [(0,), (0, 1)])
def test_counting_window_edges(connected):
    """The window by hand, one list and an intersection: a bound that is
    itself in the list (strict on both sides), a window emptied by
    ``min(smaller_than) <= max(larger_than)``, prefix vertices inside
    and outside it, and no rows at all."""
    # 0 and 1 are adjacent to each other and to everything else
    graph = from_edges(
        [(0, 1)] + [(hub, v) for hub in (0, 1) for v in range(2, 10)]
        + [(2, 3), (4, 5)]
    )
    both = _step(3, connected, larger_than=(1, 2), smaller_than=(2,))
    for step, rows in [
        (_step(3, connected, larger_than=(2,)), [[0, 1, 4], [0, 1, 9]]),
        (_step(3, connected, smaller_than=(2,)), [[0, 1, 2], [0, 1, 7]]),
        # lower bound 3, upper bound 8: (3, 8) holds 4..7
        (_step(3, connected, larger_than=(2,), smaller_than=(1,)),
         [[0, 8, 3], [1, 8, 3]] if connected == (0,) else []),
        # crossed: the same column bounds both sides; two columns do
        (both, [[0, 1, 5]]),
        (_step(3, connected, larger_than=(1,), smaller_than=(2,)),
         [[0, 7, 4], [0, 4, 5], [0, 1, 2]]),
    ]:
        prefixes = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        _check_counted_rows(graph, step, prefixes)
    empty = kernels.extend_chunk(
        graph, both, np.empty((0, 3), dtype=np.int64), count_only=True
    )
    assert len(empty) == 0 and empty.values is None


def test_counting_one_list_gathers_nothing(skewed_graph, count_calls):
    """chain(5)'s final step reads one list: counted, it gathers no
    neighbor list and no stored segment, and ten times the rows make
    the same Python- and C-level calls. Inside one block, that is: the
    body works in runs of ``BLOCK_ELEMENTS`` prefix vertices and probes
    the rows' own vertices in groups of a quarter of that (4 096
    four-column rows), so calls step with blocks, never with rows."""
    graph = skewed_graph
    step = automine_schedule(catalog.chain(5)).steps[-1]
    assert len(step.connected) == 1 and step.larger_than
    rng = np.random.default_rng(8)

    def count(rows, only=None):
        prefixes = rng.permuted(
            np.tile(np.arange(graph.num_vertices), (rows, 1)), axis=1
        )[:, :4]
        return count_calls(
            lambda: kernels.extend_chunk(
                graph, step, prefixes, count_only=True),
            only=only,
        )

    count(10)  # the composite keys are built on first use
    assert count(1_000, {"neighbors_batch", "gather_segments"}) == 0
    assert count(4_000) == count(400)


_FAULTS_SCRIPT = """
import resource
from repro.cluster import ClusterConfig
from repro.graph import dataset
from repro.patterns import catalog
from repro.systems import KAutomine

graph = dataset("mico", 0.1)

def run():
    system = KAutomine(graph, ClusterConfig(num_machines=8))
    return system.count_pattern(catalog.chain(5))

run(), run()  # lazy graph caches, and the allocator's thresholds settle
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = run()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(min(faults), report.counts)
"""


def test_warm_counting_drain_reuses_its_memory():
    """A warm chain(5) count whose final chunks fill their 1 MiB (43 690
    rows): the drain's whole-chunk temporaries come from the run's
    workspace, not fresh from the OS every chunk — under 3 000 minor page
    faults a run where the parent took 8 076 (what is left is the first
    touch of each run's new workspace and the listed levels' results).
    In a fresh interpreter: the count depends on what the allocator has
    seen before."""
    pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True,
        text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    )
    faults, count = map(int, done.stdout.split())
    assert count == 3_249_066
    if not faults:
        pytest.skip("the platform reports no minor faults")
    assert faults < 3_000


# ======================================================================
# membership regimes: every vertex a bit-packed row / hub rows + key
# tail / keys only (the ``membership_regime`` fixture)
# ======================================================================
def _labeled_both_ways():
    """A graph with vertex *and* edge labels, and a triangle pattern
    that constrains both — membership probes and ``adjacency_position``
    lookups in one step."""
    rng = np.random.default_rng(5)
    edges = [
        (u, v) for u in range(40) for v in range(u + 1, 40)
        if rng.random() < 0.3
    ]
    graph = from_edges(
        edges, edge_labels=[int(rng.integers(0, 2)) for _ in edges]
    ).with_labels(rng.integers(0, 2, size=40))
    pattern = Pattern(
        3, [(0, 1), (1, 2), (0, 2)], labels=(0, 1, 0),
        edge_labels={(0, 1): 1, (1, 2): 0, (0, 2): 1},
    )
    return graph, pattern


def _regime_cases(skewed_graph, tmp_path):
    """``(graph, schedules)`` per input shape the rows have to get
    right; the schedules' steps probe membership both ways
    (intersections, and induced mode's set differences)."""
    labeled, labeled_triangle = _labeled_both_ways()
    store = tmp_path / "skewed.kcsr"
    write_store(skewed_graph, store)
    clique4 = catalog.clique(4)
    induced_cycle = automine_schedule(catalog.cycle(4), induced=True)
    # one-list final steps, which count mode answers off the CSR: under
    # a lower bound, and (induced) with a list to subtract
    wedge = graphpi_schedule(catalog.chain(3))
    induced_wedge = automine_schedule(catalog.chain(3), induced=True)
    return {
        "skewed": (skewed_graph, [automine_schedule(clique4), induced_cycle,
                                  wedge, induced_wedge]),
        # out-rows only: an oriented graph's rows are not symmetric
        # (the orientation is the symmetry breaking, so no restrictions)
        "oriented": (orient_by_degree(skewed_graph), [
            automine_schedule(clique4, use_restrictions=False),
            automine_schedule(catalog.chain(3), use_restrictions=False),
        ]),
        "labeled": (labeled, [automine_schedule(labeled_triangle)]),
        "edgeless": (from_edges([], num_vertices=20),
                     [wedge, automine_schedule(catalog.clique(3))]),
        "mmap": (open_store(store),
                 [automine_schedule(catalog.clique(3)), wedge]),
    }


def test_adjacency_member_regimes(skewed_graph, membership_regime, tmp_path):
    rng = np.random.default_rng(2)
    for name, (graph, _) in _regime_cases(skewed_graph, tmp_path).items():
        graph = membership_regime(graph)
        n = graph.num_vertices
        # every edge, and as many random pairs (mostly non-edges)
        sources = np.concatenate([
            np.repeat(np.arange(n), graph.degrees()),
            rng.integers(0, n, size=graph.num_directed_edges + 50),
        ])
        cands = np.concatenate([
            graph.indices, rng.integers(0, n, size=len(sources) - len(
                graph.indices)).astype(np.int32),
        ])
        member = kernels.adjacency_member(graph, sources, cands)
        expected = [
            graph.has_edge(s, c)
            for s, c in zip(sources.tolist(), cands.tolist())
        ]
        assert member.tolist() == expected, name
        assert member[:graph.num_directed_edges].all(), name


def test_adjacency_member_per_row_sources(skewed_graph, membership_regime,
                                          tmp_path):
    """The form a set-operation stage uses — one source per *row* plus
    each candidate's row — against the per-candidate form, in every
    regime: rows with no candidate, a source without an adjacency row
    beside ones with (and chunks with none, where the key tail is
    skipped), a self-loop CSR, int32 candidates written into a
    caller's ``out`` through a shared workspace."""
    rng = np.random.default_rng(9)
    graphs = {
        name: graph
        for name, (graph, _) in _regime_cases(skewed_graph, tmp_path).items()
    }
    graphs["self-loops"] = _with_self_loops(erdos_renyi(40, 150, seed=1))
    workspace = Workspace()
    for name, graph in graphs.items():
        graph = membership_regime(graph)
        n = graph.num_vertices
        _, rank = graph.adjacency_matrix()
        hubs = np.flatnonzero(rank >= 0)
        for sources in (rng.integers(0, n, size=30),
                        rng.choice(hubs, size=30) if len(hubs) else None):
            if sources is None:
                continue
            counts = rng.integers(0, 12, size=len(sources))
            counts[rng.integers(0, len(sources), size=5)] = 0
            emb_of = np.repeat(np.arange(len(sources)), counts)
            cands = rng.integers(0, n, size=len(emb_of)).astype(np.int32)
            # half of them true neighbors, self-loops included
            for i in np.flatnonzero(rng.random(len(cands)) < 0.5).tolist():
                nbrs = graph.neighbors(sources[emb_of[i]])
                if len(nbrs):
                    cands[i] = nbrs[rng.integers(len(nbrs))]
            expected = kernels.adjacency_member(
                graph, sources[emb_of], cands)
            out = np.empty(len(cands), dtype=bool)
            member = kernels.adjacency_member(
                graph, sources, cands, emb_of, workspace, out=out)
            assert member is out
            assert member.tolist() == expected.tolist(), name
            assert expected.tolist() == [
                graph.has_edge(s, c)
                for s, c in zip(sources[emb_of].tolist(), cands.tolist())
            ], name


def test_extend_chunk_regimes(skewed_graph, membership_regime, tmp_path):
    for graph, schedules in _regime_cases(skewed_graph, tmp_path).values():
        graph = membership_regime(graph)
        for schedule in schedules:
            _check_schedule(graph, schedule)


def test_iep_chunk_regimes(skewed_graph, membership_regime, tmp_path):
    plans = [
        compile_counting_plan(graphpi_schedule(pattern, counting="iep"))
        for pattern in (catalog.star(3), catalog.chain(4))
    ]
    for name, (graph, _) in _regime_cases(skewed_graph, tmp_path).items():
        graph = membership_regime(graph)
        for plan in plans:
            size = plan.prefix_schedule.pattern.num_vertices
            rows = np.random.default_rng(4).integers(
                0, graph.num_vertices, size=(300, size))
            batch = kernels.iep_chunk(graph, plan, rows)
            got = zip(batch.counts.tolist(), batch.merge_elements.tolist(),
                      batch.scanned.tolist())
            assert list(got) == [
                iep_count(graph, plan, tuple(row)) for row in rows.tolist()
            ], name


def test_adjacency_member_makes_no_per_element_calls(
    skewed_graph, membership_regime, count_calls
):
    """Rows and tail are both whole-array answers: a hundred times the
    pairs, the same Python-level calls."""
    graph = membership_regime(skewed_graph)
    rng = np.random.default_rng(6)

    def probe(pairs):
        sources = rng.integers(0, graph.num_vertices, size=pairs)
        cands = rng.integers(0, graph.num_vertices, size=pairs)
        return count_calls(kernels.adjacency_member, graph, sources, cands)

    probe(10)  # the composite keys are built on first use
    assert probe(100_000) == probe(1_000)
