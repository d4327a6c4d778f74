"""The baselines' level-synchronous walk (``repro.baselines.common``).

Three parts:

- a differential: every group tally the five baselines fold out of
  :func:`walk` — per root, per level-1 subtree, per level, G-thinker's
  ordered fetch sets and aDFS's per-machine ship bytes — equals what
  the depth-first :class:`tests.reference.RecursiveExplorer` produces
  with the hooks the baselines used to run on it;
- a row-cap tripwire: no kernel call extends more than
  :data:`common.ROWS` rows, and the cap does not move a report;
- a source tripwire: the row-by-row path stays out of ``src/``.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    GraphPiReplicated, GThinker, MovingComputation, PangolinLike,
    SingleMachine, common, gthinker, replicated,
)
from repro.baselines.common import CREATED, MATCHES, fold, walk
from repro.baselines.gthinker import _tasks
from repro.baselines.moving_computation import _shipments
from repro.core import kernels
from repro.core.extend import ScheduleExtender as EngineExtender
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, random_labels, star_graph
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.patterns import Pattern, catalog, chain, clique, cycle, star
from repro.patterns.schedule import automine_schedule, graphpi_schedule
from repro.systems.base import MniDomainCollector
from tests.reference import ExploreStats, RecursiveExplorer, ScheduleExtender

MACHINES = 3


def _edge_labeled():
    rng = np.random.default_rng(3)
    edges = [(u, v) for u in range(36) for v in range(u + 1, 36)
             if rng.random() < 0.25]
    return from_edges(edges,
                      edge_labels=[int(rng.integers(0, 2)) for _ in edges])


GRAPHS = {
    "plain": lambda: erdos_renyi(60, 330, seed=5),
    "labeled": lambda: random_labels(erdos_renyi(60, 400, seed=4), 3, seed=2),
    "edge-labeled": _edge_labeled,
    "oriented": lambda: erdos_renyi(60, 400, seed=6).oriented(),
    "hub-star": lambda: star_graph(40),
}

#: (graph, schedule) cases: patterns of 1 to 5 vertices, induced and
#: not, both schedule compilers, labels where the graph has them
CASES = [
    ("plain", automine_schedule(Pattern(1, []))),
    ("plain", automine_schedule(chain(2))),
    ("plain", automine_schedule(clique(4))),
    ("plain", automine_schedule(cycle(4), induced=True)),
    ("plain", graphpi_schedule(catalog.house())),
    ("plain", graphpi_schedule(chain(4), induced=True)),
    ("labeled", automine_schedule(
        Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=(0, 1, 2)))),
    ("labeled", automine_schedule(catalog.tailed_triangle())),
    ("edge-labeled", automine_schedule(
        Pattern(3, [(0, 1), (1, 2)], edge_labels={(0, 1): 1, (1, 2): 0}))),
    ("oriented", automine_schedule(clique(4), use_restrictions=False)),
    ("hub-star", automine_schedule(star(3))),
    ("hub-star", automine_schedule(chain(3), induced=True)),
]
IDS = [f"{graph}-{schedule.pattern.num_vertices}v{schedule.pattern.num_edges}e"
       f"{'-induced' if schedule.induced else ''}"
       for graph, schedule in CASES]


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


def _roots(graph, schedule):
    roots = np.arange(graph.num_vertices)
    if schedule.root_label() is not None and graph.labels is not None:
        roots = roots[graph.labels[roots] == schedule.root_label()]
    return roots


def _stats_row(stats):
    return [stats.merge_elements, stats.scanned, stats.created, stats.matches]


# ----------------------------------------------------------------------
# the recursion, with the hooks the baselines ran on it
# ----------------------------------------------------------------------
def _recursive(graph, schedule, roots, vcs):
    """Per-root tallies, level widths, each root's fetch set in request
    order, and aDFS's per-machine ship bytes and shipment count."""
    extender = ScheduleExtender(schedule, vcs=vcs)
    owners = PartitionedGraph(graph, HashPartitioner(MACHINES))
    ship = np.zeros(MACHINES, dtype=np.int64)
    shipments = 0
    accessed: set[int] = set()

    def on_child(level, vertex, needs_fetch):
        if needs_fetch:
            accessed.add(vertex)

    def on_child_state(level, vertex, needs_fetch, prefix, location):
        nonlocal shipments
        if not needs_fetch:
            return location
        destination = owners.owner(vertex)
        if destination == location:
            return location
        payload = 4 * (level + 1)
        for position in extender.step_for(level).active_after:
            carried = prefix[position] if position < len(prefix) else vertex
            if owners.owner(int(carried)) != destination:
                payload += graph.edge_list_bytes(int(carried))
        ship[location] += payload
        shipments += 1
        return destination

    explorer = RecursiveExplorer(graph, extender, on_child=on_child,
                                 on_child_state=on_child_state)
    total = ExploreStats()
    tallies, fetches = [], []
    for root in roots.tolist():
        accessed.clear()
        if schedule.root_active():
            accessed.add(root)
        stats = ExploreStats()
        explorer.explore_root(root, stats, state=owners.owner(root))
        tallies.append(_stats_row(stats))
        fetches.append(list(accessed))
        for level, width in stats.level_widths.items():
            total.level_widths[level] = (
                total.level_widths.get(level, 0) + width)
    return (np.array(tallies, dtype=np.int64).reshape(-1, 4).T,
            total.level_widths, fetches, ship, shipments)


def _recursive_subtrees(graph, schedule, roots):
    """GraphPi's work units in call order: each root's first level
    (merge, scanned) then each level-1 subtree's tallies."""
    extender = ScheduleExtender(schedule, vcs=True)
    explorer = RecursiveExplorer(graph, extender)
    units = []
    for root in roots.tolist():
        first = extender.extend_level(graph, (root,), 1, lambda level: None)
        units.append([first.merge_elements, first.scanned, 0, 0])
        if extender.final_level == 1:
            continue
        for v1 in first.candidates.tolist():
            explorer._intermediates[1] = first.raw
            stats = ExploreStats(created=1)
            explorer._descend((root, v1), 2, stats, None)
            units.append(_stats_row(stats))
    return np.array(units, dtype=np.int64).reshape(-1, 4).T


# ----------------------------------------------------------------------
# the walk, folded as the baselines fold it
# ----------------------------------------------------------------------
def _walked(graph, schedule, roots, vcs):
    owners = PartitionedGraph(graph, HashPartitioner(MACHINES)).owners_all()
    edge_list_bytes = graph.edge_list_bytes_all()
    tallies = np.zeros((4, len(roots)), dtype=np.int64)
    widths: dict[int, int] = {}
    ship = np.zeros(MACHINES, dtype=np.int64)
    shipments = 0
    for level in walk(graph, schedule, roots, vcs=vcs):
        fold(tallies, level, level.trees)
        if level.level:
            widths[level.level] = (
                widths.get(level.level, 0) + int(level.counts.sum()))
        sources, payloads = _shipments(schedule, level, owners,
                                       edge_list_bytes)
        np.add.at(ship, sources, payloads)
        shipments += len(payloads)
    # G-thinker's tasks walk without reuse: their tallies are the
    # no-vcs ones, their fetch sets the same either way
    tasks = list(_tasks(graph, schedule, roots, None))
    fetches = [list(accessed) for _, accessed in tasks]
    if not vcs:
        assert [tally.tolist() for tally, _ in tasks] == tallies.T.tolist()
    return tallies, widths, fetches, ship, shipments


def _walked_subtrees(graph, schedule, roots):
    """:func:`_recursive_subtrees` from the walk's ``branches``."""
    firsts, subtrees = [], None
    for level in walk(graph, schedule, roots, vcs=True):
        if level.level == 1:
            firsts = list(zip(level.merge.tolist(), level.scanned.tolist()))
            if not level.final:
                branch_roots = level.parents
                subtrees = np.zeros((4, len(branch_roots)), dtype=np.int64)
                subtrees[CREATED] = 1
        elif level.level > 1:
            fold(subtrees, level, level.branches)
    units = []
    for index, (merge, scanned) in enumerate(firsts):
        units.append([merge, scanned, 0, 0])
        if subtrees is not None:
            units.extend(subtrees[:, branch_roots == index].T.tolist())
    return np.array(units, dtype=np.int64).reshape(-1, 4).T


@pytest.mark.parametrize("vcs", [True, False], ids=["vcs", "no-vcs"])
@pytest.mark.parametrize("name,schedule", CASES, ids=IDS)
def test_walk_tallies_equal_the_recursion(graphs, name, schedule, vcs):
    graph = graphs[name]
    roots = _roots(graph, schedule)
    tallies, widths, fetches, ship, shipments = _recursive(
        graph, schedule, roots, vcs)
    got = _walked(graph, schedule, roots, vcs)
    assert tallies[MATCHES].sum() > 0 or name == "edge-labeled"
    assert np.array_equal(got[0], tallies)
    assert got[1] == widths
    # the set iteration order is G-thinker's request order
    assert got[2] == fetches
    assert np.array_equal(got[3], ship) and got[4] == shipments


@pytest.mark.parametrize("name,schedule", CASES[1:], ids=IDS[1:])
def test_walk_subtrees_equal_the_recursion(graphs, name, schedule):
    """GraphPi's work units; a single-vertex pattern (``CASES[0]``) has
    none."""
    graph = graphs[name]
    roots = _roots(graph, schedule)
    assert np.array_equal(_walked_subtrees(graph, schedule, roots),
                          _recursive_subtrees(graph, schedule, roots))


def test_walk_lists_what_the_recursion_matches(graphs):
    """``on_match`` sees one call per final row with matches: the MNI
    domains equal the recursion's."""
    graph = graphs["plain"]
    patterns = [chain(3), clique(3), catalog.tailed_triangle()]
    schedules = [automine_schedule(p) for p in patterns]

    def collector():
        return MniDomainCollector(patterns, [s.order for s in schedules],
                                  [[] for _ in patterns])

    walked, recursed = collector(), collector()
    calls = []
    for index, schedule in enumerate(schedules):
        roots = _roots(graph, schedule)

        def on_match(prefix, candidates, _index=index):
            calls.append(len(candidates))
            walked(_index, prefix, candidates)

        for _ in walk(graph, schedule, roots, vcs=True, on_match=on_match):
            pass
        explorer = RecursiveExplorer(
            graph, ScheduleExtender(schedule),
            on_match=lambda p, c, _index=index: recursed(_index, p, c))
        for root in roots.tolist():
            explorer.explore_root(root, ExploreStats())
    assert all(calls)
    assert walked.domains == recursed.domains


# ----------------------------------------------------------------------
# the row cap
# ----------------------------------------------------------------------
@pytest.fixture
def call_rows(monkeypatch):
    """Rows of every ``kernels.extend_chunk`` call from here on."""
    rows = []
    extend = kernels.extend_chunk

    def spy(graph, step, prefixes, *args, **kwargs):
        rows.append(len(prefixes))
        return extend(graph, step, prefixes, *args, **kwargs)

    monkeypatch.setattr(kernels, "extend_chunk", spy)
    return rows


def test_no_call_extends_more_than_the_cap(call_rows):
    """The hub's leaves come out of one call; every level still takes
    them at most ``ROWS`` rows a call."""
    leaves = common.ROWS + 500
    graph = star_graph(leaves)
    schedule = automine_schedule(chain(3))
    tallies = np.zeros((4, 1), dtype=np.int64)
    for level in walk(graph, schedule, np.arange(graph.num_vertices),
                      vcs=True):
        fold(tallies, level, np.zeros_like(level.trees))
    assert tallies[MATCHES, 0] == leaves * (leaves - 1) // 2
    assert max(call_rows) == common.ROWS
    assert len(call_rows) > 2


SYSTEMS = {
    "automine-ih": lambda g: SingleMachine(g),
    "pangolin": lambda g: PangolinLike(g),
    "graphpi": lambda g: GraphPiReplicated(g, num_machines=MACHINES, cores=5),
    "g-thinker": lambda g: GThinker(g, num_machines=MACHINES),
    "adfs": lambda g: MovingComputation(g, num_machines=MACHINES),
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_the_cap_does_not_move_a_report(graphs, monkeypatch, call_rows,
                                        system):
    """Cut to 7 rows a call and 7 roots a batch (vcs lineage across
    slices included), every report is what the default cap gives."""
    graph = graphs["plain"]

    def reports():
        baseline = SYSTEMS[system](graph)
        return [
            baseline.count_pattern(clique(4)).to_dict(),
            baseline.count_patterns([cycle(4), chain(3)],
                                    induced=True).to_dict(),
            baseline.mni_supports([chain(3), clique(3)])[0],
        ]

    whole = reports()
    del call_rows[:]
    for module in (common, gthinker, replicated):
        monkeypatch.setattr(module, "ROWS", 7)
    assert reports() == whole
    assert max(call_rows) == 7


# ----------------------------------------------------------------------
# the source tripwire
# ----------------------------------------------------------------------
ROW_BY_ROW = {"compute_candidates", "extend_level", "iep_count",
              "RecursiveExplorer", "intersect1d", "setdiff1d"}


def test_no_row_by_row_path_in_src():
    src = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
            else:
                continue
            if name in ROW_BY_ROW:
                found.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    assert not found
    assert "schedule" not in inspect.signature(EngineExtender).parameters
