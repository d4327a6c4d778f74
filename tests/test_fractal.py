"""Tests for the Fractal-like pattern-oblivious baseline."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from repro.baselines import FractalLike, SingleMachine
from repro.baselines.fractal import _CANONICAL_COST, _EXTEND_COST
from repro.errors import ConfigurationError, SimTimeoutError
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, random_labels, star_graph
from repro.graph.graph import Graph
from repro.patterns import Pattern, chain, clique, star
from repro.patterns.canonical import canonical_code
from repro.systems import run_fsm


def esu_reference(system):
    """The walk the array passes replace: ESU over the line graph,
    bounded at three edges, one ``record`` per subset — charged on its
    root edge's owner, checked against the cap and the budget, and
    classified into ``{key: (count, [domain set per position])}``.
    Returns ``(stats, runtime, subsets per root)`` or raises
    ``SimTimeoutError``."""
    graph = system.graph
    edges = [(u, v) for u, v in graph.edges()]
    incident = [[] for _ in range(graph.num_vertices)]
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)
    stats = {}
    per_root = [0] * len(edges)
    machine_serial = np.zeros(system.num_machines, dtype=np.float64)
    subgraphs = 0
    threads = max(1, system.cores) * system.cost.thread_efficiency
    budget = system.time_budget

    def record(edge_ids, machine):
        nonlocal subgraphs
        subgraphs += 1
        per_root[edge_ids[0]] += 1
        machine_serial[machine] += _EXTEND_COST + _CANONICAL_COST
        key, domains = _classify(graph, [edges[e] for e in edge_ids])
        entry = stats.setdefault(key, [0, [set() for _ in domains]])
        entry[0] += 1
        for domain, vertices in zip(entry[1], domains):
            domain.update(vertices)
        if subgraphs > system.max_subgraphs:
            raise SimTimeoutError(float(machine_serial.max() / threads),
                                  budget or 0.0)
        if budget is not None and machine_serial.max() / threads > budget:
            raise SimTimeoutError(machine_serial.max() / threads, budget)

    for root in range(len(edges)):
        machine = system.partitioner.owner(root)
        record((root,), machine)
        u, v = edges[root]
        neighbors_root = sorted(
            e for e in set(incident[u]) | set(incident[v]) if e > root)
        for i, second in enumerate(neighbors_root):
            record((root, second), machine)
            su, sv = edges[second]
            exclusive = sorted(
                e for e in set(incident[su]) | set(incident[sv])
                if e > root and e != second and e not in neighbors_root)
            for third in neighbors_root[i + 1:] + exclusive:
                record((root, second, third), machine)
    runtime = float(machine_serial.max()) / threads
    runtime += (system.cost.graphpi_startup
                + system.cost.graphpi_startup_per_node * system.num_machines)
    return stats, runtime, per_root


def _classify(graph, edge_list):
    """Shape key of a connected edge subset and each position's
    vertices (the equal-label and palindrome fills included)."""
    label = graph.label
    degree = {}
    for u, v in edge_list:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    def by_label(vertices):
        labels = tuple(sorted(label(v) for v in vertices))
        return labels, [{v for v in vertices if label(v) == pos_label}
                        for pos_label in labels]

    if len(edge_list) == 1:
        labels, domains = by_label(list(degree))
        return ("e",) + labels, domains
    center = max(degree, key=degree.get)
    leaves = [v for v in degree if v != center]
    if len(edge_list) == 2:
        labels, domains = by_label(leaves)
        return ("p3", label(center)) + labels, [{center}] + domains
    if len(degree) == 3:
        labels, domains = by_label(list(degree))
        return ("t", labels), domains
    if degree[center] == 3:
        labels, domains = by_label(leaves)
        return ("s3", label(center), labels), [{center}] + domains
    adjacency = {v: [] for v in degree}
    for u, v in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
    walk = [min(v for v, d in degree.items() if d == 1)]
    while len(walk) < 4:
        walk.append(next(w for w in adjacency[walk[-1]] if w not in walk))
    forward = tuple(label(v) for v in walk)
    if forward[::-1] < forward:
        walk, forward = walk[::-1], forward[::-1]
    domains = [{v} for v in walk]
    if forward == forward[::-1]:
        domains = [{v, w} for v, w in zip(walk, walk[::-1])]
    return ("p4", forward), domains


def _brute_force_connected_edge_subsets(graph, max_edges):
    """Reference: all connected edge subsets of size <= max_edges."""
    edges = list(graph.edges())
    count = 0
    for k in range(1, max_edges + 1):
        for subset in combinations(edges, k):
            touched = {}
            for u, v in subset:
                touched.setdefault(u, set()).add(v)
                touched.setdefault(v, set()).add(u)
            vertices = list(touched)
            seen = {vertices[0]}
            frontier = [vertices[0]]
            while frontier:
                x = frontier.pop()
                for y in touched[x]:
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == len(vertices):
                count += 1
    return count


def test_enumeration_counts_every_subset_once():
    graph = erdos_renyi(14, 28, seed=5)
    system = FractalLike(graph, num_machines=2)
    stats, _ = system._enumerate()
    total = sum(count for count, _ in stats.values())
    assert total == _brute_force_connected_edge_subsets(graph, 3)


def _with_self_loops(graph):
    """``graph`` plus a loop on every third vertex, from CSR arrays."""
    rows = [sorted(set(graph.neighbors(v).tolist())
                   | ({v} if v % 3 == 0 else set()))
            for v in range(graph.num_vertices)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return Graph(indptr, np.concatenate(rows).astype(np.int32),
                 graph.labels)


PAW = [(0, 1), (1, 2), (0, 2), (2, 3)]
#: name -> graph: unlabeled and labeled ER (two labels: equal-label
#: edges and palindromic 4-paths abound), a hub star, a labeled
#: palindrome, self-loops, the paw, one edge, no edge
DIFFERENTIAL = {
    "er": lambda: erdos_renyi(16, 34, seed=5),
    "er-dense": lambda: erdos_renyi(12, 40, seed=8),
    "er-2labels": lambda: random_labels(erdos_renyi(18, 40, seed=3), 2,
                                        seed=4),
    "er-4labels": lambda: random_labels(erdos_renyi(20, 45, seed=6), 4,
                                        seed=1),
    "hub-star": lambda: random_labels(star_graph(30), 2, seed=2),
    "palindromes": lambda: from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)],
        labels=[0, 1, 1, 0, 0, 1]),
    "self-loops": lambda: _with_self_loops(
        random_labels(erdos_renyi(14, 26, seed=9), 2, seed=3)),
    "paw": lambda: from_edges(PAW, labels=[0, 0, 1, 1]),
    "one-edge": lambda: from_edges([(0, 1)], labels=[1, 0]),
    "edgeless": lambda: from_edges([], num_vertices=4),
}


def _outcome(run):
    """``("ok", stats with domain sizes, runtime)`` or ``("timeout",
    value, type, budget, type)`` — types too, ``np.float64`` included."""
    try:
        stats, runtime = run()[:2]
    except SimTimeoutError as error:
        return ("timeout", error.simulated_seconds,
                type(error.simulated_seconds), error.budget_seconds,
                type(error.budget_seconds))
    return ("ok", {key: (count, tuple(len(d) if isinstance(d, set) else d
                                      for d in domains))
                   for key, (count, domains) in stats.items()},
            runtime, type(runtime))


def _check(graph, **options):
    reference = FractalLike(graph, num_machines=3, **options)
    system = FractalLike(graph, num_machines=3, **options)
    assert _outcome(system._enumerate) == _outcome(
        lambda: esu_reference(reference)), options


def _settings(graph):
    """Caps at 0, 1, every root boundary and one past it, mid-root and
    the total; budgets just under, at and over a record's seconds."""
    _, _, per_root = esu_reference(FractalLike(graph, num_machines=3))
    bounds = np.cumsum(per_root).tolist()
    caps = {0, 1, *bounds[:12], *(b + 1 for b in bounds[:12]),
            *(b - per_root[i] // 2 for i, b in enumerate(bounds[:12]))}
    if bounds:
        caps |= {bounds[-1] - 1, bounds[-1], bounds[-1] + 1}
    threads = 16 * FractalLike(graph).cost.thread_efficiency
    cost = _EXTEND_COST + _CANONICAL_COST
    seconds = [0.0, -1.0, 1e-12]
    for records in (1, 2, 3, max(per_root, default=1),
                    max(1, sum(per_root) // 5)):
        fold = float(np.cumsum(np.full(records, cost))[-1] / threads)
        seconds += [np.nextafter(fold, -1), fold, np.nextafter(fold, 1)]
    return sorted(caps), seconds


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_array_passes_equal_the_esu_walk(name):
    graph = DIFFERENTIAL[name]()
    _check(graph)
    caps, budgets = _settings(graph)
    for cap in caps:
        _check(graph, max_subgraphs=cap)
    for budget in budgets:
        _check(graph, time_budget=budget)
        # the cap and the budget racing: the cap wins a tie
        for cap in caps[::3]:
            _check(graph, time_budget=budget, max_subgraphs=cap)


def test_hub_star_cap_allocates_no_subset_rows():
    """A hub's first edge roots C(d - 1, 2) triples: the cap fires on
    it from degrees alone, with memory of a few arrays per edge."""
    leaves = 3000
    graph = star_graph(leaves)
    subsets = leaves + leaves * (leaves - 1) // 2 + math.comb(leaves, 3)
    system = FractalLike(graph, max_subgraphs=1000)
    tracemalloc.start()
    try:
        with pytest.raises(SimTimeoutError):
            system._enumerate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * graph.num_directed_edges < subsets / 1000


@pytest.mark.parametrize(
    "pattern",
    [chain(2), chain(3), clique(3), star(3), chain(4)],
    ids=["edge", "wedge", "triangle", "star3", "path4"],
)
def test_fractal_counts_match_brute_force(
    pattern, small_random_graph, brute_force
):
    expected = brute_force(small_random_graph, pattern)
    system = FractalLike(small_random_graph, num_machines=2)
    assert system.count_pattern(pattern).counts == expected


def test_labeled_counts():
    g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], labels=[0, 0, 1, 1])
    system = FractalLike(g)
    tri = Pattern(3, [(0, 1), (0, 2), (1, 2)], (0, 0, 1))
    assert system.count_pattern(tri).counts == 1
    edge_01 = Pattern(2, [(0, 1)], (0, 1))
    assert system.count_pattern(edge_01).counts == 2  # (1,2) and (0,2)
    edge_11 = Pattern(2, [(0, 1)], (1, 1))
    assert system.count_pattern(edge_11).counts == 1  # (2,3)
    edge_00 = Pattern(2, [(0, 1)], (0, 0))
    assert system.count_pattern(edge_00).counts == 1  # (0,1)


def test_induced_census_rejected():
    """Fractal counts non-induced embeddings only: an induced census
    (``count_patterns``' default) is refused, not answered
    non-induced (the paw has 5 wedges, 2 of them induced)."""
    system = FractalLike(from_edges(PAW))
    with pytest.raises(ConfigurationError):
        system.count_patterns([chain(3)])
    assert system.count_patterns([chain(3)], induced=False).counts == [5]
    assert SingleMachine(from_edges(PAW)).count_patterns(
        [chain(3)]).counts == [2]


def test_large_patterns_rejected(small_random_graph):
    system = FractalLike(small_random_graph)
    with pytest.raises(ConfigurationError):
        system.mni_supports([chain(5)])  # 4 edges > 3
    with pytest.raises(ConfigurationError):
        system.count_pattern(clique(4))  # 6 edges > 3
    with pytest.raises(ConfigurationError):
        system.count_pattern(clique(3), induced=True)


def test_fsm_agrees_with_pattern_aware(labeled_graph):
    aware = run_fsm(SingleMachine(labeled_graph), threshold=6)
    oblivious = FractalLike(labeled_graph).all_frequent(6)
    aware_set = {(canonical_code(p), s) for p, s in aware.frequent}
    oblivious_set = {(canonical_code(p), s) for p, s in oblivious}
    assert aware_set == oblivious_set


def test_mni_supports_interface(labeled_graph):
    patterns = [Pattern(2, [(0, 1)], (0, 0)), Pattern(2, [(0, 1)], (0, 1))]
    fractal_supports, _ = FractalLike(labeled_graph).mni_supports(patterns)
    aware_supports, _ = SingleMachine(labeled_graph).mni_supports(patterns)
    assert fractal_supports == aware_supports


def test_timeout_on_subgraph_explosion():
    graph = erdos_renyi(80, 900, seed=9)
    system = FractalLike(graph, max_subgraphs=1000)
    with pytest.raises(SimTimeoutError):
        system.count_pattern(clique(3))


def test_time_budget_timeout():
    graph = erdos_renyi(60, 500, seed=9)
    system = FractalLike(graph, time_budget=1e-12)
    with pytest.raises(SimTimeoutError):
        system.count_pattern(clique(3))


def test_enumeration_cached():
    graph = erdos_renyi(20, 40, seed=1)
    system = FractalLike(graph)
    first = system._enumerate()
    assert system._enumerate() is first


def test_fsm_report(labeled_graph):
    system = FractalLike(labeled_graph)
    report = system.fsm_report(threshold=6)
    assert report.simulated_seconds > 0
    assert report.counts == len(system.all_frequent(6))


def test_oblivious_slower_than_pattern_aware_per_pattern(labeled_graph):
    """The pattern-oblivious tax: Fractal pays for every subgraph."""
    fractal = FractalLike(labeled_graph)
    aware = SingleMachine(labeled_graph)
    pattern = Pattern(2, [(0, 1)], (0, 1))
    assert (
        fractal.count_pattern(pattern).simulated_seconds
        > aware.count_pattern(pattern).simulated_seconds
    )
