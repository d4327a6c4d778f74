"""Fractal-like pattern-oblivious distributed GPM (paper Table 4).

Fractal (and Arabesque before it) enumerate *all* connected subgraphs
up to the target size and classify each one — isomorphism checks
included — instead of enumerating per pattern. This model does that for
subgraphs with up to three edges (the paper's FSM setting): ESU on the
line graph yields each connected edge subset once, from its lowest edge
id, and every subset pays an extension plus a canonicalization cost on
that edge's owner. A machine's clock, and the record where the
``max_subgraphs`` cap or the time budget fires, follow from how many
subsets each root yields (:func:`_root_subsets`). Only when neither
fires are the subsets listed, in array passes over the CSR, and
classified into labeled shape keys, from which counts and MNI domains
(FSM supports) fall out.

The execution model is Fractal's: replicated graph across machines,
coarse per-machine parallelism. The pattern-oblivious cost per subgraph
is why it loses to every pattern-aware system, and the hub-vertex
subset explosion is why it times out on LiveJournal (Table 4).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError, OutOfMemoryError, SimTimeoutError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.patterns.canonical import canonical_code
from repro.patterns.pattern import Pattern
from repro.systems.base import GPMSystem

#: Per-subgraph isomorphism/canonicalization cost (the pattern-oblivious
#: tax the paper's Section 1 attributes to Arabesque-style systems).
_CANONICAL_COST = 2.0e-7
#: Per-subgraph extension bookkeeping cost.
_EXTEND_COST = 5.0e-8

#: Fractal's refusal of an induced or an oriented count
_NON_INDUCED = "fractal baseline counts non-induced, unoriented patterns"

#: shape -> (its pattern's edges, its key from the label digits)
_SHAPES = {
    "e": ([(0, 1)], lambda d: ("e", *d)),
    "p3": ([(0, 1), (0, 2)], lambda d: ("p3", *d)),
    "t": ([(0, 1), (0, 2), (1, 2)], lambda d: ("t", tuple(d))),
    "s3": ([(0, 1), (0, 2), (0, 3)], lambda d: ("s3", d[0], tuple(d[1:]))),
    "p4": ([(0, 1), (1, 2), (2, 3)], lambda d: ("p4", tuple(d))),
}


def _pattern_for_key(key: tuple) -> Pattern:
    """Reconstruct the labeled pattern a shape key denotes."""
    labels = [label for part in key[1:]
              for label in (part if isinstance(part, tuple) else (part,))]
    return Pattern(len(labels), _SHAPES[key[0]][0], tuple(labels))


def _spans(starts: np.ndarray, ends: np.ndarray):
    """``(i, p)`` for each ``p`` in ``range(starts[i], ends[i])``."""
    lengths = ends - starts
    index = np.repeat(np.arange(len(starts)), lengths)
    offsets = starts - np.cumsum(lengths) + lengths
    return index, np.arange(len(index)) + offsets[index]


class _Incidence:
    """The CSR, self-loops dropped, as incidence lists: a row, in order,
    holds its vertex's edges by ascending id (ids in ``Graph.edges()``
    order); ``eid[p]`` is entry ``p``'s edge."""

    def __init__(self, graph: Graph):
        n = self.n = graph.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        keep = src != graph.indices
        self.src, self.dst = src[keep], graph.indices[keep].astype(np.int64)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.src, minlength=n))])
        self.row_end = self.indptr[self.src + 1]
        self.keys = self.src * n + self.dst
        # an edge's entries in its lower and its higher end's row
        self.pu = np.flatnonzero(self.src < self.dst)
        self.pv = self.adjacent(self.dst[self.pu], self.src[self.pu])
        self.m = len(self.pu)
        self.eid = np.empty(len(self.src), dtype=np.int64)
        self.eid[self.pu] = self.eid[self.pv] = np.arange(self.m)
        # higher-id edges touching each edge (the rest of both its rows),
        # and the subsets it roots but its exclusive triples
        higher = (self.row_end[self.pu] - self.pu
                  + self.row_end[self.pv] - self.pv - 2)
        self.least = 1 + higher * (higher + 1) // 2

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Entry of each ``(u, v)``, ``-1`` where there is no edge."""
        query = u * self.n + v
        pos = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        return np.where(self.keys[pos] == query, pos, -1)


def _root_subsets(inc: _Incidence, roots: int) -> np.ndarray:
    """Subsets ESU yields from each of the first ``roots`` edge ids.

    With ``N`` the higher-id edges touching root ``e = (s, t)``, that is
    ``e``, ``N`` pairs, ``C(N, 2)`` triples of ``e`` and two of them,
    and for each of them, ``f = (s, w)``, the triples of ``e``, ``f``
    and an edge above ``e`` at ``w`` other than ``f`` and a triangle's
    ``(w, t)``."""
    starts = np.concatenate([inc.pu[:roots], inc.pv[:roots]])
    index, f = _spans(starts + 1, inc.row_end[starts])
    root, t, w = index % max(roots, 1), inc.dst[starts[index]], inc.dst[f]
    above = inc.indptr[w + 1] - np.searchsorted(
        inc.src * inc.m + inc.eid, w * inc.m + root, side="right")
    closing = inc.adjacent(w, t)
    closed = (closing >= 0) & (inc.eid[closing] > root)
    exclusive = np.bincount(root, weights=above - 1 - closed, minlength=roots)
    return inc.least[:roots] + exclusive.astype(np.int64)


def _shape_stats(graph: Graph, inc: _Incidence) -> dict:
    """Every connected <= 3-edge subset by shape key: ``{key: (count,
    domain size per position)}``, from one ``np.unique`` over packed
    label digits and one over packed (key, position, vertex)."""
    n = graph.num_vertices
    labels = (np.zeros(n, dtype=np.int64) if graph.labels is None
              else graph.labels.astype(np.int64))
    low = int(labels.min(initial=0))
    radix = int(labels.max(initial=0)) - low + 1
    stats: dict = {}

    def add(shape, digits, domains):
        """``digits``: a label column per position; ``domains``:
        ``(position, rows, vertices)`` triples."""
        width = len(digits)
        keys, inverse, counts = np.unique(
            np.ravel_multi_index([d - low for d in digits], (radix,) * width),
            return_inverse=True, return_counts=True)
        entries = np.unique(np.concatenate([
            (inverse[rows] * width + position) * n + vertices
            for position, rows, vertices in domains]))
        sizes = np.bincount(entries // n, minlength=len(keys) * width)
        digits = np.stack(np.unravel_index(keys, (radix,) * width), 1) + low
        for digit, count, size in zip(digits.tolist(), counts.tolist(),
                                      sizes.reshape(-1, width).tolist()):
            stats[_SHAPES[shape][1](digit)] = (count, tuple(size))

    def by_label(shape, *groups):
        """A group's vertices are interchangeable: its labels sorted,
        each vertex in every position of the group its label matches."""
        digits, domains = [], []
        for group in groups:
            ends = np.sort([labels[v] for v in group], axis=0)
            for vertex in group:
                for position, label in enumerate(ends, len(digits)):
                    match = label == labels[vertex]
                    domains.append((position, np.flatnonzero(match),
                                    vertex[match]))
            digits += list(ends)
        add(shape, digits, domains)

    src, dst = inc.src, inc.dst
    by_label("e", [src[inc.pu], dst[inc.pu]])
    p, q = _spans(np.arange(len(src)) + 1, inc.row_end)  # pairs in a row
    center, x, y = src[p], dst[p], dst[q]
    by_label("p3", [center], [x, y])
    tri = (center < x) & (inc.adjacent(x, y) >= 0)  # at its least vertex
    by_label("t", [center[tri], x[tri], y[tri]])
    pair, r = _spans(q + 1, inc.row_end[q])  # triples in a row
    by_label("s3", [center[pair]], [x[pair], y[pair], dst[r]])
    # 4-paths x - a - b - y: a wedge x - a - b with a < b, one more edge
    # at b (each middle edge (a, b) taken from its lower end)
    middle, near = np.concatenate([q, p]), np.concatenate([x, y])
    keep = src[middle] < dst[middle]
    middle, near = middle[keep], near[keep]
    side, far = _spans(inc.indptr[dst[middle]], inc.indptr[dst[middle] + 1])
    middle, near, y = middle[side], near[side], dst[far]
    keep = (y != src[middle]) & (y != near)
    walk = [near[keep], src[middle[keep]], dst[middle[keep]], y[keep]]
    # oriented so the labels read no later backward than forward; a
    # palindrome's vertex holds both its positions
    lab = [labels[v] for v in walk]
    flip = (lab[3] < lab[0]) | ((lab[3] == lab[0]) & (lab[2] < lab[1]))
    mirror = (lab[3] == lab[0]) & (lab[2] == lab[1])
    walk = [np.where(flip, walk[3 - i], walk[i]) for i in range(4)]
    rows = np.arange(len(walk[0]))
    add("p4", [labels[v] for v in walk],
        [(i, rows, v) for i, v in enumerate(walk)]
        + [(3 - i, rows[mirror], v[mirror]) for i, v in enumerate(walk)])
    return stats


class FractalLike(GPMSystem):
    """Pattern-oblivious enumerate-then-classify system (<= 3 edges)."""

    name = "fractal"

    def __init__(
        self,
        graph: Graph,
        num_machines: int = 8,
        cores: int = 16,
        memory_bytes: int = 64 << 20,
        cost: CostModel = DEFAULT_COST_MODEL,
        time_budget: Optional[float] = None,
        max_subgraphs: int = 2_000_000,
        graph_name: str = "graph",
    ):
        if graph.size_bytes() > memory_bytes:  # replicated graph
            raise OutOfMemoryError(0, graph.size_bytes(), memory_bytes)
        if graph.directed:
            raise ConfigurationError(
                "fractal baseline enumerates undirected graphs")
        self.graph = graph
        self.num_machines = num_machines
        self.cores = cores
        self.memory_bytes = memory_bytes
        self.cost = cost
        self.time_budget = time_budget
        self.max_subgraphs = max_subgraphs
        self.graph_name = graph_name
        self.partitioner = HashPartitioner(num_machines)
        self._result: Optional[tuple[dict, float]] = None
        self._codes: Optional[dict[tuple, tuple[int, int]]] = None
        self._plain: Optional[FractalLike] = None

    def _enumerate(self) -> tuple[dict[tuple, tuple], float]:
        """All connected <= 3-edge subgraphs; returns (stats, runtime)
        with ``stats[key] = (count, domain size per position)``."""
        if self._result is not None:
            return self._result
        inc = _Incidence(self.graph)
        threads = max(1, self.cores) * self.cost.thread_efficiency
        cap, budget = self.max_subgraphs, self.time_budget
        # the roots up to the first whose lower bound passes the cap:
        # it fires by then
        bound = np.cumsum(inc.least)
        roots = min(int(np.searchsorted(bound, cap + 1)) + 1, inc.m)
        subsets = _root_subsets(inc, roots)
        done = np.cumsum(subsets)  # records after each root
        owner = self.partitioner.owners(np.arange(roots))
        after = np.zeros(roots, dtype=np.int64)  # its owner's, after it
        for machine in range(self.num_machines):
            after[owner == machine] = np.cumsum(subsets[owner == machine])
        # a machine's seconds after k records: one sequential fold
        depth = min(int(after.max(initial=0)), cap + 1)
        fold = np.zeros(depth + 1)
        np.cumsum(np.full(depth, _EXTEND_COST + _CANONICAL_COST),
                  out=fold[1:])
        capped = roots > 0 and done[-1] > cap
        over = (np.flatnonzero(fold / threads > budget)
                if budget is not None else ())
        if len(over):  # the record where a machine first passes it
            first = max(1, int(over[0]))
            reached = np.flatnonzero(after >= first)
            if len(reached) and (not capped or done[reached[0]]
                                 - after[reached[0]] + first <= cap):
                raise SimTimeoutError(fold[first] / threads, budget)
        if capped:  # record cap + 1, on the deepest machine then
            root = int(np.searchsorted(done, cap + 1))
            deepest = max(int(after[:root].max(initial=0)),
                          int(after[root] - done[root] + cap + 1))
            raise SimTimeoutError(float(fold[deepest] / threads),
                                  budget or 0.0)
        runtime = float(fold[depth]) / threads
        runtime += (self.cost.graphpi_startup
                    + self.cost.graphpi_startup_per_node * self.num_machines)
        self._result = (_shape_stats(self.graph, inc), runtime)
        return self._result

    # ------------------------------------------------------------------
    # GPMSystem interface. Fractal is pattern-oblivious: it keeps all
    # three queries, each a lookup in the one classified enumeration
    # ------------------------------------------------------------------
    def count_pattern(
        self,
        pattern: Pattern,
        induced: bool = False,
        oriented: bool = False,
        app: str = "pattern",
    ) -> RunReport:
        if oriented:
            raise ConfigurationError(_NON_INDUCED)
        report = self.count_patterns([pattern], induced, app)
        report.counts = report.counts[0]
        return report

    def count_patterns(
        self,
        patterns: Sequence[Pattern],
        induced: bool = True,
        app: str = "patterns",
    ) -> RunReport:
        if induced:
            raise ConfigurationError(_NON_INDUCED)
        found, runtime = self._lookup(
            patterns, [p.labels is not None for p in patterns])
        return self._report(app, [count for count, _ in found], runtime)

    def mni_supports(
        self, patterns: Sequence[Pattern]
    ) -> tuple[list[int], RunReport]:
        found, runtime = self._lookup(patterns, [True] * len(patterns))
        if self.graph.labels is not None and any(
                p.labels is None for p in patterns):
            # an unlabeled pattern matches across labels, and its
            # labelings' domains do not add up: it is read off the
            # label-free view (the same subsets, so the same runtime)
            if self._plain is None:
                graph = self.graph
                self._plain = FractalLike(
                    Graph(graph.indptr, graph.indices, None, graph.directed,
                          graph.edge_labels),
                    self.num_machines, self.cores, self.memory_bytes,
                    self.cost, self.time_budget, self.max_subgraphs,
                    self.graph_name)
            plain, _ = self._plain._lookup(patterns, [True] * len(patterns))
            found = [entry if p.labels is not None else free
                     for p, entry, free in zip(patterns, found, plain)]
        return [support for _, support in found], self._report(
            "fsm-round", [count for count, _ in found], runtime)

    def _lookup(self, patterns, labeled) -> tuple[list, float]:
        """Each pattern's ``(count, MNI support)``, and the runtime.

        The shape keys are indexed once by canonical code: ``(True,
        code)`` holds a labeled pattern's count and support, ``(False,
        code)`` an unlabeled pattern's count over every labeling
        (support 0: the labelings' domains do not add up). ``labeled``
        says, per pattern, which of the two to read.
        """
        if any(p.num_edges > 3 for p in patterns):
            raise ConfigurationError(
                "fractal baseline enumerates subgraphs with <= 3 edges"
            )
        stats, runtime = self._enumerate()
        if self._codes is None:
            self._codes = {}
            for key, (count, sizes) in stats.items():
                pattern = _pattern_for_key(key)
                for entry, support in (
                        ((True, canonical_code(pattern)), min(sizes)),
                        ((False, canonical_code(pattern.unlabeled())), 0)):
                    total = self._codes.get(entry, (0, 0))[0] + count
                    self._codes[entry] = (total, support)
        return [self._codes.get((flag, canonical_code(p)), (0, 0))
                for p, flag in zip(patterns, labeled)], runtime

    def all_frequent(self, threshold: int) -> list[tuple[Pattern, int]]:
        """All labeled <= 3-edge patterns with MNI support >= threshold.

        This is Fractal's natural FSM output: the oblivious enumeration
        already touched every subgraph, so frequent patterns are a
        single filter over the classified shapes.
        """
        stats, _ = self._enumerate()
        return [(_pattern_for_key(key), min(sizes))
                for key, (_, sizes) in stats.items()
                if min(sizes) >= threshold]

    def fsm_report(self, threshold: int) -> RunReport:
        """FSM runtime report (enumeration dominates; filter is free)."""
        return self._report(f"FSM(t={threshold})",
                            len(self.all_frequent(threshold)),
                            self._enumerate()[1])

    def _report(self, app: str, counts, runtime: float) -> RunReport:
        return RunReport(
            system=self.name,
            app=app,
            graph_name=self.graph_name,
            counts=counts,
            simulated_seconds=runtime,
            network_bytes=0,
            breakdown={"compute": runtime},
            num_machines=self.num_machines,
            peak_memory_bytes=self.graph.size_bytes(),
        )
