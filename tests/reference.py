"""Row-by-row references the chunk kernels and the baselines' walk are
held to.

Nothing under ``src/`` calls these. They are the per-embedding path:
:func:`compute_candidates` extends one embedding by one level with
``np.intersect1d`` / ``np.setdiff1d``, :func:`iep_count` evaluates one
prefix's counting plan, :class:`ScheduleExtender` adds the
schedule-walking members and ``extend_level`` to the engine's extender,
and :class:`RecursiveExplorer` explores one root's embedding tree depth
first with per-child hooks. ``repro.core.kernels.extend_chunk`` /
``iep_chunk`` must equal them row for row (``tests/test_kernels.py``,
``tests/test_word_kernels.py``, ``tests/test_iep.py``), and the
baselines' level-synchronous walk (``repro.baselines.common.walk``)
must tally what the recursion does (``tests/test_explore.py``).
:func:`count_window` is the composite-key body of a one-list count
the rank directory replaced, and :func:`count_embeddings_unpruned` the
brute-force counter before it took its candidates from a placed
neighbor's list. :func:`intersect_sorted` / :func:`setdiff_sorted` are
the pairwise sorted-set kernels the chunk kernels' stage loop replaced.
:func:`erdos_renyi_pairwise`, :func:`power_law_graph_pairwise` and
:func:`power_law_edge_batches_choice` are the synthetic generators as
they were before ``repro.graph.generators`` drew endpoints from a guide
table and deduplicated edges in array passes: ``rng.choice(p=...)`` and
a per-pair ``set`` loop (``tests/test_generators.py``).
:func:`from_edge_array_eager` is the eager edge normalization (mirror,
``np.unique``, ``lexsort``) that ``repro.graph.builder.from_edge_array``
had before it became a one-batch call of the streaming builder; every
builder must equal it bit for bit (``tests/test_storage.py``).
:class:`SetDomainCollector` is the MNI collector before its domains
became vertex masks.
:func:`reorder_by_degree` / :func:`apply_order` / :func:`restore_ids`
(degree renumbering) and :func:`orientation_rank` are graph transforms
only tests use (``tests/test_reorder_stats.py``,
``tests/test_orientation.py``), and :func:`degree_stats`,
:func:`hot_vertices` and :func:`traffic_concentration` the degree-skew
statistics those tests hold the analogues to. :func:`num_levels`,
:func:`speedup_over`, :func:`hit_rate` and :func:`socket_vertices` are
the accessors of ``Schedule``, ``RunReport``, ``EdgeCache`` and
``PartitionedGraph`` that only tests read, and
:func:`exposed_network_time`, :func:`satisfies_restrictions`,
:func:`canonical_form` and :func:`iter_graph_edge_batches` (a graph's
edges as builder batches) helpers only tests call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core import extend, kernels
from repro.core.pipeline import pipeline_time
from repro.core.workspace import Workspace
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph
from repro.patterns.canonical import canonical_code
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.schedule import CountingPlan, ExtensionStep

_EMPTY = np.empty(0, dtype=np.int32)


@dataclass
class ExtendResult:
    """Outcome of extending one embedding by one level.

    ``candidates`` are the data vertices that complete the step after
    every filter; ``raw`` is the unfiltered intersection kept when the
    schedule marks the step ``store_intermediate`` (vertical computation
    sharing); ``merge_elements`` counts the elements streamed through
    set operations (the engine's computation cost unit);
    ``scanned`` counts candidate-array elements passed through filters.
    """

    candidates: np.ndarray
    raw: Optional[np.ndarray]
    merge_elements: int
    scanned: int


def compute_candidates(
    graph: Graph,
    step: ExtensionStep,
    vertices: tuple[int, ...],
    intermediate: Optional[np.ndarray],
    vcs: bool,
) -> ExtendResult:
    """Candidates for matching-order position ``step.level``.

    Parameters
    ----------
    graph:
        The input graph (neighbor lists are sorted/unique CSR slices).
    step:
        The schedule step being executed.
    vertices:
        Data vertices already placed at positions ``0..step.level-1``.
    intermediate:
        The ancestor's stored raw intersection for ``step.reuse_level``
        (``None`` when unavailable).
    vcs:
        Whether vertical computation sharing is enabled; when off the
        full intersection is recomputed from the edge lists.
    """
    merge_elements = 0
    use_reuse = vcs and step.reuse_level is not None and intermediate is not None
    if use_reuse:
        base = intermediate
        remaining = step.extra_connected
    else:
        base = graph.neighbors(vertices[step.connected[0]])
        remaining = step.connected[1:]
    for position in remaining:
        other = graph.neighbors(vertices[position])
        merge_elements += len(base) + len(other)
        base = np.intersect1d(base, other, assume_unique=True)

    raw = base if step.store_intermediate else None
    candidates = base
    scanned = len(candidates)

    for position in step.disconnected:
        other = graph.neighbors(vertices[position])
        merge_elements += len(candidates) + len(other)
        candidates = np.setdiff1d(candidates, other, assume_unique=True)

    if len(candidates):
        # distinct-vertex constraint: drop already-used data vertices.
        # Patterns have at most a handful of vertices, so a few !=
        # passes beat np.isin's hash/sort machinery
        mask = candidates != vertices[0]
        for used in vertices[1:]:
            mask &= candidates != used
        candidates = candidates[mask]
    if step.larger_than and len(candidates):
        bound = max(vertices[j] for j in step.larger_than)
        candidates = candidates[candidates > bound]
    if step.smaller_than and len(candidates):
        bound = min(vertices[j] for j in step.smaller_than)
        candidates = candidates[candidates < bound]
    if step.label is not None and graph.labels is not None and len(candidates):
        candidates = candidates[graph.labels[candidates] == step.label]
    if step.edge_labels is not None and len(candidates):
        candidates = _filter_edge_labels(graph, step, vertices, candidates)

    return ExtendResult(
        candidates=candidates if len(candidates) else _EMPTY,
        raw=raw,
        merge_elements=merge_elements,
        scanned=scanned,
    )


# ---------------------------------------------------------------------
# pairwise sorted-set kernels
# ---------------------------------------------------------------------
def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique 1-D arrays.

    Equivalent to ``np.intersect1d(a, b, assume_unique=True)`` but
    honors the sortedness for real: the smaller array is binary-probed
    into the larger one (``O(min log max)``), no concatenate-and-sort.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) > len(b):
        a, b = b, a
    if not len(a) or not len(b):
        return a[:0]
    pos = np.searchsorted(b, a)
    # pos == len(b) means a-value > b[-1]; clamping to the last slot is
    # safe because that value cannot equal b[-1] either (side='left')
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] == a]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted unique ``a`` not present in sorted unique ``b``.

    Equivalent to ``np.setdiff1d(a, b, assume_unique=True)`` without
    the internal hash/sort machinery — one binary probe of ``a`` into
    ``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not len(a) or not len(b):
        return a
    pos = np.searchsorted(b, a)
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] != a]



def _filter_edge_labels(
    graph: Graph,
    step: ExtensionStep,
    vertices: tuple[int, ...],
    candidates: np.ndarray,
) -> np.ndarray:
    """Keep candidates whose connecting edges carry the required labels.

    For each connected position ``j`` the pattern demands label
    ``step.edge_labels[k]`` on the edge ``(v_j, candidate)``. Candidates
    are a subset of ``N(v_j)``, so their labels are found by binary
    search into the CSR slice.
    """
    assert step.edge_labels is not None
    if graph.edge_labels is None:
        # same branch as the batched kernel (kernels.extend_chunk): an
        # unlabeled graph satisfies exactly the all-zero requirement,
        # regardless of which per-source label slices exist
        if any(required != 0 for required in step.edge_labels):
            return candidates[:0]
        return candidates
    for position, required in zip(step.connected, step.edge_labels):
        if not len(candidates):
            break
        source = vertices[position]
        nbrs = graph.neighbors(source)
        label_slice = graph.edge_label_slice(source)
        if label_slice is None:
            if required != 0:
                return candidates[:0]
            continue
        offsets = np.searchsorted(nbrs, candidates)
        candidates = candidates[label_slice[offsets] == required]
    return candidates


def _is_neighbor(graph: Graph, source: int, candidate: int) -> bool:
    """Sorted-CSR membership probe (scalar analogue of the bulk
    :func:`~repro.core.kernels.adjacency_member`)."""
    nbrs = graph.neighbors(source)
    pos = int(np.searchsorted(nbrs, candidate))
    return pos < len(nbrs) and int(nbrs[pos]) == candidate


def iep_count(
    graph: Graph, plan: CountingPlan, vertices: tuple[int, ...]
) -> tuple[int, int, int]:
    """Row-by-row reference for the IEP terminal kernel.

    Evaluates one prefix embedding's counting plan: returns
    ``(count, merge_elements, scanned)``, element-identical to the
    embedding's row of :func:`repro.core.kernels.iep_chunk` — the same
    sequential intersection from each signature's first column (no
    probe-direction flip) and the same ``running + degree`` merge
    charge per stage. The engine never calls it; ``tests/test_iep.py``
    holds the kernel to it.
    """
    prefix_size = len(vertices)
    merge_elements = 0
    scanned = 0
    cards: dict[tuple[int, ...], int] = {}
    for signature in plan.signatures:
        if len(signature) == 1:
            card = int(graph.degree(vertices[signature[0]]))
        else:
            base = graph.neighbors(vertices[signature[0]])
            for column in signature[1:]:
                other = graph.neighbors(vertices[column])
                merge_elements += len(base) + len(other)
                base = np.intersect1d(base, other, assume_unique=True)
            card = len(base)
            scanned += card
        for column in range(prefix_size):
            if all(
                _is_neighbor(graph, vertices[source], vertices[column])
                for source in signature
            ):
                card -= 1
        cards[signature] = card
    count = 0
    for term in plan.terms:
        value = term.coefficient
        for block in term.blocks:
            value *= cards[block]
        count += value
    return count, merge_elements, scanned


def count_window(
    graph: Graph, step: ExtensionStep, prefixes: np.ndarray
) -> np.ndarray:
    """Per-row counts of a label-free step that reads one neighbor list,
    as ``repro.core.kernels`` answered them before
    :meth:`Graph.word_ranks`: the list's two CSR ends, each bound moving
    one by a binary search of ``source * |V| + bound`` in the composite
    keys (:meth:`Graph.adjacency_keys`), less the row's own vertices
    inside the window — every ``(source, column)`` pair probed, none
    taken from the plan."""
    prefixes = np.asarray(prefixes, dtype=np.int64)
    source = prefixes[:, step.connected[0]]
    ends = [graph.indptr[source], graph.indptr[source + 1]]
    window = kernels._window(step, prefixes)
    for compare, bound in window:
        above = compare is np.greater
        ends[not above] = graph.adjacency_keys().searchsorted(
            source * graph.num_vertices + bound, "right" if above else "left")
    counts = np.maximum(ends[1] - ends[0], 0)
    own = kernels._own_columns(graph, step.level, step.connected,
                               step.larger_than + step.smaller_than)
    if own:
        counts -= kernels._inside(graph, prefixes, own, step.connected, (),
                                  window, {}, Workspace())
    return counts


def count_embeddings_unpruned(
    graph: Graph, pattern: Pattern, induced: bool = False
) -> int:
    """``repro.analysis.count_embeddings_brute_force`` as it was before
    it drew a position's candidates from a placed pattern neighbor's
    list: every vertex tried at every position, each through the same
    label, edge, non-edge and edge-label checks."""
    n = pattern.num_vertices
    assignment: list[int] = []
    used: set[int] = set()

    def consistent(candidate: int, position: int) -> bool:
        if pattern.labels is not None and (
                graph.label(candidate) != pattern.label(position)):
            return False
        for prior in range(position):
            has_pattern_edge = pattern.has_edge(prior, position)
            has_graph_edge = graph.has_edge(assignment[prior], candidate)
            if has_pattern_edge and not has_graph_edge:
                return False
            if induced and not has_pattern_edge and has_graph_edge:
                return False
            if has_pattern_edge and pattern.edge_label(prior, position) != (
                    graph.edge_label(assignment[prior], candidate)):
                return False
        return True

    def search(position: int) -> int:
        if position == n:
            return 1
        total = 0
        for candidate in graph.vertices():
            if candidate in used or not consistent(candidate, position):
                continue
            assignment.append(candidate)
            used.add(candidate)
            total += search(position + 1)
            assignment.pop()
            used.discard(candidate)
        return total

    return search(0) // len(automorphisms(pattern))


class ScheduleExtender(extend.ScheduleExtender):
    """The engine's extender plus the per-embedding path: the schedule
    it walks, ``step_for(level)`` — the branch the paper's EXTEND
    pseudo-code switches on — and :meth:`extend_level`, which runs it on
    one embedding."""

    def __init__(self, schedule, vcs=True, metrics=None, workspace=None):
        super().__init__(vcs=vcs, metrics=metrics, workspace=workspace)
        self.schedule = schedule

    @property
    def num_levels(self) -> int:
        return num_levels(self.schedule)

    @property
    def final_level(self) -> int:
        """Matching-order position of the last vertex."""
        return self.schedule.pattern.num_vertices - 1

    def step_for(self, level: int) -> ExtensionStep:
        """The step that places position ``level`` (1-based levels)."""
        return self.schedule.steps[level - 1]

    def needs_edge_list(self, position: int) -> bool:
        return self.schedule.needs_edge_list(position)

    def extend_level(
        self,
        graph: Graph,
        vertices: tuple[int, ...],
        level: int,
        intermediate_lookup: Callable[[int], Optional[np.ndarray]],
    ) -> ExtendResult:
        """Run the extension placing position ``level``."""
        step = self.step_for(level)
        intermediate = None
        if self.vcs and step.reuse_level is not None:
            intermediate = intermediate_lookup(step.reuse_level)
        result = compute_candidates(graph, step, vertices, intermediate,
                                    self.vcs)
        self._m_calls.inc()
        self._m_merge.inc(result.merge_elements)
        self._m_candidates.inc(len(result.candidates))
        return result


@dataclass
class ExploreStats:
    """Work performed while exploring one (or more) embedding trees."""

    matches: int = 0
    merge_elements: int = 0
    scanned: int = 0
    created: int = 0
    #: number of embeddings alive per level at the widest point; used by
    #: BFS-materializing baselines (Pangolin) for memory estimates
    level_widths: dict[int, int] = field(default_factory=dict)

    def compute_seconds(self, cost) -> float:
        """Pure enumeration compute time under a cost model."""
        return (
            self.merge_elements * cost.intersect_per_element
            + self.scanned * cost.emit_per_candidate
            + self.created * cost.embedding_create
        )


class RecursiveExplorer:
    """Depth-first whole-tree exploration from a root vertex."""

    def __init__(
        self,
        graph: Graph,
        extender: ScheduleExtender,
        on_child: Optional[Callable] = None,
        on_match: Optional[Callable] = None,
        on_child_state: Optional[Callable] = None,
    ):
        self.graph = graph
        self.extender = extender
        self.on_child = on_child
        self.on_match = on_match
        self.on_child_state = on_child_state
        self._intermediates: list[Optional[np.ndarray]] = [None] * (
            extender.final_level + 1
        )

    def explore_root(
        self, root: int, stats: ExploreStats, state: object = None
    ) -> None:
        """Explore the entire embedding tree rooted at ``root``."""
        if self.extender.final_level == 0:
            stats.matches += 1
            return
        self._descend((int(root),), 1, stats, state)

    # ------------------------------------------------------------------
    def _descend(
        self,
        vertices: tuple[int, ...],
        level: int,
        stats: ExploreStats,
        state: object,
    ) -> None:
        result = self.extender.extend_level(
            self.graph, vertices, level, self._lookup_intermediate
        )
        stats.merge_elements += result.merge_elements
        stats.scanned += result.scanned
        width = len(result.candidates)
        stats.level_widths[level] = stats.level_widths.get(level, 0) + width
        if level == self.extender.final_level:
            stats.matches += width
            if self.on_match is not None and width:
                self.on_match(vertices, result.candidates)
            return
        needs_fetch = self.extender.needs_edge_list(level)
        previous = self._intermediates[level]
        self._intermediates[level] = result.raw if self.extender.vcs else None
        for v in result.candidates:
            stats.created += 1
            child_state = state
            if self.on_child is not None:
                self.on_child(level, int(v), needs_fetch)
            if self.on_child_state is not None:
                child_state = self.on_child_state(
                    level, int(v), needs_fetch, vertices, state
                )
            self._descend(vertices + (int(v),), level + 1, stats, child_state)
        self._intermediates[level] = previous

    def _lookup_intermediate(self, level: int) -> Optional[np.ndarray]:
        return self._intermediates[level]


# ---------------------------------------------------------------------
# synthetic graphs, one pair at a time
# ---------------------------------------------------------------------
class SetDomainCollector:
    """MNI domains as per-position ``set``s of Python ints, one call per
    row with matches: ``repro.systems.base.MniDomainCollector`` before
    its domains became vertex masks filled by a chunk scatter. Supports
    close each domain under every automorphism ``sigma``, position
    ``v``'s vertices joining position ``sigma[v]``'s, and take the
    smallest (``tests/test_udf.py``)."""

    def __init__(self, patterns: Sequence[Pattern], orders,
                 automorphism_sets):
        self.patterns = list(patterns)
        self.orders = list(orders)
        self.automorphisms = list(automorphism_sets)
        self.domains: list[list[set[int]]] = [
            [set() for _ in range(p.num_vertices)] for p in self.patterns
        ]

    def __call__(
        self, index: int, prefix: tuple[int, ...], candidates: np.ndarray
    ) -> None:
        order = self.orders[index]
        domains = self.domains[index]
        for pos, data_vertex in enumerate(prefix):
            domains[order[pos]].add(int(data_vertex))
        domains[order[len(prefix)]].update(int(c) for c in candidates)

    def merge(self, other: "SetDomainCollector") -> "SetDomainCollector":
        for mine, theirs in zip(self.domains, other.domains):
            for position, domain in enumerate(theirs):
                mine[position] |= domain
        return self

    def supports(self) -> list[int]:
        result = []
        for pattern, domains, autos in zip(
            self.patterns, self.domains, self.automorphisms
        ):
            closed: list[set[int]] = [
                set() for _ in range(pattern.num_vertices)]
            for sigma in autos:
                for v in range(pattern.num_vertices):
                    closed[sigma[v]].update(domains[v])
            result.append(min(len(s) for s in closed) if closed else 0)
        return result


def _graph_of_edge_set(edges: set, num_vertices: int) -> Graph:
    array = np.array(sorted(edges), dtype=np.int64).reshape(len(edges), 2)
    return from_edge_array_eager(array, num_vertices=num_vertices)


def erdos_renyi_pairwise(num_vertices: int, num_edges: int,
                         seed: int = 0) -> Graph:
    """``generators.erdos_renyi`` as a per-pair ``set`` loop."""
    rng = np.random.default_rng(seed)
    edges = set()
    target = min(num_edges, num_vertices * (num_vertices - 1) // 2)
    while len(edges) < target:
        need = (target - len(edges)) * 2 + 16
        us = rng.integers(0, num_vertices, size=need)
        vs = rng.integers(0, num_vertices, size=need)
        for u, v in zip(us, vs):
            if u == v:
                continue
            edge = (int(u), int(v)) if u < v else (int(v), int(u))
            edges.add(edge)
            if len(edges) >= target:
                break
    return _graph_of_edge_set(edges, num_vertices)


def _power_law_probs(num_vertices, num_edges, exponent, max_degree):
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    if max_degree is not None:
        expected = weights / weights.sum() * (2.0 * num_edges)
        scale = np.minimum(1.0, max_degree / np.maximum(expected, 1e-12))
        weights = weights * scale
    return weights / weights.sum()


def power_law_graph_pairwise(num_vertices: int, num_edges: int,
                             exponent: float = 2.2,
                             max_degree: Optional[int] = None,
                             seed: int = 0) -> Graph:
    """``generators.power_law_graph`` as ``rng.choice(p=...)`` endpoint
    draws into a per-pair ``set`` loop."""
    rng = np.random.default_rng(seed)
    probs = _power_law_probs(num_vertices, num_edges, exponent, max_degree)
    edges = set()
    attempts = 0
    target = num_edges
    while len(edges) < target and attempts < 40:
        need = (target - len(edges)) * 2 + 32
        us = rng.choice(num_vertices, size=need, p=probs)
        vs = rng.choice(num_vertices, size=need, p=probs)
        for u, v in zip(us, vs):
            if u == v:
                continue
            edge = (int(u), int(v)) if u < v else (int(v), int(u))
            edges.add(edge)
            if len(edges) >= target:
                break
        attempts += 1
    return _graph_of_edge_set(edges, num_vertices)


def power_law_edge_batches_choice(num_vertices: int, num_edges: int,
                                  exponent: float = 2.2,
                                  max_degree: Optional[int] = None,
                                  seed: int = 0,
                                  batch_edges: int = 1 << 18):
    """``generators.power_law_edge_batches`` drawn by
    ``rng.choice(p=...)``."""
    probs = _power_law_probs(num_vertices, num_edges, exponent, max_degree)
    rng = np.random.default_rng(seed)
    remaining = num_edges
    batch_edges = max(1, batch_edges)
    while remaining > 0:
        need = min(batch_edges, remaining)
        us = rng.choice(num_vertices, size=need, p=probs)
        vs = rng.choice(num_vertices, size=need, p=probs)
        yield np.stack([us, vs], axis=1).astype(np.int64)
        remaining -= need


# ---------------------------------------------------------------------
# the eager edge normalization
# ---------------------------------------------------------------------
def from_edge_array_eager(
    edges: np.ndarray,
    num_vertices: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    directed: bool = False,
    edge_labels: Optional[Sequence[int]] = None,
) -> Graph:
    """Build a graph from an ``(m, 2)`` integer edge array.

    Self-loops and duplicate edges (including reversed duplicates for
    undirected graphs) are dropped, mirroring the paper's preprocessing.
    ``edge_labels`` (one per input edge) follow their edges through the
    normalization; when duplicates collapse, the first occurrence wins.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError("edges must have shape (m, 2)")
    if edges.size and edges.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")

    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    elif edges.size and int(edges.max()) >= num_vertices:
        raise GraphFormatError("edge endpoint exceeds num_vertices")

    elabels: Optional[np.ndarray] = None
    if edge_labels is not None:
        elabels = np.asarray(edge_labels, dtype=np.int64)
        if len(elabels) != len(edges):
            raise GraphFormatError("edge_labels length must equal edges")

    # Drop self-loops.
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    if elabels is not None:
        elabels = elabels[keep]

    if not directed:
        # Store both directions, dedup on the directed pairs.
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        if elabels is not None:
            elabels = np.concatenate([elabels, elabels])
    if len(edges):
        keys = edges[:, 0] * num_vertices + edges[:, 1]
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx = np.sort(unique_idx)
        edges = edges[unique_idx]
        if elabels is not None:
            elabels = elabels[unique_idx]

    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    if elabels is not None:
        elabels = elabels[order].astype(np.int32)

    counts = np.bincount(edges[:, 0], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = edges[:, 1].astype(np.int32)

    label_array = None
    if labels is not None:
        label_array = np.asarray(labels, dtype=np.int32)
    return Graph(indptr, indices, label_array, directed, elabels)


# ---------------------------------------------------------------------
# vertex renumbering and the orientation order
# ---------------------------------------------------------------------
# GPM systems commonly renumber vertices before mining: a degree-sorted
# numbering aligns the symmetry-breaking comparisons (``v_new > v_j``)
# with degree order and packs hub adjacency together. The transforms
# return the renumbered graph and the map back to the input ids.
def reorder_by_degree(
    graph: Graph, descending: bool = True
) -> tuple[Graph, np.ndarray]:
    """Renumber vertices by degree; returns ``(graph, old_of_new)``.

    ``descending=True`` gives hubs the smallest ids (the common choice:
    restrictions of the form ``v_new > v_prev`` then bias enumeration
    roots towards hubs whose trees are pruned hardest). The returned
    ``old_of_new[i]`` is the original id of new vertex ``i``.
    """
    degrees = graph.degrees()
    keys = -degrees if descending else degrees
    old_of_new = np.lexsort((np.arange(graph.num_vertices), keys))
    return apply_order(graph, old_of_new), old_of_new


def apply_order(graph: Graph, old_of_new: np.ndarray) -> Graph:
    """Renumber ``graph`` so that new vertex ``i`` is ``old_of_new[i]``."""
    old_of_new = np.asarray(old_of_new, dtype=np.int64)
    n = graph.num_vertices
    if (
        old_of_new.shape != (n,)
        or (n and old_of_new.min() < 0)
        or not np.array_equal(np.bincount(old_of_new, minlength=n),
                              np.ones(n, dtype=np.int64))
    ):
        raise ValueError("old_of_new must be a permutation of vertex ids")
    new_of_old = np.empty_like(old_of_new)
    new_of_old[old_of_new] = np.arange(n)

    # every stored entry once — an undirected edge from its smaller
    # endpoint, as ``graph.edges()`` yields it — with its label carried
    # by position
    src = np.repeat(np.arange(n), graph.degrees())
    once = slice(None) if graph.directed else src < graph.indices
    edges = np.stack(
        [new_of_old[src[once]], new_of_old[graph.indices[once]]], axis=1
    )
    return from_edge_array(
        edges,
        num_vertices=n,
        labels=None if graph.labels is None else graph.labels[old_of_new],
        directed=graph.directed,
        edge_labels=(
            None if graph.edge_labels is None else graph.edge_labels[once]
        ),
    )


def restore_ids(
    vertices: tuple[int, ...], old_of_new: np.ndarray
) -> tuple[int, ...]:
    """Map an embedding found on a reordered graph back to original ids."""
    return tuple(int(old_of_new[v]) for v in vertices)


def orientation_rank(graph: Graph) -> np.ndarray:
    """Total-order rank used by :func:`orient_by_degree`.

    Vertices sorted by ``(degree, id)``; ``rank[v]`` gives the position
    of ``v`` in that order. Useful for verifying the DAG property in
    tests.
    """
    degrees = graph.degrees()
    order = np.lexsort((np.arange(graph.num_vertices), degrees))
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[order] = np.arange(graph.num_vertices)
    return rank


def num_levels(schedule) -> int:
    """Number of extension steps of a schedule (pattern size minus one)."""
    return len(schedule.steps)


def speedup_over(report, other) -> float:
    """How much faster ``report``'s run is than ``other``'s."""
    if report.simulated_seconds <= 0:
        return float("inf")
    return other.simulated_seconds / report.simulated_seconds


def hit_rate(cache) -> float:
    """An ``EdgeCache``'s hits over its queries (0 before any)."""
    total = cache.hits + cache.misses
    return cache.hits / total if total else 0.0


def socket_vertices(partitioned, machine: int, socket: int) -> np.ndarray:
    """Vertices of ``machine``'s sub-partition on ``socket``."""
    local = partitioned.local_vertices(machine)
    mask = np.fromiter(
        (partitioned.partitioner.socket(int(v)) == socket for v in local),
        dtype=bool,
        count=len(local),
    )
    return local[mask]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's degree distribution."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    median_degree: float
    p99_degree: float
    #: share of adjacency entries owned by the top-5% highest-degree
    #: vertices — the "hot-spot concentration" behind Section 5.3
    top5_degree_share: float
    #: Gini coefficient of the degree distribution (0 = uniform)
    gini: float


def degree_stats(graph: Graph) -> DegreeStats:
    """Compute :class:`DegreeStats` for ``graph``."""
    degrees = np.sort(graph.degrees().astype(np.float64))
    n = len(degrees)
    if n == 0 or degrees.sum() == 0:
        return DegreeStats(n, graph.num_edges, 0.0, 0, 0.0, 0.0, 0.0, 0.0)
    total = degrees.sum()
    top5 = max(1, int(round(0.05 * n)))
    top5_share = float(degrees[-top5:].sum() / total)
    # Gini via the sorted-rank formula
    ranks = np.arange(1, n + 1)
    gini = float((2 * ranks - n - 1).dot(degrees) / (n * total))
    return DegreeStats(
        num_vertices=n,
        num_edges=graph.num_edges,
        avg_degree=float(total / n),
        max_degree=int(degrees[-1]),
        median_degree=float(np.median(degrees)),
        p99_degree=float(np.percentile(degrees, 99)),
        top5_degree_share=top5_share,
        gini=gini,
    )


def hot_vertices(graph: Graph, fraction: float = 0.05) -> np.ndarray:
    """Ids of the top-``fraction`` highest-degree vertices (descending).

    These are the cache-worthy hot spots of Section 5.3.
    """
    count = max(1, int(round(fraction * graph.num_vertices)))
    degrees = graph.degrees()
    order = np.argsort(-degrees, kind="stable")
    return order[:count]


def traffic_concentration(graph: Graph, fraction: float = 0.05) -> float:
    """Share of total edge-list bytes held by the hottest vertices.

    Approximates the paper's observation that "the most frequently
    accessed 5% graph data for 3-motif mining on the UK graph contribute
    to 93% communication".
    """
    hot = hot_vertices(graph, fraction)
    total = sum(graph.edge_list_bytes(v) for v in graph.vertices())
    if total == 0:
        return 0.0
    return sum(graph.edge_list_bytes(int(v)) for v in hot) / total


def exposed_network_time(
    comm_times: Sequence[float], compute_times: Sequence[float]
) -> float:
    """Communication time *not* hidden behind computation for a chunk
    (:func:`repro.core.pipeline.pipeline_time`)."""
    return pipeline_time(comm_times, compute_times) - sum(compute_times)


def satisfies_restrictions(
    mapping: tuple[int, ...], restrictions: tuple[tuple[int, int], ...]
) -> bool:
    """Whether a pattern->data vertex assignment obeys the restrictions."""
    return all(mapping[a] < mapping[b] for a, b in restrictions)


def canonical_form(pattern: Pattern) -> Pattern:
    """A concrete pattern relabeled into its canonical vertex order."""
    labels, coded_edges = canonical_code(pattern)
    label_arg = labels if pattern.labels is not None else None
    edges = [(u, v) for u, v, _ in coded_edges]
    edge_labels = None
    if pattern.edge_labels is not None:
        edge_labels = {(u, v): lab for u, v, lab in coded_edges}
    return Pattern(pattern.num_vertices, edges, label_arg, edge_labels)


def iter_graph_edge_batches(
    graph: Graph, batch_edges: int = 1 << 18
) -> Iterator[np.ndarray]:
    """Yield a graph's undirected edge set (``u < v`` once per edge, or
    every stored arc for directed graphs) as bounded ``(m, 2)`` batches
    — the bridge from an existing in-RAM graph to the streaming
    builder."""
    n = graph.num_vertices
    start = 0
    while start < n:
        stop = min(n, start + max(1, batch_edges // 4))
        values, offsets = graph.neighbors_batch(
            np.arange(start, stop, dtype=np.int64)
        )
        src = np.repeat(
            np.arange(start, stop, dtype=np.int64), np.diff(offsets)
        )
        dst = values.astype(np.int64)
        if not graph.directed:
            keep = src < dst
            src, dst = src[keep], dst[keep]
        if len(src):
            yield np.stack([src, dst], axis=1)
        start = stop
