"""The EXTEND interface (paper Section 3.2) and candidate computation.

``EXTEND`` is the sole interface between a client GPM system and the
Khuzdul engine: given an extendable embedding whose active edge lists
are available, produce its children (or, at the last level, hand the
completed embeddings to the application's UDF). Client systems here
are compiled :class:`~repro.patterns.schedule.Schedule` objects, so one
generic :class:`ScheduleExtender` plays the role the modified
Automine/GraphPi compilers play in the paper — emitting the
pattern-specific branch structure of Figure 5 from the schedule.

:func:`compute_candidates` is the inner intersection kernel shared by
every engine and baseline in this repository, which is what guarantees
all of them report identical embedding counts while differing only in
where costs are charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.chunk import Chunk
from repro.core.workspace import Workspace
from repro.graph.graph import Graph
from repro.obs import names
from repro.obs.metrics import MetricsScope, scope_or_null
from repro.patterns.schedule import CountingPlan, ExtensionStep, Schedule

#: Application callback: receives the embedding prefix (matching-order
#: positions 0..n-2) and the array of final vertices completing it.
MatchCallback = Callable[[tuple[int, ...], np.ndarray], None]

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


class ScheduleExtender:
    """The EXTEND function compiled from a :class:`Schedule`.

    This is the object a ported single-machine GPM system hands to the
    engine: ``step_for(level)`` selects the branch the paper's EXTEND
    pseudo-code switches on, and :meth:`extend_level` runs it. Porting
    Automine/GraphPi onto Khuzdul amounts to generating one of these
    from their matching-order compilers (see ``repro.systems``).
    """

    def __init__(
        self,
        schedule: Optional[Schedule],
        vcs: bool = True,
        metrics: Optional[MetricsScope] = None,
        workspace: Optional[Workspace] = None,
    ):
        #: what the per-embedding path walks; None for the engine's
        #: chunk scheduler, which hands every chunk call its step
        self.schedule = schedule
        self.vcs = vcs
        #: the chunk kernels' scratch memory — the engine run's one
        #: workspace, or a private one (repro.core.workspace)
        self.workspace = workspace if workspace is not None else Workspace()
        self.bind_metrics(scope_or_null(metrics))

    def bind_metrics(self, metrics: MetricsScope) -> None:
        """(Re-)bind the ``extend.*``/``kernel.*`` counters."""
        self._m_calls = metrics.counter(names.EXTEND_CALLS)
        self._m_merge = metrics.counter(names.EXTEND_MERGE_ELEMENTS)
        self._m_candidates = metrics.counter(names.EXTEND_CANDIDATES)
        self._m_k_batches = metrics.counter(names.KERNEL_BATCHES)
        self._m_k_embeddings = metrics.counter(
            names.KERNEL_BATCHED_EMBEDDINGS
        )
        self._m_k_probe = metrics.counter(names.KERNEL_PROBE_ELEMENTS)
        self._m_k_count_only = metrics.counter(
            names.KERNEL_COUNT_ONLY_BATCHES
        )
        self._m_iep_batches = metrics.counter(names.KERNEL_IEP_BATCHES)
        self._m_iep_embeddings = metrics.counter(
            names.KERNEL_IEP_EMBEDDINGS
        )
        self._m_iep_terms = metrics.counter(names.KERNEL_IEP_TERMS)
        self._m_iep_probe = metrics.counter(
            names.KERNEL_IEP_PROBE_ELEMENTS
        )

    @property
    def num_levels(self) -> int:
        return self.schedule.num_levels

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

    # ------------------------------------------------------------------
    # chunk path (repro.core.kernels, docs/performance.md)
    # ------------------------------------------------------------------
    def extend_chunk(
        self,
        graph: Graph,
        step: ExtensionStep,
        chunks: Sequence,
        count_only: bool = False,
    ) -> list[kernels.ChunkExtendResult]:
        """Extend ``(extender, chunk)`` pairs' same-level chunks — one
        trie node's on the hosted machines (docs/performance.md,
        "Lockstep machines") — by the node's ``step`` in one kernel call.

        Returns one result a chunk, what a call on it alone returns:
        per-row results element-identical to calling
        :meth:`extend_level` on each row's prefix. Only the ``kernel.*``
        counters are emitted here, by each chunk's extender: the
        scheduler consumes the batch in slices (possibly pausing
        mid-chunk) and reports ``extend.*`` for the rows it has reached
        (:meth:`account_rows`), so a run cut short mid-chunk does not
        count extensions nobody used.
        """
        prefixes, bounds = _prefixes(chunks, self.workspace)
        intermediates = None
        if self.vcs and step.reuse_level is not None:
            intermediates = _intermediates(chunks, step.reuse_level)
        results = kernels.split(kernels.extend_chunk(
            graph, step, prefixes, intermediates, vcs=self.vcs,
            count_only=count_only, workspace=self.workspace,
            chunk_bounds=bounds,
        ), bounds)
        for (extender, chunk), batch in zip(chunks, results):
            extender._m_k_batches.inc()
            extender._m_k_embeddings.inc(len(chunk))
            extender._m_k_probe.inc(batch.probe_elements)
            if count_only:
                extender._m_k_count_only.inc()
        return results

    def iep_chunk(
        self, graph: Graph, plan: CountingPlan, chunks: Sequence
    ) -> list[kernels.ChunkIepResult]:
        """Evaluate the IEP counting plan over chunks of complete
        prefix embeddings in one call, as :meth:`extend_chunk`. Each
        chunk's extender emits the ``kernel.iep.*`` counters;
        ``extend.*`` goes through :meth:`account_rows`.
        """
        prefixes, bounds = _prefixes(chunks, self.workspace)
        results = kernels.split(kernels.iep_chunk(
            graph, plan, prefixes, self.workspace), bounds)
        for (extender, chunk), batch in zip(chunks, results):
            extender._m_iep_batches.inc()
            extender._m_iep_embeddings.inc(len(chunk))
            extender._m_iep_terms.inc(len(plan.terms) * len(chunk))
            extender._m_iep_probe.inc(batch.probe_elements)
        return results

    def account_rows(
        self, calls: int, merge_elements: int, candidates: int
    ) -> None:
        """``extend.*`` increments for ``calls`` consumed rows, from
        their integer tallies (integer folds are exact, so one bump per
        slice reports what a row-by-row walk would)."""
        self._m_calls.inc(calls)
        self._m_merge.inc(merge_elements)
        self._m_candidates.inc(candidates)


def _prefixes(chunks: Sequence, workspace: Workspace) -> tuple:
    """The chunks' prefix matrices (:meth:`Chunk.prefixes`) laid end to
    end, and the row bounds of each."""
    bounds = np.cumsum([0] + [len(chunk) for _, chunk in chunks]).tolist()
    out = workspace.matrix("prefixes", bounds[-1], chunks[0][1].level + 1)
    for (_, chunk), start, stop in zip(chunks, bounds, bounds[1:]):
        chunk.prefixes(workspace, out=out[start:stop])
    return out, bounds


def _intermediates(chunks: Sequence, level: int) -> Optional[tuple]:
    """The chunks' stored intersections at ancestor ``level``
    (:meth:`Chunk.intermediates`, None for all of a node's chunks or
    none) laid end to end, offsets and segments rebased."""
    parts = [chunk.intermediates(level) for _, chunk in chunks]
    if len(parts) == 1 or parts[0] is None:
        return parts[0]
    values, offsets, segments = zip(*parts)
    starts = np.cumsum([0] + [len(v) for v in values])
    firsts = np.cumsum([0] + [len(o) - 1 for o in offsets])
    return (
        np.concatenate(values),
        np.concatenate([o[:-1] + start for o, start in zip(offsets, starts)]
                       + [starts[-1:]]),
        np.concatenate([s + first for s, first in zip(segments, firsts)]),
    )
