"""The EXTEND interface (paper Section 3.2).

``EXTEND`` is the sole interface between a client GPM system and the
Khuzdul engine: given an extendable embedding whose active edge lists
are available, produce its children (or, at the last level, hand the
completed embeddings to the application's UDF). Client systems here
are compiled :class:`~repro.patterns.schedule.Schedule` objects whose
steps the scheduler hands, one chunk call at a time, to the generic
:class:`ScheduleExtender` — the role the modified Automine/GraphPi
compilers play in the paper, emitting the pattern-specific branch
structure of Figure 5.

:func:`repro.core.kernels.extend_chunk` is the one exploration kernel
shared by the engine and every baseline in this repository, which is
what guarantees all of them report identical embedding counts while
differing only in where costs are charged.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.chunk import Chunk
from repro.core.workspace import Workspace
from repro.graph.graph import Graph
from repro.obs import names
from repro.obs.metrics import MetricsScope, scope_or_null
from repro.patterns.schedule import CountingPlan, ExtensionStep


class ScheduleExtender:
    """The EXTEND function a run's schedules are executed through.

    This is the object a ported single-machine GPM system hands to the
    engine: each chunk call names the schedule step — the branch the
    paper's EXTEND pseudo-code switches on — and :meth:`extend_chunk`
    runs it. Porting Automine/GraphPi onto Khuzdul amounts to feeding
    their matching-order compilers' schedules through one of these (see
    ``repro.systems``).
    """

    def __init__(
        self,
        vcs: bool = True,
        metrics: Optional[MetricsScope] = None,
        workspace: Optional[Workspace] = None,
    ):
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

    # ------------------------------------------------------------------
    # chunk path (repro.core.kernels, docs/performance.md)
    # ------------------------------------------------------------------
    def extend_chunk(
        self,
        graph: Graph,
        step: ExtensionStep,
        chunks: Sequence,
        count_only: bool = False,
        joined: Sequence[tuple[int, int]] = (),
    ) -> list[kernels.ChunkExtendResult]:
        """Extend ``(extender, chunk)`` pairs' same-level chunks — one
        trie node's on the hosted machines (docs/performance.md,
        "Lockstep machines") — by the node's ``step`` in one kernel call
        (``joined``: the pairs the chunks' rows are joined by, as
        :func:`kernels.extend_chunk` takes them).

        Returns one result a chunk, what a call on it alone returns:
        per-row results element-identical to extending each row's
        prefix alone. Only the ``kernel.*`` counters are emitted here,
        by each chunk's extender: the scheduler consumes the batch in
        slices (possibly pausing mid-chunk) and reports ``extend.*``
        for the rows it has reached (:meth:`account_rows`), so a run
        cut short mid-chunk does not count extensions nobody used.
        """
        prefixes, bounds = _prefixes(chunks, self.workspace)
        intermediates = None
        if self.vcs and step.reuse_level is not None:
            intermediates = _intermediates(chunks, step.reuse_level)
        results = kernels.split(kernels.extend_chunk(
            graph, step, prefixes, intermediates, vcs=self.vcs,
            count_only=count_only, workspace=self.workspace,
            chunk_bounds=bounds, joined=joined,
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
