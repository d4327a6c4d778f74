"""Horizontal data sharing (paper Section 5.2).

Extendable embeddings in the same chunk often request the same edge
list (a hub vertex is the new vertex of many embeddings at once). A
per-level hash table with vertex-id keys dedups those fetches.

**Collision-dropping rationale (Section 5.2).** A conventional hash
table would resolve collisions by chaining, paying a pointer chase and
key comparison per colliding probe and dynamic allocation per chain
node — bookkeeping on *every* fetch, in the innermost communication
path. Khuzdul instead keeps exactly one vertex per slot: if the slot
for ``v`` is occupied by a different vertex, ``v``'s fetch is simply
issued again. A dropped entry costs one redundant edge-list transfer;
a chained entry costs CPU on every subsequent probe. Because the
table is sized so collisions are rare (and starts empty at every
chunk, so entries never age), the paper reports the drop design removes almost
all duplicate traffic anyway — 4.4 TB -> 33.8 GB on
5-clique/LiveJournal — while the table stays a single array probe.
The ``chaining=True`` variant exists to measure the rejected design
(``bench_ablations_design.py``).

Sharing is *horizontal* because it happens across embeddings at the
same level of the embedding tree, within one chunk; the complementary
*vertical* sharing (Section 5.1) reuses data along parent pointers
across levels. The table must be per-chunk: a chunk is the unit whose
fetched edge lists are resident together, so a hit may alias the
already-scheduled fetch's buffer.

Observability: when constructed with a
:class:`~repro.obs.metrics.MetricsScope`, the probe outcomes are also
emitted as the ``hds.*`` counters documented in ``docs/metrics.md``
(attributed to the owning machine by the scope's labels, bumped once
per chunk). The plain integer attributes (``hits``/``probes``/...)
remain authoritative and free, so ablation benches and reports work
without instrumentation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.workspace import Workspace
from repro.obs import names
from repro.obs.metrics import MetricsScope, scope_or_null

_KNUTH = 2654435761
_MASK = 0xFFFFFFFF


class HorizontalShareTable:
    """Collision-dropping per-chunk hash table of requested edge lists.

    The table is empty at the start of every chunk and nothing outlives
    the chunk, so it holds no state between calls: :meth:`share` works
    one chunk's whole request column out in array passes. Only the
    counters are cumulative per scheduler (i.e. per machine per
    pattern group), which is what the engine aggregates into
    ``RunReport.extra['hds']``.

    ``chaining=True`` switches to the conventional design the paper
    argues *against*: collisions build a chain instead of being dropped.
    Chaining removes the residual duplicate fetches but pays a chain
    walk on every colliding probe — ``chain_steps`` counts those extra
    key comparisons so the ablation bench can charge their cost.
    """

    def __init__(
        self,
        num_slots: int = 8192,
        chaining: bool = False,
        metrics: Optional[MetricsScope] = None,
        workspace: Optional[Workspace] = None,
    ):
        self.num_slots = max(1, num_slots)
        self.chaining = chaining
        self.hits = 0
        self.inserts = 0
        self.drops = 0
        self.probes = 0
        self.chain_steps = 0
        #: slot -> claiming row of the chunk in hand: scratch, so the
        #: tables of a run share their ``workspace``'s
        self._table = (workspace or Workspace()).take(
            "hds.table", 0 if chaining else self.num_slots, np.intp)
        metrics = scope_or_null(metrics)
        self._m_probes = metrics.counter(names.HDS_PROBES)
        self._m_hits = metrics.counter(names.HDS_HITS)
        self._m_inserts = metrics.counter(names.HDS_INSERTS)
        self._m_drops = metrics.counter(names.HDS_DROPS)
        self._m_chain_steps = metrics.counter(names.HDS_CHAIN_STEPS)

    def share(self, vertices: np.ndarray) -> np.ndarray:
        """Probe a fresh table with one chunk's requests, in row order;
        returns the hit mask (:meth:`share_segments` of one segment)."""
        return self.share_segments([self], vertices, [0, len(vertices)])

    @staticmethod
    def share_segments(tables: Sequence["HorizontalShareTable"],
                       vertices: np.ndarray, bounds: list) -> np.ndarray:
        """Probe fresh tables with chunks' requests laid end to end:
        rows ``bounds[i]:bounds[i + 1]`` of ``vertices`` are one chunk's,
        in row order, and go to ``tables[i]`` — tables of one design and
        size (one run's). Every table's counters are bumped once, from
        its own segment, as a :meth:`share` of that chunk would.

        Returns the hit mask: rows whose edge list an earlier row of
        the same chunk already requested (they share its pointer). What
        a row-by-row walk would do, as identities over the column: the
        first row to reach a slot occupies it, every later row there
        hits if it asks for the occupant's vertex and is dropped
        otherwise; with chaining each distinct vertex gets a chain node
        at its first row, every later row of it hits, and a probe pays
        one chain step per node that entered its slot before its own.
        Chains are keyed on (segment, vertex) and sorted by (segment,
        slot); the dropping table is scattered and read back a segment
        at a time, so it stays one chunk's size.
        """
        lead = tables[0]
        num_slots = lead.num_slots
        probes = len(vertices)
        # int64 before hashing: (v + 1) * _KNUTH overflows int32 columns
        slots = np.add(vertices, 1, dtype=np.int64)
        slots *= _KNUTH
        if num_slots & (num_slots - 1):
            slots &= _MASK
            slots %= num_slots
        else:  # the same remainder (a table is far below 2**32 slots):
            slots &= num_slots - 1  # the low bits, without a division
        rows = np.arange(probes)
        steps = None
        if lead.chaining:
            keys, node_keys = vertices, slots
            if tables[1:]:  # chains of another chunk are another table's
                segment = np.repeat(np.arange(len(tables), dtype=np.int64),
                                    np.diff(bounds))
                segment <<= 32
                keys = segment + vertices
                node_keys = segment + slots
            _, first, entry = np.unique(
                keys, return_index=True, return_inverse=True
            )
            claimed_by = first[entry]  # the row of this row's chain node
            if len(first):
                # nodes ordered by (slot, first row): a node's depth in
                # its chain is its distance from its slot's first node
                node_slot = node_keys[first]
                order = np.lexsort((first, node_slot))
                position = rows[:len(first)]
                head = np.r_[True, np.diff(node_slot[order]) != 0]
                depth = np.empty(len(first), dtype=np.int64)
                depth[order] = position - np.maximum.accumulate(
                    np.where(head, position, 0)
                )
                steps = depth[entry]
        else:
            # the table itself, no sort: rows scattered in reverse order
            # leave each slot holding the first row to reach it. Only
            # slots written by a chunk are read back for it, so the
            # table starts every chunk empty without being cleared
            table = lead._table
            claimed_by = np.empty(probes, np.intp)
            for start, stop in zip(bounds, bounds[1:]):
                chunk = slots[start:stop]
                table[chunk[::-1]] = rows[start:stop][::-1]
                table.take(chunk, out=claimed_by[start:stop], mode="clip")
        later = claimed_by != rows  # not the row that filled its entry
        hit = vertices.take(claimed_by, mode="clip") == vertices
        hit &= later
        for table, start, stop in zip(tables, bounds, bounds[1:]):
            table._count(
                stop - start,
                stop - start - int(np.count_nonzero(later[start:stop])),
                int(np.count_nonzero(hit[start:stop])),
                0 if steps is None else int(steps[start:stop].sum()),
            )
        return hit

    def _count(self, probes: int, inserts: int, hits: int,
               steps: int) -> None:
        """Bump the counters by one chunk's probe outcomes."""
        self.probes += probes
        self.inserts += inserts
        self.hits += hits
        self.drops += probes - inserts - hits
        self.chain_steps += steps
        self._m_probes.inc(probes)
        self._m_inserts.inc(inserts)
        self._m_hits.inc(hits)
        self._m_drops.inc(probes - inserts - hits)
        if steps:  # only a chaining table takes any
            self._m_chain_steps.inc(steps)

