"""Graph-data caches: the static cache and the replacement policies.

Khuzdul's static cache (paper Section 5.3) follows a **"first
accessed, first cached" policy with a degree threshold**: a fetched
edge list is admitted only if its vertex's degree clears the threshold
and the list fits the bytes still free *when it is offered* — each
offer is tested on its own, so a smaller list is still admitted after
a larger one was refused, and only a cache with no room for any list
has stopped changing. There is no eviction, ever. The rationale is
GPM-specific. First, access skew: GPM workloads touch high-degree
(hub) vertices orders of magnitude more often than low-degree ones,
and that skew is *stable over the run*, so whatever hot set is seen
first is about as good as any replacement policy would converge to —
the degree threshold keeps one early burst of cold, low-degree lists
from squatting in the budget (the paper fixes it at 64; Ablation C
sweeps it). Second, cost: never evicting makes every operation a
plain hash probe with a fixed-size pool allocator — no recency lists,
no refcounts, no dynamic allocation, no fragmentation.

Figure 16's study compares it against FIFO/LIFO/LRU/MRU replacement
policies, which (per Section 7.6) pay for continuous policy
maintenance *and* for general-purpose dynamic memory management whose
fragmentation grows over the run. Both cost channels are modelled here
and charged through :meth:`EdgeCache.drain_cost`.

Observability: an :class:`EdgeCache` built with a
:class:`~repro.obs.metrics.MetricsScope` emits the ``cache.*``
counters/gauge of ``docs/metrics.md`` alongside its plain integer
attributes; the plain attributes stay authoritative and cost-free.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from typing import Optional

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.obs import names
from repro.obs.metrics import MetricsScope, scope_or_null


class CachePolicy(Enum):
    STATIC = "static"
    FIFO = "fifo"
    LIFO = "lifo"
    LRU = "lru"
    MRU = "mru"


class EdgeCache:
    """A per-machine (or per-socket) cache of remote edge lists.

    Parameters
    ----------
    capacity_bytes:
        Cache budget; the paper uses 5-15% of the graph size per node.
    degree_threshold:
        Minimum degree for admission under the STATIC policy ("first
        accessed first cached with threshold"); replacement policies
        admit everything, as general caches do.
    policy:
        One of :class:`CachePolicy`.
    cost:
        Cost model supplying the bookkeeping constants.
    num_vertices:
        Vertex count of the graph whose lists are cached: the size of
        the residency mask, so a lookup is one gather and nothing else.
    """

    def __init__(
        self,
        capacity_bytes: int,
        degree_threshold: int,
        policy: CachePolicy,
        cost: CostModel,
        metrics: Optional[MetricsScope] = None,
        *,
        num_vertices: int,
    ):
        self.capacity_bytes = capacity_bytes
        self.degree_threshold = degree_threshold
        self.policy = policy
        self.cost = cost
        self._entries: OrderedDict[int, int] = OrderedDict()  # vertex -> bytes
        #: ``_entries``' keys as a mask indexed by vertex
        self._resident = np.zeros(num_vertices, dtype=bool)
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self._pending_cost = 0.0
        self._fragmentation = 0.0  # grows with churn, capped at 3x extra
        metrics = scope_or_null(metrics)
        self._m_hits = metrics.counter(names.CACHE_HITS)
        self._m_misses = metrics.counter(names.CACHE_MISSES)
        self._m_inserts = metrics.counter(names.CACHE_INSERTS)
        self._m_evictions = metrics.counter(names.CACHE_EVICTIONS)
        self._m_used_bytes = metrics.gauge(names.CACHE_USED_BYTES)

    # ------------------------------------------------------------------
    def _query_cost(self) -> float:
        """Hash-probe cost, inflated once the cache spills out of L3."""
        l3_bytes = self.cost.l3_bytes
        spill = self.used_bytes / (l3_bytes if l3_bytes > 1 else 1)
        if spill > 1.0:
            spill = 1.0
        return self.cost.cache_query * (
            1.0 + self.cost.cache_l3_spill_penalty * spill
        )

    def _alloc_cost(self) -> float:
        """Dynamic-allocation cost for replacement policies (Section 7.6)."""
        return self.cost.cache_dynamic_alloc * (1.0 + self._fragmentation)

    # ------------------------------------------------------------------
    def query(self, vertex: int) -> bool:
        """Probe for ``vertex``; returns hit/miss and charges query cost."""
        self._pending_cost += self._query_cost()
        if vertex in self._entries:
            self.hits += 1
            self._m_hits.inc()
            if self.policy in (CachePolicy.LRU, CachePolicy.MRU):
                # recency maintenance on every touch
                self._entries.move_to_end(vertex)
                self._pending_cost += self.cost.cache_policy_update
            return True
        self.misses += 1
        self._m_misses.inc()
        return False

    def admit(self, vertex: int, num_bytes: int, degree: int) -> bool:
        """Offer a just-fetched edge list to the cache.

        Returns ``True`` if the list was inserted (it then stays resident
        and does not occupy chunk memory).
        """
        if vertex in self._entries:
            # a re-admission is a touch: recency policies must move the
            # entry and pay the bookkeeping, or re-admitted vertices
            # stay invisible to the replacement order (LRU would evict
            # a hot entry it just re-admitted)
            if self.policy in (CachePolicy.LRU, CachePolicy.MRU):
                self._entries.move_to_end(vertex)
                self._pending_cost += self.cost.cache_policy_update
            return True
        if self.policy is CachePolicy.STATIC:
            if degree < self.degree_threshold:
                return False
            if self.used_bytes + num_bytes > self.capacity_bytes:
                # does not fit what is left (a later, smaller list
                # still may); nothing is ever evicted to make room
                return False
            self._insert(vertex, num_bytes)
            self._pending_cost += self.cost.cache_insert_static
            return True

        # Replacement policies admit everything that can fit at all.
        if num_bytes > self.capacity_bytes:
            return False
        while self.used_bytes + num_bytes > self.capacity_bytes:
            self._evict_one()
        self._insert(vertex, num_bytes)
        self._pending_cost += self.cost.cache_policy_update + self._alloc_cost()
        self._fragmentation = min(
            3.0, self._fragmentation + self.cost.cache_fragmentation_rate
        )
        return True

    def _insert(self, vertex: int, num_bytes: int) -> None:
        self._entries[vertex] = num_bytes
        self._resident[vertex] = True
        self.used_bytes += num_bytes
        self.inserts += 1
        self._m_inserts.inc()
        self._m_used_bytes.set(self.used_bytes)

    def saturated(self, least_bytes: int) -> bool:
        """Whether no list of ``least_bytes`` or more can be admitted any
        more: a static cache never evicts, so its free bytes only
        shrink (a replacement policy always makes room)."""
        return (
            self.policy is CachePolicy.STATIC
            and self.used_bytes + least_bytes > self.capacity_bytes
        )

    # ------------------------------------------------------------------
    # batch entry points: the scheduler's one query call and one offer
    # call per chunk
    def query_many(self, vertices: np.ndarray) -> np.ndarray:
        """:meth:`query` for every vertex, in order; returns the hit mask."""
        if self.policy is not CachePolicy.STATIC:
            # replacement is sequential: every touch reorders the victims
            return np.fromiter(
                map(self.query, vertices.tolist()), bool, len(vertices)
            )
        hit = self._resident[vertices]
        queries = len(hit)
        hits = int(np.count_nonzero(hit))
        self.hits += hits
        self.misses += queries - hits
        self._m_hits.inc(hits)
        self._m_misses.inc(queries - hits)
        # one price for the whole batch: ``used_bytes`` cannot move
        # while a chunk is queried, its admissions come afterwards
        self._pending_cost += queries * self._query_cost()
        return hit

    def admit_many(
        self, vertices: np.ndarray, sizes: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        """:meth:`admit` for every just-fetched list (``sizes`` and
        ``degrees`` are the vertices' own), in order; returns the
        admitted mask."""
        if self.policy is not CachePolicy.STATIC:
            # replacement is sequential: every admission may evict
            return np.fromiter(
                map(self.admit, vertices.tolist(), sizes.tolist(),
                    degrees.tolist()), bool, len(vertices))
        # residents are admitted for free; of the rest only a list over
        # the threshold that fits the bytes free right now can still be
        # inserted (free bytes only shrink)
        admitted = self._resident[vertices]
        room = self.capacity_bytes - self.used_bytes
        offers = (
            ~admitted & (degrees >= self.degree_threshold) & (sizes <= room)
        ).nonzero()[0]
        if not len(offers):
            return admitted
        # only a vertex's first offer can insert: a repeat finds it
        # resident, or is refused again (the same list, less room). The
        # first is the least index in its run of an unstable sort
        wanted = vertices[offers]
        order = np.argsort(wanted)
        runs = np.flatnonzero(np.diff(wanted[order], prepend=-1))
        lead = offers[np.sort(np.minimum.reduceat(order, runs))]
        # exact rounds of the walk: the offers whose running total fits
        # all go in, the next one is refused, and, free bytes only
        # shrinking, so is every later list larger than what is left
        rounds = []
        while len(lead):
            used = np.cumsum(sizes[lead])
            taken = int(np.searchsorted(used, room, side="right"))
            rounds.append(lead[:taken])
            room -= int(used[taken - 1])
            rest = lead[taken + 1:]
            lead = rest[sizes[rest] <= room]
        rows = np.concatenate(rounds)
        self._insert_many(vertices[rows], sizes[rows])
        admitted[offers] = self._resident[wanted]
        return admitted

    def _insert_many(self, vertices: np.ndarray, sizes: np.ndarray) -> None:
        """:meth:`_insert` of new static entries, in order, in bulk."""
        self._entries.update(zip(vertices.tolist(), sizes.tolist()))
        self._resident[vertices] = True
        self.used_bytes += int(sizes.sum())
        self.inserts += len(vertices)
        self._m_inserts.inc(len(vertices))
        self._m_used_bytes.set(self.used_bytes)
        # the bookkeeping charge folds one insert at a time, as admit's
        pending = self._pending_cost
        for _ in range(len(vertices)):
            pending += self.cost.cache_insert_static
        self._pending_cost = pending

    def _evict_one(self) -> None:
        if self.policy is CachePolicy.FIFO:
            victim = next(iter(self._entries))
        elif self.policy is CachePolicy.LIFO:
            victim = next(reversed(self._entries))
        elif self.policy is CachePolicy.LRU:
            victim = next(iter(self._entries))  # least recently touched
        elif self.policy is CachePolicy.MRU:
            victim = next(reversed(self._entries))  # most recently touched
        else:  # pragma: no cover - STATIC never evicts
            raise AssertionError("static cache must not evict")
        self.used_bytes -= self._entries.pop(victim)
        self._resident[victim] = False
        self.evictions += 1
        self._m_evictions.inc()
        self._m_used_bytes.set(self.used_bytes)
        self._pending_cost += self._alloc_cost()
        self._fragmentation = min(
            3.0, self._fragmentation + self.cost.cache_fragmentation_rate
        )

    # ------------------------------------------------------------------
    def invalidate(self, predicate) -> int:
        """Drop every entry whose vertex satisfies ``predicate``.

        The static cache normally never changes once full — the one
        exception is machine loss: entries whose edge lists were served
        by a now-dead partition must be refetched from the failover
        owner, so recovery purges them. Returns the number of entries
        removed; each removal charges one policy-update's bookkeeping.
        """
        victims = [v for v in self._entries if predicate(v)]
        for vertex in victims:
            self.used_bytes -= self._entries.pop(vertex)
            self._resident[vertex] = False
            self._pending_cost += self.cost.cache_policy_update
        if victims:
            self._m_used_bytes.set(self.used_bytes)
        return len(victims)

    # ------------------------------------------------------------------
    def drain_cost(self) -> float:
        """Accumulated bookkeeping seconds since the last drain."""
        cost, self._pending_cost = self._pending_cost, 0.0
        return cost

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._entries

    def __len__(self) -> int:
        return len(self._entries)
