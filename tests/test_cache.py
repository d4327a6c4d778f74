"""Tests for the static data cache and replacement policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.core.cache import CachePolicy, EdgeCache
from tests.reference import hit_rate

#: every vertex id a test here offers is below this
VERTICES = 256


def _cache(policy=CachePolicy.STATIC, capacity=1000, threshold=4):
    return EdgeCache(capacity, threshold, policy, CostModel(),
                     num_vertices=VERTICES)


# ----------------------------------------------------------------------
# static policy (paper Section 5.3)
# ----------------------------------------------------------------------
def test_static_admit_and_hit():
    cache = _cache()
    assert not cache.query(7)
    assert cache.admit(7, 100, degree=10)
    assert cache.query(7)
    assert hit_rate(cache) == pytest.approx(0.5)


def test_static_degree_threshold():
    cache = _cache(threshold=16)
    assert not cache.admit(1, 50, degree=3)
    assert cache.admit(2, 50, degree=16)


def test_static_never_evicts():
    cache = _cache(capacity=150)
    assert cache.admit(1, 100, degree=10)
    assert not cache.admit(2, 100, degree=10)  # full: dropped, no evict
    assert cache.query(1)
    assert not cache.query(2)
    assert cache.evictions == 0


def test_static_full_stays_full():
    cache = _cache(capacity=100)
    cache.admit(1, 100, degree=10)
    for v in range(2, 10):
        assert not cache.admit(v, 10, degree=10)
    assert len(cache) == 1


def test_admit_existing_is_noop():
    cache = _cache()
    cache.admit(1, 100, degree=10)
    assert cache.admit(1, 100, degree=10)
    assert cache.inserts == 1


# ----------------------------------------------------------------------
# replacement policies (Figure 16)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy", [CachePolicy.FIFO, CachePolicy.LIFO, CachePolicy.LRU, CachePolicy.MRU]
)
def test_replacement_policies_admit_everything(policy):
    cache = _cache(policy, capacity=200)
    assert cache.admit(1, 100, degree=1)  # below static threshold: still in
    assert cache.admit(2, 100, degree=1)
    assert cache.admit(3, 100, degree=1)  # triggers eviction
    assert cache.evictions >= 1
    assert len(cache) == 2


def test_fifo_evicts_oldest():
    cache = _cache(CachePolicy.FIFO, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.query(1)  # recency must NOT matter for FIFO
    cache.admit(3, 100, 9)
    assert not cache.query(1)
    assert cache.query(2)


def test_lifo_evicts_newest():
    cache = _cache(CachePolicy.LIFO, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.admit(3, 100, 9)
    assert cache.query(1)
    assert not cache.query(2)


def test_lru_evicts_least_recent():
    cache = _cache(CachePolicy.LRU, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.query(1)  # touch 1 so 2 is least recent
    cache.admit(3, 100, 9)
    assert cache.query(1)
    assert not cache.query(2)


def test_mru_evicts_most_recent():
    cache = _cache(CachePolicy.MRU, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.query(1)  # 1 becomes most recent
    cache.admit(3, 100, 9)
    assert not cache.query(1)
    assert cache.query(2)


def test_lru_readmission_refreshes_recency():
    """Re-admitting a resident vertex is a touch: under LRU it must
    move to the back of the eviction order, exactly like a query hit
    (the early-return used to skip the policy update)."""
    cache = _cache(CachePolicy.LRU, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.admit(1, 100, 9)  # re-admission: 2 is now least recent
    cache.admit(3, 100, 9)
    assert cache.query(1)
    assert not cache.query(2)


def test_mru_readmission_refreshes_recency():
    cache = _cache(CachePolicy.MRU, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.admit(1, 100, 9)  # 1 becomes most recent → next victim
    cache.admit(3, 100, 9)
    assert not cache.query(1)
    assert cache.query(2)


def test_fifo_readmission_keeps_insertion_order():
    """FIFO ignores touches: a re-admission must not reset age."""
    cache = _cache(CachePolicy.FIFO, capacity=200)
    cache.admit(1, 100, 9)
    cache.admit(2, 100, 9)
    cache.admit(1, 100, 9)  # no-op for FIFO
    cache.admit(3, 100, 9)
    assert not cache.query(1)  # 1 is still the oldest insert
    assert cache.query(2)


def test_lru_readmission_charges_policy_update():
    cost = CostModel()
    cache = EdgeCache(10_000, 0, CachePolicy.LRU, cost, num_vertices=VERTICES)
    cache.admit(1, 100, degree=10)
    cache.drain_cost()
    cache.admit(1, 100, degree=10)  # recency bookkeeping is not free
    assert cache.drain_cost() == pytest.approx(cost.cache_policy_update)
    static = EdgeCache(10_000, 0, CachePolicy.STATIC, cost,
                       num_vertices=VERTICES)
    static.admit(1, 100, degree=10)
    static.drain_cost()
    static.admit(1, 100, degree=10)  # static order never changes
    assert static.drain_cost() == 0.0


def test_oversized_entry_rejected():
    cache = _cache(CachePolicy.LRU, capacity=100)
    assert not cache.admit(1, 500, degree=9)


# ----------------------------------------------------------------------
# cost accounting (Section 7.6 behaviours)
# ----------------------------------------------------------------------
def test_drain_cost_resets():
    cache = _cache()
    cache.query(1)
    first = cache.drain_cost()
    assert first > 0
    assert cache.drain_cost() == 0.0


def test_replacement_costs_exceed_static():
    """Replacement policies pay policy updates + dynamic allocation."""
    cost = CostModel()
    static = EdgeCache(10_000, 0, CachePolicy.STATIC, cost,
                       num_vertices=VERTICES)
    lru = EdgeCache(10_000, 0, CachePolicy.LRU, cost, num_vertices=VERTICES)
    for v in range(50):
        static.query(v)
        static.admit(v, 100, degree=10)
        lru.query(v)
        lru.admit(v, 100, degree=10)
    assert lru.drain_cost() > static.drain_cost()


def test_fragmentation_grows_with_churn():
    cost = CostModel().derive(cache_fragmentation_rate=0.5)
    cache = EdgeCache(100, 0, CachePolicy.LRU, cost, num_vertices=VERTICES)
    cache.admit(0, 100, 1)
    cache.drain_cost()
    cache.admit(1, 100, 1)  # one evict + one insert
    first_churn = cache.drain_cost()
    for v in range(2, 6):
        cache.admit(v, 100, 1)
    later_churn = cache.drain_cost() / 4
    assert later_churn > first_churn


def test_l3_spill_raises_query_cost():
    cost = CostModel()
    small = EdgeCache(10_000_000, 0, CachePolicy.STATIC, cost,
                      num_vertices=VERTICES)
    small.query(1)
    cheap = small.drain_cost()
    big = EdgeCache(10_000_000, 0, CachePolicy.STATIC, cost,
                    num_vertices=VERTICES)
    big.admit(1, cost.l3_bytes * 2, degree=10**6)
    big.drain_cost()
    big.query(2)
    expensive = big.drain_cost()
    assert expensive > cheap


def test_hit_rate_empty():
    assert hit_rate(_cache()) == 0.0


# ----------------------------------------------------------------------
# batch entry points (what the scheduler calls): query_many / admit_many
# against a sequential oracle
# ----------------------------------------------------------------------
class _StaticOracle:
    """The static cache as one sequential rule per call, nothing
    shared with cache.py: each offer is tested on its own against the
    bytes left when it arrives."""

    def __init__(self, capacity, threshold, cost):
        self.capacity, self.threshold, self.cost = capacity, threshold, cost
        self.entries, self.used_bytes, self.pending = {}, 0, 0.0
        self.hits = self.misses = self.inserts = self.evictions = 0

    def query(self, vertex):
        spill = min(1.0, self.used_bytes / max(1, self.cost.l3_bytes))
        self.pending += self.cost.cache_query * (
            1.0 + self.cost.cache_l3_spill_penalty * spill)
        hit = vertex in self.entries
        self.hits += hit
        self.misses += not hit
        return hit

    def admit(self, vertex, size, degree):
        if vertex in self.entries:
            return True
        if degree < self.threshold or self.used_bytes + size > self.capacity:
            return False
        self.entries[vertex] = size
        self.used_bytes += size
        self.inserts += 1
        self.pending += self.cost.cache_insert_static
        return True

    def invalidate(self, predicate):
        for vertex in [v for v in self.entries if predicate(v)]:
            self.used_bytes -= self.entries.pop(vertex)
            self.pending += self.cost.cache_policy_update

    def drain_cost(self):
        cost, self.pending = self.pending, 0.0
        return cost


def _ints(values):
    return np.array(values, dtype=np.int64)


def _same_state(cache, oracle):
    for name in ("hits", "misses", "inserts", "evictions", "used_bytes"):
        assert getattr(cache, name) == getattr(oracle, name), name
    assert cache.drain_cost() == pytest.approx(
        oracle.drain_cost(), rel=1e-12, abs=0.0)


def test_static_smaller_list_admitted_after_larger_refused():
    """Admission is not a cumulative-bytes cutoff: every offer is
    tested against what is left, so the 40-byte list still goes in
    after the 100-byte one was refused."""
    cache = _cache(capacity=150)
    admitted = cache.admit_many(
        _ints([1, 2, 3, 4]), _ints([100, 100, 40, 40]), _ints([9, 9, 9, 9]))
    assert admitted.tolist() == [True, False, True, False]
    assert cache.used_bytes == 140
    assert cache.query_many(_ints([1, 2, 3, 4])).tolist() == [
        True, False, True, False]


def test_static_repeat_offer_in_one_batch_is_refunded():
    """With HDS off (or after a dropped collision) one batch can fetch
    a vertex twice: the second offer finds it resident and is admitted
    without a second insert."""
    cache = _cache()
    admitted = cache.admit_many(
        _ints([7, 8, 7]), _ints([100, 100, 100]), _ints([9, 2, 9]))
    assert admitted.tolist() == [True, False, True]  # 8: below threshold
    assert cache.inserts == 1 and cache.used_bytes == 100


def test_invalidated_vertex_is_forgotten_and_readmitted():
    cache = _cache()
    cache.admit_many(_ints([5, 6]), _ints([100, 100]), _ints([9, 9]))
    assert cache.invalidate(lambda v: v == 5) == 1
    assert cache.query_many(_ints([5, 6])).tolist() == [False, True]
    assert cache.admit_many(_ints([5]), _ints([100]), _ints([9])).tolist() \
        == [True]
    assert cache.inserts == 3 and 5 in cache
    assert cache.query_many(_ints([5])).tolist() == [True]


def test_batch_calls_accept_empty_columns():
    for policy in CachePolicy:
        cache = _cache(policy)
        assert cache.query_many(_ints([])).tolist() == []
        assert cache.admit_many(_ints([]), _ints([]), _ints([])).tolist() == []
        assert cache.drain_cost() == 0.0


def _chunks(rng, num_vertices, sizes, degrees):
    """A run's worth of scheduler-shaped traffic: per chunk one query
    column, then the misses offered in a few batches (vertices repeat
    inside a batch), now and then an invalidation."""
    for _ in range(12):
        queried = rng.integers(0, num_vertices, size=int(rng.integers(0, 60)))
        yield "query", queried
        offered = rng.permutation(np.concatenate([queried, queried[:5]]))
        for batch in np.array_split(offered, 3):
            yield "admit", (batch, sizes[batch], degrees[batch])
        if rng.random() < 0.25:
            yield "invalidate", int(rng.integers(2, 5))


@pytest.mark.parametrize("seed", range(12))
def test_static_batch_calls_match_sequential_oracle(seed):
    """Hit masks, admitted masks, counters, resident bytes and the
    drained cost (the L3-spill factor grows chunk by chunk as the cache
    fills past the small L3) equal the one-call-at-a-time oracle."""
    rng = np.random.default_rng(seed)
    cost = CostModel().derive(l3_bytes=700)
    num_vertices = 80
    degrees = rng.integers(0, 30, size=num_vertices)
    sizes = 8 + 4 * degrees
    cache = EdgeCache(1500, 6, CachePolicy.STATIC, cost, num_vertices=VERTICES)
    oracle = _StaticOracle(1500, 6, cost)
    for kind, what in _chunks(rng, num_vertices, sizes, degrees):
        if kind == "query":
            assert cache.query_many(what).tolist() == [
                oracle.query(v) for v in what.tolist()]
        elif kind == "admit":
            assert cache.admit_many(*what).tolist() == [
                oracle.admit(*offer)
                for offer in zip(*(column.tolist() for column in what))]
        else:
            cache.invalidate(lambda v: v % what == 0)
            oracle.invalidate(lambda v: v % what == 0)
        _same_state(cache, oracle)
        assert set(oracle.entries) == {
            v for v in range(num_vertices) if v in cache}
    assert cache.inserts > 0 and cache.hits > 0  # the run did something


@pytest.mark.parametrize("seed", range(16))
def test_static_bulk_admission_is_a_loop_of_admit_bit_for_bit(seed):
    """``admit_many`` under STATIC admits in rounds — the offers whose
    running total fits, then past the one that does not, of the lists
    that still fit — and inserts in bulk, never calling ``admit``.
    Against ``admit`` per
    offer on a twin: the mask, ``used_bytes``, the entry order and the
    pending cost (folded one insert at a time) are equal to the bit."""
    rng = np.random.default_rng(seed)
    cost = CostModel().derive(
        cache_insert_static=float(rng.uniform(1e-9, 1e-7)))
    num_vertices = 200
    degrees = rng.integers(0, 40, size=num_vertices)
    sizes = 8 + 4 * degrees
    capacity = int(rng.integers(200, 6000))
    cache = EdgeCache(capacity, 6, CachePolicy.STATIC, cost,
                      num_vertices=VERTICES)
    twin = EdgeCache(capacity, 6, CachePolicy.STATIC, cost,
                     num_vertices=VERTICES)
    cache.admit = None  # a per-offer call would fail
    for _ in range(10):
        offered = rng.integers(0, num_vertices,
                               size=int(rng.integers(0, 150)))
        assert cache.admit_many(
            offered, sizes[offered], degrees[offered]).tolist() == [
            twin.admit(v, s, d) for v, s, d in zip(
                offered.tolist(), sizes[offered].tolist(),
                degrees[offered].tolist())]
        assert cache.used_bytes == twin.used_bytes
        assert cache.inserts == twin.inserts
        assert list(cache._entries.items()) == list(twin._entries.items())
        assert cache._pending_cost == twin._pending_cost
    assert 0 < twin.inserts and twin.used_bytes <= capacity


@given(
    prefix=st.lists(st.integers(0, 37), max_size=30),
    tail=st.lists(st.integers(0, 39), max_size=30),
    sizes=st.lists(st.integers(0, 300), min_size=38, max_size=38),
    room=st.integers(0, 300),
    overshoot=st.integers(1, 300),
)
@settings(max_examples=200, deadline=None)
def test_static_bulk_admission_admits_after_a_refusal(prefix, tail, sizes,
                                                       room, overshoot):
    """The rounds of ``admit_many`` where the walk goes on past a
    refused list: the prefix fills the cache up to ``room`` bytes,
    vertex 38 overshoots it and is refused, vertex 39 fits what is
    left and is admitted, then any tail. Equal, in order, to ``admit``
    per offer."""
    cost = CostModel().derive(cache_insert_static=3e-8)
    sizes = np.array(sizes + [room + overshoot, room], dtype=np.int64)
    capacity = int(sizes[list(dict.fromkeys(prefix))].sum()) + room
    cache = EdgeCache(capacity, 0, CachePolicy.STATIC, cost,
                      num_vertices=VERTICES)
    twin = EdgeCache(capacity, 0, CachePolicy.STATIC, cost,
                     num_vertices=VERTICES)
    offered = np.array(prefix + [38, 39] + tail, dtype=np.int64)
    expected = [twin.admit(vertex, int(sizes[vertex]), 0)
                for vertex in offered.tolist()]
    assert expected[len(prefix):len(prefix) + 2] == [False, True]
    assert cache.admit_many(
        offered, sizes[offered], np.zeros(len(offered), np.int64)
    ).tolist() == expected
    assert cache.used_bytes == twin.used_bytes <= capacity
    assert list(cache._entries.items()) == list(twin._entries.items())
    assert cache._pending_cost == twin._pending_cost


@pytest.mark.parametrize("policy", list(CachePolicy))
@pytest.mark.parametrize("seed", range(4))
def test_batch_calls_match_scalar_calls(policy, seed):
    """Under every policy the batch entry points are the scalar
    ``query`` / ``admit`` in order — replacement is sequential, and
    cache.py is the only place that has to know."""
    rng = np.random.default_rng(seed)
    cost = CostModel().derive(l3_bytes=700, cache_fragmentation_rate=0.05)
    num_vertices = 80
    degrees = rng.integers(0, 30, size=num_vertices)
    sizes = 8 + 4 * degrees
    cache = EdgeCache(900, 6, policy, cost, num_vertices=VERTICES)
    twin = EdgeCache(900, 6, policy, cost, num_vertices=VERTICES)
    for kind, what in _chunks(rng, num_vertices, sizes, degrees):
        if kind == "query":
            assert cache.query_many(what).tolist() == [
                twin.query(v) for v in what.tolist()]
        elif kind == "admit":
            assert cache.admit_many(*what).tolist() == [
                twin.admit(*offer)
                for offer in zip(*(column.tolist() for column in what))]
        else:
            cache.invalidate(lambda v: v % what == 0)
            twin.invalidate(lambda v: v % what == 0)
        _same_state(cache, twin)
        assert list(cache._entries.items()) == list(twin._entries.items())
    if policy is not CachePolicy.STATIC:
        assert cache.evictions > 0
