"""Tests for the horizontal data sharing hash table (Section 5.2).

The table is a per-chunk array pass (``HorizontalShareTable.share``);
the named cases below are the behaviours the scalar probe API used to
pin, and the differential test holds the pass — hit mask and every
counter — to a sequential dict-of-chains table kept here.
"""

import numpy as np
import pytest

from repro.core.hds import HorizontalShareTable

_KNUTH = 2654435761
_MASK = 0xFFFFFFFF


class _SequentialTable:
    """Row-by-row reference: one list of vertices per slot, the walk
    the engine used before chunks became columns."""

    def __init__(self, num_slots, chaining):
        self.num_slots = max(1, num_slots)
        self.chaining = chaining
        self.probes = self.hits = self.inserts = 0
        self.drops = self.chain_steps = 0

    def share(self, vertices):
        slots = {}  # the table is empty at the start of every chunk
        return [self._probe(slots, int(v)) for v in vertices]

    def _probe(self, slots, vertex):
        self.probes += 1
        slot = ((vertex + 1) * _KNUTH & _MASK) % self.num_slots
        chain = slots.setdefault(slot, [])
        if not chain:
            chain.append(vertex)
            self.inserts += 1
            return False
        if chain[0] == vertex:
            self.hits += 1
            return True
        if not self.chaining:
            self.drops += 1
            return False
        for occupant in chain[1:]:
            self.chain_steps += 1
            if occupant == vertex:
                self.hits += 1
                return True
        self.chain_steps += 1
        chain.append(vertex)
        self.inserts += 1
        return False


def _share(table, vertices):
    return table.share(np.array(vertices, dtype=np.int64)).tolist()


def _counters(table):
    return {
        name: getattr(table, name)
        for name in ("probes", "hits", "inserts", "drops", "chain_steps")
    }


def test_insert_then_hit():
    table = HorizontalShareTable(64)
    assert _share(table, [5, 5]) == [False, True]
    assert table.hits == 1
    assert table.inserts == 1


def test_collisions_are_dropped_not_chained():
    table = HorizontalShareTable(1)  # everything collides
    # 1 occupies the slot; 2 is dropped twice (never inserted); the
    # original entry stays intact
    assert _share(table, [1, 2, 2, 1]) == [False, False, False, True]
    assert table.inserts == 1
    assert table.drops == 2
    assert table.chain_steps == 0


def test_collisions_are_chained_on_request():
    table = HorizontalShareTable(1, chaining=True)
    assert _share(table, [1, 2, 2, 1, 3]) == [False, False, True, True, False]
    assert table.inserts == 3
    assert table.drops == 0
    # 2 appended after one comparison, found after one, 1 is the head,
    # 3 walks past 2 and the end
    assert table.chain_steps == 1 + 1 + 0 + 2


def test_counters_cumulative_across_chunks():
    table = HorizontalShareTable(64)
    assert _share(table, [1, 1]) == [False, True]
    # a new chunk starts from an empty table...
    assert _share(table, [1]) == [False]
    # ...but the stats survive for reporting
    assert table.hits == 1
    assert table.inserts == 2
    assert table.probes == 3


def test_distinct_vertices_distinct_slots_mostly():
    table = HorizontalShareTable(4096)
    assert not any(_share(table, range(200)))
    # multiplicative hashing into 4096 slots: few collisions among 200
    assert table.inserts >= 190
    assert table.inserts + table.drops == 200


def test_minimum_one_slot():
    table = HorizontalShareTable(0)
    assert table.num_slots == 1
    assert _share(table, [1, 99]) == [False, False]
    assert table.drops == 1


def test_dedup_rate_reflects_requests():
    table = HorizontalShareTable(1024)
    _share(table, [42] * 10)
    assert table.hits == 9
    assert table.inserts == 1


def test_empty_chunk():
    table = HorizontalShareTable(8, chaining=True)
    assert _share(table, []) == []
    assert not any(_counters(table).values())


def test_int32_column_does_not_overflow_the_hash():
    """Chunk columns are int32 when they come from a kernel batch's
    values; ``(v + 1) * 2654435761`` must be taken in 64 bits."""
    vertices = np.array([7, 2**31 - 2, 7, 123456, 2**31 - 2], dtype=np.int32)
    for chaining in (False, True):
        table = HorizontalShareTable(8192, chaining=chaining)
        oracle = _SequentialTable(8192, chaining)
        assert table.share(vertices).tolist() == oracle.share(vertices)
        assert _counters(table) == _counters(oracle)


@pytest.mark.parametrize("chaining", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_chunk_pass_matches_sequential_table(seed, chaining):
    """Random chunks with forced collisions (few slots, vertices drawn
    from a small pool so they repeat): the array pass and the row walk
    agree on the hit mask of every chunk and on every counter, which
    accumulate over the chunks of one table."""
    rng = np.random.default_rng(seed)
    num_slots = int(rng.integers(1, 41))
    table = HorizontalShareTable(num_slots, chaining=chaining)
    oracle = _SequentialTable(num_slots, chaining)
    for _ in range(10):
        pool = rng.integers(0, 5000, size=int(rng.integers(1, 60)))
        vertices = rng.choice(pool, size=int(rng.integers(0, 200)))
        if rng.random() < 0.5:
            vertices = vertices.astype(np.int32)
        assert table.share(vertices).tolist() == oracle.share(vertices)
        assert _counters(table) == _counters(oracle)


@pytest.mark.parametrize("chaining", [False, True])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("num_slots", [1, 2, 8192])
def test_share_matches_sequential_table_on_edge_shapes(num_slots, dtype,
                                                       chaining):
    """The dropping table is a scatter/gather through an array it owns
    and never clears (rows scattered in reverse, so the first to reach
    a slot stays in it); against the row walk on the shapes that would
    show a stale slot or a wrong winner: an empty column, all rows one
    vertex, all distinct, distinct but colliding (every slot count),
    and a second chunk whose vertices land in slots the first one
    wrote."""
    table = HorizontalShareTable(num_slots, chaining=chaining)
    oracle = _SequentialTable(num_slots, chaining)
    rng = np.random.default_rng(num_slots)
    columns = [
        [],
        [9] * 50,
        list(range(300)),
        rng.permutation(300).tolist(),
        rng.integers(0, 40, size=500).tolist(),
        list(range(300, 0, -1)),  # the first chunks' slots, other rows
        [2**31 - 2, 0, 2**31 - 2, 1, 0],
        [],
    ]
    for column in columns:
        vertices = np.array(column, dtype=dtype)
        assert table.share(vertices).tolist() == oracle.share(vertices)
        assert _counters(table) == _counters(oracle)
