"""Columnar chunks: rows, parent indices and the byte budget.

An extendable embedding is a row of a :class:`Chunk` — its new vertex
plus the row of its parent in the parent level's chunk (paper Section
5.1, Figure 6). These tests pin the layout itself (prefix gather,
intermediate lookup, memory arithmetic) and the scheduler's whole-chunk
passes over it: the byte-budget cut with its mid-embedding pause, and
the UDF drain against the row-by-row
:func:`tests.reference.compute_candidates`.
"""

import numpy as np
import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineState
from repro.cluster.network import NetworkModel
from repro.core import EngineConfig, KhuzdulEngine
from repro.core.cache import CachePolicy, EdgeCache
from repro.core.chunk import EMBEDDING_BASE_BYTES, Chunk, EdgeListSource
from repro.core.extend import ScheduleExtender
from repro.core.plan import PatternPlan, group_patterns
from repro.core.scheduler import MachineScheduler, _LevelState
from repro.core.workspace import Workspace
from repro.errors import OutOfMemoryError
from repro.graph.generators import erdos_renyi, power_law_graph
from repro.obs import Observability, names
from repro.patterns import catalog
from repro.patterns.schedule import automine_schedule
from repro.systems import KGraphPi, apps
from tests.reference import compute_candidates

try:  # Hypothesis draws the batch lists where it is installed
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def _batch_lists(test):
        return settings(max_examples=60, deadline=None)(
            given(batches=st.lists(st.tuples(
                st.integers(1, 7),
                st.lists(st.integers(8, 40_000), min_size=1, max_size=12),
            ), max_size=9))(test)
        )
except ImportError:  # a bare container: a fixed sweep of the same shapes
    def _drawn(seed):
        rng = np.random.default_rng(seed)
        return [
            (int(rng.integers(1, 8)),
             rng.integers(8, 40_000, size=int(rng.integers(1, 13))).tolist())
            for _ in range(int(rng.integers(0, 10)))
        ]

    _batch_lists = pytest.mark.parametrize(
        "batches", [_drawn(seed) for seed in range(60)])


def _machine(memory_bytes=1 << 20):
    return MachineState(0, cores=4, memory_bytes=memory_bytes)


def _rows(chunk, vertex, parent_idx=None, stored=None, source=None):
    vertex = np.asarray(vertex, dtype=np.int64)
    chunk.fill(
        vertex,
        None if parent_idx is None else np.asarray(parent_idx),
        np.full(len(vertex), EMBEDDING_BASE_BYTES, dtype=np.int64)
        if stored is None else np.asarray(stored, dtype=np.int64),
        EdgeListSource.NONE if source is None else source,
    )
    return chunk


def _stack():
    """A hand-built 4-level stack: 2 roots, 3, 4 and 5 descendants."""
    machine = _machine()
    level0 = _rows(Chunk(0, 1000, machine), [10, 11])
    level1 = _rows(Chunk(1, 1000, machine, parent=level0),
                   [20, 21, 22], [0, 0, 1])
    level2 = _rows(Chunk(2, 1000, machine, parent=level1),
                   [30, 31, 32, 33], [2, 0, 0, 1])
    level3 = _rows(Chunk(3, 1000, machine, parent=level2),
                   [40, 41, 42, 43, 44], [3, 3, 0, 1, 2])
    return level0, level1, level2, level3


# ----------------------------------------------------------------------
# the layout
# ----------------------------------------------------------------------
def test_prefixes_gather_through_parent_idx():
    level0, level1, level2, level3 = _stack()
    assert level0.prefixes().tolist() == [[10], [11]]
    assert level1.prefixes().tolist() == [[10, 20], [10, 21], [11, 22]]
    assert level2.prefixes().tolist() == [
        [11, 22, 30], [10, 20, 31], [10, 20, 32], [10, 21, 33],
    ]
    assert level3.prefixes().tolist() == [
        [10, 21, 33, 40],
        [10, 21, 33, 41],
        [11, 22, 30, 42],
        [10, 20, 31, 43],
        [10, 20, 32, 44],
    ]


def test_intermediates_lookup_at_reuse_level():
    """A stored intersection belongs to the kernel batch that produced
    a chunk's rows — one segment per *parent* row — and descendants
    find theirs by walking ``parent_idx`` up to that chunk."""
    _, level1, level2, level3 = _stack()
    # the batch over level1's 3 rows produced level2 and stored raws
    level2.raw_values = np.array([7, 8, 9, 5, 6, 1])
    level2.raw_offsets = np.array([0, 3, 5, 6])  # per level-1 row
    values, offsets, segments = level2.intermediates(2)
    assert (values is level2.raw_values) and (offsets is level2.raw_offsets)
    assert segments.tolist() == [2, 0, 0, 1]  # own rows: parent_idx
    _, _, segments = level3.intermediates(2)
    # level3 rows sit under level2 rows [3, 3, 0, 1, 2], whose parents
    # are level1 rows [1, 1, 2, 0, 0]
    assert segments.tolist() == [1, 1, 2, 0, 0]
    raws = [
        values[offsets[s]:offsets[s + 1]].tolist() for s in segments
    ]
    assert raws == [[5, 6], [5, 6], [1], [7, 8, 9], [7, 8, 9]]
    assert level3.intermediates(1) is None  # nothing stored there
    assert level1.intermediates(0) is None  # roots have no producer


def test_source_column_starts_pending_or_inactive():
    machine = _machine()
    pending = _rows(Chunk(1, 1000, machine), [1, 2],
                    source=EdgeListSource.PENDING)
    assert (pending.source == 0).all()  # Figure 6's PENDING
    inactive = _rows(Chunk(1, 1000, machine), [1, 2])
    assert (inactive.source == EdgeListSource.NONE).all()


# ----------------------------------------------------------------------
# memory arithmetic
# ----------------------------------------------------------------------
def test_preallocation_charges_and_release_returns():
    machine = _machine()
    chunk = Chunk(1, 4096, machine, preallocate=True)
    assert machine.resident_bytes == 4096  # before any row exists
    _rows(chunk, [1, 2, 3])
    assert machine.resident_bytes == 4096  # rows live in the reservation
    assert chunk.used_bytes == 3 * EMBEDDING_BASE_BYTES
    chunk.release()
    assert machine.resident_bytes == 0
    chunk.release()  # idempotent
    assert machine.resident_bytes == 0
    assert machine.peak_bytes == 4096


def test_unreserved_chunk_charges_its_rows():
    machine = _machine()
    chunk = _rows(Chunk(0, 4096, machine), range(5))
    assert machine.resident_bytes == 5 * EMBEDDING_BASE_BYTES
    chunk.release()
    assert machine.resident_bytes == 0


def test_out_of_memory_at_preallocation():
    machine = _machine(memory_bytes=1000)
    with pytest.raises(OutOfMemoryError):
        Chunk(1, 4096, machine, preallocate=True)


def test_out_of_memory_when_rows_overflow():
    machine = _machine(memory_bytes=100)
    with pytest.raises(OutOfMemoryError):
        _rows(Chunk(0, 1000, machine), range(10))


def test_overflow_is_charged_on_top_then_refunded():
    """Rows that outgrow the reservation are charged on top; refunds
    shrink it back toward — never below — the fixed capacity."""
    machine = _machine()
    chunk = Chunk(1, 200, machine, preallocate=True)
    _rows(chunk, [1, 2, 3], stored=[24 + 80, 24 + 80, 24 + 40])
    assert chunk.used_bytes == 272
    assert machine.resident_bytes == 272  # 72 over the reservation
    assert machine.peak_bytes == 272
    chunk.refund(np.array([0]), np.array([80]))
    assert chunk.stored_bytes.tolist() == [24, 104, 64]
    assert chunk.used_bytes == 192
    assert machine.resident_bytes == 200  # back at capacity, no lower
    chunk.refund(np.array([1, 2]), np.array([80, 40]))
    assert chunk.stored_bytes.tolist() == [24, 24, 24]
    assert chunk.used_bytes == 72
    assert machine.resident_bytes == 200
    assert machine.peak_bytes == 272
    chunk.release()
    assert machine.resident_bytes == 0


def test_fit_takes_rows_until_memory_is_exhausted():
    chunk = Chunk(1, 100, _machine())
    # 40 + 40 < 100 <= 40 + 40 + 40: the third overflows and is taken
    assert chunk.fit(np.full(10, 40)) == 3
    assert chunk.fit(np.full(2, 40)) == 2  # ran out of candidates
    assert chunk.fit(np.array([50, 50, 50])) == 2  # exactly full
    assert chunk.fit(np.array([500, 10])) == 1  # oversized: alone
    assert chunk.max_rows == 5  # ceil(100 / 24) bare embeddings


# ----------------------------------------------------------------------
# the scheduler's passes over the columns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 240, seed=5)


def _scheduler(graph, schedule, chunk_bytes, machines=1, udf=None,
               machine_id=0, cache=(0, 16, CachePolicy.STATIC), hds=True):
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=32 << 20)
    )
    scheduler = MachineScheduler(
        cluster=cluster,
        machine=cluster.machines[machine_id],
        extender=ScheduleExtender(),
        cache=EdgeCache(*cache, cluster.cost,
                        num_vertices=graph.num_vertices),
        udf=udf,
        chunk_bytes=chunk_bytes,
        hds_enabled=hds,
        hds_slots=64,
        vcs_enabled=True,
        numa_aware=True,
        trie=group_patterns(
            (PatternPlan(schedule, None, 1, chunk_bytes),), fuse=False
        )[0].trie,
    )
    return cluster, scheduler


def _fill(scheduler, state):
    """The walk's fill of ``state``'s current child: the chunk is
    registered and charged, the parent extended on first touch (a
    one-chunk kernel call), then filled."""
    node = state.node.children[state.child]
    scheduler._register_chunk()
    chunk = Chunk(node.level, scheduler.chunk_bytes, scheduler.machine,
                  parent=state.chunk, preallocate=True)
    if state.batch is None:
        (batch,) = scheduler.extender.extend_chunk(
            scheduler.graph, node.step, [(scheduler.extender, state.chunk)])
        state.extend(batch)
    return scheduler._fill_next_chunk(state, chunk)


def _state(scheduler, chunk):
    """A DFS state for ``chunk`` at its level of the one-path trie."""
    node = scheduler.trie
    for _ in range(chunk.level):
        node = node.children[0]
    return _LevelState(chunk, node)


def test_fill_cuts_on_the_byte_budget_and_pauses_mid_parent(graph):
    """Every child chunk takes candidates until its memory is full —
    the last one overflowing — wherever in a parent's candidate list
    that happens; the next fill resumes at exactly that candidate."""
    schedule = automine_schedule(catalog.chain(4))
    capacity = 1024
    _, scheduler = _scheduler(graph, schedule, capacity)
    roots = np.arange(graph.num_vertices)
    root_chunk = scheduler._fill_root_chunk(roots)
    # 1024 / 24 bytes: 43 roots, the 43rd crossing the budget
    assert len(root_chunk) == 43
    assert root_chunk.used_bytes >= capacity > root_chunk.used_bytes - 24
    assert len(scheduler._fill_root_chunk(roots[43:])) == 17  # the rest
    assert scheduler._fill_root_chunk(roots[60:]) is None
    state = _state(scheduler, root_chunk)
    (oracle,) = scheduler.extender.extend_chunk(
        graph, schedule.steps[0], [(scheduler.extender, root_chunk)])
    ebytes = graph.edge_list_bytes_all()

    children = []
    mid_parent_pauses = 0
    while not state.exhausted:
        before = scheduler.machine.resident_bytes
        chunk = _fill(scheduler, state)
        if chunk is None:
            continue
        # pre-allocated as a whole; only an overflowing last row adds
        assert scheduler.machine.resident_bytes == before + max(
            capacity, chunk.used_bytes)
        # position 1's edge list is active: its bytes are reserved
        assert chunk.stored_bytes.tolist() == (
            EMBEDDING_BASE_BYTES + ebytes[chunk.vertex]).tolist()
        assert (chunk.source == EdgeListSource.PENDING).all()
        used = np.cumsum(chunk.stored_bytes)
        assert (used[:-1] < capacity).all()  # not full before the last
        if not state.exhausted:
            assert used[-1] >= capacity  # full: that is why it stopped
        if children and children[-1].parent_idx[-1] == chunk.parent_idx[0]:
            mid_parent_pauses += 1
        children.append(chunk)
        # "the subtree returns": the child's memory comes back whole
        chunk.release()
        assert scheduler.machine.resident_bytes == before

    assert np.concatenate([c.vertex for c in children]).tolist() == (
        oracle.values.tolist())
    assert np.concatenate([c.parent_idx for c in children]).tolist() == (
        oracle.rows.tolist())
    assert len(children) > 3 and mid_parent_pauses > 0
    assert state.children == len(oracle.values)
    assert state.cursor == len(root_chunk)


def test_resolve_refunds_everything_but_stored_fetches(graph):
    """After resolve a row pins its reserved edge list only if it was
    fetched and not admitted to the cache; the chunk's reservation
    shrinks to max(capacity, what is still used)."""
    schedule = automine_schedule(catalog.chain(4))
    capacity = 2048
    cluster, scheduler = _scheduler(graph, schedule, capacity, machines=3)
    machine = scheduler.machine
    roots = cluster.partitioned.local_vertices(0)
    state = _state(scheduler, scheduler._fill_root_chunk(roots))
    base = machine.resident_bytes
    chunk = _fill(scheduler, state)
    reserved = chunk.used_bytes
    assert machine.resident_bytes == base + max(capacity, reserved)
    child_state = _state(scheduler, chunk)
    scheduler._resolve_chunk(chunk, child_state)

    assert not (chunk.source == EdgeListSource.PENDING).any()
    ebytes = graph.edge_list_bytes_all()[chunk.vertex]
    fetched = chunk.source == EdgeListSource.REMOTE  # cache holds nothing
    assert fetched.any() and not fetched.all()
    assert (chunk.source[cluster.partitioned.owners_all()[chunk.vertex]
                         == 0] == EdgeListSource.LOCAL).all()
    assert chunk.stored_bytes.tolist() == (
        EMBEDDING_BASE_BYTES + np.where(fetched, ebytes, 0)).tolist()
    assert chunk.used_bytes == int(chunk.stored_bytes.sum())
    assert chunk.used_bytes < reserved
    assert machine.resident_bytes == base + max(capacity, chunk.used_bytes)
    assert machine.peak_bytes >= base + reserved
    assert scheduler.fetch_sources["remote"] == int(fetched.sum())
    assert sum(scheduler.fetch_sources.values()) == len(chunk)
    assert child_state.batch_sizes[0] == len(chunk) - int(fetched.sum())
    assert sum(child_state.batch_sizes) == len(chunk)


def _remote_chunk(scheduler, vertex, ebytes):
    """A level-1 chunk of ``vertex`` with every edge list still pending."""
    chunk = Chunk(1, 1 << 20, scheduler.machine)
    chunk.fill(vertex, np.zeros(len(vertex), dtype=np.int64),
               EMBEDDING_BASE_BYTES + ebytes[vertex], EdgeListSource.PENDING)
    return chunk


def test_resolve_makes_no_per_row_calls(graph, count_calls):
    """Resolve is passes over the chunk's columns: a chunk ten times as
    long makes the same Python-level calls, give or take a circulant
    batch per peer (static policy, HDS on, every row remote)."""
    schedule = automine_schedule(catalog.chain(4))
    machines = 4
    cluster, scheduler = _scheduler(graph, schedule, 1 << 20,
                                    machines=machines)
    elsewhere = np.flatnonzero(cluster.partitioned.owners_all() != 0)
    ebytes = graph.edge_list_bytes_all()
    rng = np.random.default_rng(0)

    def resolve(rows):
        chunk = _remote_chunk(
            scheduler, rng.choice(elsewhere, size=rows), ebytes)
        calls = count_calls(scheduler._resolve_chunk, chunk,
                            _state(scheduler, chunk))
        assert set(chunk.source.tolist()) <= {
            EdgeListSource.SHARED, EdgeListSource.REMOTE}
        chunk.release()
        return calls

    resolve(1_000)  # warm: lazy imports, the cache's mask at full size
    assert abs(resolve(10_000) - resolve(1_000)) < machines - 1
    assert scheduler.hds.probes == 12_000
    assert scheduler.fetch_sources["remote"] > 100
    assert scheduler.fetch_sources["shared"] > 10_000


def test_resolve_offers_a_chunk_to_the_cache_once(graph, count_calls):
    """Admission is in offer order and the circulant batches lie end to
    end in it: one ``admit_many`` for an all-remote chunk spread over
    seven owners, which still travels as seven fetch batches."""
    cluster, scheduler = _scheduler(
        graph, automine_schedule(catalog.chain(4)), 1 << 20, machines=8,
        cache=(1 << 14, 4, CachePolicy.STATIC),
    )
    owners = cluster.partitioned.owners_all()
    elsewhere = np.flatnonzero(owners != 0)
    assert len(set(owners[elsewhere].tolist())) == 7
    chunk = _remote_chunk(scheduler, elsewhere, graph.edge_list_bytes_all())
    state = _state(scheduler, chunk)
    assert count_calls(scheduler._resolve_chunk, chunk, state,
                       only={"admit_many"}) == 1
    assert len(state.comm_times) - 1 == 7
    assert len(scheduler.cache) > 0


@pytest.mark.parametrize("cache", [
    (600, 9, CachePolicy.STATIC),  # a threshold that refuses some lists,
    (1 << 20, 0, CachePolicy.STATIC),  # room for all of them,
    (300, 0, CachePolicy.STATIC),  # a capacity that fills mid-chunk,
    (300, 0, CachePolicy.LRU),  # and one that evicts to go on admitting
], ids=lambda cache: f"{cache[2].value}-{cache[0]}-{cache[1]}")
@pytest.mark.parametrize("seed", range(4))
def test_one_offer_admits_what_an_offer_per_batch_did(graph, cache, seed):
    """The chunk-wide offer against its predecessor — one ``admit_many``
    per circulant batch, in circulant order, on a twin cache: the same
    rows admitted, the same cache afterwards, over three chunks (the
    later ones find residents). HDS is off, so a vertex drawn twice is
    offered twice."""
    machines = 5
    cluster, scheduler = _scheduler(
        graph, automine_schedule(catalog.chain(4)), 1 << 20,
        machines=machines, cache=cache, hds=False,
    )
    twin = EdgeCache(*cache, cluster.cost,
                     num_vertices=graph.num_vertices)
    owners = cluster.partitioned.owners_all()
    elsewhere = np.flatnonzero(owners != 0)
    ebytes, degrees = graph.edge_list_bytes_all(), graph.degrees()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        vertex = rng.choice(elsewhere, size=40)
        assert len(set(vertex.tolist())) < len(vertex)
        chunk = _remote_chunk(scheduler, vertex, ebytes)
        scheduler._resolve_chunk(chunk, _state(scheduler, chunk))

        remote = np.flatnonzero(~twin.query_many(vertex))
        expected = np.zeros(len(vertex), dtype=bool)
        for hop in range(1, machines):  # machine 0 resolves: hop = owner
            rows = remote[owners[vertex[remote]] == hop]
            offered = vertex[rows]
            expected[rows] = twin.admit_many(
                offered, ebytes[offered], degrees[offered])
        fetched = chunk.source == EdgeListSource.REMOTE
        assert np.flatnonzero(fetched).tolist() == remote.tolist()
        admitted = fetched & (chunk.stored_bytes == EMBEDDING_BASE_BYTES)
        assert admitted.tolist() == expected.tolist()
        assert list(scheduler.cache._entries.items()) == list(
            twin._entries.items())
        assert scheduler.cache.used_bytes == twin.used_bytes
        assert scheduler.cache.evictions == twin.evictions
        chunk.release()
    assert 0 < scheduler.cache.inserts == twin.inserts
    if cache[2] is CachePolicy.LRU:
        assert twin.evictions > 0
    elif cache[0] < 1 << 20:
        assert twin.inserts < len(elsewhere)  # some list was refused


def _network(obs):
    network = NetworkModel(8, CostModel())
    network.bind_metrics(obs.registry.scope())
    return network, [MachineState(m, cores=4, memory_bytes=1 << 20)
                     for m in range(8)]


def record_fetch(network, requester, owner, payload_bytes, server):
    """One edge-list fetch, told to ``network`` on its own: the
    reference every batched fold must equal. The request header
    travels requester -> owner and the payload comes back, both into
    the traffic matrix; the owner's served tallies and the ``net.*``
    counters grow by one request."""
    header = network.cost.request_header_bytes
    network.traffic_bytes[requester, owner] += header
    network.traffic_bytes[owner, requester] += payload_bytes
    network.request_counts[requester, owner] += 1
    network._m_requests.inc()
    network._m_payload.inc(payload_bytes)
    network._m_wire.inc(header + payload_bytes)
    server.served_bytes += payload_bytes
    server.served_requests += 1


@_batch_lists
def test_chunk_folds_equal_a_batch_at_a_time(batches):
    """``record_fetch_batches`` / ``batch_times`` over one chunk's owner
    batches against their one-batch forms called in order, and those
    against :func:`record_fetch` one list at a time: the same matrices,
    ``served_*``, batch tally, every ``net.*`` counter and histogram —
    and the same wire seconds, to the bit."""
    folded, by_batch, by_fetch = (Observability() for _ in range(3))
    network, machines = _network(folded)
    chunk = [(owner, len(sizes), sum(sizes)) for owner, sizes in batches]
    network.record_fetch_batches(0, chunk, machines)
    seconds = network.batch_times(chunk)

    one, one_machines = _network(by_batch)
    each, each_machines = _network(by_fetch)
    expected = []
    for owner, sizes in batches:
        one.record_fetch_batches(0, [(owner, len(sizes), sum(sizes))],
                                 one_machines)
        expected.append(one.batch_time(sum(sizes), len(sizes)))
        for size in sizes:
            record_fetch(each, 0, owner, size, each_machines[owner])
        each.batch_time(sum(sizes), len(sizes))
    assert seconds == expected
    for other, other_machines, obs in ((one, one_machines, by_batch),
                                       (each, each_machines, by_fetch)):
        assert network.traffic_bytes.tolist() == other.traffic_bytes.tolist()
        assert network.request_counts.tolist() == (
            other.request_counts.tolist())
        assert network.num_batches == other.num_batches
        assert [(m.served_bytes, m.served_requests) for m in machines] == [
            (m.served_bytes, m.served_requests) for m in other_machines]
        assert folded.registry.snapshot() == obs.registry.snapshot()


def _calls_to_resolve(count_calls, scheduler, vertex, ebytes):
    chunk = _remote_chunk(scheduler, vertex, ebytes)
    state = _state(scheduler, chunk)
    calls = count_calls(scheduler._resolve_chunk, chunk, state)
    chunk.release()
    return calls, len(state.comm_times) - 1


def test_resolve_calls_do_not_depend_on_the_owners(graph, count_calls):
    """The call budget of a resolve (docs/performance.md, "The per-chunk
    constant"): a 100-row chunk whose remote rows sit on one owner and
    one whose rows sit on seven make the same Python- and C-level calls
    — the owner loop runs on numbers, the network and the counters are
    told once per chunk — and at most 100 of them (HDS on, a static
    cache with no room; the parent made 182 and 320)."""
    cluster, scheduler = _scheduler(
        graph, automine_schedule(catalog.chain(4)), 1 << 20, machines=8)
    owners = cluster.partitioned.owners_all()
    ebytes = graph.edge_list_bytes_all()
    rng = np.random.default_rng(1)
    one_owner = rng.choice(np.flatnonzero(owners == 3), size=100)
    seven_owners = rng.choice(np.flatnonzero(owners != 0), size=100)
    _calls_to_resolve(count_calls, scheduler, seven_owners, ebytes)  # warm
    one, batches = _calls_to_resolve(
        count_calls, scheduler, one_owner, ebytes)
    assert batches == 1
    seven, batches = _calls_to_resolve(
        count_calls, scheduler, seven_owners, ebytes)
    assert batches == 7
    assert one == seven <= 100


def _lockstep_schedulers(graph, machines=8):
    """Every machine's scheduler on one cluster and trie, their
    extenders sharing a run's workspace, as the engine builds them."""
    cluster = Cluster(
        graph, ClusterConfig(num_machines=machines, memory_bytes=32 << 20)
    )
    schedule = automine_schedule(catalog.chain(4))
    trie = group_patterns(
        (PatternPlan(schedule, None, 1, 1 << 20),), fuse=False)[0].trie
    workspace = Workspace()
    return cluster, [
        MachineScheduler(
            cluster=cluster, machine=machine,
            extender=ScheduleExtender(workspace=workspace),
            cache=EdgeCache(0, 16, CachePolicy.STATIC, cluster.cost,
                            num_vertices=cluster.graph.num_vertices),
            udf=None, chunk_bytes=1 << 20, hds_enabled=True,
            hds_slots=64, vcs_enabled=True, numa_aware=True, trie=trie,
        )
        for machine in cluster.machines
    ]


def _calls_to_resolve_together(count_calls, schedulers, vertices, ebytes):
    parts = []
    for scheduler, vertex in zip(schedulers, vertices):
        chunk = _remote_chunk(scheduler, vertex, ebytes)
        parts.append((scheduler, chunk, _state(scheduler, chunk)))
    (lead, chunk, state), *peers = parts
    calls = count_calls(lead._resolve_chunk, chunk, state, peers)
    for _, chunk, _ in parts:
        chunk.release()
    return calls, [len(state.comm_times) - 1 for _, _, state in parts]


def test_lockstep_resolve_calls_do_not_depend_on_the_owners(graph,
                                                            count_calls):
    """The lockstep form of the call budget above: one resolve over 8
    machines' 100-row chunks makes the same calls whether each
    machine's remote rows sit on one owner or on seven, and at most
    100 + 8·k of them — a machine adds k calls to the site's share,
    its own counters, cache and prices (438 calls measured: k = 43)."""
    cluster, schedulers = _lockstep_schedulers(graph)
    owners = cluster.partitioned.owners_all()
    ebytes = graph.edge_list_bytes_all()
    rng = np.random.default_rng(1)
    one_owner = [rng.choice(np.flatnonzero(owners == (m + 3) % 8), size=100)
                 for m in range(8)]
    seven_owners = [rng.choice(np.flatnonzero(owners != m), size=100)
                    for m in range(8)]
    _calls_to_resolve_together(  # warm
        count_calls, schedulers, seven_owners, ebytes)
    one, batches = _calls_to_resolve_together(
        count_calls, schedulers, one_owner, ebytes)
    assert batches == [1] * 8
    seven, batches = _calls_to_resolve_together(
        count_calls, schedulers, seven_owners, ebytes)
    assert batches == [7] * 8
    print(f"{one} calls, k = {(one - 100) / 8}")
    assert one == seven <= 100 + 8 * 43


def test_census_calls_per_chunk(count_calls):
    """A census is hundreds of small chunks, so what it costs is the
    interpreter-level calls a chunk makes whatever its rows: a 4-motif
    census under IEP on a 300-vertex graph, four machines, 1 KiB chunks,
    stays under 400 calls a chunk (the parent: 489; these chunks are
    ~40 rows, so the count is nearly all constant)."""
    graph = power_law_graph(300, 1500, exponent=2.2, max_degree=60, seed=3)
    reports = []

    def census():
        system = KGraphPi(
            graph, ClusterConfig(num_machines=4),
            EngineConfig(counting="iep", chunk_bytes=1024,
                         auto_fit_chunks=False),
        )
        reports.append(apps.motif_count(system, 4))

    census()  # lazy imports, compiled plans, the graph's adjacency rows
    calls = count_calls(census)
    chunks = reports[-1].extra["chunks"]
    assert chunks > 500
    assert calls / chunks < 400


def _reference_calls(graph, schedule):
    """Every ``(prefix, candidates)`` the UDF must see, by the
    row-by-row reference: a plain DFS over compute_candidates."""
    final = schedule.pattern.num_vertices - 1
    calls = []

    def walk(vertices, raws):
        level = len(vertices)
        step = schedule.steps[level - 1]
        inter = raws.get(step.reuse_level)
        result = compute_candidates(graph, step, vertices, inter, True)
        if level == final:
            if len(result.candidates):
                calls.append((vertices, result.candidates.tolist()))
            return
        if result.raw is not None:
            raws = {**raws, level: result.raw}
        for candidate in result.candidates.tolist():
            walk(vertices + (candidate,), raws)

    for root in range(graph.num_vertices):
        walk((root,), {})
    return calls


@pytest.mark.parametrize("name,chunk_bytes", [
    ("clique4", 1024), ("clique4", 1 << 20), ("chain4", 1024),
    ("house", 2048),
])
def test_udf_drain_sees_what_compute_candidates_produces(
    graph, name, chunk_bytes
):
    pattern = {"clique4": catalog.clique(4), "chain4": catalog.chain(4),
               "house": catalog.house()}[name]
    schedule = automine_schedule(pattern)
    seen = []

    def udf(prefix, candidates):
        assert all(type(v) is int for v in prefix)
        seen.append((prefix, candidates.tolist()))

    cluster = Cluster(
        graph, ClusterConfig(num_machines=3, memory_bytes=32 << 20)
    )
    report = KhuzdulEngine(
        cluster, EngineConfig(chunk_bytes=chunk_bytes)
    ).run(schedule, udf=udf)
    expected = _reference_calls(graph, schedule)
    assert sorted(seen) == sorted(expected)
    assert report.counts == sum(len(c) for _, c in expected)


_DRAINS = {
    "chain5": (catalog.chain(5), False),
    "star3": (catalog.star(3), False),
    "tailed_triangle": (catalog.tailed_triangle(), False),
    "house": (catalog.house(), False),
    "cycle4-induced": (catalog.cycle(4), True),
    "clique4": (catalog.clique(4), False),
}


@pytest.mark.parametrize("name", sorted(_DRAINS))
def test_counting_drain_equals_listing_drain(name):
    """A run drained without a UDF (cardinalities, no list)
    and one whose UDF reads every candidate (the listing path) are the
    same run: the brute-force count, and the simulated clock and the
    integer tallies it is priced from, exactly."""
    pattern, induced = _DRAINS[name]
    schedule = automine_schedule(pattern, induced=induced)
    tallies = (names.EXTEND_CALLS, names.EXTEND_MERGE_ELEMENTS,
               names.EXTEND_CANDIDATES, names.KERNEL_PROBE_ELEMENTS)
    for graph in (erdos_renyi(20, 45, seed=5),
                  power_law_graph(32, 80, exponent=2.0, seed=7)):
        listed = []
        runs = []
        for udf in (None, lambda prefix, candidates: listed.append(
                (prefix, candidates.tolist()))):
            obs = Observability()
            cluster = Cluster(
                graph, ClusterConfig(num_machines=3, memory_bytes=32 << 20)
            )
            report = KhuzdulEngine(
                cluster, EngineConfig(chunk_bytes=2048), obs=obs
            ).run(schedule, udf=udf)
            runs.append((
                report.counts, report.simulated_seconds, report.breakdown,
                [obs.registry.total(tally) for tally in tallies],
            ))
            counted = obs.registry.total(names.KERNEL_COUNT_ONLY_BATCHES)
            assert (counted > 0) == (udf is None)
        assert runs[0] == runs[1]
        assert runs[0][0] == sum(len(found) for _, found in listed)
        assert runs[0][0] == count_embeddings_brute_force(
            graph, pattern, induced=induced)
