"""Chunk-level UDFs: ``udf.chunk(pattern, prefixes, offsets, values)``
once per final drain, with the drained rows' prefix matrix and their
candidate CSR.

- the MNI collector's vertex masks against the set oracle
  (:class:`tests.reference.SetDomainCollector`) over labeled graphs with
  repeated labels, a self-loop CSR and a pattern with no match, fed in
  random chunk splits and merged in random orders;
- the engine and a baseline hand it the domains the oracle collects
  row by row through the row adapter;
- the row adapter (:class:`repro.core.scheduler.RowUdf`): ``merge``
  only where the callable has one, so a closure is still refused where
  copies are merged;
- call-count tripwires: a drain into a chunk UDF makes the same calls
  at two row counts, in the engine and in ``common.walk``;
- a source tripwire: the per-row contract's names stay out of ``src/``.
"""

from __future__ import annotations

import ast
import pickle
from collections import deque
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SingleMachine
from repro.baselines.common import tree_roots, walk
from repro.cluster import Cluster, ClusterConfig
from repro.core import EngineConfig, KhuzdulEngine, kernels
from repro.core.cache import CachePolicy, EdgeCache
from repro.core.chunk import EMBEDDING_BASE_BYTES, Chunk, EdgeListSource
from repro.core.extend import ScheduleExtender
from repro.core.plan import PatternPlan, group_patterns, require_mergeable_udf
from repro.core.scheduler import MachineScheduler, RowUdf, _LevelState
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi, random_labels
from repro.graph.graph import Graph
from repro.patterns import Pattern, catalog
from repro.patterns.schedule import automine_schedule
from repro.systems import KAutomine
from repro.systems.base import MniDomainCollector
from tests.reference import SetDomainCollector
from tests.test_kernels import _with_self_loops

#: labeled patterns whose repeated labels give non-trivial automorphism
#: orbits, and one whose label no vertex carries (no match)
PATTERNS = [
    Pattern(2, [(0, 1)], labels=(0, 0)),
    Pattern(3, [(0, 1), (1, 2)], labels=(1, 0, 1)),
    Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=(0, 0, 1)),
    Pattern(4, [(0, 1), (0, 2), (0, 3)], labels=(0, 1, 1, 1)),
    Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=(0, 0, 0)),
    Pattern(2, [(0, 1)], labels=(0, 7)),
]


def _graph(seed: int, labels: int, loops: bool) -> Graph:
    graph = random_labels(erdos_renyi(30, 90, seed=seed), labels, seed=seed)
    return _with_self_loops(graph) if loops else graph


def _drains(graph: Graph, schedule) -> tuple:
    """Every final row a walk drains, as one prefix matrix and CSR."""
    parts = []
    for _ in walk(graph, schedule, tree_roots(graph, schedule), vcs=True,
                  udf=lambda *chunk: parts.append(
                      [np.array(array) for array in chunk])):
        pass
    width = schedule.pattern.num_vertices - 1
    if not parts:
        return (np.zeros((0, width), dtype=np.int64),
                np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    counts = np.concatenate([np.diff(offsets) for _, offsets, _ in parts])
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return (np.concatenate([prefixes for prefixes, _, _ in parts]),
            offsets, np.concatenate([values for _, _, values in parts]))


def _domains(collector: MniDomainCollector) -> list:
    return [
        [set() for _ in range(p.num_vertices)] if masks is None
        else [set(np.flatnonzero(mask).tolist()) for mask in masks]
        for p, masks in zip(collector.patterns, collector.masks)
    ]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1 << 16), labels=st.integers(1, 3),
       loops=st.booleans(), data=st.data())
def test_masks_equal_the_set_oracle(seed, labels, loops, data):
    """Any split of the drained rows into chunks, spread over any number
    of collector copies merged in any order, gives the oracle's domains
    and supports."""
    graph = _graph(seed, labels, loops)
    schedules = [automine_schedule(p) for p in PATTERNS]
    oracle = SetDomainCollector(
        PATTERNS, [s.order for s in schedules],
        MniDomainCollector(0, PATTERNS, schedules).automorphisms)
    copies = [MniDomainCollector(graph.num_vertices, PATTERNS, schedules)
              for _ in range(data.draw(st.integers(1, 4)))]
    for index, schedule in enumerate(schedules):
        prefixes, offsets, values = _drains(graph, schedule)
        for row in np.flatnonzero(np.diff(offsets)).tolist():
            oracle(index, tuple(prefixes[row].tolist()),
                   values[offsets[row]:offsets[row + 1]])
        rows = len(prefixes)
        cuts = sorted(set(data.draw(
            st.lists(st.integers(0, rows), max_size=6))) | {0, rows})
        for start, stop in zip(cuts, cuts[1:]):
            target = copies[data.draw(st.integers(0, len(copies) - 1))]
            target.chunk(index, prefixes[start:stop],
                         offsets[start:stop + 1] - offsets[start],
                         values[offsets[start]:offsets[stop]])
    order = data.draw(st.permutations(range(len(copies))))
    merged = copies[order[0]]
    for other in order[1:]:
        merged = merged.merge(copies[other])
    assert _domains(merged) == oracle.domains
    assert merged.supports() == oracle.supports()
    assert merged.supports()[-1] == 0  # the label-7 pattern never drains
    assert pickle.loads(pickle.dumps(merged)).supports() == oracle.supports()


@pytest.mark.parametrize("loops", [False, True])
def test_engine_and_baseline_collect_the_oracle_domains(loops):
    """The engine's chunk drains (into the collector) and its row
    adapter (into the oracle) see the same rows; so does a baseline."""
    graph = _graph(11, 2, loops)
    schedules = [automine_schedule(p) for p in PATTERNS]
    oracle = SetDomainCollector(
        PATTERNS, [s.order for s in schedules],
        MniDomainCollector(0, PATTERNS, schedules).automorphisms)
    engine = KhuzdulEngine(Cluster(graph, ClusterConfig(num_machines=3)),
                           EngineConfig(chunk_bytes=1024))
    engine.run_many(schedules, udf=oracle)
    collector = MniDomainCollector(graph.num_vertices, PATTERNS, schedules)
    engine.run_many(schedules, udf=collector)
    assert _domains(collector) == oracle.domains
    supports, _ = KAutomine(
        graph, ClusterConfig(num_machines=3)).mni_supports(PATTERNS)
    assert supports == oracle.supports()
    assert SingleMachine(graph).mni_supports(PATTERNS)[0] == supports


# ----------------------------------------------------------------------
# the row adapter
# ----------------------------------------------------------------------
def test_row_adapter_forwards_merge_only_where_there_is_one():
    """A mergeable callable's adapter merges the callables and survives
    a pickle; a closure's has no ``merge`` and is refused."""
    def copy():
        return RowUdf(SetDomainCollector([catalog.chain(2)], [(0, 1)],
                                         [((0, 1), (1, 0))]), indexed=True)

    mine, theirs = copy(), pickle.loads(pickle.dumps(copy()))
    mine.chunk(0, np.array([[1], [2]]), np.array([0, 1, 1]), np.array([5]))
    theirs.chunk(0, np.array([[3]]), np.array([0, 2]), np.array([4, 6]))
    require_mergeable_udf(mine, "the test")
    assert mine.merge(theirs) is mine
    assert mine.fn.domains == [[{1, 3}, {4, 5, 6}]]
    closure = RowUdf(lambda prefix, candidates: None, indexed=False)
    assert getattr(closure, "merge", None) is None
    with pytest.raises(ConfigurationError, match="merge"):
        require_mergeable_udf(closure, "the test")


def test_row_adapter_calls_once_per_row_with_matches():
    seen = []
    RowUdf(lambda *args: seen.append((args[0], args[1], args[2].tolist())),
           indexed=True).chunk(
        4, np.array([[7, 8], [9, 10], [11, 12]]), np.array([0, 2, 2, 3]),
        np.array([1, 2, 3]))
    assert seen == [(4, (7, 8), [1, 2]), (4, (11, 12), [3])]
    assert all(type(v) is int for _, prefix, _ in seen for v in prefix)


# ----------------------------------------------------------------------
# call-count tripwires
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def big():
    return erdos_renyi(600, 6000, seed=9)


def _drain_state(graph, rows):
    """A triangle scheduler with a collector, the level-1 chunk of the
    first ``rows`` edges, its terminal and its listed final batch."""
    schedule = automine_schedule(catalog.clique(3))
    cluster = Cluster(graph, ClusterConfig(num_machines=1,
                                           memory_bytes=32 << 20))
    trie = group_patterns(
        (PatternPlan(schedule, None, 1, 1 << 20),), fuse=False)[0].trie
    scheduler = MachineScheduler(
        cluster=cluster, machine=cluster.machines[0],
        extender=ScheduleExtender(),
        cache=EdgeCache(0, 16, CachePolicy.STATIC, cluster.cost),
        udf=MniDomainCollector(graph.num_vertices, [schedule.pattern],
                               [schedule]),
        chunk_bytes=1 << 20, hds_enabled=False, hds_slots=64,
        vcs_enabled=False, numa_aware=True, trie=trie)
    sources = np.repeat(np.arange(graph.num_vertices), graph.degrees())
    root = Chunk(0, 1 << 22, scheduler.machine)
    root.fill(np.arange(graph.num_vertices), None,
              np.full(graph.num_vertices, EMBEDDING_BASE_BYTES),
              EdgeListSource.LOCAL)
    chunk = Chunk(1, 1 << 22, scheduler.machine, parent=root)
    chunk.fill(graph.indices[:rows].astype(np.int64), sources[:rows],
               np.full(rows, EMBEDDING_BASE_BYTES), EdgeListSource.LOCAL)
    node = trie.children[0]
    terminal = node.terminals[0]
    batch = kernels.extend_chunk(graph, terminal.step, chunk.prefixes(),
                                 None, vcs=False)
    return scheduler, _LevelState(chunk, node), terminal, batch


def test_engine_drain_into_a_chunk_udf_makes_no_per_row_calls(
        big, count_calls):
    def calls(rows):
        scheduler, state, terminal, batch = _drain_state(big, rows)
        assert int(batch.counts.sum()) > 0
        scheduler._drain_final(state, terminal, batch)  # warm: the masks
        return count_calls(scheduler._drain_final, state, terminal, batch)

    assert calls(500) == calls(5_000)


def test_walk_into_a_chunk_udf_makes_no_per_row_calls(big, count_calls):
    """What a chunk UDF adds to a walk's calls (over a UDF that does
    nothing, on the same listing kernel) does not grow with the rows it
    drains; the kernel's own calls do, with its row blocks."""
    schedule = automine_schedule(catalog.clique(3))

    def calls(roots, udf):
        def run():
            deque(walk(big, schedule, np.arange(roots), vcs=True, udf=udf), 0)

        run()  # warm: the masks
        return count_calls(run)

    def added(roots):
        collector = MniDomainCollector(big.num_vertices, [schedule.pattern],
                                       [schedule])
        return (calls(roots, partial(collector.chunk, 0))
                - calls(roots, lambda *drain: None))

    assert added(60) == added(600)


# ----------------------------------------------------------------------
# the source tripwire
# ----------------------------------------------------------------------
PER_ROW = {"on_match", "NULL_UDF", "candidates_for", "raw_for", "indexed_udf"}


def test_per_row_contract_is_gone_from_src():
    src = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "name", None) or getattr(node, "id", None)
                    or getattr(node, "attr", None)
                    or getattr(node, "arg", None))
            if name in PER_ROW:
                found.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    assert not found
