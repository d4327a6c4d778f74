"""Census fusion (docs/performance.md, "Census fusion").

A count-only ``run_many`` is one pattern group per root label: one
scheduler per machine walks the trie of the patterns' step prefixes,
filling, resolving and finalizing a shared prefix's chunks once. The
bounded differential below crosses exactly the axes fusion touches —
census size, counting strategy, backend, storage, a labeled graph and a
checkpoint-kill-resume — and holds every cell to the unfused oracle:
one single-pattern ``engine.run`` per pattern, and brute force where it
is cheap. Each case prints its seed, so a failure replays by hand.
"""

from __future__ import annotations

import json
import shutil
import zlib

import pytest

from repro.analysis import count_embeddings_brute_force
from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.core.extend import ScheduleExtender
from repro.core.scheduler import MachineScheduler
from repro.errors import ConfigurationError
from repro.exec import ProcessBackend
from repro.graph.generators import erdos_renyi, power_law_graph, random_labels
from repro.graph.storage import open_store, write_store
from repro.patterns import Pattern, catalog
from repro.systems import KAutomine, KGraphPi

MACHINES = 4
CLUSTER = ClusterConfig(num_machines=MACHINES)

#: graph family -> generator of a seeded graph small enough for brute force
GRAPHS = {
    "er": lambda seed: erdos_renyi(34, 110, seed=seed),
    "powerlaw": lambda seed: power_law_graph(44, 140, exponent=2.0,
                                             seed=seed),
    "labeled": lambda seed: random_labels(erdos_renyi(34, 110, seed=seed),
                                          2, seed=seed),
}

#: every labeling of the 3-vertex motifs over two labels
LABELED_3 = [
    Pattern(3, edges, labels=labels)
    for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)])
    for labels in ([0, 0, 0], [0, 1, 0], [1, 0, 1], [0, 0, 1], [1, 1, 1])
]

CASES = [
    (family, k, counting)
    for family in ("er", "powerlaw")
    for k in (3, 4, 5)
    for counting in ("enumerate", "iep")
] + [("labeled", 3, "enumerate"), ("labeled", 3, "iep")]


def _seed(case) -> int:
    return zlib.crc32(repr(case).encode()) % 1000


def _patterns(family, k):
    return LABELED_3 if family == "labeled" else catalog.motifs(k)


def _system(graph, counting, backend=None, **durability):
    config = EngineConfig(counting=counting, chunk_bytes=1024,
                          auto_fit_chunks=False, **durability)
    return KGraphPi(graph, CLUSTER, config, graph_name="g", backend=backend)


def _census(graph, patterns, counting, backend=None, **durability):
    return _system(graph, counting, backend, **durability).count_patterns(
        patterns, induced=False)


def _storage_free(document):
    """``comparable`` minus the description of the graph's backing."""
    document["extra"].pop("storage", None)
    return document


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")

    def mapped(graph, name):
        path = root / f"{name}.kcsr"
        if not path.exists():
            write_store(graph, path)
        return open_store(path)

    return mapped


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_fused_census_equals_the_per_pattern_oracle(case, stores,
                                                    comparable):
    family, k, counting = case
    seed = _seed(case)
    print(f"fusion case {case}: seed {seed}")
    graph = GRAPHS[family](seed)
    patterns = _patterns(family, k)

    fused = _census(graph, patterns, counting)
    system = _system(graph, counting)
    oracle = [system.count_pattern(p).counts for p in patterns]
    assert fused.counts == oracle
    if k <= 4:
        assert oracle == [count_embeddings_brute_force(graph, p)
                          for p in patterns]

    reference = _storage_free(comparable(fused))
    mapped = stores(graph, f"{family}-{seed}")
    for storage, target in (("ram", graph), ("mmap", mapped)):
        for backend in (None, ProcessBackend(workers=2)):
            if storage == "ram" and backend is None:
                continue
            report = _census(target, patterns, counting, backend)
            assert _storage_free(comparable(report)) == reference, (
                storage, backend)


@pytest.mark.parametrize("case", [("er", 4, "iep"),
                                  ("powerlaw", 5, "enumerate")],
                         ids=lambda c: "-".join(map(str, c)))
def test_fused_census_kill_resume_is_backend_free(case, tmp_path,
                                                  comparable):
    """A checkpoint log cut in the middle of a group's lines — a torn
    flush — resumes from the last root cursor every member logged, to
    the oracle's counts, identically inline and on 2 and 3 workers."""
    family, k, counting = case
    seed = _seed(case)
    print(f"fusion kill-resume case {case}: seed {seed}")
    graph = GRAPHS[family](seed)
    patterns = _patterns(family, k)
    oracle = _census(graph, patterns, counting)
    assert comparable(_census(graph, patterns, counting,
                              ProcessBackend(workers=3))) == \
        comparable(oracle)

    seed_dir = tmp_path / "seed"
    checkpointed = _census(graph, patterns, counting,
                           checkpoint_dir=str(seed_dir))
    assert comparable(checkpointed) == comparable(oracle)
    log = seed_dir / "chunks.log"
    lines = log.read_bytes().splitlines(keepends=True)
    assert len(lines) % len(patterns) == 0
    # keep half the root chunks and a few lines of the next one
    cut = (len(lines) // len(patterns) // 2) * len(patterns) + 3
    log.write_bytes(b"".join(lines[:cut]))

    resumed = {}
    for label, backend in (("inline", None),
                           ("w2", ProcessBackend(workers=2)),
                           ("w3", ProcessBackend(workers=3))):
        directory = tmp_path / label
        shutil.copytree(seed_dir, directory)
        report = _census(graph, patterns, counting, backend,
                         checkpoint_dir=str(directory), resume=True)
        assert report.counts == oracle.counts, label
        assert report.extra["checkpoint"]["resumed_roots"] > 0, label
        resumed[label] = comparable(report)
    for label, document in resumed.items():
        assert document == resumed["inline"], label


# ----------------------------------------------------------------------
# tripwires: schedulers, fills, and what must stay unfused
# ----------------------------------------------------------------------
@pytest.fixture
def schedulers(monkeypatch):
    """How many ``MachineScheduler`` objects the runs construct."""
    built = []
    init = MachineScheduler.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MachineScheduler, "__init__", counting)
    return built


@pytest.mark.parametrize("counting", ["enumerate", "iep"])
def test_a_census_builds_one_scheduler_per_machine(schedulers, counting):
    graph = GRAPHS["er"](1)
    report = _census(graph, catalog.motifs(4), counting)
    assert len(catalog.motifs(4)) == 6
    assert len(schedulers) == MACHINES
    assert len(report.counts) == 6


def test_fsm_rounds_stay_one_scheduler_per_pattern(schedulers):
    graph = GRAPHS["labeled"](2)
    patterns = [catalog.chain(2), catalog.chain(3), catalog.clique(3)]
    KAutomine(graph, CLUSTER).mni_supports(patterns)
    assert len(schedulers) == len(patterns) * MACHINES


def test_level_one_fills_are_trie_nodes_times_machines(monkeypatch):
    """The 5-motif census under IEP with one root chunk per machine:
    each level-1 trie node's batch is computed once per machine, where
    the unfused census computed one per pattern that reaches level 1."""
    graph = GRAPHS["er"](5)
    system = KGraphPi(graph, CLUSTER, EngineConfig(counting="iep"))
    patterns = catalog.motifs(5)
    plan = system.engine.plan(
        [system.build_schedule(p, induced=False) for p in patterns])
    (group,) = plan.groups
    assert len(group.members) == 21
    nodes = len(group.trie.children)
    # unfused, a pattern fills level 1 when its enumerated path (the
    # IEP prefix, or every step but the drained last) has a step
    reaching = sum(
        1 for p in plan.patterns
        if (p.extend_schedule.steps if p.counting is not None
            else p.schedule.steps[:-1]))
    assert nodes < reaching

    fills = []
    extend = ScheduleExtender.extend_chunk

    def spy(self, graph, step, chunks, *rest):
        if step.level == 1:
            fills.extend(chunk.level for _, chunk in chunks)
        return extend(self, graph, step, chunks, *rest)

    monkeypatch.setattr(ScheduleExtender, "extend_chunk", spy)
    report = system.count_patterns(patterns, induced=False)
    assert report.extra["chunks"] > 0
    assert len(fills) == nodes * MACHINES


# ----------------------------------------------------------------------
# durability of a fused census
# ----------------------------------------------------------------------
def test_resume_map_that_splits_a_group_is_refused():
    graph = GRAPHS["er"](3)
    system = _system(graph, "iep")
    plan = system.engine.plan(
        [system.build_schedule(p, induced=False) for p in catalog.motifs(3)])
    with pytest.raises(ConfigurationError, match="disagrees"):
        system.engine.execute(plan, resume={(0, 1): (4, 10), (1, 1): (2, 3)})


def test_unfused_format_3_checkpoint_is_refused_by_name(tmp_path):
    """A census checkpointed by the unfused engine logged one root
    cursor per pattern: its manifest says format 3, and is refused."""
    graph = GRAPHS["er"](4)
    patterns = catalog.motifs(3)
    _census(graph, patterns, "iep", checkpoint_dir=str(tmp_path))
    manifest = tmp_path / "manifest.json"
    saved = json.loads(manifest.read_text())
    saved["format"] = 3
    del saved["groups"]
    manifest.write_text(json.dumps(saved))
    with pytest.raises(ConfigurationError,
                       match="checkpoint format 3 does not match this "
                             "build's format 6"):
        _census(graph, patterns, "iep", checkpoint_dir=str(tmp_path),
                resume=True)
