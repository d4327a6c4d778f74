"""The data of the engine's one execution path: plan → run → finalize.

:class:`JobPlan` is *how a job is described* — built once per
``run``/``run_many`` by :meth:`KhuzdulEngine.plan`, frozen and
picklable, so every place that runs part of the job (the calling
process, a process-backend worker, a recovery replay, a durable
resume) reads the same description instead of re-deriving it.
:class:`Partial` is the raw, order-free material one machine loop
(:meth:`KhuzdulEngine.execute`) measured, and :func:`finalize` is the
only place per-machine state becomes a :class:`RunReport`: the inline
path finalizes one partial, the process backend one per worker.

A job runs as :class:`PatternGroup` s: the patterns of a group share
one enumeration, whose step prefixes form a trie (:class:`TrieNode`) —
a node's chunks are filled, resolved and finalized once for every
pattern below it (docs/performance.md, "Census fusion").
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, reduce
from typing import Any, Optional

import numpy as np

from repro.cluster.cluster import ClusterConfig
from repro.cluster.machine import ClockBuckets, MachineState
from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.faults.recovery import FailureSummary
from repro.obs import NULL_OBS, Observability
from repro.patterns.schedule import (
    CountingPlan, ExtensionStep, Schedule, joined_pairs,
)

#: EngineConfig fields that say how *this attempt* runs, not what the
#: job computes; everything else is fingerprinted, so a new engine knob
#: is checked on resume unless it is deliberately listed here
_ATTEMPT_FIELDS = frozenset(
    {"faults", "recover", "checkpoint_dir", "checkpoint_every", "resume"}
)


@dataclass(frozen=True)
class PatternPlan:
    """How one pattern of the job runs."""

    schedule: Schedule
    #: inclusion-exclusion counting plan (docs/performance.md): the
    #: schedulers enumerate only its prefix pattern and tally the
    #: restriction-free numerator; None = enumerate every level
    counting: Optional[CountingPlan]
    #: chunks the DFS stack holds at once (what auto-fit sizes for)
    levels: int
    #: per-chunk byte budget, after the auto-fit clamp
    chunk_bytes: int

    @property
    def extend_schedule(self) -> Schedule:
        """The schedule the EXTEND functions are compiled from."""
        if self.counting is None:
            return self.schedule
        return self.counting.prefix_schedule

    @property
    def divisor(self) -> int:
        return 1 if self.counting is None else self.counting.divisor

    def needs_edge_list(self, position: int) -> bool:
        """Whether position ``position``'s edge list must be resolved:
        a later step reads it, or an IEP signature does."""
        if self.counting is not None and (
            position in self.counting.fetch_positions
        ):
            return True
        return self.extend_schedule.needs_edge_list(position)

    def fingerprint(self) -> dict:
        pattern = self.schedule.pattern
        return {
            "pattern_vertices": pattern.num_vertices,
            "pattern_edges": sorted(map(list, pattern.edges)),
            "pattern_labels": (
                list(map(int, pattern.labels))
                if pattern.labels is not None else None
            ),
            "order": list(self.schedule.order),
            "induced": self.schedule.induced,
            "restrictions": sorted(map(list, self.schedule.restrictions)),
            "counting_plan": self.counting is not None,
            "divisor": self.divisor,
            "chunk_bytes": self.chunk_bytes,
        }


@dataclass(frozen=True)
class Terminal:
    """A pattern whose enumerated prefix ends at a trie node."""

    #: the pattern's slot in its group (``PatternGroup.members``)
    slot: int
    #: the pattern's index in its job, which a UDF is told
    pattern: int
    #: the last step, which a counting or listing drain extends the
    #: node's chunk by; None with an IEP plan or for a 1-vertex pattern
    step: Optional[ExtensionStep] = None
    #: the IEP plan the node's chunk is drained through
    counting: Optional[CountingPlan] = None
    #: the pairs the node's chunks' rows are joined by, which a count's
    #: distinct-vertex correction need not probe
    #: (:func:`~repro.patterns.schedule.joined_pairs` of its path)
    joined: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class TrieNode:
    """One distinct step prefix of a group: its chunks are filled,
    resolved and finalized once for every pattern at or below it."""

    #: matching-order position the node's chunks place
    level: int
    #: the step that fills the node's chunks (None at the root)
    step: Optional[ExtensionStep]
    #: whether position ``level``'s edge list is resolved: some pattern
    #: at or below the node reads it
    fetch: bool
    #: patterns drained on the node's chunks before its children run
    terminals: tuple[Terminal, ...]
    children: tuple["TrieNode", ...]

    @property
    def patterns(self) -> int:
        """How many patterns end at or below this node."""
        return len(self.terminals) + sum(c.patterns for c in self.children)


@dataclass(frozen=True)
class PatternGroup:
    """Patterns that run as one enumeration: one scheduler per machine
    walks their trie, and each pattern tallies into its own slot."""

    #: job pattern indices, in slot order
    members: tuple[int, ...]
    trie: TrieNode
    #: the members' smallest chunk budget (the deepest member's)
    chunk_bytes: int
    root_label: Optional[int]

    def roots_for(self, cluster, machine_id: int) -> np.ndarray:
        """Local partition vertices, filtered by the root label if any."""
        roots = cluster.partitioned.local_vertices(machine_id)
        if self.root_label is not None and cluster.graph.labels is not None:
            roots = roots[cluster.graph.labels[roots] == self.root_label]
        return roots


def _step_key(step: ExtensionStep) -> tuple:
    """What decides the content of the chunks a step fills."""
    return (step.connected, step.disconnected, step.larger_than,
            step.smaller_than, step.label, step.edge_labels,
            step.reuse_level, step.extra_connected, step.store_intermediate)


def _trie(level: int, step, paths: list) -> TrieNode:
    """The node of ``paths`` — ``(pattern, steps, terminal)`` entries
    that agree on their first ``level`` steps — at ``level``."""
    branches: dict[tuple, list] = {}
    for entry in paths:
        if len(entry[1]) > level:
            branches.setdefault(_step_key(entry[1][level]), []).append(entry)
    return TrieNode(
        level, step,
        fetch=any(pattern.needs_edge_list(level) for pattern, _, _ in paths),
        terminals=tuple(t for _, steps, t in paths if len(steps) == level),
        children=tuple(
            _trie(level + 1, branch[0][1][level], branch)
            for branch in branches.values()
        ),
    )


@lru_cache(maxsize=512)
def group_patterns(
    patterns: tuple[PatternPlan, ...], fuse: bool
) -> tuple[PatternGroup, ...]:
    """Partition a job's patterns into groups and build their tries
    (memoized like the compilers).

    With ``fuse`` every pattern with the same root label joins one group
    (a count-only census); without it — a UDF job, whose per-pattern
    start-up is part of what Table 4 measures — each pattern is a
    one-leaf group. A 1-vertex pattern, which counts its roots without
    a chunk, is always alone.
    """
    keyed: dict[tuple, list[int]] = {}
    for index, pattern in enumerate(patterns):
        schedule = pattern.schedule
        alone = not fuse or schedule.pattern.num_vertices == 1
        key = ("alone", index) if alone else ("root", schedule.root_label())
        keyed.setdefault(key, []).append(index)
    groups = []
    for members in keyed.values():
        paths = []
        for slot, index in enumerate(members):
            pattern = patterns[index]
            steps = pattern.extend_schedule.steps
            if pattern.counting is not None:
                terminal = Terminal(slot, index, counting=pattern.counting)
            elif steps:
                steps, terminal = steps[:-1], Terminal(
                    slot, index, step=steps[-1],
                    joined=joined_pairs(steps[:-1]))
            else:
                terminal = Terminal(slot, index)
            paths.append((pattern, steps, terminal))
        first = patterns[members[0]].schedule
        groups.append(PatternGroup(
            tuple(members), _trie(0, None, paths),
            min(patterns[index].chunk_bytes for index in members),
            first.root_label(),
        ))
    return tuple(groups)


@dataclass(frozen=True)
class JobPlan:
    """One job: its patterns, their groups, configuration and labels."""

    patterns: tuple[PatternPlan, ...]
    groups: tuple[PatternGroup, ...]
    #: the :class:`~repro.core.engine.EngineConfig` the job runs under
    config: Any
    cluster_config: ClusterConfig
    system: str
    app: str
    graph_name: str

    def fingerprint(self) -> dict:
        """What must match for a checkpoint of this job to be resumed:
        everything that decides which chunks exist or what they count.
        The execution backend is deliberately absent — a run
        checkpointed inline may resume under the process backend."""
        engine = {
            field.name: getattr(self.config, field.name)
            for field in fields(self.config)
            if field.name not in _ATTEMPT_FIELDS
        }
        engine["cache_policy"] = str(engine["cache_policy"].value)
        return {
            "system": self.system,
            "app": self.app,
            "graph_name": self.graph_name,
            "schedules": [p.fingerprint() for p in self.patterns],
            "groups": [list(g.members) for g in self.groups],
            "cluster": asdict(self.cluster_config),
            "engine": engine,
        }


def require_mergeable_udf(udf, user: str) -> None:
    """Reject a UDF whose state cannot leave the calling process.

    ``user`` (the process backend, durable checkpoints) keeps its own
    copy of the UDF — per worker, or in the aggregates snapshot — and
    folds it back with ``udf.merge(other)``.
    """
    if udf is None:
        return
    if not callable(getattr(udf, "merge", None)):
        raise ConfigurationError(
            f"{user} needs a mergeable UDF: its copies are folded back "
            f"via udf.merge(other) (plain callables/closures run on the "
            f"inline backend without checkpoint_dir only)"
        )
    try:
        pickle.dumps(udf)
    except Exception as exc:
        raise ConfigurationError(
            f"{user} needs a picklable UDF: {exc}"
        ) from exc


@dataclass
class Partial:
    """What one machine loop measured — addable, in any order.

    Integers and the traffic matrix sum exactly; a machine's clock
    buckets are charged only by the loop that hosted it (every other
    partial holds zeros), and its serve seconds are priced from the
    summed integer tallies, so ``a + b == b + a`` bit for bit.
    """

    #: per-pattern match tallies (IEP numerators before the divisor)
    counts: list[int]
    #: snapshot of every machine: clock buckets, served tallies, peak
    machines: list[MachineState]
    traffic: np.ndarray
    requests: int
    batches: int
    cache_hits: int
    cache_queries: int
    cache_entries: int
    hds: dict[str, int]
    fetch_sources: dict[str, int]
    chunks: int
    #: reassignment tallies of simulated crash recovery
    recovery: dict[str, int]
    failure: Optional[FailureSummary] = None
    #: injector and retry tallies; None on a clean fault-free loop
    faults: Optional[dict] = None
    #: static description of an out-of-core graph (docs/storage.md)
    storage: Optional[dict] = None

    def __add__(self, other: "Partial") -> "Partial":
        failures = [f for f in (self.failure, other.failure) if f is not None]
        return Partial(
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            machines=[
                _add_machines(a, b)
                for a, b in zip(self.machines, other.machines)
            ],
            traffic=self.traffic + other.traffic,
            requests=self.requests + other.requests,
            batches=self.batches + other.batches,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_queries=self.cache_queries + other.cache_queries,
            cache_entries=self.cache_entries + other.cache_entries,
            hds=_add_tallies(self.hds, other.hds),
            fetch_sources=_add_tallies(self.fetch_sources,
                                       other.fetch_sources),
            chunks=self.chunks + other.chunks,
            # the earliest abort, as the machine loop picks it
            failure=min(failures, key=lambda f: (
                f.simulated_seconds,
                -1 if f.machine_id is None else f.machine_id,
            )) if failures else None,
            faults=_add_tallies(self.faults, other.faults),
            recovery=_add_tallies(self.recovery, other.recovery),
            storage=self.storage or other.storage,
        )


def _add_machines(a: MachineState, b: MachineState) -> MachineState:
    clock = ClockBuckets()
    clock.add(a.clock)
    clock.add(b.clock)
    return replace(
        a,
        clock=clock,
        served_bytes=a.served_bytes + b.served_bytes,
        served_requests=a.served_requests + b.served_requests,
        peak_bytes=max(a.peak_bytes, b.peak_bytes),
    )


def _add_tallies(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    if a is None or b is None:
        return a if b is None else b
    return {key: a[key] + b[key] for key in a}


def finalize(
    plan: JobPlan,
    partials: list[Partial],
    obs: Observability = NULL_OBS,
) -> tuple[list[int], RunReport]:
    """Fold a job's partials into its counts and :class:`RunReport`.

    The single exact division of an IEP query happens here, after every
    shard (resumed, re-executed, per worker) has been added: everything
    upstream tallies the restriction-free numerator.
    """
    total = reduce(Partial.__add__, partials)
    counts = [
        count // pattern.divisor
        for count, pattern in zip(total.counts, plan.patterns)
    ]
    machines = total.machines
    machine_seconds = [m.busy_seconds() for m in machines]
    runtime = max(machine_seconds)
    slowest = machines[machine_seconds.index(runtime)]
    machine_breakdowns = []
    for machine in machines:
        buckets = machine.clock.as_dict()
        buckets["serve"] = machine.serve_seconds
        machine_breakdowns.append(buckets)
    sent = total.traffic.sum(axis=1)
    link_seconds = plan.cluster_config.cost.network_bandwidth * runtime
    misses = total.cache_queries - total.cache_hits
    report = RunReport(
        system=plan.system,
        app=plan.app,
        graph_name=plan.graph_name,
        counts=None,
        simulated_seconds=runtime,
        network_bytes=int(total.traffic.sum()),
        breakdown=slowest.clock.as_dict(),
        machine_breakdowns=machine_breakdowns,
        machine_seconds=machine_seconds,
        cache_hit_rate=(
            total.cache_hits / total.cache_queries
            if total.cache_queries else 0.0
        ),
        cache_entries=total.cache_entries,
        network_utilization=(
            float(sent.max()) / link_seconds if runtime > 0.0 else 0.0
        ),
        peak_memory_bytes=max(m.peak_bytes for m in machines),
        num_machines=len(machines),
        extra={
            "hds": total.hds,
            "fetch_sources": total.fetch_sources,
            "chunks": total.chunks,
            "requests": total.requests,
            "serve_seconds": max(m.serve_seconds for m in machines),
        },
        failure=total.failure,
    )
    if total.faults is not None:
        faults = plan.config.faults
        report.extra["faults"] = {
            **total.faults,
            "plan": faults.describe() if faults is not None else None,
        }
        report.extra["recovery"] = total.recovery
    if total.storage is not None:
        # out-of-core runs price the static cache against the mapping:
        # every cache miss is a gather the page cache may have to fault
        # in, every hit provably avoided one (docs/storage.md)
        report.extra["storage"] = {
            **total.storage, "page_miss_gathers": int(misses),
        }
    if obs.enabled:
        summary = obs.summary()
        summary["network"] = {
            "per_machine_sent_bytes": [int(b) for b in sent],
            "per_machine_utilization": [
                float(b) / link_seconds if runtime > 0.0 else 0.0
                for b in sent
            ],
            "num_batches": total.batches,
        }
        report.extra["obs"] = summary
    return counts, report
