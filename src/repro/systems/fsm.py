"""Frequent subgraph mining with MNI support (paper Section 7.2).

FSM discovers all labeled patterns whose support is at least a
user-given threshold, where support is the minimum-node-image (MNI)
measure [Bringmann & Nijssen]: the smallest, over pattern vertices, of
the number of distinct data vertices that vertex maps to. MNI is
anti-monotone, so the classic level-wise search applies: start from
frequent single-edge patterns, grow one edge at a time (following the
paper/Peregrine setup, only patterns with at most three edges), prune
by downward closure, and count supports of the survivors with the
underlying GPM system.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.runtime import RunReport
from repro.errors import ConfigurationError
from repro.faults.durability import MANIFEST_NAME
from repro.patterns.canonical import canonical_code
from repro.patterns.generation import grow_pattern, single_edge_patterns
from repro.patterns.pattern import Pattern
from repro.systems.base import GPMSystem, merge_reports


@dataclass
class FsmResult:
    """Outcome of one FSM run."""

    frequent: list[tuple[Pattern, int]]
    report: RunReport
    rounds: int
    candidates_evaluated: int = 0
    #: supports of every evaluated candidate, keyed by canonical code
    all_supports: dict = field(default_factory=dict)


def _shrink_codes(pattern: Pattern) -> list[tuple]:
    """Canonical codes of connected one-edge-removed subpatterns."""
    codes = []
    for edge in pattern.edges:
        remaining = [e for e in pattern.edges if e != edge]
        touched = {v for e in remaining for v in e}
        if len(touched) < pattern.num_vertices:
            # removing the edge isolated a vertex: drop it and relabel
            keep = sorted(touched)
            if not keep:
                continue
            index = {v: i for i, v in enumerate(keep)}
            edges = [(index[u], index[v]) for u, v in remaining]
            labels = None
            if pattern.labels is not None:
                labels = [pattern.labels[v] for v in keep]
            sub = Pattern(len(keep), edges, labels)
        else:
            sub = Pattern(pattern.num_vertices, remaining, pattern.labels)
        if sub.is_connected():
            codes.append(canonical_code(sub))
    return codes


def run_fsm(
    system: GPMSystem,
    threshold: int,
    max_edges: int = 3,
) -> FsmResult:
    """Mine all frequent labeled patterns with at most ``max_edges`` edges.

    Each round is one engine job: with a ``checkpoint_dir`` round ``k``
    checkpoints under ``<checkpoint_dir>/round-<k>``, and on ``resume``
    a round with a manifest there resumes from it while a round without
    one runs fresh (docs/faults.md, "Durability").
    """
    if system.graph.labels is None:
        raise ConfigurationError("FSM requires a system over a labeled graph")
    label_set = set(int(x) for x in system.graph.labels)
    config = getattr(system, "engine_config", None)
    durable = config is not None and config.checkpoint_dir is not None

    reports: list[RunReport] = []
    frequent: list[tuple[Pattern, int]] = []
    frequent_codes: set[tuple] = set()
    evaluated: dict[tuple, int] = {}

    def count_batch(patterns: list[Pattern]) -> list[int]:
        if durable:
            directory = os.path.join(config.checkpoint_dir,
                                     f"round-{len(reports) + 1}")
            system.reconfigure(replace(
                config, checkpoint_dir=directory, resume=config.resume
                and os.path.exists(os.path.join(directory, MANIFEST_NAME))),
                obs=system.obs)
        try:
            supports, report = system.mni_supports(patterns)
        finally:
            if durable:
                system.reconfigure(config, obs=system.obs)
        reports.append(report)
        for pattern, support in zip(patterns, supports):
            evaluated[canonical_code(pattern)] = support
        return supports

    # round 1: single-edge seeds
    seeds = single_edge_patterns(label_set)
    supports = count_batch(seeds)
    frontier: list[Pattern] = []
    for pattern, support in zip(seeds, supports):
        if support >= threshold:
            frequent.append((pattern, support))
            frequent_codes.add(canonical_code(pattern))
            frontier.append(pattern)
    rounds = 1

    # grow one edge per round, up to max_edges
    while frontier:
        candidates: dict[tuple, Pattern] = {}
        for pattern in frontier:
            if pattern.num_edges >= max_edges:
                continue
            for grown in grow_pattern(pattern, label_set):
                code = canonical_code(grown)
                if code in evaluated or code in candidates:
                    continue
                # downward closure: every frequent subpattern must be known
                # frequent, otherwise the candidate cannot be frequent.
                if any(
                    sub_code in evaluated and sub_code not in frequent_codes
                    for sub_code in _shrink_codes(grown)
                ):
                    continue
                candidates[code] = grown
        if not candidates:
            break
        batch = list(candidates.values())
        supports = count_batch(batch)
        frontier = []
        for pattern, support in zip(batch, supports):
            if support >= threshold:
                frequent.append((pattern, support))
                frequent_codes.add(canonical_code(pattern))
                frontier.append(pattern)
        rounds += 1

    merged = merge_reports(
        reports,
        system=system.name,
        app=f"FSM(t={threshold})",
        graph_name=system.graph_name,
        counts=len(frequent),
    )
    return FsmResult(
        frequent=frequent,
        report=merged,
        rounds=rounds,
        candidates_evaluated=len(evaluated),
        all_supports=dict(evaluated),
    )
