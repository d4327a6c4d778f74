"""The paper's application families, uniform over any GPM system.

Triangle Counting (TC), k-Clique Counting (k-CC), and k-Motif Counting
(k-MC) from Section 7.1. FSM lives in :mod:`repro.systems.fsm`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.runtime import RunReport
from repro.patterns.canonical import (
    canonical_code,
    edge_numbers,
    permutation_tables,
)
from repro.patterns.catalog import clique, motifs, triangle
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern
from repro.systems.base import GPMSystem


def triangle_count(system: GPMSystem, oriented: bool = False) -> RunReport:
    """TC: count size-3 complete subgraphs."""
    return system.count_pattern(triangle(), oriented=oriented, app="TC")


def clique_count(system: GPMSystem, k: int, oriented: bool = False) -> RunReport:
    """k-CC: count embeddings of the k-clique pattern."""
    return system.count_pattern(clique(k), oriented=oriented, app=f"{k}-CC")


def motif_count(system: GPMSystem, k: int) -> RunReport:
    """k-MC: count embeddings of every size-k pattern (vertex-induced).

    The report's ``counts`` is a dict keyed by each motif's canonical
    code, so results are comparable across systems regardless of their
    matching orders.
    """
    patterns = motifs(k)
    counting = getattr(
        getattr(system, "engine_config", None), "counting", "enumerate"
    )
    if counting == "iep":
        # IEP plans require non-induced matching (the formula counts
        # over neighbor-list cardinalities, which cannot express
        # forbidden edges). Count every motif non-induced — where the
        # IEP terminal kernel applies — and convert the census to
        # vertex-induced counts with the exact integer overcount
        # matrix. Bit-identical to the induced=True route.
        report = system.count_patterns(patterns, induced=False,
                                       app=f"{k}-MC")
        counts = _induced_motif_counts(tuple(patterns),
                                       tuple(report.counts))
    else:
        report = system.count_patterns(patterns, induced=True,
                                       app=f"{k}-MC")
        counts = report.counts
    report.counts = {
        canonical_code(p): c for p, c in zip(patterns, counts)
    }
    return report


@lru_cache(maxsize=4096)
def _spanning_copies(sub: Pattern, sup: Pattern) -> int:
    """How many spanning subgraphs of ``sup`` are isomorphic to ``sub``.

    Injective edge-preserving bijections divided by ``|Aut(sub)|`` —
    exact: the orbit-stabilizer theorem guarantees the division has no
    remainder. Every vertex permutation is tried (``k! <= 120`` at the
    motif tiers): ``sub``'s image, read off the table, must sit in ``sup``.
    """
    k = sub.num_vertices
    if k != sup.num_vertices:
        return 0
    images = permutation_tables(k)[1]
    outside = ~images[0, edge_numbers(sup)].sum()  # row 0: the identity
    copies = images[:, edge_numbers(sub)].sum(axis=1)
    embeddings = int(np.count_nonzero((copies & outside) == 0))
    return embeddings // len(automorphisms(sub))


def _induced_motif_counts(
    patterns: tuple[Pattern, ...], noninduced: tuple[int, ...]
) -> list[int]:
    """Solve the census conversion ``noninduced = C @ induced`` exactly.

    Every non-induced occurrence of motif ``H`` lives on a vertex set
    whose induced graph is some denser motif ``H'``, so
    ``noninduced(H) = sum_{H'} spanning_copies(H, H') * induced(H')``.
    The system is triangular in descending edge count
    (``spanning_copies(H, H) == 1``; distinct same-size motifs
    contribute zero), so back-substitution in Python ints is exact.
    """
    order = sorted(
        range(len(patterns)),
        key=lambda i: patterns[i].num_edges,
        reverse=True,
    )
    induced = [0] * len(patterns)
    for i in order:
        total = noninduced[i]
        for j in order:
            if patterns[j].num_edges > patterns[i].num_edges:
                total -= _spanning_copies(patterns[i], patterns[j]) * induced[j]
        induced[i] = total
    return induced
