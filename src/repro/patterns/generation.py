"""Exhaustive pattern generation.

Motif counting needs every connected size-k pattern up to isomorphism;
FSM grows labeled candidate patterns edge by edge. Both build on the
canonical codes from :mod:`repro.patterns.canonical`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from repro.errors import PatternError
from repro.patterns.canonical import canonical_code, permutation_tables
from repro.patterns.pattern import Pattern


@lru_cache(maxsize=8)
def connected_patterns(k: int) -> list[Pattern]:
    """All connected ``k``-vertex patterns, one per isomorphism class.

    Walks the edge subsets of K_k as ascending bitmasks; the first one
    of an isomorphism class marks the class's whole orbit in one pass
    over the table (:func:`permutation_tables`), so each class costs
    ``k!`` table rows once, not each subset ``k!`` encodings. A class is
    represented by its smallest mask, classes in ascending order. Sizes
    match the graph-theory sequence: 1, 1, 2, 6, 21, 112 for k = 1..6.
    """
    if k < 1:
        raise PatternError("pattern size must be >= 1")
    if k == 1:
        return [Pattern(1, [])]
    all_edges = list(combinations(range(k), 2))
    images = permutation_tables(k)[1]
    marked = np.zeros(1 << len(all_edges), dtype=bool)
    found = []
    for mask in range(len(marked)):
        if marked[mask] or mask.bit_count() < k - 1:
            continue  # seen its class, or too few edges to connect
        numbers = [e for e in range(len(all_edges)) if mask >> e & 1]
        marked[images[:, numbers].sum(axis=1)] = True
        pattern = Pattern(k, [all_edges[e] for e in numbers])
        if pattern.is_connected():
            found.append(pattern)
    return found


def single_edge_patterns(labels: set[int]) -> list[Pattern]:
    """All labeled single-edge patterns over a label set (FSM seeds)."""
    result = []
    for a in sorted(labels):
        for b in sorted(labels):
            if a <= b:
                result.append(Pattern(2, [(0, 1)], (a, b)))
    return result


def grow_pattern(pattern: Pattern, labels: set[int]) -> list[Pattern]:
    """All one-edge extensions of a labeled pattern (FSM growth).

    Adds either a fresh labeled vertex attached to one existing vertex,
    or a new edge between two existing non-adjacent vertices, and
    deduplicates by canonical code.
    """
    seen: dict[tuple, Pattern] = {}
    # forward extension: new labeled vertex
    for anchor in range(pattern.num_vertices):
        for label in sorted(labels):
            grown = pattern.add_vertex([anchor], label=label)
            seen.setdefault(canonical_code(grown), grown)
    # backward extension: close an edge between existing vertices
    for u in range(pattern.num_vertices):
        for v in range(u + 1, pattern.num_vertices):
            if not pattern.has_edge(u, v):
                grown = pattern.add_edge(u, v)
                seen.setdefault(canonical_code(grown), grown)
    return list(seen.values())
