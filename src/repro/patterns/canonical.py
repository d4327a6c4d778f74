"""Canonical codes for small patterns.

The canonical code of a pattern is the lexicographically smallest
``(labels, labeled edge list)`` encoding over all vertex permutations.
Two patterns are isomorphic iff their codes are equal, which gives motif
counting and FSM a cheap dictionary key for deduplicating candidate
patterns. Exhaustive permutation search is fine at GPM pattern sizes
(<= 7 vertices -> <= 5040 permutations), over tables built once per size.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from repro.patterns.pattern import Pattern

CanonicalCode = tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]


@lru_cache(maxsize=8)
def permutation_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """``(perms, images)``: every permutation of ``range(n)``, and where
    each sends the edges of K_n. Edges are numbered as
    ``combinations(range(n), 2)`` lists them and an edge set is the
    bitmask of its numbers; ``images[p, e]`` is the *bit* of edge ``e``'s
    image under ``perms[p]``, so a whole set's image under every
    permutation at once is ``images[:, its numbers].sum(axis=1)``."""
    perms = tuple(permutations(range(n)))
    number = {edge: e for e, edge in enumerate(combinations(range(n), 2))}
    return perms, np.array(
        [[1 << number[min(p[u], p[v]), max(p[u], p[v])] for u, v in number]
         for p in perms], dtype=np.int64)


def edge_numbers(pattern: Pattern) -> list[int]:
    """The K_n edge numbers of ``pattern``'s edges, ascending."""
    pairs = combinations(range(pattern.num_vertices), 2)
    return [e for e, edge in enumerate(pairs) if edge in pattern.edges]


@lru_cache(maxsize=4096)
def canonical_code(pattern: Pattern) -> CanonicalCode:
    """Smallest encoding of ``pattern`` over all vertex permutations.

    Encodings compare as ``(labels, sorted (u, v, edge label) triples)``
    (edge label 0 when the pattern has none). Two sorted triple lists
    first differ at the smallest vertex pair that is an edge in only one
    (the smaller list) or is labeled differently (the smaller label's),
    so with one digit per pair of K_n — most significant for ``(0, 1)``,
    0 for "no edge", larger for a smaller label — the smallest list is
    the largest number; vertex labels compare first, so they sit above
    every edge digit, negated. Permutations are ranked by that integer
    and only the winner's encoding is built.
    """
    n = pattern.num_vertices
    pairs = list(combinations(range(n), 2))
    edge_labels = sorted(
        {pattern.edge_label(u, v) for u, v in pattern.edges}, reverse=True)
    base = len(edge_labels) + 1
    weight = [[0] * n for _ in range(n)]
    for significance, (a, b) in enumerate(reversed(pairs)):
        weight[a][b] = weight[b][a] = base ** significance
    edges = [(u, v, 1 + edge_labels.index(pattern.edge_label(u, v)))
             for u, v in pattern.edges]
    vertex_labels = sorted(set(pattern.labels or ()))
    ranks = [vertex_labels.index(x) for x in pattern.labels or ()]
    place = [base ** len(pairs) * max(len(vertex_labels), 1) ** (n - 1 - new)
             for new in range(n)]

    def rank(p: tuple[int, ...]) -> int:
        return sum(digit * weight[p[u]][p[v]] for u, v, digit in edges) - sum(
            r * place[p[v]] for v, r in enumerate(ranks))

    best = pattern.relabel(max(permutation_tables(n)[0], key=rank))
    return (
        tuple(best.label(v) for v in range(n)),
        tuple(sorted((u, v, best.edge_label(u, v)) for u, v in best.edges)),
    )


def canonical_form(pattern: Pattern) -> Pattern:
    """A concrete pattern relabeled into its canonical vertex order."""
    labels, coded_edges = canonical_code(pattern)
    label_arg = labels if pattern.labels is not None else None
    edges = [(u, v) for u, v, _ in coded_edges]
    edge_labels = None
    if pattern.edge_labels is not None:
        edge_labels = {(u, v): lab for u, v, lab in coded_edges}
    return Pattern(pattern.num_vertices, edges, label_arg, edge_labels)
