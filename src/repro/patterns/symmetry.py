"""Symmetry-breaking restrictions (GraphPi / GraphZero style).

Unrestricted pattern-aware enumeration finds each embedding once per
pattern automorphism. The standard fix — the one GraphPi's restriction
generator produces — is a set of ordering constraints ``(a, b)`` on
pattern vertices, meaning the data vertex matched to ``a`` must have a
smaller id than the one matched to ``b``. The stabilizer-chain
construction below guarantees exactly one member of each automorphism
orbit satisfies all restrictions, so every embedding is counted exactly
once (property-tested: restricted count x |Aut| == unrestricted count).
"""

from __future__ import annotations

from functools import lru_cache

from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern


@lru_cache(maxsize=4096)
def stabilizer_chain(
    pattern: Pattern,
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """The pivot-by-pivot descent through ``pattern``'s automorphisms.

    Each level orders the smallest vertex the current subgroup moves
    below every image it can reach — its ``(pivot, image)`` pairs — and
    descends to the subgroup fixing it, whose size it records. An order
    only decides how many leading levels a counting plan can use.
    """
    chain = []
    current = automorphisms(pattern)
    while len(current) > 1:
        pivot = min(
            v for v in range(pattern.num_vertices)
            if any(perm[v] != v for perm in current)
        )
        images = dict.fromkeys(perm[pivot] for perm in current)
        current = [perm for perm in current if perm[pivot] == pivot]
        chain.append((
            tuple((pivot, image) for image in images if image != pivot),
            len(current),
        ))
    return tuple(chain)


@lru_cache(maxsize=4096)
def symmetry_restrictions(pattern: Pattern) -> tuple[tuple[int, int], ...]:
    """Ordering constraints that break all automorphisms of ``pattern``.

    Returns pairs ``(a, b)`` of pattern vertices requiring
    ``embedding[a] < embedding[b]``. Empty for asymmetric patterns.
    """
    return tuple(sorted(
        pair for pairs, _ in stabilizer_chain(pattern) for pair in pairs
    ))
