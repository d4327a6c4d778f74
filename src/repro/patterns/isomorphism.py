"""Isomorphism and automorphism computation for small pattern graphs.

A degree/label-pruned backtracking search (a compact VF2 relative) is
plenty for the <= 7-vertex patterns GPM systems mine; the same routine
also enumerates a pattern's automorphism group, which feeds the
symmetry-breaking restriction generator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from repro.patterns.pattern import Pattern


def _compatible(p0: Pattern, p1: Pattern, v0: int, v1: int) -> bool:
    """Cheap local invariants: degree and label must match."""
    return p0.degree(v0) == p1.degree(v1) and p0.label(v0) == p1.label(v1)


def _extend(
    p0: Pattern,
    p1: Pattern,
    mapping: list[Optional[int]],
    used: list[bool],
    depth: int,
) -> Iterator[tuple[int, ...]]:
    """Backtracking core: map p0 vertex ``depth`` onto some p1 vertex."""
    if depth == p0.num_vertices:
        yield tuple(mapping)  # type: ignore[arg-type]
        return
    for candidate in range(p1.num_vertices):
        if used[candidate] or not _compatible(p0, p1, depth, candidate):
            continue
        ok = True
        for prior in range(depth):
            has0 = p0.has_edge(prior, depth)
            has1 = p1.has_edge(mapping[prior], candidate)  # type: ignore[arg-type]
            if has0 != has1:
                ok = False
                break
            if has0 and p0.edge_label(prior, depth) != p1.edge_label(
                mapping[prior], candidate  # type: ignore[arg-type]
            ):
                ok = False
                break
        if not ok:
            continue
        mapping[depth] = candidate
        used[candidate] = True
        yield from _extend(p0, p1, mapping, used, depth + 1)
        mapping[depth] = None
        used[candidate] = False


def find_isomorphisms(p0: Pattern, p1: Pattern) -> list[tuple[int, ...]]:
    """All bijections ``f`` with ``(u,v) in E0 <=> (f(u),f(v)) in E1``.

    Labels are respected: ``label0(v) == label1(f(v))`` for all ``v``.
    """
    if p0.num_vertices != p1.num_vertices or p0.num_edges != p1.num_edges:
        return []
    if sorted(p0.degree(v) for v in range(p0.num_vertices)) != sorted(
        p1.degree(v) for v in range(p1.num_vertices)
    ):
        return []
    if sorted(p0.label(v) for v in range(p0.num_vertices)) != sorted(
        p1.label(v) for v in range(p1.num_vertices)
    ):
        return []
    mapping: list[Optional[int]] = [None] * p0.num_vertices
    used = [False] * p1.num_vertices
    return list(_extend(p0, p1, mapping, used, 0))


def are_isomorphic(p0: Pattern, p1: Pattern) -> bool:
    """Whether two patterns have the same structure (and labels)."""
    for _ in _first_isomorphism(p0, p1):
        return True
    return False


def _first_isomorphism(p0: Pattern, p1: Pattern) -> Iterator[tuple[int, ...]]:
    if p0.num_vertices != p1.num_vertices or p0.num_edges != p1.num_edges:
        return
    mapping: list[Optional[int]] = [None] * p0.num_vertices
    used = [False] * p1.num_vertices
    yield from _extend(p0, p1, mapping, used, 0)


@lru_cache(maxsize=4096)
def automorphisms(pattern: Pattern) -> tuple[tuple[int, ...], ...]:
    """The automorphism group of ``pattern`` as permutation tuples.

    Always contains the identity; its size divides ``n!`` and equals the
    overcount factor of unrestricted pattern enumeration. Memoized, and
    therefore immutable: every caller is handed the same tuple.
    """
    return tuple(find_isomorphisms(pattern, pattern))
