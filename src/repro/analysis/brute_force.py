"""Independent brute-force embedding counter.

Used only to validate the engines: a direct backtracking search over
pattern-vertex assignments that shares no code with the schedule-driven
enumeration (no matching orders, no restrictions, no numpy set
kernels). It counts *assignments* and divides by the automorphism
count, which is the definition every engine must agree with.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern


def count_embeddings_brute_force(
    graph: Graph, pattern: Pattern, induced: bool = False
) -> int:
    """Number of distinct embeddings of ``pattern`` in ``graph``.

    Edge-induced by default (pattern edges must exist; extra edges among
    matched vertices are allowed); ``induced=True`` additionally demands
    pattern non-edges be absent (vertex-induced motif semantics). For
    labeled patterns, labels must match.
    """
    n = pattern.num_vertices
    num_autos = len(automorphisms(pattern))
    # a position with a pattern neighbor placed before it draws its
    # candidates from the first such neighbor's list (its out-list on an
    # oriented graph: the edge check reads that direction), not from
    # every vertex; the checks below stay whole
    anchors = [
        next((prior for prior in range(position)
              if pattern.has_edge(prior, position)), None)
        for position in range(n)
    ]
    assignment: list[int] = []
    used: set[int] = set()

    def consistent(candidate: int, position: int) -> bool:
        if pattern.labels is not None and graph.label(candidate) != pattern.label(
            position
        ):
            return False
        for prior in range(position):
            has_pattern_edge = pattern.has_edge(prior, position)
            has_graph_edge = graph.has_edge(assignment[prior], candidate)
            if has_pattern_edge and not has_graph_edge:
                return False
            if induced and not has_pattern_edge and has_graph_edge:
                return False
            if (
                has_pattern_edge
                and pattern.edge_label(prior, position)
                != graph.edge_label(assignment[prior], candidate)
            ):
                return False
        return True

    def search(position: int) -> int:
        if position == n:
            return 1
        total = 0
        anchor = anchors[position]
        candidates = (
            graph.vertices() if anchor is None
            else graph.neighbors(assignment[anchor]).tolist()
        )
        for candidate in candidates:
            if candidate in used:
                continue
            if not consistent(candidate, position):
                continue
            assignment.append(candidate)
            used.add(candidate)
            total += search(position + 1)
            assignment.pop()
            used.discard(candidate)
        return total

    raw = search(0)
    assert raw % num_autos == 0, "assignment count must divide |Aut|"
    return raw // num_autos
