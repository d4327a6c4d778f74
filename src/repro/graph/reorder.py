"""Vertex reordering preprocessing.

GPM systems commonly renumber vertices before mining: a degree-sorted
numbering makes the symmetry-breaking comparisons (``v_new > v_j``)
align with degree order — so restrictions prune towards low-degree
candidates — and packs hub adjacency together for locality. GraphPi and
Automine both apply such preprocessing; it composes with (and is
distinct from) the orientation transform in
:mod:`repro.graph.orientation`, which drops edge directions outright.

The functions here return both the transformed graph and the mapping
back to original ids, so applications can report embeddings in the
input numbering.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph


def reorder_by_degree(
    graph: Graph, descending: bool = True
) -> tuple[Graph, np.ndarray]:
    """Renumber vertices by degree; returns ``(graph, old_of_new)``.

    ``descending=True`` gives hubs the smallest ids (the common choice:
    restrictions of the form ``v_new > v_prev`` then bias enumeration
    roots towards hubs whose trees are pruned hardest). The returned
    ``old_of_new[i]`` is the original id of new vertex ``i``.
    """
    degrees = graph.degrees()
    keys = -degrees if descending else degrees
    old_of_new = np.lexsort((np.arange(graph.num_vertices), keys))
    return apply_order(graph, old_of_new), old_of_new


def apply_order(graph: Graph, old_of_new: np.ndarray) -> Graph:
    """Renumber ``graph`` so that new vertex ``i`` is ``old_of_new[i]``."""
    old_of_new = np.asarray(old_of_new, dtype=np.int64)
    n = graph.num_vertices
    if (
        old_of_new.shape != (n,)
        or (n and old_of_new.min() < 0)
        or not np.array_equal(np.bincount(old_of_new, minlength=n),
                              np.ones(n, dtype=np.int64))
    ):
        raise ValueError("old_of_new must be a permutation of vertex ids")
    new_of_old = np.empty_like(old_of_new)
    new_of_old[old_of_new] = np.arange(n)

    # every stored entry once — an undirected edge from its smaller
    # endpoint, as ``graph.edges()`` yields it — with its label carried
    # by position
    src = np.repeat(np.arange(n), graph.degrees())
    once = slice(None) if graph.directed else src < graph.indices
    edges = np.stack(
        [new_of_old[src[once]], new_of_old[graph.indices[once]]], axis=1
    )
    return from_edge_array(
        edges,
        num_vertices=n,
        labels=None if graph.labels is None else graph.labels[old_of_new],
        directed=graph.directed,
        edge_labels=(
            None if graph.edge_labels is None else graph.edge_labels[once]
        ),
    )


def restore_ids(
    vertices: tuple[int, ...], old_of_new: np.ndarray
) -> tuple[int, ...]:
    """Map an embedding found on a reordered graph back to original ids."""
    return tuple(int(old_of_new[v]) for v in vertices)
