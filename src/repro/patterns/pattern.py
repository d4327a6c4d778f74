"""Pattern graphs: the small connected graphs a GPM task searches for."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import PatternError


class Pattern:
    """A small undirected pattern graph, optionally vertex-labeled.

    Pattern vertices are ``0..num_vertices-1``. Patterns are immutable
    and hashable (by vertex count, edge set, and labels), so they can be
    used as dictionary keys in motif/FSM counters and as the keys the
    compilers are memoized on. ``masks[v]`` is the bitmask of ``v``'s
    neighbours (bit ``u`` set iff ``(u, v)`` is an edge): what the
    compilers' inner loops read instead of the frozensets.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices (>= 1).
    edges:
        Iterable of undirected edges ``(u, v)``; duplicates collapse,
        self-loops are rejected.
    labels:
        Optional per-vertex labels. ``None`` means unlabeled.
    """

    __slots__ = ("num_vertices", "edges", "labels", "edge_labels",
                 "masks", "_adj", "_edge_label", "_hash")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[int]] = None,
        edge_labels: Optional[Mapping[tuple[int, int], int]] = None,
    ):
        if num_vertices < 1:
            raise PatternError("pattern needs at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise PatternError(f"self-loop on pattern vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise PatternError(f"edge ({u},{v}) out of range")
            normalized.add((min(u, v), max(u, v)))
        if labels is not None:
            labels = tuple(int(x) for x in labels)
            if len(labels) != num_vertices:
                raise PatternError("labels length must equal num_vertices")
        normalized_elabels: Optional[frozenset] = None
        if edge_labels is not None:
            items = {}
            for (u, v), value in dict(edge_labels).items():
                key = (min(u, v), max(u, v))
                if key not in normalized:
                    raise PatternError(
                        f"edge label on non-existent edge {key}"
                    )
                items[key] = int(value)
            missing = normalized - set(items)
            if missing:
                raise PatternError(
                    f"edge labels missing for edges {sorted(missing)}"
                )
            normalized_elabels = frozenset(items.items())
        self.num_vertices = num_vertices
        self.edges = frozenset(normalized)
        self.labels = labels
        self.edge_labels = normalized_elabels
        masks = [0] * num_vertices
        # either orientation of an edge -> its label, for edge_label
        labelled = dict(normalized_elabels or ())
        self._edge_label = {}
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            self._edge_label[u, v] = self._edge_label[v, u] = labelled.get(
                (u, v), 0)
        self.masks = tuple(masks)
        self._adj = tuple(
            frozenset(u for u in range(num_vertices) if mask >> u & 1)
            for mask in masks
        )
        self._hash = hash(
            (num_vertices, self.edges, labels, normalized_elabels)
        )

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        """Pattern vertices adjacent to ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def label(self, v: int) -> int:
        """Label of pattern vertex ``v`` (0 when unlabeled)."""
        if self.labels is None:
            return 0
        return self.labels[v]

    def edge_label(self, u: int, v: int) -> int:
        """Label of pattern edge ``(u, v)`` (0 when edge-unlabeled)."""
        try:
            return self._edge_label[u, v]
        except KeyError:
            raise PatternError(
                f"edge {(min(u, v), max(u, v))} not in pattern") from None

    def is_connected(self) -> bool:
        """Whether the pattern is a single connected component."""
        reached, frontier = 1, self.masks[0]
        while frontier & ~reached:
            low = frontier & ~reached
            low &= -low  # the smallest vertex reached but not expanded
            reached |= low
            frontier |= self.masks[low.bit_length() - 1]
        return reached == (1 << self.num_vertices) - 1

    def relabel(self, perm: Sequence[int]) -> "Pattern":
        """Apply a vertex permutation: new vertex ``perm[v]`` is old ``v``."""
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        labels = None
        if self.labels is not None:
            labels = [0] * self.num_vertices
            for old, new in enumerate(perm):
                labels[new] = self.labels[old]
        edge_labels = None
        if self.edge_labels is not None:
            edge_labels = {
                (perm[u], perm[v]): value
                for (u, v), value in self.edge_labels
            }
        return Pattern(self.num_vertices, edges, labels, edge_labels)

    def with_labels(self, labels: Sequence[int]) -> "Pattern":
        return Pattern(self.num_vertices, self.edges, labels,
                       dict(self.edge_labels) if self.edge_labels else None)

    def with_edge_labels(
        self, edge_labels: Mapping[tuple[int, int], int]
    ) -> "Pattern":
        """Attach per-edge labels (one per pattern edge)."""
        return Pattern(self.num_vertices, self.edges, self.labels,
                       edge_labels)

    def unlabeled(self) -> "Pattern":
        """Forget vertex and edge labels."""
        return Pattern(self.num_vertices, self.edges)

    def add_vertex(self, attach_to: Iterable[int],
                   label: Optional[int] = None) -> "Pattern":
        """Extend with a new vertex connected to ``attach_to`` (FSM growth)."""
        attach = list(attach_to)
        if not attach:
            raise PatternError("new pattern vertex must attach to something")
        if self.edge_labels is not None:
            raise PatternError(
                "growth of edge-labeled patterns is not supported"
            )
        new = self.num_vertices
        edges = list(self.edges) + [(a, new) for a in attach]
        labels = None
        if self.labels is not None:
            labels = list(self.labels) + [0 if label is None else label]
        elif label is not None:
            labels = [0] * self.num_vertices + [label]
        return Pattern(new + 1, edges, labels)

    def add_edge(self, u: int, v: int) -> "Pattern":
        """Add an edge between two existing pattern vertices (FSM growth)."""
        if self.edge_labels is not None:
            raise PatternError(
                "growth of edge-labeled patterns is not supported"
            )
        return Pattern(self.num_vertices, list(self.edges) + [(u, v)],
                       self.labels)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.edges == other.edges
            and self.labels == other.labels
            and self.edge_labels == other.edge_labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        edge_str = sorted(self.edges)
        label_str = f", labels={self.labels}" if self.labels else ""
        elabel_str = (
            f", edge_labels={dict(sorted(self.edge_labels))}"
            if self.edge_labels
            else ""
        )
        return (
            f"Pattern({self.num_vertices}, {edge_str}{label_str}"
            f"{elabel_str})"
        )
