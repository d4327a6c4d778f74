"""Builders: construct :class:`~repro.graph.graph.Graph` from edge data.

All builders share one normalizer, the streaming builder's
(:mod:`repro.graph.storage`): self-loops and duplicate edges are
removed, the way the paper's preprocessing does, and undirected edges
are stored in both directions with sorted adjacency. The eager entry
point is a stream of one batch.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.storage import from_edge_batches


def from_edge_array(
    edges: np.ndarray,
    num_vertices: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    directed: bool = False,
    edge_labels: Optional[Sequence[int]] = None,
) -> Graph:
    """Build a graph from an ``(m, 2)`` integer edge array.

    Self-loops and duplicate edges (including reversed duplicates for
    undirected graphs) are dropped, mirroring the paper's preprocessing.
    ``edge_labels`` (one per input edge) follow their edges through the
    normalization; when duplicates collapse, the first occurrence wins.
    """
    # an array, so a tuple of pairs is not read as (edges, labels)
    edges = np.asarray(edges, dtype=np.int64)
    batch = edges if edge_labels is None else (edges, edge_labels)
    return from_edge_batches([batch], num_vertices, labels, directed)


def from_edges(
    edges: Iterable[tuple[int, int]],
    num_vertices: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    directed: bool = False,
    edge_labels: Optional[Sequence[int]] = None,
) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` pairs."""
    edge_list = list(edges)
    array = np.array(edge_list, dtype=np.int64).reshape(len(edge_list), 2)
    return from_edge_array(array, num_vertices, labels, directed, edge_labels)


#: edge rows parsed per batch by :func:`iter_edge_list_batches`; bounds
#: loader memory at O(batch) for both storage modes
DEFAULT_PARSE_BATCH = 1 << 16


def iter_edge_list_batches(
    path: str | os.PathLike,
    batch_edges: int = DEFAULT_PARSE_BATCH,
) -> "Iterable[np.ndarray]":
    """Parse a whitespace-separated edge-list file in bounded chunks.

    Yields ``(m, 2)`` int64 arrays of at most ``batch_edges`` rows —
    the streaming-builder feed, so loading a file never materializes
    more than one chunk of Python objects regardless of file size.
    Comment (``#``/``%``) and blank lines are skipped; malformed lines
    raise :class:`~repro.errors.GraphFormatError` naming the file and
    line, exactly as the eager loader always has.
    """
    batch_edges = max(1, batch_edges)
    buffer: list[tuple[int, int]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{line_no}: expected two ids")
            try:
                buffer.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{line_no}: non-integer vertex id"
                ) from exc
            if len(buffer) >= batch_edges:
                yield np.array(buffer, dtype=np.int64)
                buffer.clear()
    if buffer:
        yield np.array(buffer, dtype=np.int64)


def read_edge_list(
    path: str | os.PathLike,
    directed: bool = False,
    batch_edges: int = DEFAULT_PARSE_BATCH,
) -> Graph:
    """Read a whitespace-separated edge-list file (``#`` lines ignored).

    This is the same format as the SNAP datasets the paper evaluates
    on. Parsing is chunked through :func:`iter_edge_list_batches` into
    the streaming builder, so memory stays O(chunk) rather than O(file)
    — the same path :func:`repro.graph.storage.build_store` uses to
    load files straight into an on-disk store.
    """
    return from_edge_batches(
        iter_edge_list_batches(path, batch_edges), directed=directed
    )


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph as a whitespace-separated edge list (one edge once)."""
    with open(path, "w") as handle:
        handle.write(f"# |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
