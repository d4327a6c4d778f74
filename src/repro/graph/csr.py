"""Sharing a graph with worker processes: by store path.

The ``process`` backend (``repro.exec``) runs one OS process per group
of simulated machines, and the mining service (``repro.service``) one
per serving lane. All of them operate on the *same* input graph, and
there is one medium for it: a ``.kcsr`` store file (docs/storage.md)
that each worker maps read-only, edge lists and derived section
alike — exactly the role the replicated graph storage plays on a real
Khuzdul cluster node.

An mmap-backed graph already is a store. An in-RAM graph — a dataset
loaded with ``--storage ram``, or any ``Graph.oriented()`` DAG, which
is a RAM graph even when its base graph is a store — is written once
by :func:`share_csr` as a content-addressed store under
:func:`~repro.graph.datasets.store_directory`: the file name carries
the arrays' CRC32, the vertex and adjacency-entry counts, and the
direction, and an existing file is reused only when its arrays equal
the graph's. Nothing is created per run, so nothing needs unlinking:
a SIGKILLed parent leaves a store the next run reuses.

A worker's graph reports its parent's ``storage`` (the handle carries
it), so a RAM run's report, metrics and admission read ``"ram"`` on
every backend.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class MmapCsrHandle:
    """Picklable description of a shared graph: a store's path.

    Workers open the mapping read-only by path. The fingerprint (the
    store's header CRC) guards against the path being swapped for a
    different graph between share and attach; ``storage`` is the
    sharing graph's tag, which the attached graph reports.
    """

    path: str
    fingerprint: int
    storage: str


def _store_name(graph: Graph) -> str:
    """The content-addressed file name of a RAM graph's store."""
    crc = 0
    for array in (graph.indptr, graph.indices, graph.labels,
                  graph.edge_labels):
        if array is not None:
            crc = zlib.crc32(np.ascontiguousarray(array).view(np.uint8), crc)
    kind = "directed" if graph.directed else "undirected"
    return (f"ram-{crc:08x}-v{graph.num_vertices}"
            f"-e{graph.num_directed_edges}-{kind}.kcsr")


def _fingerprint(path: str):
    """The store's header CRC, or None where there is no valid store."""
    from repro.graph.storage import read_header

    try:
        return read_header(path)["_fingerprint"]
    except GraphFormatError:
        return None


def share_csr(graph: Graph) -> MmapCsrHandle:
    """The handle workers attach ``graph`` by.

    An mmap-backed graph is its own store. An in-RAM graph is written
    once as a content-addressed store (module docstring); the handle is
    memoized on the graph, per store directory, while its file still
    has the handle's fingerprint.
    """
    from repro.graph.datasets import store_directory
    from repro.graph.storage import open_store, write_store

    store_path = getattr(graph, "store_path", None)
    if store_path is not None:
        return MmapCsrHandle(str(store_path), graph.fingerprint,
                             graph.storage)
    directory = store_directory()
    if graph._shared is not None:
        shared_in, handle = graph._shared
        if shared_in == directory and _fingerprint(handle.path) == \
                handle.fingerprint:
            return handle
    path = directory / _store_name(graph)
    stored = None
    if path.exists():
        try:
            stored = open_store(path)
        except GraphFormatError:
            pass  # a stale or torn file: rewritten below
    if stored is None or stored != graph:
        write_store(graph, path)
        stored = open_store(path)
    handle = MmapCsrHandle(str(path), stored.fingerprint, graph.storage)
    graph._shared = (directory, handle)
    return handle


def attach_csr(handle: MmapCsrHandle) -> Graph:
    """Map a graph shared by :func:`share_csr` in another process,
    rejecting a swapped or stale store by fingerprint."""
    from repro.graph.storage import open_store

    graph = open_store(handle.path)
    if graph.fingerprint != handle.fingerprint:
        raise ConfigurationError(
            f"{handle.path}: store fingerprint changed between "
            f"share ({handle.fingerprint:#x}) and attach "
            f"({graph.fingerprint:#x}); the store was rebuilt or "
            f"replaced while workers were starting"
        )
    graph.storage = handle.storage
    return graph
