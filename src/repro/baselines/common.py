"""Level-synchronous tree exploration for the baseline systems.

The baselines explore whole embedding trees per root (the coarse task
granularity of G-thinker, GraphPi, and the single-machine systems)
instead of Khuzdul's fine-grained chunked tasks. Their execution
models differ only in where they charge time, so they share the
engine's one exploration kernel: :func:`walk` runs each schedule step
as :func:`repro.core.kernels.extend_chunk` calls over a frontier of
prefix rows, and each baseline folds the calls' per-row integer arrays
into its own groups (a root's tree, a level-1 subtree, a machine).

The frontier is cut into slices of at most :data:`ROWS` rows and the
slices are explored depth first, so memory stays bounded and a walk
over a root batch finishes before the next batch starts. Children come
out sorted below their parent, so the rows of one call are in the
depth-first preorder of their vertex paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core import kernels
from repro.core.scheduler import BATCH_ELEMENTS
from repro.core.workspace import Workspace
from repro.graph.graph import Graph
from repro.patterns.schedule import Schedule, joined_pairs

#: most prefix rows one kernel call extends (and roots one batch holds)
ROWS = BATCH_ELEMENTS

#: rows of a tally matrix: elements streamed through set operations,
#: candidates scanned by the filters, children created, matches
MERGE, SCANNED, CREATED, MATCHES = range(4)


@dataclass
class Level:
    """One kernel call of a :func:`walk`: prefix rows (matching-order
    positions ``0..level-1``) extended by the step placing ``level``.

    ``merge`` / ``scanned`` / ``counts`` are the kernel's per-row
    tallies; at the final level they may be workspace views, valid
    until the walk resumes. ``children`` are the child prefix rows
    (None at the final level), ``parents[j]`` the row child ``j``
    extends. A single-vertex pattern walks one final level 0, its rows
    the roots: every root is a match and nothing is extended.
    """

    level: int
    final: bool
    #: (n,) each row's root, as an index into the walk's roots
    trees: np.ndarray
    #: (n,) each row's level-1 ancestor, numbered walk-wide in creation
    #: order (-1 where the row has none)
    branches: np.ndarray
    merge: np.ndarray
    scanned: np.ndarray
    counts: np.ndarray
    children: Optional[np.ndarray] = None
    parents: Optional[np.ndarray] = None


def walk(
    graph: Graph,
    schedule: Schedule,
    roots: np.ndarray,
    vcs: bool,
    on_match: Optional[Callable[[tuple[int, ...], np.ndarray], None]] = None,
) -> Iterator[Level]:
    """Explore every embedding tree rooted at ``roots``, one
    :class:`Level` a kernel call, parents before their children.

    ``vcs`` threads stored intersections to the steps that reuse them,
    as :meth:`repro.core.chunk.Chunk.intermediates` does. ``on_match``
    is called once per final-level row with matches, with the row's
    prefix and its candidates; without it the final level only counts.
    """
    roots = np.asarray(roots, dtype=np.int64)
    final = schedule.pattern.num_vertices - 1
    if final == 0:
        n = len(roots)
        nothing = np.zeros(n, dtype=np.int64)
        yield Level(0, True, np.arange(n), np.full(n, -1), nothing,
                    nothing, np.ones(n, dtype=np.int64))
        return
    workspace = Workspace()
    created_branches = 0
    # depth first over frontier slices: a frame is one level's frontier
    # and the first row not yet extended; a slice's children go on top
    # of the rest of its frontier
    stack = [(roots.reshape(-1, 1), np.arange(len(roots)),
              np.full(len(roots), -1), {}, {}, 0)]
    while stack:
        prefixes, trees, branches, lineage, stored, start = stack.pop()
        if not len(prefixes):
            continue
        stop = start + ROWS
        if stop < len(prefixes):
            stack.append(
                (prefixes, trees, branches, lineage, stored, stop))
        level = prefixes.shape[1]
        step = schedule.steps[level - 1]
        last = level == final
        rows = prefixes[start:stop]
        intermediates = None
        if step.reuse_level in stored:
            intermediates = stored[step.reuse_level] + (
                lineage[step.reuse_level][start:stop],)
        batch = kernels.extend_chunk(
            graph, step, rows, intermediates, vcs=vcs,
            count_only=last and on_match is None, workspace=workspace,
            joined=joined_pairs(schedule.steps[:level - 1]),
        )
        here = Level(level, last, trees[start:stop], branches[start:stop],
                     batch.merge_elements, batch.scanned, batch.counts)
        if last:
            if on_match is not None:
                for i in np.flatnonzero(batch.counts).tolist():
                    on_match(tuple(rows[i].tolist()),
                             batch.candidates_for(i))
            yield here
            continue
        parents = here.parents = batch.rows
        children = here.children = np.empty(
            (len(parents), level + 1), dtype=np.int64)
        children[:, :level] = rows[parents]
        children[:, level] = batch.values
        if level == 1:
            child_branches = np.arange(
                created_branches, created_branches + len(parents))
            created_branches += len(parents)
        else:
            child_branches = here.branches[parents]
        yield here
        child_lineage = {
            at: column[start:stop][parents] for at, column in lineage.items()
        }
        child_stored = stored
        if vcs and step.store_intermediate:
            child_stored = {
                **stored, level: (batch.raw_values, batch.raw_offsets)}
            child_lineage[level] = parents
        stack.append((children, here.trees[parents], child_branches,
                      child_lineage, child_stored, 0))


def tree_roots(graph: Graph, schedule: Schedule,
               vertices: Optional[np.ndarray] = None) -> np.ndarray:
    """The vertices (all of the graph's by default) that can root an
    embedding tree: those carrying the schedule's root label, if any."""
    if vertices is None:
        vertices = np.arange(graph.num_vertices)
    label = schedule.root_label()
    if label is None or graph.labels is None:
        return vertices
    return vertices[graph.labels[vertices] == label]


def fold(tallies: np.ndarray, level: Level,
         groups: Optional[np.ndarray] = None) -> None:
    """Add a call's rows into a tally matrix, row ``i`` into column
    ``groups[i]`` (``groups`` None: into a tally vector of totals):
    merge elements, scanned candidates, and the rows' counts as created
    children or, at the final level, as matches."""
    final = MATCHES if level.final else CREATED
    for at, column in ((MERGE, level.merge), (SCANNED, level.scanned),
                       (final, level.counts)):
        if groups is None:
            tallies[at] += int(column.sum())
        else:
            np.add.at(tallies[at], groups, column)


def compute_seconds(tallies: np.ndarray, cost) -> np.ndarray:
    """Pure enumeration compute time of each tally column under a cost
    model (one expression, so every group is priced identically)."""
    return (
        tallies[MERGE] * cost.intersect_per_element
        + tallies[SCANNED] * cost.emit_per_candidate
        + tallies[CREATED] * cost.embedding_create
    )
