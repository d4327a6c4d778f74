"""Synthetic graph generators.

The paper evaluates on real SNAP/WebGraph datasets up to 128.7B edges.
Those are unavailable offline and far beyond pure-Python enumeration, so
the reproduction uses scaled-down synthetic analogues. The property that
matters for every mechanism Khuzdul exercises is *degree skew* (power-law
hot spots drive communication concentration, cache effectiveness, and
task imbalance), so the central generator is a Chung-Lu style power-law
model with a controllable exponent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph


#: uniforms a :class:`GuideTable` draws at a time, and log2 of its bucket cap
DRAW_BLOCK, GUIDE_BITS = 1 << 14, 20


class GuideTable:
    """``rng.choice(len(probs), size, p=probs)``, exactly and faster.

    ``choice`` answers each of ``rng.random(size)`` by a binary search,
    ``searchsorted(cdf, u, "right")`` with ``cdf = p.cumsum(); cdf /=
    cdf[-1]``. This draws the same uniforms (in blocks) off the same
    ``cdf``. ``K = 2 ** bits`` buckets, 4-8 a vertex, split ``[0, 1)``
    and ``first[b]`` counts the entries ``<= b / K``; ``u * K`` is
    exact, so the answer lies in ``[first[b], first[b + 1]]`` for ``b =
    floor(u * K)``, and a bucket that holds entries settles it by
    ``cdf[j] <= u``, the comparison ``searchsorted`` makes.
    """

    def __init__(self, probs: np.ndarray):
        self.cdf = np.asarray(probs, dtype=np.float64).cumsum()
        self.cdf /= self.cdf[-1]
        bits = min(GUIDE_BITS, len(self.cdf).bit_length() + 2)
        self.scale = float(1 << bits)
        # cdf[j] <= b / K  <=>  ceil(cdf[j] * K) <= b
        ceil = np.ceil(self.cdf * self.scale).astype(np.int64)
        counts = np.diff(ceil, prepend=0, append=(1 << bits) + 1)
        self.first = np.repeat(
            np.arange(len(self.cdf) + 1, dtype=np.int32), counts
        )

    def draw(self, rng, size: int, out: Optional[np.ndarray] = None):
        out = np.empty(size, dtype=np.int64) if out is None else out
        for start in range(0, size, DRAW_BLOCK):
            u = rng.random(min(DRAW_BLOCK, size - start))
            bucket = (u * self.scale).astype(np.intp)
            answer, end = self.first[bucket], self.first[bucket + 1]
            lanes = np.flatnonzero(answer != end)
            while len(lanes):
                lanes = lanes[self.cdf[answer[lanes]] <= u[lanes]]
                answer[lanes] += 1
                lanes = lanes[answer[lanes] != end[lanes]]
            out[start:start + len(u)] = answer
        return out


def _simple_graph(draw, num_vertices, target, slack, attempts=None):
    """The first ``target`` distinct edges of rounds of ``draw(need)``
    endpoint pairs: self-loops skipped, edges keyed ``(lo, hi)``, new
    keys taken in draw order (the per-pair ``set`` loop in
    ``tests/reference.py``, in array passes)."""
    held = np.empty(0, dtype=np.int64)
    rounds = 0
    while len(held) < target and (attempts is None or rounds < attempts):
        us, vs = draw((target - len(held)) * 2 + slack)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        keys = np.concatenate([held, (lo * num_vertices + hi)[lo != hi]])
        # a held key occurs first in ``held``
        _, first = np.unique(keys, return_index=True)
        order = np.sort(first[first >= len(held)])[:target - len(held)]
        held = np.sort(np.concatenate([held, keys[order]]))
        rounds += 1
    return from_edge_array(
        np.stack([held // num_vertices, held % num_vertices], axis=1),
        num_vertices=num_vertices,
    )


def erdos_renyi(num_vertices: int, num_edges: int, seed: int = 0) -> Graph:
    """G(n, m) random graph: ``num_edges`` distinct undirected edges."""
    rng = np.random.default_rng(seed)
    target = min(num_edges, num_vertices * (num_vertices - 1) // 2)
    return _simple_graph(
        lambda need: (rng.integers(0, num_vertices, size=need),
                      rng.integers(0, num_vertices, size=need)),
        num_vertices, target, slack=16,
    )


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.2,
    max_degree: Optional[int] = None,
    seed: int = 0,
) -> Graph:
    """Chung-Lu style power-law graph.

    Vertices get expected weights ``w_i ∝ (i + i0)^(-1/(exponent-1))``;
    endpoints of each edge are drawn proportionally to the weights. A
    smaller ``exponent`` produces a more skewed graph (bigger hubs);
    ``max_degree`` optionally caps the weight of the largest hub so that
    low-skew datasets like Patents can be modelled.

    The result is simple (no self-loops or duplicates), so the realized
    edge count can fall slightly below ``num_edges`` on dense corners.
    """
    rng = np.random.default_rng(seed)
    table = GuideTable(
        power_law_weights(num_vertices, num_edges, exponent, max_degree)
    )
    return _simple_graph(
        lambda need: (table.draw(rng, need), table.draw(rng, need)),
        num_vertices, num_edges, slack=32, attempts=40,
    )


def power_law_weights(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.2,
    max_degree: Optional[int] = None,
) -> np.ndarray:
    """The Chung-Lu endpoint distribution shared by
    :func:`power_law_graph` and :func:`power_law_edge_batches`."""
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    if max_degree is not None:
        # Cap hub weights so the expected max degree stays near the cap.
        expected = weights / weights.sum() * (2.0 * num_edges)
        scale = np.minimum(1.0, max_degree / np.maximum(expected, 1e-12))
        weights = weights * scale
    return weights / weights.sum()


def power_law_edge_batches(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.2,
    max_degree: Optional[int] = None,
    seed: int = 0,
    batch_edges: int = 1 << 18,
):
    """Stream Chung-Lu candidate edges as bounded ``(m, 2)`` batches.

    The feed for the out-of-core builder (docs/storage.md): exactly
    ``num_edges`` endpoint pairs are drawn proportional to the
    power-law weights and yielded in batches, *without* the dedup of
    :func:`power_law_graph` — self-loops and duplicates
    are left in the stream because the streaming builder's
    external-sort pipeline drops them anyway, which is what makes
    generation O(batch) memory at any scale. Deterministic for a given
    seed, so the scale sweep's ram and mmap builds see an identical
    stream. The realized simple-edge count lands slightly below
    ``num_edges``, exactly as the eager generator's docstring warns.
    """
    table = GuideTable(
        power_law_weights(num_vertices, num_edges, exponent, max_degree)
    )
    rng = np.random.default_rng(seed)
    remaining = num_edges
    batch_edges = max(1, batch_edges)
    while remaining > 0:
        need = min(batch_edges, remaining)
        batch = np.empty((need, 2), dtype=np.int64)
        table.draw(rng, need, out=batch[:, 0])
        table.draw(rng, need, out=batch[:, 1])
        yield batch
        remaining -= need


def random_labels(
    graph: Graph, num_labels: int, seed: int = 0
) -> Graph:
    """Attach uniformly random vertex labels (paper's FSM setup for lj)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_labels, size=graph.num_vertices)
    return graph.with_labels(labels)


def star_graph(num_leaves: int) -> Graph:
    """A star with vertex 0 at the center (worst-case skew fixture)."""
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
    return from_edge_array(edges, num_vertices=num_leaves + 1)


def complete_graph(num_vertices: int) -> Graph:
    """K_n (every pattern of size <= n appears; clique-count fixture)."""
    edges = np.stack(np.triu_indices(num_vertices, 1), axis=1)
    return from_edge_array(edges, num_vertices=num_vertices)


def cycle_graph(num_vertices: int) -> Graph:
    """A simple cycle (sparse fixture with known counts)."""
    ids = np.arange(num_vertices, dtype=np.int64)
    edges = np.stack([ids, (ids + 1) % num_vertices], axis=1)
    return from_edge_array(edges, num_vertices=num_vertices)
