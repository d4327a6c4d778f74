"""Extension schedules: compiled matching orders for pattern-aware GPM.

A :class:`Schedule` is the compiled form of the nested loops in the
paper's Figure 1: a matching order over the pattern vertices plus one
:class:`ExtensionStep` per loop level describing exactly which previous
positions' edge lists the level intersects, which it excludes (induced
mode), which ordering restrictions apply, which earlier intersection
result can be reused (vertical computation sharing, Section 5.1), and
which positions stay *active* afterwards (the anti-monotone active
edge-list sets of Section 3.1).

Two generators mirror the two client systems:

- :func:`automine_schedule` — Automine's greedy connectivity heuristic;
- :func:`graphpi_schedule` — GraphPi's exhaustive search over connected
  matching orders scored by an expected-cardinality cost model (the
  reason k-GraphPi beats k-Automine on 3-motif counting in Table 2).

Both are pure functions of hashable values, memoized on exactly their
arguments: a process compiles a pattern once (docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional, Sequence

from repro.errors import ScheduleError
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.symmetry import stabilizer_chain, symmetry_restrictions


@dataclass(frozen=True)
class ExtensionStep:
    """One loop level: how to place matching-order position ``level``.

    All indices refer to *positions* in the matching order (0-based),
    not original pattern vertex ids.
    """

    level: int
    #: positions whose neighbor lists are intersected to form candidates
    connected: tuple[int, ...]
    #: positions whose neighbors must be excluded (vertex-induced mode)
    disconnected: tuple[int, ...]
    #: new vertex id must be greater than these positions' vertices
    larger_than: tuple[int, ...]
    #: new vertex id must be smaller than these positions' vertices
    smaller_than: tuple[int, ...]
    #: required vertex label (None = unlabeled match)
    label: Optional[int]
    #: required edge labels aligned with ``connected`` (None = no
    #: edge-label constraints on this step)
    edge_labels: Optional[tuple[int, ...]]
    #: earlier level whose raw intersection this step extends (VCS), or None
    reuse_level: Optional[int]
    #: positions intersected on top of the reused result (= connected
    #: minus the reused level's connected set)
    extra_connected: tuple[int, ...]
    #: whether this step's raw intersection is reused by a later step and
    #: must be stored in the extendable embedding (Section 5.1)
    store_intermediate: bool
    #: positions whose edge lists remain active after this step
    active_after: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    """A compiled matching order for one pattern."""

    pattern: Pattern
    #: order[i] = pattern vertex matched at position i (connected prefix)
    order: tuple[int, ...]
    induced: bool
    restrictions: tuple[tuple[int, int], ...]
    steps: tuple[ExtensionStep, ...] = field(default=())

    @property
    def num_levels(self) -> int:
        """Number of extension steps (pattern size minus one)."""
        return len(self.steps)

    def root_label(self) -> Optional[int]:
        """Label constraint on the level-0 (root) vertex."""
        if self.pattern.labels is None:
            return None
        return self.pattern.label(self.order[0])

    def root_active(self) -> bool:
        """Whether the root's own edge list is needed by later steps."""
        return any(
            0 in step.connected or 0 in step.disconnected
            for step in self.steps
        )

    def needs_edge_list(self, position: int) -> bool:
        """Whether position's edge list is intersected by any later step."""
        return any(
            position in step.connected or position in step.disconnected
            for step in self.steps
            if step.level > position
        )


# ----------------------------------------------------------------------
# schedule compilation
# ----------------------------------------------------------------------
def _validate_order(pattern: Pattern, order: Sequence[int]) -> None:
    if sorted(order) != list(range(pattern.num_vertices)):
        raise ScheduleError(f"order {order} is not a permutation")
    for i in range(1, len(order)):
        if not any(pattern.has_edge(order[i], order[j]) for j in range(i)):
            raise ScheduleError(
                f"order {order} breaks the connected-prefix property at {i}"
            )


def compile_schedule(
    pattern: Pattern,
    order: Sequence[int],
    induced: bool = False,
    use_restrictions: bool = True,
    restrictions: Optional[tuple[tuple[int, int], ...]] = None,
) -> Schedule:
    """Compile a matching order into a full :class:`Schedule`.

    Computes per-level connected/disconnected sets, maps the pattern's
    symmetry restrictions onto order positions, selects vertical
    computation sharing opportunities, and derives the anti-monotone
    active-position sets.

    ``use_restrictions=False`` compiles without symmetry breaking — used
    when the input graph is already a degree-ordered DAG (orientation
    preprocessing finds each clique exactly once by construction).

    ``restrictions`` overrides the pattern's own stabilizer chain with
    an explicit pair set — the counting-plan compiler uses it to apply
    only the chain levels that stay inside a plan's prefix positions.
    """
    if not pattern.is_connected():
        raise ScheduleError("pattern must be connected")
    _validate_order(pattern, order)
    order = tuple(order)
    n = pattern.num_vertices
    position = {v: i for i, v in enumerate(order)}
    if restrictions is None:
        restrictions = (
            symmetry_restrictions(pattern) if use_restrictions else ()
        )

    connected_sets: list[frozenset[int]] = [frozenset()]
    disconnected_sets: list[frozenset[int]] = [frozenset()]
    for i in range(1, n):
        conn = frozenset(
            j for j in range(i) if pattern.has_edge(order[i], order[j])
        )
        disc = frozenset(j for j in range(i)) - conn
        connected_sets.append(conn)
        disconnected_sets.append(disc)

    # Vertical computation sharing: step i may reuse the raw intersection
    # of an earlier step r when r's connected set is a subset of i's (and
    # reuse actually saves a merge, i.e. |conn_r| >= 2).
    reuse: list[Optional[int]] = [None] * n
    for i in range(1, n):
        best: Optional[int] = None
        for r in range(1, i):
            if (
                len(connected_sets[r]) >= 2
                and connected_sets[r] <= connected_sets[i]
                and (best is None or len(connected_sets[r]) > len(connected_sets[best]))
            ):
                best = r
        reuse[i] = best
    stored = {r for r in reuse if r is not None}

    steps: list[ExtensionStep] = []
    for i in range(1, n):
        larger, smaller = [], []
        for a, b in restrictions:
            if position[b] == i and position[a] < i:
                larger.append(position[a])
            elif position[a] == i and position[b] < i:
                smaller.append(position[b])
        # Active positions after this step: anything a later step reads.
        active_after = sorted(
            {
                j
                for k in range(i + 1, n)
                for j in (connected_sets[k] | disconnected_sets[k])
                if j <= i
            }
        )
        label = pattern.label(order[i]) if pattern.labels is not None else None
        step_edge_labels = None
        if pattern.edge_labels is not None:
            step_edge_labels = tuple(
                pattern.edge_label(order[j], order[i])
                for j in sorted(connected_sets[i])
            )
        reuse_level = reuse[i]
        extra = connected_sets[i]
        if reuse_level is not None:
            extra = connected_sets[i] - connected_sets[reuse_level]
        steps.append(
            ExtensionStep(
                level=i,
                connected=tuple(sorted(connected_sets[i])),
                disconnected=tuple(sorted(disconnected_sets[i])) if induced else (),
                larger_than=tuple(sorted(larger)),
                smaller_than=tuple(sorted(smaller)),
                label=label,
                edge_labels=step_edge_labels,
                reuse_level=reuse_level,
                extra_connected=tuple(sorted(extra)),
                store_intermediate=(i in stored),
                active_after=tuple(active_after),
            )
        )
    return Schedule(
        pattern=pattern,
        order=order,
        induced=induced,
        restrictions=restrictions,
        steps=tuple(steps),
    )


# ----------------------------------------------------------------------
# matching-order generation
# ----------------------------------------------------------------------
def _connected_orders(pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """All matching orders with the connected-prefix property, grown
    depth first in lexicographic order over the neighbour masks."""
    masks, vertices = pattern.masks, range(pattern.num_vertices)
    stack = [((v,), 1 << v, masks[v]) for v in reversed(vertices)]
    while stack:
        order, placed, frontier = stack.pop()
        if len(order) == len(vertices):
            yield order
            continue
        stack.extend(
            (order + (v,), placed | 1 << v, frontier | masks[v])
            for v in reversed(vertices) if (frontier & ~placed) >> v & 1
        )


@lru_cache(maxsize=4096)
def automine_schedule(
    pattern: Pattern, induced: bool = False, use_restrictions: bool = True
) -> Schedule:
    """Automine-style matching order: greedy connectivity heuristic.

    Start from the highest-degree pattern vertex; repeatedly append the
    vertex with the most edges into the chosen prefix (ties broken by
    degree, then id). Cheap and usually good, but not cost-optimal —
    which is exactly the gap Table 2 shows on 3-motif counting.
    """
    masks, n = pattern.masks, pattern.num_vertices
    order, placed = [], 0  # placed: the vertex mask of ``order``
    while len(order) < n:
        best = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((masks[v] & placed).bit_count(),
                           pattern.degree(v), -v),
        )
        if order and not masks[best] & placed:
            raise ScheduleError("pattern is disconnected")
        order.append(best)
        placed |= 1 << best
    return compile_schedule(pattern, tuple(order), induced, use_restrictions)


def _order_cost(
    pattern: Pattern,
    order: tuple[int, ...],
    avg_degree: float,
    num_vertices: float,
    induced: bool = False,
    use_restrictions: bool = True,
    counting: str = "enumerate",
) -> float:
    """GraphPi-style expected-cost model for one matching order.

    Expected candidate count of a level intersecting ``k`` lists is
    ``d * (d/n)^(k-1)``; each one-sided ordering restriction on the new
    vertex halves it. Cost of a level is (expected parents) x (merge
    work), summed over levels. Orders are costed exactly as they will
    execute: induced mode pays for its exclusion merges and an
    unrestricted compile gets no restriction halving (historically both
    flags were dropped here, so ``graphpi_schedule`` scored every order
    as a restricted non-induced run).

    Under ``counting="iep"`` an order with an inclusion-exclusion plan
    is charged its prefix enumeration plus one cardinality pass per
    distinct intersection signature — never the suffix levels it will
    not materialize.
    """
    schedule = compile_schedule(pattern, order, induced, use_restrictions)
    plan = compile_counting_plan(schedule) if counting == "iep" else None
    steps = schedule.steps if plan is None else plan.prefix_schedule.steps
    return _price(
        [(len(step.connected), len(step.disconnected),
          len(step.larger_than) + len(step.smaller_than)) for step in steps],
        None if plan is None else [len(s) for s in plan.signatures],
        avg_degree, num_vertices,
    )


def _price(levels: Sequence[tuple[int, int, int]],
           signatures: Optional[Sequence[int]], d: float, n: float) -> float:
    """The cost model's arithmetic over, per level, how many positions
    it intersects, excludes, and has ordering pairs bind at, and the
    lengths of an IEP terminal's signatures in sorted order (or None)."""
    parents = 1.0  # expected embeddings alive at the previous level
    cost = 0.0
    for connected, excluded, binding in levels:
        k = max(1, connected)
        expected = d * (d / n) ** (k - 1)
        expected *= 0.5 ** binding
        # elements streamed through the intersection, plus the induced
        # exclusion merges against the disconnected positions
        cost += parents * ((k + excluded) * d)
        parents *= max(expected, 1e-9)
    if signatures is not None:
        cost += parents * sum(max(1, length) * d for length in signatures)
    return cost


def _score_order(
    pattern: Pattern, order: tuple[int, ...], avg_degree: float,
    num_vertices: float, induced: bool = False,
    use_restrictions: bool = True, counting: str = "enumerate",
) -> float:
    """:func:`_order_cost`, read off the order without compiling it.

    The integers :func:`_price` takes fall out of the neighbour masks,
    the stabilizer chain and the order, so the search builds objects for
    the winner only. Equal to :func:`_order_cost` bit for bit — one
    arithmetic, the same integers (tests/test_schedule.py: ``==``).
    """
    masks, size = pattern.masks, len(order)
    position = {vertex: i for i, vertex in enumerate(order)}
    restrictions = symmetry_restrictions(pattern) if use_restrictions else ()
    suffix = _plan_suffix(pattern, order, induced) if counting == "iep" else 0
    prefix_size, signatures = size - suffix, None
    if suffix:  # the order has a counting plan: cost its prefix
        if restrictions:
            restrictions = _partial_restrictions(pattern, order, prefix_size)[0]
        constraints = sorted(
            tuple(sorted(position[u] for u in pattern.neighbors(vertex)))
            for vertex in order[prefix_size:])
        signatures = [len(s) for s in _iep_terms(tuple(constraints))[1]]
    binding = [0] * size
    for a, b in restrictions:
        binding[max(position[a], position[b])] += 1
    levels, placed = [], 1 << order[0]
    for i in range(1, prefix_size):
        connected = (masks[order[i]] & placed).bit_count()
        levels.append((connected, i - connected if induced else 0, binding[i]))
        placed |= 1 << order[i]
    return _price(levels, signatures, avg_degree, num_vertices)


@lru_cache(maxsize=4096)
def graphpi_schedule(
    pattern: Pattern,
    induced: bool = False,
    avg_degree: float = 16.0,
    num_vertices: float = 1.0e4,
    use_restrictions: bool = True,
    counting: str = "enumerate",
) -> Schedule:
    """GraphPi-style schedule: exhaustive search over connected orders.

    Scores every connected-prefix matching order with the expected-
    cardinality model and compiles the cheapest (ties broken
    lexicographically for determinism). ``counting="iep"`` makes the
    search prefer orders whose trailing independent set feeds the
    inclusion-exclusion terminal kernel (docs/performance.md).
    """
    costed = [
        (_score_order(pattern, order, avg_degree, num_vertices, induced,
                      use_restrictions, counting), order)
        for order in _connected_orders(pattern)
    ]
    if not costed:
        raise ScheduleError("no connected matching order exists")
    return compile_schedule(pattern, min(costed)[1], induced, use_restrictions)


# ----------------------------------------------------------------------
# counting plans (GraphPi's in-exclusion optimization)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IEPTerm:
    """One inclusion-exclusion term: ``coefficient * prod(card(D))``.

    Each block is an intersection *signature*: a sorted tuple of prefix
    positions whose neighbor lists are intersected, with ``card(D)``
    the intersection's cardinality after removing prefix vertices.
    """

    coefficient: int
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CountingPlan:
    """A count-only query with its last levels folded into a formula.

    The suffix of the matching order whose vertices form an independent
    set in the pattern is never enumerated: for every embedding of the
    ``prefix_schedule`` the engine evaluates ``terms`` over the
    cardinalities of the ``signatures`` intersections (one per distinct
    block) and sums the results. Restrictions are applied through a
    *partial* stabilizer chain — only the levels whose ordering pairs
    stay inside the prefix — so the accumulated numerator is exactly
    ``true_count * divisor``, corrected by one integer division at the
    end of the run (``KhuzdulEngine`` does it after merging machines
    and workers; per-shard numerators are not individually divisible).
    """

    schedule: Schedule
    prefix_schedule: Schedule
    suffix_size: int
    #: remaining stabilizer-subgroup size: numerator / divisor = count
    divisor: int
    terms: tuple[IEPTerm, ...]
    #: distinct block signatures, each evaluated once per embedding
    signatures: tuple[tuple[int, ...], ...]
    #: prefix positions whose edge lists the terminal kernel reads
    fetch_positions: frozenset[int]


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    """All set partitions of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            yield (
                partition[:index]
                + [[first] + partition[index]]
                + partition[index + 1:]
            )
        yield [[first]] + partition


def _plan_suffix(pattern: Pattern, order: tuple[int, ...], induced: bool) -> int:
    """Length of the trailing pairwise-unconnected run of ``order`` that
    a counting plan folds into its formula; 0 when there can be no plan
    (induced or labeled matching, fewer than two such positions)."""
    if induced or pattern.labels is not None or pattern.edge_labels is not None:
        return 0
    start, suffix = len(order), 0  # suffix: vertex mask of order[start:]
    while start > 1 and not pattern.masks[order[start - 1]] & suffix:
        start -= 1
        suffix |= 1 << order[start]
    return len(order) - start if len(order) - start >= 2 else 0


def _partial_restrictions(
    pattern: Pattern, order: tuple[int, ...], prefix_size: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Stabilizer-chain levels whose pairs stay inside the prefix.

    Walks :func:`stabilizer_chain` but stops at the first level that
    would order a suffix position (the IEP formula counts suffix tuples
    without ordering constraints). Returns the accepted pattern-vertex
    pairs and the size of the remaining subgroup — the plan's exact
    over-counting divisor: each embedding's orbit retains ``divisor``
    of its members under the partial pairs.
    """
    prefix = set(order[:prefix_size])
    pairs: list[tuple[int, int]] = []
    divisor = len(automorphisms(pattern))
    for level_pairs, remaining in stabilizer_chain(pattern):
        if not all(a in prefix and b in prefix for a, b in level_pairs):
            break
        pairs.extend(level_pairs)
        divisor = remaining
    return tuple(sorted(pairs)), divisor


@lru_cache(maxsize=4096)
def _iep_terms(
    constraints: tuple[tuple[int, ...], ...]
) -> tuple[tuple[IEPTerm, ...], tuple[tuple[int, ...], ...]]:
    """The merged inclusion-exclusion terms of a suffix whose positions
    intersect the prefix positions ``constraints`` (one sorted tuple
    each, in any order), and the distinct signatures they evaluate."""
    merged: dict[tuple[tuple[int, ...], ...], int] = {}
    for partition in _set_partitions(constraints):
        coefficient = 1
        blocks = []
        for block in partition:
            coefficient *= (-1) ** (len(block) - 1) * factorial(
                len(block) - 1
            )
            blocks.append(tuple(sorted(set().union(*block))))
        key = tuple(sorted(blocks))
        merged[key] = merged.get(key, 0) + coefficient
    terms = tuple(
        IEPTerm(coefficient, blocks)
        for blocks, coefficient in sorted(merged.items())
        if coefficient != 0
    )
    return terms, tuple(sorted({b for term in terms for b in term.blocks}))


@lru_cache(maxsize=512)
def compile_counting_plan(schedule: Schedule) -> Optional[CountingPlan]:
    """Fold ``schedule``'s independent suffix into IEP terms, if it can.

    Returns ``None`` — fall back to plain enumeration — unless the
    query is count-only-compatible: non-induced, unlabeled, and with at
    least two trailing matching-order positions that are pairwise
    unconnected in the pattern. For an eligible schedule the ordered
    distinct suffix tuples of one prefix embedding number::

        sum over set partitions P of the suffix positions:
            prod over blocks B of P:
                (-1)^(|B|-1) * (|B|-1)! * card(union of constraints of B)

    where ``card(D)`` is ``|intersection of N(v_j) for j in D|`` minus
    the prefix vertices that fall inside it (distinct-vertex
    correction). Terms with identical block multisets are merged.
    """
    pattern = schedule.pattern
    suffix_size = _plan_suffix(pattern, schedule.order, schedule.induced)
    full = symmetry_restrictions(pattern)
    if not suffix_size or schedule.restrictions not in (full, ()):
        return None
    n = pattern.num_vertices
    prefix_size = n - suffix_size
    order = schedule.order
    position = {v: i for i, v in enumerate(order)}

    if schedule.restrictions == full:
        pairs, divisor = _partial_restrictions(pattern, order, prefix_size)
    else:
        # compiled without symmetry breaking (orientation mode): the
        # numerator already is the ordered count the caller expects
        pairs, divisor = (), 1
    prefix_restrictions = tuple(
        sorted((position[a], position[b]) for a, b in pairs)
    )
    prefix_edges = [
        (i, j)
        for i in range(prefix_size)
        for j in range(i)
        if pattern.has_edge(order[i], order[j])
    ]
    prefix_pattern = Pattern(prefix_size, prefix_edges)
    prefix_schedule = compile_schedule(
        prefix_pattern,
        tuple(range(prefix_size)),
        induced=False,
        restrictions=prefix_restrictions,
    )

    # per-suffix-position constraint sets (always within the prefix:
    # suffix positions are pairwise unconnected, so every connected
    # earlier position of a connected-prefix order sits before them)
    terms, signatures = _iep_terms(tuple(sorted(
        schedule.steps[level - 1].connected
        for level in range(prefix_size, n)
    )))
    fetch_positions = frozenset(
        pos for signature in signatures for pos in signature
    )
    return CountingPlan(
        schedule=schedule,
        prefix_schedule=prefix_schedule,
        suffix_size=suffix_size,
        divisor=divisor,
        terms=terms,
        signatures=signatures,
        fetch_positions=fetch_positions,
    )
