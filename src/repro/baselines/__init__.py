"""Baseline systems the paper evaluates against.

Every baseline reimplements the *execution model* of its namesake over
the same simulated substrate and the same enumeration kernel as the
Khuzdul engine, :func:`repro.core.kernels.extend_chunk` (so all
systems agree on counts): the pattern-aware ones walk their embedding
trees level by level (:func:`repro.baselines.common.walk`) and fold
the kernel's per-row tallies the way their architecture charges
costs. The query surface is :class:`~repro.systems.base.GPMSystem`'s:
a baseline supplies its matching-order compiler (``build_schedule``),
one pattern's run (``_run_schedule``: matches, seconds, traffic and
breakdown) and the summed job's report (``_report``):

- :class:`~repro.baselines.gthinker.GThinker` — distributed, partitioned
  graph, coarse per-tree tasks that prefetch k-hop balls, general
  software cache with a task<->data map;
- :class:`~repro.baselines.replicated.GraphPiReplicated` — distributed
  with a fully replicated graph and coarse first-loop parallelism;
- :class:`~repro.baselines.single_machine.SingleMachine` — AutomineIH /
  Peregrine-style single-machine systems;
- :class:`~repro.baselines.pangolin.PangolinLike` — single machine with
  orientation for cliques (by default: its ``count_pattern`` override)
  and BFS-level materialization;
- :class:`~repro.baselines.moving_computation.MovingComputation` —
  aDFS-style "move computation to data";
- :class:`~repro.baselines.fractal.FractalLike` — pattern-oblivious
  distributed enumeration (FSM comparison); it runs no schedules, so
  it keeps its own three queries.
"""

from repro.baselines.single_machine import SingleMachine
from repro.baselines.replicated import GraphPiReplicated
from repro.baselines.gthinker import GThinker
from repro.baselines.pangolin import PangolinLike
from repro.baselines.moving_computation import MovingComputation
from repro.baselines.fractal import FractalLike

__all__ = [
    "SingleMachine",
    "GraphPiReplicated",
    "GThinker",
    "PangolinLike",
    "MovingComputation",
    "FractalLike",
]
