"""Baseline systems the paper evaluates against.

Every baseline reimplements the *execution model* of its namesake over
the same simulated substrate and the same enumeration kernel as the
Khuzdul engine, :func:`repro.core.kernels.extend_chunk` (so all
systems agree on counts): the pattern-aware ones walk their embedding
trees level by level (:func:`repro.baselines.common.walk`) and fold
the kernel's per-row tallies the way their architecture charges
costs:

- :class:`~repro.baselines.gthinker.GThinker` — distributed, partitioned
  graph, coarse per-tree tasks that prefetch k-hop balls, general
  software cache with a task<->data map;
- :class:`~repro.baselines.replicated.GraphPiReplicated` — distributed
  with a fully replicated graph and coarse first-loop parallelism;
- :class:`~repro.baselines.single_machine.SingleMachine` — AutomineIH /
  Peregrine-style single-machine systems;
- :class:`~repro.baselines.pangolin.PangolinLike` — single machine with
  orientation for cliques and BFS-level materialization;
- :class:`~repro.baselines.moving_computation.MovingComputation` —
  aDFS-style "move computation to data";
- :class:`~repro.baselines.fractal.FractalLike` — pattern-oblivious
  distributed enumeration (FSM comparison).
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
