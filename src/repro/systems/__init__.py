"""Client GPM systems built on the Khuzdul engine.

k-Automine and k-GraphPi are the paper's two ports of single-machine
systems onto Khuzdul: each contributes only its matching-order compiler
(the EXTEND-function generator); everything distributed comes from the
engine. :mod:`repro.systems.apps` wraps the four evaluated application
families (TC, k-CC, k-MC, FSM) uniformly over any system, and
:mod:`repro.systems.fsm` implements frequent subgraph mining with MNI
support on top of the ``mni_supports`` query every
:class:`~repro.systems.base.GPMSystem` answers.
"""

from repro.systems.base import GPMSystem
from repro.systems.automine import KAutomine
from repro.systems.graphpi import KGraphPi
from repro.systems.apps import (
    clique_count,
    motif_count,
    triangle_count,
)
from repro.systems.fsm import FsmResult, run_fsm

__all__ = [
    "GPMSystem",
    "KAutomine",
    "KGraphPi",
    "triangle_count",
    "clique_count",
    "motif_count",
    "run_fsm",
    "FsmResult",
]
