"""Deterministic fault injection and chunk-granular recovery.

The fault subsystem exercises the engine's failure paths the same way
the cost model exercises its timing: everything is seeded and
simulated, so a fault run is exactly as reproducible as a fault-free
one. A :class:`FaultPlan` (parsed from the CLI's ``--faults`` spec or
built directly) describes *what* goes wrong; a :class:`FaultInjector`
decides *when*, at the ``MachineScheduler``'s two seams — its resolve
(transient fetch failures, drawn per machine and retried with
exponential backoff) and its chunk loop (machine crashes, straggler
slowdown).

Recovery is chunk-granular: the scheduler checkpoints its enumeration
cursor at every completed root chunk, so when a machine dies the
engine replays only the dead machine's unfinished roots on the
survivors. See ``docs/faults.md`` for the fault model, the spec
grammar, and the recovery semantics.

This package is a leaf layer: it imports only ``repro.errors`` and
``repro.obs`` so that both ``cluster`` and ``core`` may depend on it.
"""

from repro.faults.durability import (
    CheckpointSession,
    DurableRun,
    run_manifest,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashFault, FaultPlan, StragglerFault
from repro.faults.recovery import (
    Checkpoint,
    FailureSummary,
    Outcome,
    worker_death_event,
    worker_loss_summary,
)

__all__ = [
    "Checkpoint",
    "CheckpointSession",
    "CrashFault",
    "DurableRun",
    "FailureSummary",
    "FaultInjector",
    "FaultPlan",
    "Outcome",
    "StragglerFault",
    "run_manifest",
    "worker_death_event",
    "worker_loss_summary",
]
