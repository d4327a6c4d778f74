"""The seam table: where the traced run wraps the layers' entry points.

Data, not code: each per-layer *time* metric names the dotted path(s)
(``module:Qualified.attribute``) whose calls it times. The paths are
private names of ``repro`` that later changes are free to rename — and
those changes may not edit this file — so a path that no longer
resolves is not an error: its metric reports ``null``, the seam is
listed under ``missing_seams``, and ``trace.coverage`` shows the hole.

End-to-end metrics never go through this table; they use the public
API only (see ``workloads.py``).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Optional

_SCHEDULER = "repro.core.scheduler:MachineScheduler."

#: time metric -> the callables whose *self* time it sums
SEAMS: dict[str, tuple[str, ...]] = {
    "graph.adjacency_build_s": (
        "repro.graph.graph:Graph.adjacency_matrix",
        "repro.graph.graph:Graph.adjacency_keys",
    ),
    "graph.gather_s": ("repro.graph.graph:Graph.neighbors_batch",),
    "cluster.build_s": ("repro.cluster.cluster:Cluster.__init__",),
    # the ports bind the compilers by name, so the ports' bindings are
    # the ones the queries call through
    "patterns.schedule_s": (
        "repro.systems.automine:automine_schedule",
        "repro.systems.graphpi:graphpi_schedule",
    ),
    "patterns.plan_s": (
        "repro.patterns.schedule:compile_counting_plan",
        "repro.core.engine:compile_counting_plan",
    ),
    "core.scheduler.resolve_s": (_SCHEDULER + "_resolve_chunk",),
    "core.scheduler.fill_s": (
        _SCHEDULER + "_fill_next_chunk",
        _SCHEDULER + "_fill_root_chunk",
    ),
    "core.scheduler.drain_s": (
        _SCHEDULER + "_drain_final",
        _SCHEDULER + "_drain_final_iep",
    ),
    "core.scheduler.other_s": (_SCHEDULER + "run",),
    "core.kernels.extend_s": (
        "repro.core.extend:ScheduleExtender.extend_chunk",
    ),
    "core.kernels.iep_s": ("repro.core.extend:ScheduleExtender.iep_chunk",),
    "core.engine.run_s": (
        "repro.core.engine:KhuzdulEngine.run",
        "repro.core.engine:KhuzdulEngine.run_many",
    ),
    "systems.merge_s": (
        "repro.exec.process:merge_reports",
        "repro.systems.base:merge_reports",
    ),
    "systems.census_solve_s": ("repro.systems.apps:motif_count",),
}

#: call-count metric -> the time metric whose spans it counts
CALL_COUNTS: dict[str, str] = {
    "graph.gather_calls": "graph.gather_s",
    "patterns.schedule_calls": "patterns.schedule_s",
    "patterns.plan_calls": "patterns.plan_s",
    "core.kernels.extend_calls": "core.kernels.extend_s",
    "core.kernels.iep_calls": "core.kernels.iep_s",
}

#: the serving lane the service-mix trace is replayed through, straight
#: in the bench process, for ``service.execute_p50_ms``
QUERY_EXECUTOR = "repro.service.worker:QueryExecutor"


def resolve(path: str) -> Optional[tuple[Any, str, Any]]:
    """``(owner, attribute, current value)`` of a dotted path, or
    ``None`` when any step of it no longer exists."""
    module_name, _, qualified = path.partition(":")
    try:
        owner: Any = import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = qualified.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = vars(owner).get(attribute)
    if value is None:
        return None
    return owner, attribute, value
