"""Query execution over the resident graph: lanes and worker processes.

:class:`QueryExecutor` is the serving lane shared by both deployment
shapes: it keeps one :class:`~repro.systems.ported.PortedSystem` per
ported system *resident* (the partitioned cluster — the expensive
part — is built once and reused; ``PortedSystem.reconfigure`` swaps
the per-query engine knobs and the fresh observability bundle), runs
one query, and returns a picklable payload. It never raises: engine
failures are already structured reports, configuration problems become
``REJECTED`` payloads, and anything else becomes ``CRASHED`` — so a
bad query degrades itself, not its lane.

:func:`service_worker_main` wraps an executor in a worker *process*
that maps the server graph's store (:mod:`repro.graph.csr`), behind a
supervised lane (:mod:`repro.exec.lane` — the primitive the process
backend's fleet uses too): it serves the lane's command pipe, ships
payloads back over the lane's private result pipe, and exits on the
shutdown sentinel or on its own if the server vanishes, so a SIGKILLed
server never strands a serving fleet.

Testing hooks (docs/service.md) sit behind ``REPRO_CHAOS``, never in
the request: ``query-sleep:<id>:<ms>`` stalls the executor on that
query, ``query-exit:<id>:1`` makes a serving worker process die on it.
"""

from __future__ import annotations

import os
import time
from time import perf_counter
from typing import Any, Optional

from repro.core.engine import EngineConfig
from repro.errors import ConfigurationError
from repro.faults.durability import chaos_kill_threshold
from repro.faults.recovery import Outcome
from repro.obs import Observability
from repro.service.protocol import (
    QueryRequest,
    jsonable_counts,
    refusal_payload,
)
from repro.systems import KAutomine, KGraphPi, motif_count


class QueryExecutor:
    """One serving lane over one resident graph."""

    def __init__(self, graph, config):
        self.graph = graph
        #: the server's ServiceConfig (duck-typed: cluster_config(),
        #: graph/system names, metrics flag, engine-knob defaults)
        self.config = config
        self._systems: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _system(self, name: str):
        if name not in self._systems:
            cls = KGraphPi if name == "k-graphpi" else KAutomine
            self._systems[name] = cls(
                self.graph,
                self.config.cluster_config(),
                graph_name=self.config.graph,
            )
        return self._systems[name]

    def _engine_config(self, request: QueryRequest) -> EngineConfig:
        kwargs: dict[str, Any] = {}
        time_budget = (
            request.time_budget
            if request.time_budget is not None
            else self.config.time_budget
        )
        if time_budget is not None:
            kwargs["time_budget"] = time_budget
        chunk_bytes = request.chunk_bytes or self.config.chunk_bytes
        if chunk_bytes:
            kwargs["chunk_bytes"] = chunk_bytes
        counting = request.counting or self.config.counting
        if counting:
            kwargs["counting"] = counting
        return EngineConfig(**kwargs)

    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> dict[str, Any]:
        """Run one query; always returns a payload, never raises."""
        started = perf_counter()
        try:
            pattern = request.validate()
            stall_ms = chaos_kill_threshold("query-sleep", request.id)
            if stall_ms:
                time.sleep(stall_ms / 1e3)
            obs = Observability() if self.config.metrics else None
            system = self._system(request.system or self.config.system)
            system.reconfigure(self._engine_config(request), obs)
            if pattern is None:
                report = motif_count(system, request.size)
            else:
                report = system.count_pattern(
                    pattern,
                    induced=request.induced,
                    oriented=request.oriented,
                    app=(
                        "triangle" if request.app == "triangle"
                        else request.pattern
                    ),
                )
        except ConfigurationError as exc:
            return refusal_payload(
                Outcome.REJECTED, str(exc),
                busy_seconds=perf_counter() - started,
            )
        except Exception as exc:  # the lane must survive any query
            return refusal_payload(
                Outcome.CRASHED, f"{type(exc).__name__}: {exc}",
                busy_seconds=perf_counter() - started,
            )
        return {
            "counts": jsonable_counts(report.counts),
            "outcome": report.outcome,
            "report": report.to_dict(),
            "failure": (
                report.failure.to_dict() if report.failure else None
            ),
            "metrics": obs.registry.snapshot() if obs else None,
            "metrics_dump": obs.registry.dump() if obs else None,
            "busy_seconds": perf_counter() - started,
        }


def service_worker_main(end, csr_handle, config) -> None:
    """Entry point of one serving worker process; ``end`` is its lane
    (:class:`repro.exec.lane.WorkerEnd`), whose command loop already
    drops requests addressed to a dead predecessor — the server
    reported those ``CRASHED``, and a replayed result would
    desynchronize the lane."""
    from repro.graph.csr import attach_csr  # after fork/spawn

    executor = QueryExecutor(attach_csr(csr_handle), config)
    for request in end.commands():
        if chaos_kill_threshold("query-exit", request.id):
            os._exit(3)  # deterministic worker-death test hook
        end.send((request.id, executor.execute(request)))
