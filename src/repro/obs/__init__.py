"""Engine-wide observability: metrics registry + structured tracer.

``repro.obs`` is the instrumentation layer of the reproduction. Every
mechanism the paper measures — fetch resolution, HDS probes, cache
admissions, circulant batches, intersection work, per-phase simulated
time — emits through this package, attributed by machine (and, for
spans, by level/chunk/batch). The surface is documented in
``docs/metrics.md`` and closed: an enabled registry refuses metric
names missing from :mod:`repro.obs.names`.

The default everywhere is the shared no-op :data:`NULL_OBS`, whose
instruments are null singletons — instrumentation then costs one
no-op method call per event, keeping tier-1 behaviour and timings
identical to an uninstrumented build. Enable it per run:

    from repro.obs import Observability
    obs = Observability()
    system = KAutomine(graph, config, obs=obs)
    report = triangle_count(system)
    report.extra["obs"]["phase_seconds"]   # Fig 15 per-machine phases
    obs.registry.snapshot()                # every counter/histogram
    obs.tracer.export()                    # raw spans
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs import names
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    NullRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_SCOPE,
    scope_or_null,
)
from repro.obs.tracer import NullTracer, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NullRegistry",
    "NullTracer",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_SCOPE",
    "NULL_TRACER",
    "Observability",
    "Span",
    "Tracer",
    "names",
    "scope_or_null",
]


class Observability:
    """Bundle of one run's registry and tracer.

    ``Observability()`` builds an enabled pair; :data:`NULL_OBS` is the
    shared disabled pair that every engine component defaults to.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled

    def reset(self) -> None:
        """Clear both halves (the engine resets at the start of a run)."""
        self.registry.reset()
        self.tracer.reset()

    def summary(self) -> dict[str, Any]:
        """The ``RunReport.extra['obs']`` payload: trace aggregates."""
        summary = self.tracer.summary()
        summary["emitted_metrics"] = sorted(self.registry.emitted_names())
        return summary


#: The shared disabled observability bundle (the default everywhere).
NULL_OBS = Observability(NULL_REGISTRY, NULL_TRACER)
