"""Metrics registry: counters, gauges, and histograms with a no-op mode.

Two design constraints shape this module:

1. **Zero cost when disabled.** Every component of the engine is
   instrumented unconditionally, so the disabled path must be free
   enough to leave tier-1 timings untouched. Components *pre-bind*
   their instruments once at construction time; in no-op mode the
   bound objects are shared null singletons whose methods do nothing,
   so the per-event cost is one attribute load and an empty call —
   there is no label hashing, no dict lookup, no branching in the hot
   loops.
2. **A closed, documented surface.** An enabled registry only accepts
   names listed in :data:`repro.obs.names.SPECS`; creating anything
   else raises. Together with the docs-contract test this guarantees
   every metric the engine can emit is documented in
   ``docs/metrics.md``.

Instruments are keyed by ``(name, labels)`` where labels is a sorted
tuple of ``(key, value)`` pairs — the usual dimensional-metrics model
(machine id, component, ...). :meth:`MetricsRegistry.scope` returns a
view with labels pre-applied so call sites stay terse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.names import SPECS

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


# ---------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------
class Counter:
    """A monotonically increasing count of events (or units)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (e.g. resident cache bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values: count/sum/min/max.

    The simulation is deterministic, so the summary statistics are
    exact; full per-observation retention belongs to the tracer.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: list) -> None:
        """:meth:`observe` every value. ``total`` is exact for the
        integer series folded through here (byte and request counts,
        far below 2**53), so one add equals the adds one by one."""
        if values:
            self.count += len(values)
            self.total += sum(values)
            self.min = min(self.min, min(values))
            self.max = max(self.max, max(values))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_summary(
        self, count: int, total: float, mn: float, mx: float
    ) -> None:
        """Fold another histogram's summary statistics into this one.

        Exact for count/total/min/max, which is all this histogram
        stores — used when merging worker-process registries
        (:meth:`MetricsRegistry.absorb`).
        """
        if not count:
            return
        self.count += count
        self.total += total
        if mn < self.min:
            self.min = mn
        if mx > self.max:
            self.max = mx

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:  # pragma: no cover
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: int | float) -> None:  # pragma: no cover
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe_many(self, values: list) -> None:  # pragma: no cover
        pass

    def observe(self, value: int | float) -> None:  # pragma: no cover
        pass

    def merge_summary(self, count, total, mn, mx) -> None:  # pragma: no cover
        pass


#: Shared no-op instruments handed out by the null registry. All
#: callers bind these once, so disabled instrumentation costs one
#: no-op call per event.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------
class MetricsRegistry:
    """Holds every instrument of one run, keyed by (name, labels)."""

    enabled: bool = True

    def __init__(self, strict: bool = True):
        #: reject names missing from the documented surface
        self.strict = strict
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- creation ------------------------------------------------------
    def _check(self, name: str, kind: str) -> None:
        if not self.strict:
            return
        spec = SPECS.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not declared in repro.obs.names.SPECS; "
                "declare it there and document it in docs/metrics.md"
            )
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is declared as a {spec.kind}, "
                f"not a {kind}"
            )

    def counter(self, name: str, **labels: Any) -> Counter:
        self._check(name, "counter")
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        self._check(name, "gauge")
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        self._check(name, "histogram")
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def scope(self, **labels: Any) -> "MetricsScope":
        """A registry view with ``labels`` pre-applied to every name."""
        return MetricsScope(self, labels)

    # -- reading -------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> int | float:
        """Current value of one counter series (0 if never emitted)."""
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0

    def total(self, name: str) -> int | float:
        """Sum of a counter across all label series."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def series(self, name: str) -> Iterator[tuple[LabelKey, Counter]]:
        for (n, labels), counter in self._counters.items():
            if n == name:
                yield labels, counter

    def emitted_names(self) -> set[str]:
        """Every metric name that has at least one series."""
        return (
            {n for n, _ in self._counters}
            | {n for n, _ in self._gauges}
            | {n for n, _ in self._histograms}
        )

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-friendly dump: ``{kind: {name: {labelstr: value}}}``.

        Label strings are ``key=value`` pairs joined by commas, with
        ``""`` for the unlabeled series, so the shape is stable across
        runs of the same configuration (the golden-file test relies on
        this).
        """

        def grouped(series: dict, value) -> dict[str, dict[str, Any]]:
            # one sort per kind: names ascending, each name's series in
            # label order
            out: dict[str, dict[str, Any]] = {}
            for (name, labels), instrument in sorted(
                series.items(), key=lambda kv: kv[0]
            ):
                out.setdefault(name, {})[
                    ",".join(f"{k}={v}" for k, v in labels)
                ] = value(instrument)
            return out

        return {
            "counters": grouped(self._counters, lambda c: c.value),
            "gauges": grouped(self._gauges, lambda g: g.value),
            "histograms": grouped(self._histograms, Histogram.summary),
        }

    # -- cross-process merging (repro.exec) ----------------------------
    def dump(self) -> dict[str, list]:
        """Picklable snapshot of every series, for worker → parent
        shipping. The inverse is :meth:`absorb`."""
        return {
            "counters": [
                (name, labels, counter.value)
                for (name, labels), counter in self._counters.items()
            ],
            "gauges": [
                (name, labels, gauge.value)
                for (name, labels), gauge in self._gauges.items()
            ],
            "histograms": [
                (name, labels,
                 (hist.count, hist.total, hist.min, hist.max))
                for (name, labels), hist in self._histograms.items()
            ],
        }

    def absorb(self, dump: dict[str, list]) -> None:
        """Merge a worker registry dump (:meth:`dump`) into this one.

        Counters and gauges are *summed* — per-machine gauge series
        (e.g. ``cache.used_bytes{machine=N}``) have exactly one worker
        with a nonzero contribution (the machine's host), so summing
        reconstructs the inline value while staying order-independent.
        Histograms merge their exact count/total/min/max summaries.
        """
        for name, labels, value in dump["counters"]:
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in dump["gauges"]:
            gauge = self.gauge(name, **dict(labels))
            gauge.set(gauge.value + value)
        for name, labels, summary in dump["histograms"]:
            self.histogram(name, **dict(labels)).merge_summary(*summary)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class NullRegistry(MetricsRegistry):
    """Registry whose instruments do nothing (the default everywhere)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(strict=False)

    def counter(self, name: str, **labels: Any) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return NULL_HISTOGRAM


@dataclass
class MetricsScope:
    """A label-bound view of a registry (e.g. one machine's metrics)."""

    registry: MetricsRegistry
    labels: dict[str, Any] = field(default_factory=dict)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **{**self.labels, **labels})

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **{**self.labels, **labels})

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(name, **{**self.labels, **labels})

    def scope(self, **labels: Any) -> "MetricsScope":
        return MetricsScope(self.registry, {**self.labels, **labels})


#: The shared do-nothing registry; components default to scopes of it.
NULL_REGISTRY = NullRegistry()
#: A shared label-less scope of the null registry.
NULL_SCOPE = MetricsScope(NULL_REGISTRY)


def null_scope() -> MetricsScope:
    """The shared no-op scope (use as the default ``metrics=`` value)."""
    return NULL_SCOPE


def scope_or_null(metrics: Optional[MetricsScope]) -> MetricsScope:
    """Normalize an optional scope argument."""
    return metrics if metrics is not None else NULL_SCOPE
