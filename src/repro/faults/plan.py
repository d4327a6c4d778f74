"""Fault plans: a declarative, hashable description of what goes wrong.

A plan is data, not behaviour — the :class:`~repro.faults.FaultInjector`
interprets it at run time. Plans parse from the compact spec strings the
CLI accepts (``--faults "crash:m1@chunk=2;flaky:p=0.05"``); see
:meth:`FaultPlan.parse` for the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

_MACHINE = re.compile(r"^m(\d+)$")


@dataclass(frozen=True)
class CrashFault:
    """Kill one machine at a chunk index or a simulated time.

    ``at_chunk`` counts the machine's chunk *creations* within one
    scheduler run (1-based: ``at_chunk=2`` fires as the machine starts
    its second chunk); ``at_time`` compares against the machine's
    simulated clock. Exactly one of the two must be set.
    """

    machine: int
    at_chunk: Optional[int] = None
    at_time: Optional[float] = None

    def __post_init__(self):
        if (self.at_chunk is None) == (self.at_time is None):
            raise ConfigurationError(
                "crash fault needs exactly one of chunk=N or t=SECONDS"
            )
        if self.at_chunk is not None and self.at_chunk < 1:
            raise ConfigurationError("crash chunk index is 1-based")

    def describe(self) -> str:
        if self.at_chunk is not None:
            return f"crash:m{self.machine}@chunk={self.at_chunk}"
        return f"crash:m{self.machine}@t={self.at_time:g}"


@dataclass(frozen=True)
class StragglerFault:
    """Degrade one machine: its compute and link time stretch by ``factor``."""

    machine: int
    factor: float

    def __post_init__(self):
        if self.factor < 1.0:
            raise ConfigurationError("straggler factor must be >= 1.0")

    def describe(self) -> str:
        return f"slow:m{self.machine}@x={self.factor:g}"


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs, in one immutable value.

    ``flaky_p`` is the per-fetch probability that a remote edge-list
    request fails transiently and must be retried; ``seed`` drives the
    RNG behind those coin flips, so the same plan against the same run
    produces the same faults. ``max_retries`` bounds retries per fetch
    before the run degrades; backoff for the i-th retry is
    ``backoff_base * backoff_factor**(i-1)`` simulated seconds.
    """

    crashes: tuple[CrashFault, ...] = ()
    flaky_p: float = 0.0
    stragglers: tuple[StragglerFault, ...] = ()
    seed: int = 0
    max_retries: int = 4
    backoff_base: float = 1e-4
    backoff_factor: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.flaky_p <= 1.0:
            raise ConfigurationError("flaky probability must be in [0, 1]")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.seed < 0:  # it seeds one numpy stream per machine
            raise ConfigurationError("fault seed must be >= 0")
        if self.backoff_base < 0.0 or self.backoff_factor < 1.0:
            raise ConfigurationError("backoff must be non-negative/growing")

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.stragglers or self.flaky_p > 0.0)

    def describe(self) -> str:
        parts = [c.describe() for c in self.crashes]
        if self.flaky_p > 0.0:
            parts.append(f"flaky:p={self.flaky_p:g}")
        parts.extend(s.describe() for s in self.stragglers)
        return ";".join(parts) or "(no faults)"

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec.

        Grammar (clauses joined by ``;``, whitespace ignored)::

            crash:mID@chunk=N      kill machine ID at its N-th chunk
            crash:mID@t=SECONDS    kill machine ID at simulated time
            flaky:p=P              each remote fetch fails with prob. P
            slow:mID@x=FACTOR      machine ID runs FACTOR times slower
            seed:N                 RNG seed for the flaky coin flips
            retries:N              max retries before a fetch gives up

        Example: ``crash:m1@chunk=2;flaky:p=0.05;slow:m2@x=3``.
        """
        crashes: list[CrashFault] = []
        stragglers: list[StragglerFault] = []
        flaky_p = 0.0
        seed = 0
        max_retries = 4
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            kind, _, body = clause.partition(":")
            kind = kind.strip().lower()
            body = body.strip()
            try:
                if kind == "crash":
                    crashes.append(_parse_crash(body))
                elif kind == "flaky":
                    flaky_p = _parse_kv(body, "p", float)
                elif kind in ("slow", "straggler"):
                    stragglers.append(_parse_straggler(body))
                elif kind == "seed":
                    seed = int(body)
                elif kind == "retries":
                    max_retries = int(body)
                else:
                    raise ConfigurationError(
                        f"unknown fault clause {kind!r}"
                    )
            except (ValueError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"bad fault clause {clause!r}: {exc}"
                ) from None
        return cls(
            crashes=tuple(crashes),
            flaky_p=flaky_p,
            stragglers=tuple(stragglers),
            seed=seed,
            max_retries=max_retries,
        )


def _parse_machine(token: str) -> int:
    match = _MACHINE.match(token.strip())
    if match is None:
        raise ConfigurationError(f"expected mID, got {token!r}")
    return int(match.group(1))


def _parse_kv(body: str, key: str, cast):
    name, _, value = body.partition("=")
    if name.strip() != key or not value:
        raise ConfigurationError(f"expected {key}=VALUE, got {body!r}")
    return cast(value.strip())


def _parse_crash(body: str) -> CrashFault:
    machine_token, _, trigger = body.partition("@")
    machine = _parse_machine(machine_token)
    key, _, value = trigger.partition("=")
    key = key.strip()
    if key == "chunk":
        return CrashFault(machine, at_chunk=int(value))
    if key == "t":
        return CrashFault(machine, at_time=float(value))
    raise ConfigurationError(f"crash trigger must be chunk=N or t=S, got {trigger!r}")


def _parse_straggler(body: str) -> StragglerFault:
    machine_token, _, trigger = body.partition("@")
    machine = _parse_machine(machine_token)
    return StragglerFault(machine, _parse_kv(trigger, "x", float))
