"""The service wire protocol: requests, reports, and payloads.

A query enters the server as a :class:`QueryRequest` (one JSON object
per line on the ``serve`` subcommand's stdin, or a dataclass through
:class:`~repro.service.client.ServiceClient`) and leaves as a
:class:`QueryReport`. The report embeds the normal engine
:class:`~repro.core.runtime.RunReport` dict, a per-query metrics
snapshot (fresh registry per query), and — for anything that did not
end cleanly — a structured
:class:`~repro.faults.recovery.FailureSummary` dict. The service layer
never raises for a query's failure: malformed or inadmissible requests
terminate with the ``REJECTED`` outcome (docs/service.md).

Between server and serving worker the unit of exchange is a *payload*
dict (picklable, produced by
:class:`~repro.service.worker.QueryExecutor`); the helpers at the
bottom build the synthetic payloads for queries the server refuses to
run at all.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.faults.recovery import FailureSummary, Outcome
from repro.patterns import catalog
from repro.patterns.pattern import Pattern

#: the query surface: one pattern count, the clique3 shorthand, or a
#: whole k-motif census — the G2Miner-style interchangeable workloads
APPS = ("count", "triangle", "motifs")

#: systems a request may name; None inherits the server default
SYSTEMS = ("k-automine", "k-graphpi")

#: outcomes that leave complete counts
_OK_OUTCOMES = ("OK", Outcome.RECOVERED.value)


def parse_pattern_spec(spec: str) -> Pattern:
    """Parse a pattern spec: clique3..7, chain2..7, cycle3..7, starN,
    house, tailed_triangle, or an explicit edge list ``0-1,1-2,0-2``.

    Raises :class:`ConfigurationError` on garbage — the CLI converts
    that to ``SystemExit``, the service to a ``REJECTED`` report.
    """
    for prefix, fn in (
        ("clique", catalog.clique),
        ("chain", catalog.chain),
        ("cycle", catalog.cycle),
        ("star", catalog.star),
    ):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return fn(int(spec[len(prefix):]))
    if spec == "house":
        return catalog.house()
    if spec == "bowtie":
        return catalog.bowtie()
    if spec == "bull":
        return catalog.bull()
    if spec == "tailed_triangle":
        return catalog.tailed_triangle()
    if "-" in spec:
        try:
            edges = []
            for part in spec.split(","):
                u, v = part.split("-")
                edges.append((int(u), int(v)))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad edge-list pattern spec {spec!r}: {exc}"
            ) from exc
        size = max(max(e) for e in edges) + 1
        return Pattern(size, edges)
    raise ConfigurationError(f"unrecognized pattern spec {spec!r}")


@dataclass
class QueryRequest:
    """One pattern-mining query against the resident graph.

    Only per-query knobs live here — the graph, cluster shape, and
    worker pool are server-lifetime state
    (:class:`~repro.service.server.ServiceConfig`). ``validate`` is
    called at submission; anything it rejects becomes a ``REJECTED``
    report rather than an exception.
    """

    #: caller-chosen identifier; the server assigns ``q<n>`` if None
    id: Optional[str] = None
    app: str = "count"
    #: pattern spec for ``count`` (``triangle`` forces clique3)
    pattern: str = "clique3"
    #: census size for ``motifs``
    size: int = 3
    #: ported system; None inherits the server default
    system: Optional[str] = None
    induced: bool = False
    oriented: bool = False
    #: higher runs first; FIFO within a priority class
    priority: int = 0
    #: simulated-seconds budget; exceeding it ends in TIMEOUT
    time_budget: Optional[float] = None
    chunk_bytes: Optional[int] = None
    #: counting strategy (docs/performance.md); None inherits the
    #: server default
    counting: Optional[str] = None

    def validate(self) -> None:
        if self.app not in APPS:
            raise ConfigurationError(
                f"app must be one of {APPS}, got {self.app!r}"
            )
        if self.system is not None and self.system not in SYSTEMS:
            raise ConfigurationError(
                f"system must be one of {SYSTEMS}, got {self.system!r}"
            )
        if self.app == "motifs":
            if not 2 <= self.size <= 5:
                raise ConfigurationError(
                    f"motif census size must be within [2, 5], "
                    f"got {self.size}"
                )
        else:
            parse_pattern_spec(self.effective_pattern())
        if self.induced and self.oriented:
            raise ConfigurationError(
                "orientation only applies to non-induced clique counting"
            )
        if not isinstance(self.priority, int):
            raise ConfigurationError(
                f"priority must be an integer, got {self.priority!r}"
            )
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigurationError("time_budget must be positive")
        if self.chunk_bytes is not None and self.chunk_bytes < 1024:
            raise ConfigurationError("chunk_bytes must be at least 1KiB")
        if self.counting not in (None, "enumerate", "iep"):
            raise ConfigurationError(
                f"counting must be 'enumerate' or 'iep', "
                f"got {self.counting!r}"
            )

    def effective_pattern(self) -> str:
        return "clique3" if self.app == "triangle" else self.pattern

    def arity(self) -> int:
        """Pattern vertex count — the admission estimator's input."""
        if self.app == "motifs":
            return self.size
        return parse_pattern_spec(self.effective_pattern()).num_vertices

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryRequest":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_json_line(cls, line: str) -> "QueryRequest":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad request JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(
                "a request line must be one JSON object"
            )
        return cls.from_dict(data)


@dataclass
class QueryReport:
    """Terminal account of one served query (docs/service.md).

    ``outcome`` is ``"OK"`` or an
    :class:`~repro.faults.recovery.Outcome` value; ``failure`` carries
    the FailureSummary dict for everything but ``OK``. ``report`` is
    the engine's ``RunReport.to_dict()`` when the query actually ran;
    ``metrics`` is the query's own registry snapshot (disjoint from
    every other tenant's) when the server runs with metrics enabled.
    """

    id: str
    outcome: str
    counts: Any
    priority: int = 0
    #: submit-to-report wall-clock seconds
    wall_seconds: float = 0.0
    #: seconds spent queued before dispatch (included in wall_seconds)
    queue_seconds: float = 0.0
    #: serving worker id; None = the in-process lane
    worker: Optional[int] = None
    report: Optional[dict] = None
    failure: Optional[dict] = None
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.outcome in _OK_OUTCOMES

    @property
    def fatal(self) -> bool:
        return not self.ok

    def message(self) -> str:
        return (self.failure or {}).get("message", "")

    def outcome_line(self) -> str:
        """The CLI's standard one-line verdict for this query."""
        line = (
            f"outcome: {self.outcome} query={self.id} "
            f"priority={self.priority} wall={self.wall_seconds * 1e3:.1f}ms"
        )
        if self.failure is not None:
            line += f" — {self.message()}"
        return line

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), default=str)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryReport":
        return cls(**data)


# ---------------------------------------------------------------------
# worker payloads — the picklable unit between executor and server
# ---------------------------------------------------------------------
def jsonable_counts(counts) -> Any:
    """Counts with JSON-safe keys (motif censuses key by tuples)."""
    if isinstance(counts, dict):
        return {str(key): value for key, value in counts.items()}
    return counts


def refusal_payload(
    outcome: Outcome, message: str, busy_seconds: float = 0.0
) -> dict[str, Any]:
    """Payload for a query the service refused to run (admission
    reject, malformed request, shutdown drain): no partial work, just
    the structured failure."""
    failure = FailureSummary(outcome, message=message, partial=True)
    return {
        "counts": None,
        "outcome": failure.outcome.value,
        "report": None,
        "failure": failure.to_dict(),
        "metrics": None,
        "metrics_dump": None,
        "busy_seconds": busy_seconds,
    }
