"""Mining-as-a-service: a resident engine serving concurrent queries.

The one-shot CLI pays graph load + cluster partitioning + process
spawn on every invocation. This package keeps all of that *resident*:
a :class:`MiningServer` loads the graph once (its serving workers, if
any, map it from one store file), and answers a stream of
structured :class:`QueryRequest`\\ s — triangle/clique/motif queries
over either ported system, with per-query engine knobs — from a
priority job queue behind an admission controller. Every query ends in
a structured :class:`QueryReport`; the service never raises for a
query's failure (docs/service.md).

Entry points:

- ``python -m repro serve`` — stdin/stdout JSON-lines protocol.
- :class:`ServiceClient` — the in-process API (no sockets needed).
"""

from repro.service.admission import AdmissionController, estimate_query_bytes
from repro.service.client import ServiceClient
from repro.service.jobqueue import PriorityJobQueue
from repro.service.protocol import (
    QueryReport,
    QueryRequest,
    parse_pattern_spec,
)
from repro.service.server import MiningServer, QueryHandle, ServiceConfig

__all__ = [
    "AdmissionController",
    "MiningServer",
    "PriorityJobQueue",
    "QueryHandle",
    "QueryReport",
    "QueryRequest",
    "ServiceClient",
    "ServiceConfig",
    "estimate_query_bytes",
    "parse_pattern_spec",
]
