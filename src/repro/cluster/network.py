"""Simulated network: traffic accounting and batch timing.

Tracks every byte that crosses machine boundaries in an N x N traffic
matrix (and request counts), and prices communication batches with a
latency + bandwidth model. Responder-side serve cost (copying edge
lists into send buffers — the effect that leaves Patents' network
underutilized in Figure 19) is charged to the serving machine.

Observability: :meth:`NetworkModel.bind_metrics` attaches a
:class:`~repro.obs.metrics.MetricsScope`, after which fetches and
batches also emit the ``net.*`` counters/histograms of
``docs/metrics.md``. The traffic matrix itself stays the byte-exact
source of truth (per-machine utilization for Figure 19 is derived
from it via :meth:`per_machine_utilization`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineState
from repro.obs import names
from repro.obs.metrics import (
    MetricsScope,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)


class NetworkModel:
    """Byte-accurate traffic accounting plus a simple timing model."""

    def __init__(self, num_machines: int, cost: CostModel):
        self.num_machines = num_machines
        self.cost = cost
        #: traffic_bytes[src, dst] = payload bytes sent src -> dst
        self.traffic_bytes = np.zeros(
            (num_machines, num_machines), dtype=np.int64
        )
        self.request_counts = np.zeros(
            (num_machines, num_machines), dtype=np.int64
        )
        self.num_batches = 0
        #: retried fetch attempts and their cumulative backoff seconds
        self.retries = 0
        self.retry_seconds = 0.0
        self._m_requests = NULL_COUNTER
        self._m_payload = NULL_COUNTER
        self._m_wire = NULL_COUNTER
        self._m_batches = NULL_COUNTER
        self._m_batch_bytes = NULL_HISTOGRAM
        self._m_batch_requests = NULL_HISTOGRAM
        self._m_retries = NULL_COUNTER
        self._m_retry_backoff = NULL_COUNTER

    def bind_metrics(self, metrics: MetricsScope) -> None:
        """Emit ``net.*`` metrics through ``metrics`` from now on."""
        self._m_requests = metrics.counter(names.NET_REQUESTS)
        self._m_payload = metrics.counter(names.NET_PAYLOAD_BYTES)
        self._m_wire = metrics.counter(names.NET_WIRE_BYTES)
        self._m_batches = metrics.counter(names.NET_BATCHES)
        self._m_batch_bytes = metrics.histogram(names.NET_BATCH_BYTES)
        self._m_batch_requests = metrics.histogram(names.NET_BATCH_REQUESTS)
        self._m_retries = metrics.counter(names.NET_RETRIES)
        self._m_retry_backoff = metrics.counter(
            names.NET_RETRY_BACKOFF_SECONDS
        )

    # ------------------------------------------------------------------
    def record_fetch_batches(
        self,
        requester: int | Sequence[int],
        batches: list[tuple[int, int, int]],
        servers: list[MachineState],
    ) -> None:
        """Account the edge-list fetches of ``(owner, num_requests,
        payload_bytes)`` batches (``servers`` by machine id) that
        ``requester`` asked for — one machine's chunk, or with one
        requester per batch, several machines' chunks told at once.

        Each request header travels requester -> owner and its payload
        comes back; both directions land in the traffic matrix, and the
        owner's served tallies grow (its responder-side copy cost is
        priced from them). Every matrix cell once, every counter once:
        all integers, so the fold of any split of the batches is exact
        (``tests/test_chunk.py`` holds it against a fetch at a time)."""
        if isinstance(requester, int):
            requester = [requester] * len(batches)
        header = self.cost.request_header_bytes
        requests = payload = 0
        traffic, counts = self.traffic_bytes, self.request_counts
        for asker, (owner, num_requests, payload_bytes) in zip(
                requester, batches):
            traffic[asker, owner] += header * num_requests
            traffic[owner, asker] += payload_bytes
            counts[asker, owner] += num_requests
            server = servers[owner]
            server.served_bytes += payload_bytes
            server.served_requests += num_requests
            requests += num_requests
            payload += payload_bytes
        self._m_requests.inc(requests)
        self._m_payload.inc(payload)
        self._m_wire.inc(header * requests + payload)

    def batch_time(self, payload_bytes: int, num_requests: int) -> float:
        """Wire time of one communication batch (Section 4.3).

        One latency per batch (requests to the same machine are batched,
        amortizing the network round trip), plus serialization time of
        headers and payloads at line rate.
        """
        if num_requests == 0:
            return 0.0
        self.num_batches += 1
        wire_bytes = payload_bytes + num_requests * self.cost.request_header_bytes
        self._m_batches.inc()
        self._m_batch_bytes.observe(wire_bytes)
        self._m_batch_requests.observe(num_requests)
        return self.cost.batch_latency + wire_bytes / self.cost.network_bandwidth

    def batch_times(
        self, batches: list[tuple[int, int, int]]
    ) -> list[float]:
        """:meth:`batch_time` of each of one chunk's non-empty ``(owner,
        num_requests, payload_bytes)`` batches, in order: the same
        expression on Python numbers, one batch at a time (nothing is
        summed in another order), the counters bumped once."""
        header = self.cost.request_header_bytes
        latency = self.cost.batch_latency
        bandwidth = self.cost.network_bandwidth
        wire = [payload + count * header for _, count, payload in batches]
        made = len(wire)
        self.num_batches += made
        self._m_batches.inc(made)
        self._m_batch_bytes.observe_many(wire)
        self._m_batch_requests.observe_many(
            [count for _, count, _ in batches]
        )
        return [latency + wire_bytes / bandwidth for wire_bytes in wire]

    def record_retries(self, requester: int, owner: int, failures: int,
                       seconds: float) -> None:
        """``failures`` failed attempts of one batch's fetches
        ``requester`` -> ``owner`` (docs/faults.md): each re-sent its
        request header, and their backoff waits, ``seconds``, stretch
        the batch's wire time."""
        headers = self.cost.request_header_bytes * failures
        self.traffic_bytes[requester, owner] += headers
        self.retries += failures
        self.retry_seconds += seconds
        self._m_retries.inc(failures)
        self._m_retry_backoff.inc(seconds)
        self._m_wire.inc(headers)

    def serve_time(self, payload_bytes: int, num_requests: int) -> float:
        """Responder-side cost of copying payloads into send buffers."""
        return (
            num_requests * self.cost.serve_per_request
            + payload_bytes * self.cost.serve_per_byte
        )

    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """All bytes that crossed machine boundaries."""
        return int(self.traffic_bytes.sum())

    def total_requests(self) -> int:
        return int(self.request_counts.sum())

    def utilization(self, runtime_seconds: float) -> float:
        """Peak per-link utilization over the run (Figure 19).

        The busiest machine's outgoing bytes divided by what the NIC
        could have moved in ``runtime_seconds``.
        """
        if runtime_seconds <= 0.0 or self.num_machines == 0:
            return 0.0
        per_machine = self.traffic_bytes.sum(axis=1)
        busiest = float(per_machine.max())
        return busiest / (self.cost.network_bandwidth * runtime_seconds)

    def per_machine_utilization(self, runtime_seconds: float) -> list[float]:
        """Each machine's outgoing-link utilization (Figure 19 detail)."""
        if runtime_seconds <= 0.0 or self.num_machines == 0:
            return [0.0] * self.num_machines
        per_machine = self.traffic_bytes.sum(axis=1)
        denom = self.cost.network_bandwidth * runtime_seconds
        return [float(b) / denom for b in per_machine]
