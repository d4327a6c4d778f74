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
        #: attached fault injector (None = fault-free run)
        self.injector = None
        #: retried fetch attempts and their cumulative backoff seconds
        self.retries = 0
        self.retry_seconds = 0.0
        #: backoff accrued since the scheduler last drained it into a
        #: communication batch's wire time
        self._pending_retry_seconds = 0.0
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

    def attach_injector(self, injector) -> None:
        """Route every fetch through ``injector`` (transient failures)."""
        self.injector = injector

    # ------------------------------------------------------------------
    def record_fetch(
        self,
        requester: int,
        owner: int,
        payload_bytes: int,
        server: MachineState | None = None,
    ) -> int:
        """Account one edge-list fetch; returns total wire bytes.

        The request header travels requester -> owner and the payload
        comes back; both directions are recorded. If ``server`` is given
        the responder's copy cost is charged to its compute clock's
        scheduler bucket (it occupies a communication core).

        With a fault injector attached, the fetch may transiently fail:
        each failed attempt re-sends the request header (extra wire
        traffic) and accrues exponential backoff, which the scheduler
        drains into the batch's communication time. Exhausted retries
        raise :class:`~repro.errors.FetchFailedError`.
        """
        header = self.cost.request_header_bytes
        if self.injector is not None:
            failures, backoff = self.injector.fetch_failures_for(
                requester, owner
            )
            if failures:
                # each failed attempt still burned a request header
                self.traffic_bytes[requester, owner] += header * failures
                self.retries += failures
                self.retry_seconds += backoff
                self._pending_retry_seconds += backoff
                self._m_retries.inc(failures)
                self._m_retry_backoff.inc(backoff)
                self._m_wire.inc(header * failures)
        self.traffic_bytes[requester, owner] += header
        self.traffic_bytes[owner, requester] += payload_bytes
        self.request_counts[requester, owner] += 1
        self._m_requests.inc()
        self._m_payload.inc(payload_bytes)
        self._m_wire.inc(header + payload_bytes)
        if server is not None:
            server.served_bytes += payload_bytes
            server.served_requests += 1
        return header + payload_bytes

    def record_fetch_batch(
        self,
        requester: int,
        owner: int,
        num_requests: int,
        payload_bytes: int,
        server: MachineState | None = None,
    ) -> None:
        """Integer-exact fold of :meth:`record_fetch` over one owner
        batch of ``num_requests`` fetches totalling ``payload_bytes``.

        Only valid without a fault injector attached — injected
        transient failures are per-attempt state, and their partial
        effects must interleave with the caller's per-fetch bookkeeping
        exactly as the one-at-a-time path does.
        """
        assert self.injector is None, "bulk recording skips retry state"
        headers = self.cost.request_header_bytes * num_requests
        self.traffic_bytes[requester, owner] += headers
        self.traffic_bytes[owner, requester] += payload_bytes
        self.request_counts[requester, owner] += num_requests
        self._m_requests.inc(num_requests)
        self._m_payload.inc(payload_bytes)
        self._m_wire.inc(headers + payload_bytes)
        if server is not None:
            server.served_bytes += payload_bytes
            server.served_requests += num_requests

    def record_fetch_batches(
        self,
        requester: int,
        batches: list[tuple[int, int, int]],
        servers: list[MachineState],
    ) -> None:
        """The fold of :meth:`record_fetch_batch` over one chunk's
        ``(owner, num_requests, payload_bytes)`` batches (``servers`` by
        machine id): every matrix cell once, every counter once. All
        integers, so exact."""
        assert self.injector is None, "bulk recording skips retry state"
        header = self.cost.request_header_bytes
        requests = payload = 0
        sent = self.traffic_bytes[requester]
        for owner, num_requests, payload_bytes in batches:
            sent[owner] += header * num_requests
            self.traffic_bytes[owner, requester] += payload_bytes
            self.request_counts[requester, owner] += num_requests
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
        self.num_batches += len(batches)
        self._m_batches.inc(len(batches))
        self._m_batch_bytes.observe_many(wire)
        self._m_batch_requests.observe_many(
            [count for _, count, _ in batches]
        )
        return [latency + wire_bytes / bandwidth for wire_bytes in wire]

    def drain_retry_seconds(self) -> float:
        """Backoff seconds accrued since the last drain (charged by the
        scheduler to the batch that suffered the retries)."""
        seconds, self._pending_retry_seconds = self._pending_retry_seconds, 0.0
        return seconds

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

    def bytes_sent_by(self, machine: int) -> int:
        return int(self.traffic_bytes[machine].sum())

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
