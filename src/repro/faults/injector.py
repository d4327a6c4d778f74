"""The fault injector: interprets a plan at the engine's seams.

One injector serves one engine run and is passed to every scheduler
the engine builds: crash triggers fire at chunk creation, straggler
factors stretch a machine's compute and link time, and flaky fetches
are drawn for a machine's fetched rows as one vector per resolve.
Each machine draws from a stream of its own,
``np.random.default_rng((plan.seed, machine))``, in its own circulant
fetch order, so what a machine suffers depends on nothing the other
machines do — not on which of them walk beside it — and the same plan
against the same run yields byte-identical fault sequences.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Optional

import numpy as np

from repro.errors import FetchFailedError, MachineCrashError
from repro.faults.plan import FaultPlan
from repro.obs import names
from repro.obs.metrics import MetricsScope, scope_or_null


class FaultInjector:
    """Stateful interpreter of one :class:`FaultPlan` for one run."""

    def __init__(
        self, plan: FaultPlan, metrics: Optional[MetricsScope] = None
    ):
        self.plan = plan
        #: each machine's flaky-fetch stream, made on its first draw
        self._streams: dict[int, np.random.Generator] = {}
        #: backoff seconds of a fetch that failed ``k`` times, for ``k``
        #: up to ``max_retries``: the i-th retry waits
        #: ``backoff_base * backoff_factor**(i-1)``
        backoff = [0.0]
        for failures in range(1, plan.max_retries + 1):
            backoff.append(backoff[-1] + plan.backoff_base
                           * plan.backoff_factor ** (failures - 1))
        self._backoff = np.array(backoff)
        #: chunk creations per machine (crash-trigger clock)
        self._chunk_counts: dict[int, int] = defaultdict(int)
        self._fired: set[int] = set()
        self._noted_stragglers: set[int] = set()
        #: plain-int mirrors, reported via RunReport.extra["faults"]
        self.crashes = 0
        self.fetch_failures = 0
        self.stragglers_noted = 0
        scope = scope_or_null(metrics)
        self._m_crashes = scope.counter(names.FAULT_CRASHES)
        self._m_fetch_failures = scope.counter(names.FAULT_FETCH_FAILURES)
        self._m_stragglers = scope.counter(names.FAULT_STRAGGLERS)

    # ------------------------------------------------------------------
    # crash triggers (scheduler chunk-loop seam)
    # ------------------------------------------------------------------
    def on_chunk_created(self, machine_id: int, now: float) -> None:
        """Advance the machine's chunk clock; raise if a trigger fires."""
        self._chunk_counts[machine_id] += 1
        count = self._chunk_counts[machine_id]
        for index, crash in enumerate(self.plan.crashes):
            if crash.machine != machine_id or index in self._fired:
                continue
            chunk_hit = crash.at_chunk is not None and count >= crash.at_chunk
            time_hit = crash.at_time is not None and now >= crash.at_time
            if chunk_hit or time_hit:
                self._fired.add(index)
                self.crashes += 1
                self._m_crashes.inc()
                raise MachineCrashError(machine_id, crash.describe())

    # ------------------------------------------------------------------
    # transient fetch failures (resolve seam)
    # ------------------------------------------------------------------
    def fetch(self, network, machine: int,
              batches: list) -> tuple[list[float],
                                       Optional[FetchFailedError]]:
        """Draw how often each of ``machine``'s fetches fails before it
        succeeds. ``batches`` are its ``(owner, first, last)`` runs of
        rows in circulant order, end to end; the draws are one
        geometric vector over those rows, capped at ``max_retries`` + 1
        — a fetch that exhausts its retries.

        Batches settle in order up to the one holding the first such
        fetch. Each settled batch's failed attempts re-send their
        request headers (``network.record_retries``), and their
        backoff waits stretch its wire time. Returns those waits, one
        per settled batch, and the :class:`FetchFailedError` that
        stopped the rest (None when every batch settled).
        """
        p = self.plan.flaky_p
        if p <= 0.0:
            return [0.0] * len(batches), None
        base = batches[0][1]
        rows = batches[-1][2] - base
        cap = self.plan.max_retries + 1
        if p >= 1.0:
            failures = np.full(rows, cap)
        else:
            stream = self._streams.get(machine)
            if stream is None:
                stream = self._streams[machine] = np.random.default_rng(
                    (self.plan.seed, machine))
            failures = np.minimum(stream.geometric(1.0 - p, rows) - 1, cap)
        exhausted = (failures == cap).nonzero()[0]
        stop = int(exhausted[0]) if len(exhausted) else rows
        ends = [last - base for _, _, last in batches]
        done = bisect_right(ends, stop)  # the batches that settle
        counts, waits = [], []
        if done:
            settled = failures[:ends[done - 1]]
            starts = [first - base for _, first, _ in batches[:done]]
            counts = np.add.reduceat(settled, starts).tolist()
            waits = np.add.reduceat(self._backoff[settled], starts).tolist()
        for (owner, _, _), count, wait in zip(batches, counts, waits):
            if count:
                network.record_retries(machine, owner, count, wait)
        error = None
        if done < len(batches):
            error = FetchFailedError(machine, batches[done][0], cap)
        total = sum(counts) + (cap if error is not None else 0)
        self.fetch_failures += total
        self._m_fetch_failures.inc(total)
        return waits, error

    # ------------------------------------------------------------------
    # straggler degradation (scheduler timing seam)
    # ------------------------------------------------------------------
    def slowdown(self, machine_id: int) -> float:
        """Compute/link stretch factor for ``machine_id`` (1.0 = healthy)."""
        factor = 1.0
        for straggler in self.plan.stragglers:
            if straggler.machine == machine_id:
                factor = max(factor, straggler.factor)
        if factor > 1.0 and machine_id not in self._noted_stragglers:
            self._noted_stragglers.add(machine_id)
            self.stragglers_noted += 1
            self._m_stragglers.inc()
        return factor

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "crashes": self.crashes,
            "fetch_failures": self.fetch_failures,
            "stragglers": self.stragglers_noted,
        }
