"""Statistics and host probes shared by every workload.

Nothing here imports ``repro``: these are the stopwatch, the noise
estimate and the description of the box the numbers were taken on.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import statistics
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

#: a tail percentile is reported only with this many samples beyond it
#: (choosing-metrics: "the highest percentile that has at least ten
#: samples beyond it"); with fewer samples the tail collapses towards
#: the median instead of reporting the single slowest sample
TAIL_SAMPLES_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the acceptance check computes
    them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, _, q3 = statistics.quantiles(values, n=4)
    # with two or three samples the default method extrapolates
    return max(q1, min(values)), statistics.median(values), min(q3, max(values))


def summarize(values: Sequence[float]) -> dict:
    """Median with the noise recorded beside it.

    ``noise`` is the interquartile range as a share of the median — the
    same spread the acceptance check takes across runs, here taken
    across the samples of one run.
    """
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "noise": (q3 - q1) / median if median else 0.0,
    }


def tail_percentile(
    values: Sequence[float], q: float = 0.95
) -> tuple[float, float]:
    """``(value, effective_q)``: the nearest-rank ``q`` percentile,
    lowered until :data:`TAIL_SAMPLES_BEYOND` samples lie beyond it and
    never below the median. 200 queries report a true p95 (10 beyond),
    112 their p91, 40 their p75."""
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(q * n) - 1, n - 1 - TAIL_SAMPLES_BEYOND)
    if index + 1 <= n / 2:
        return statistics.median(ordered), 0.5
    return ordered[index], (index + 1) / n


# ---------------------------------------------------------------------
# host probes
# ---------------------------------------------------------------------
#: what :meth:`Probe.run` takes on the host speed the reported seconds
#: refer to: its three parts at about 11 ms each, the undisturbed speed
#: of the 2-CPU box the benchmark was written on
PROBE_REFERENCE_S = 0.033


class Probe:
    """A fixed loop of about 35 ms, timed before and after every unit.

    The shared box this runs on changes speed by up to 1.7x, for
    seconds or for minutes at a time (neighbours on the same cores: user
    time grows, nothing is taken away). No statistic over a run's units
    removes that, so every timed sample is reported as the seconds it
    would have taken at the reference speed: ``sample *
    PROBE_REFERENCE_S / probe``, with ``probe`` the mean of the two
    runs of this loop either side of the sample.

    The loop is the benchmark's own and touches nothing of the program
    under test. Its three parts are what the engine's host time is made
    of and slow down as the engine does: interpreter arithmetic, object
    allocation (dicts, lists, tuples), and many small ``numpy`` calls
    (``searchsorted``, fancy indexing, comparisons on arrays of a few
    hundred elements). One large memory-bound call was tried as a
    fourth part and tracked the workloads worse than none.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._arrays = [np.sort(rng.integers(0, 1 << 20, 600))
                        for _ in range(64)]

    def run(self) -> float:
        # what the last unit left for the collector would otherwise be
        # collected inside the loop's allocations, and timed
        gc.collect()
        started = perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i
        table = {}
        for i in range(40_000):
            table[i] = (i, [i, i + 1])
        for pair in table.values():
            total += pair[1][1]
        arrays = self._arrays
        for turn in range(15):
            other = arrays[(turn * 7 + 3) % 64]
            for array in arrays:
                index = np.searchsorted(array, other)
                index[index == len(array)] = 0
                total += int(np.count_nonzero(array[index] == other))
        return perf_counter() - started


def at_reference_speed(before: float, after: float) -> float:
    """The factor that turns a sample measured between two probes into
    seconds at the reference host speed."""
    return 2.0 * PROBE_REFERENCE_S / (before + after)


def host_info() -> dict:
    """What the numbers were measured on (the output header)."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, and the children it will start, on one CPU —
    the last it may use — so that a probe measures the CPU the unit ran
    on: the CPUs of a shared box do not slow down together. Returns
    that CPU, or ``None`` where the platform cannot pin."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return None
    return cpu


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _live_child_cpu(pid: int) -> float:
    """user+sys seconds of a running child from ``/proc`` (0 where
    there is no procfs: reaped children are still counted)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds() -> float:
    """user+sys CPU seconds of this process and its children so far.

    ``getrusage`` covers this process and *reaped* children (the
    process backend joins its workers inside every query); a resident
    serving worker is still alive between queries, so running children
    are read from procfs. The sum is continuous across a child being
    reaped.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for child in multiprocessing.active_children():
        if child.pid is not None:
            total += _live_child_cpu(child.pid)
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus that of its largest
    reaped descendant, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
