"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures on the
scaled synthetic analogues and prints the resulting rows. Because a
full experiment is itself a batch of simulated runs, each benchmark
executes exactly once (``rounds=1``) — the interesting output is the
table, not the harness's wall time. ``bench_gates.py`` is the
exception: plain pytest gates on real seconds.

Environment knobs:

- ``REPRO_BENCH_SCALE`` (default 1.0): multiplier on every dataset size.
- ``REPRO_BENCH_HEAVY`` (default 1): set to 0 to restrict the big
  tables to the three small graphs.
"""

from __future__ import annotations

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
HEAVY = os.environ.get("REPRO_BENCH_HEAVY", "1") == "1"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def bench_heavy() -> bool:
    return HEAVY


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
