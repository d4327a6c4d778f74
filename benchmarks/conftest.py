"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures on the
scaled synthetic analogues and prints the resulting rows. Because a
full experiment is itself a batch of simulated runs, each benchmark
executes exactly once (``rounds=1``) — the interesting output is the
table, not the harness's wall time.

Environment knobs:

- ``REPRO_BENCH_SCALE`` (default 1.0): multiplier on every dataset size.
- ``REPRO_BENCH_HEAVY`` (default 1): set to 0 to restrict the big
  tables to the three small graphs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
HEAVY = os.environ.get("REPRO_BENCH_HEAVY", "1") == "1"

#: default directory for benchmark JSON documents
BENCH_DIR = Path(__file__).parent.parent / ".benchmarks"


def emit_json(result: dict, path: Path) -> str:
    """Print a benchmark result document and persist it to ``path``.

    The emission idiom of the wall-clock benches (``bench_wallclock``,
    ``bench_scale``, ``bench_service``): one pretty-printed JSON
    document on stdout — so CI logs carry the numbers — and the same
    bytes on disk for artifact upload.
    """
    document = json.dumps(result, indent=2)
    print()
    print(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(document + "\n")
    return document


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def bench_heavy() -> bool:
    return HEAVY


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
