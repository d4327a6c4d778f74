"""Golden of the paper suite (tests/data/experiments_golden.json).

Every clock in ``python -m repro experiment ...`` is simulated, so each
cell is a deterministic number. The golden holds, at ``SCALE``:

* every row of every experiment in ``EXPERIMENTS``, as raw row values
  (tuples stored as JSON lists);
* the Fractal baseline's raw state on each Table 4 graph: per shape
  key, the count and each position's MNI domain size, and the runtime;
  plus the ``SimTimeoutError`` ``(simulated_seconds, budget_seconds)``
  it raises with ``max_subgraphs`` at half the graph's subset total,
  and with a budget of half its compute seconds;
* the ``SimTimeoutError`` of Table 4's livejournal Fractal cell at
  scale 1 (its 2 M ``max_subgraphs`` cap).

Integers and strings must reproduce exactly. Table 4, every Fractal
runtime and every ``SimTimeoutError`` value must be bit-equal; other
floats must agree within ``RELATIVE``.

Tier-1 checks Table 4 and the Fractal state. ``make experiments-check``
sets ``REPRO_GOLDEN_EXPERIMENTS=all`` and checks every experiment
(``=table2,fig11`` names a subset). Record with

    PYTHONPATH=src python tests/test_experiments_golden.py --write
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    _FSM_SETUPS,
    node_memory_bytes,
    run_experiment,
)
from repro.baselines import FractalLike
from repro.errors import SimTimeoutError
from repro.graph import dataset

GOLDEN = Path(__file__).parent / "data" / "experiments_golden.json"
SCALE = 0.15
RELATIVE = 1e-12
#: experiments whose floats must be bit-equal
EXACT = {"table4"}


def chosen_experiments() -> list[str]:
    names = os.environ.get("REPRO_GOLDEN_EXPERIMENTS", "table4")
    return list(EXPERIMENTS) if names == "all" else names.split(",")


def encode(value):
    """A raw cell as JSON: tuples as lists, numpy scalars as Python."""
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if hasattr(value, "item"):
        return value.item()
    return value


def experiment_rows(name: str) -> list[dict]:
    return encode(run_experiment(name, scale=SCALE).rows)


def fractal(name: str, scale: float, **options) -> FractalLike:
    """The Fractal system Table 4 builds for ``name`` at ``scale``."""
    base_scale = next(base for setup, base, _ in _FSM_SETUPS
                      if setup == name)
    graph = dataset(name, scale=base_scale * scale, labeled=True)
    return FractalLike(graph, num_machines=8, cores=16,
                       memory_bytes=node_memory_bytes(name, graph),
                       graph_name=name, **options)


def shape_table(stats: dict) -> dict:
    """``{json key: [count, [domain size per position]]}``."""
    return {json.dumps(encode(key)): [int(count), [int(s) for s in sizes]]
            for key, (count, sizes) in stats.items()}


def raised(system: FractalLike) -> list[float]:
    with pytest.raises(SimTimeoutError) as info:
        system._enumerate()
    return [info.value.simulated_seconds, info.value.budget_seconds]


def fractal_state(name: str) -> dict:
    system = fractal(name, SCALE)
    stats, runtime = system._enumerate()
    shapes = shape_table(stats)
    cost = system.cost
    startup = (cost.graphpi_startup
               + cost.graphpi_startup_per_node * system.num_machines)
    cap = sum(count for count, _ in shapes.values()) // 2
    budget = (runtime - startup) / 2
    return {
        "shapes": shapes,
        "runtime": runtime,
        "cap": [cap, raised(fractal(name, SCALE, max_subgraphs=cap))],
        "budget": [budget, raised(fractal(name, SCALE, time_budget=budget))],
    }


def lj_scale1_timeout() -> list[float]:
    return raised(fractal("livejournal", 1.0))


def mismatches(expected, actual, exact: bool, path=""):
    """Paths where ``actual`` departs from ``expected``: integers and
    strings exactly, floats bit-equal when ``exact`` else within
    ``RELATIVE``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            yield f"{path}: keys differ"
            return
        for key in expected:
            yield from mismatches(expected[key], actual[key], exact,
                                  f"{path}/{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            yield f"{path}: length differs"
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            yield from mismatches(e, a, exact, f"{path}[{index}]")
    elif isinstance(expected, float) and isinstance(actual, float) \
            and not exact:
        if not math.isclose(expected, actual, rel_tol=RELATIVE):
            yield f"{path}: {expected!r} != {actual!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{path}: {expected!r} != {actual!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_experiment(golden):
    assert sorted(golden["experiments"]) == sorted(EXPERIMENTS)
    assert sorted(golden["fractal"]) == sorted(n for n, _, _ in _FSM_SETUPS)


@pytest.mark.parametrize("name", chosen_experiments())
def test_experiment_rows_reproduce(golden, name):
    # through JSON so rows compare in the recorded shape
    actual = json.loads(json.dumps(experiment_rows(name)))
    assert list(mismatches(golden["experiments"][name], actual,
                           name in EXACT)) == []


@pytest.mark.parametrize("name", [n for n, _, _ in _FSM_SETUPS])
def test_fractal_state_reproduces(golden, name):
    actual = json.loads(json.dumps(fractal_state(name)))
    assert list(mismatches(golden["fractal"][name], actual, True)) == []


def test_livejournal_scale1_cap_timeout(golden):
    assert lj_scale1_timeout() == golden["lj_scale1_timeout"]


def dump(data: dict) -> str:
    """The golden file's text: compact, a row or shape a line."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return text.replace("},{", "},\n{").replace(']],"', ']],\n"') + "\n"


def record() -> dict:
    return {
        "scale": SCALE,
        "experiments": {name: experiment_rows(name) for name in EXPERIMENTS},
        "fractal": {name: fractal_state(name) for name, _, _ in _FSM_SETUPS},
        "lj_scale1_timeout": lj_scale1_timeout(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_experiments_golden.py --write")
    GOLDEN.write_text(dump(record()))
