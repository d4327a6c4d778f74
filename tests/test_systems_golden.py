"""Golden of every system's query surface (tests/data/systems_golden.json).

Every clock a ``GPMSystem`` reports is simulated, so each whole report
is a deterministic document. The golden holds, for every system flavour
(``tests.reference.SYSTEM_FLAVOURS``: both Khuzdul ports, k-GraphPi
also under IEP counting, and every baseline including the
Peregrine-like single machine) on two small
graphs (an ER graph and a labeled power-law graph), the ``comparable``
report document (``RunReport.to_dict`` without its wall-clock
``extra.exec`` / ``extra.checkpoint`` blocks) of each call in
:data:`CALLS` — or, where the system refuses the call, the exception's
type and message. The labeled calls (a labeled 3-edge pattern and one
``mni_supports`` round of the single-edge FSM seeds, with its
supports) run on the labeled graph only.

Every value must reproduce exactly: integers, strings and floats bit
for bit. The two ports also run under ``ProcessBackend(workers=2)``
against the same entries. Record with

    PYTHONPATH=src python -m tests.test_systems_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.exec import ProcessBackend
from repro.graph.generators import erdos_renyi, power_law_graph, random_labels
from repro.patterns import Pattern, chain, clique
from repro.patterns.catalog import motifs
from repro.patterns.generation import single_edge_patterns
from repro.systems import clique_count, motif_count, triangle_count
from tests.reference import SYSTEM_FLAVOURS

GOLDEN = Path(__file__).parent / "data" / "systems_golden.json"

GRAPHS = {
    "er": lambda: erdos_renyi(60, 240, seed=5),
    "plaw-labeled": lambda: random_labels(
        power_law_graph(80, 300, seed=3), 3, seed=4),
}

#: a labeled 3-edge pattern: the path a - b - b - c
LABELED_PATH = Pattern(4, [(0, 1), (1, 2), (2, 3)], (0, 1, 1, 2))


#: the flavours that also run under the process backend
PORTS = ["k-automine", "k-graphpi"]


def _fsm_round(system):
    patterns = single_edge_patterns({int(x) for x in system.graph.labels})
    supports, report = system.mni_supports(patterns)
    return report, {"supports": supports}


#: name -> (labeled graph only, call); a call returns a report, or a
#: report and extra fields for its entry
CALLS = {
    "TC": (False, triangle_count),
    "TC-oriented": (False, lambda s: triangle_count(s, oriented=True)),
    "4-CC": (False, lambda s: clique_count(s, 4)),
    "4-CC-oriented": (False, lambda s: clique_count(s, 4, oriented=True)),
    "TC-oriented-induced": (False, lambda s: s.count_pattern(
        clique(3), induced=True, oriented=True, app="TC")),
    "chain4-oriented": (False, lambda s: s.count_pattern(
        chain(4), oriented=True, app="chain4")),
    "chain4-induced": (False, lambda s: s.count_pattern(
        chain(4), induced=True, app="chain4")),
    "3-MC": (False, lambda s: motif_count(s, 3)),
    "3-census-noninduced": (False, lambda s: s.count_patterns(
        motifs(3), induced=False, app="3-census")),
    "labeled-path": (True, lambda s: s.count_pattern(
        LABELED_PATH, app="labeled-path")),
    "fsm-round": (True, _fsm_round),
}


def comparable(report) -> dict:
    """The report as a JSON document, less its wall-clock blocks."""
    document = report.to_dict()
    document["extra"] = {key: value
                         for key, value in document["extra"].items()
                         if key not in ("exec", "checkpoint")}
    return json.loads(json.dumps(document))


def entries(graph_name: str, system) -> dict:
    """Every call's entry for one system over one graph."""
    labeled = system.graph.labels is not None
    result = {}
    for name, (needs_labels, call) in CALLS.items():
        if needs_labels and not labeled:
            continue
        try:
            outcome = call(system)
        except Exception as exc:  # a refusal is part of the surface
            result[name] = {"raises": type(exc).__name__,
                            "message": str(exc)}
            continue
        report, fields = outcome if isinstance(outcome, tuple) else (
            outcome, {})
        result[name] = {"report": comparable(report), **fields}
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


def test_golden_covers_every_flavour(golden):
    assert sorted(golden) == sorted(
        f"{graph}/{flavour}"
        for graph in GRAPHS for flavour in SYSTEM_FLAVOURS)


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("flavour", SYSTEM_FLAVOURS)
def test_reports_reproduce(golden, graphs, graph_name, flavour):
    system = SYSTEM_FLAVOURS[flavour](graphs[graph_name], graph_name)
    assert entries(graph_name, system) == golden[f"{graph_name}/{flavour}"]


@pytest.mark.exec
@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("flavour", PORTS)
def test_ports_reproduce_under_process_backend(golden, graphs, graph_name,
                                               flavour):
    system = SYSTEM_FLAVOURS[flavour](graphs[graph_name], graph_name,
                               backend=ProcessBackend(workers=2))
    assert entries(graph_name, system) == golden[f"{graph_name}/{flavour}"]


def dump(data: dict) -> str:
    """The golden file's text: a system's calls an entry a line."""
    def line(entry):
        return json.dumps(entry, sort_keys=True, separators=(",", ":"))
    systems = [
        f" {json.dumps(key)}: {{\n" + ",\n".join(
            f"  {json.dumps(name)}: {line(entry)}"
            for name, entry in sorted(data[key].items())) + "\n }"
        for key in sorted(data)]
    return "{\n" + ",\n".join(systems) + "\n}\n"


def record() -> dict:
    built = {name: build() for name, build in GRAPHS.items()}
    return {f"{graph}/{flavour}": entries(graph, build(built[graph], graph))
            for graph in GRAPHS
            for flavour, build in SYSTEM_FLAVOURS.items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_systems_golden --write")
    GOLDEN.write_text(dump(record()))
