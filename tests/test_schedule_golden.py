"""Golden of everything the pattern compiler decides (tests/data/schedules_golden.json).

Recorded at the commit *before* the order search scored orders from
bitmasks and the compilers were memoized, by running this very file:

    PYTHONPATH=src python tests/test_schedule_golden.py --write

``--write`` refuses to overwrite a golden whose pins the working tree
does not reproduce (it lists the cases that moved) unless ``--force``
is given too, so "re-record" cannot silently bless a moved order.
Re-recording is legitimate only in a PR whose stated point is a changed
compiler decision — never in one that claims nothing simulated moved
(benchmarks/README.md).

What is pinned, for every connected pattern with at most five vertices,
the catalog's named patterns and a few vertex- and edge-labeled ones,
under both compilers and every flag combination (``graphpi_schedule``
also under three ``(avg_degree, num_vertices)`` regimes — the perfbench
``mico`` sample, the function's defaults, the ``wdc``-shaped graph):
the chosen order, the restriction pairs, every step's connected /
disconnected / ordering / reuse / store / active sets, and the
schedule's counting plan (``null`` where it has none). Plus the motif
lists themselves and their canonical codes. Integers only — the order
search's float costs go through libm's ``pow`` and are compared against
``_order_cost`` in tests/test_schedule.py instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.patterns import Pattern, canonical_code, catalog
from repro.patterns.schedule import (
    automine_schedule,
    compile_counting_plan,
    graphpi_schedule,
)

GOLDEN = Path(__file__).parent / "data" / "schedules_golden.json"

#: (avg_degree, num_vertices) the order search is fed
REGIMES = {"mico": (20.8, 40.0), "default": (16.0, 1.0e4),
           "wdc": (3.2, 14000.0)}


def patterns() -> dict[str, Pattern]:
    named = {
        f"k{k}-{index:02d}": pattern
        for k in range(1, 6)
        for index, pattern in enumerate(catalog.motifs(k))
    }
    named.update({f"clique{k}": catalog.clique(k) for k in (3, 4, 5)})
    named.update({f"chain{k}": catalog.chain(k) for k in (2, 3, 4, 5, 6)})
    named.update({f"cycle{k}": catalog.cycle(k) for k in (3, 4, 5, 6)})
    named.update({f"star{k}": catalog.star(k) for k in (2, 3, 4, 5)})
    named.update(
        tailed_triangle=catalog.tailed_triangle(), house=catalog.house(),
        bowtie=catalog.bowtie(), bull=catalog.bull(),
    )
    triangle = catalog.triangle()
    named.update({
        "vlabel-wedge": Pattern(3, [(0, 1), (1, 2)], labels=(5, 1, 5)),
        "vlabel-triangle": triangle.with_labels((0, 0, 1)),
        "vlabel-cycle4": catalog.cycle(4).with_labels((0, 1, 0, 1)),
        "vlabel-house": catalog.house().with_labels((0, 0, 1, 1, 2)),
        "vlabel-chain5": catalog.chain(5).with_labels((1, 2, 1, 2, 1)),
        "elabel-triangle": triangle.with_edge_labels(
            {(0, 1): 1, (0, 2): 0, (1, 2): 0}),
        "elabel-cycle4": catalog.cycle(4).with_edge_labels(
            {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}),
        "elabel-chain4": catalog.chain(4).with_edge_labels(
            {(0, 1): 1, (1, 2): 0, (2, 3): 1}),
        "velabel-tailed": catalog.tailed_triangle().with_labels(
            (1, 1, 2, 3)).with_edge_labels(
            {(0, 1): 0, (0, 2): 4, (1, 2): 4, (2, 3): 7}),
    })
    return named


def cases():
    """``(case id, zero-argument compile)`` over the whole matrix."""
    for name, pattern in patterns().items():
        for induced in (False, True):
            for restricted in (True, False):
                flags = (f"{'induced' if induced else 'edge'}/"
                         f"{'restricted' if restricted else 'free'}")
                yield (
                    f"{name}/automine/{flags}",
                    lambda p=pattern, i=induced, r=restricted:
                        automine_schedule(p, i, r),
                )
                for counting in ("enumerate", "iep"):
                    for regime, (degree, vertices) in REGIMES.items():
                        yield (
                            f"{name}/graphpi/{flags}/{counting}/{regime}",
                            lambda p=pattern, i=induced, r=restricted,
                            c=counting, d=degree, n=vertices:
                                graphpi_schedule(p, i, d, n, r, c),
                        )


def observe(schedule) -> dict:
    """One compiled schedule's pinned decisions, JSON-shaped."""
    plan = compile_counting_plan(schedule)
    return {
        "order": schedule.order,
        "restrictions": schedule.restrictions,
        "steps": [
            [step.connected, step.disconnected, step.larger_than,
             step.smaller_than, step.reuse_level, step.store_intermediate,
             step.active_after]
            for step in schedule.steps
        ],
        "plan": None if plan is None else {
            "suffix_size": plan.suffix_size,
            "divisor": plan.divisor,
            "signatures": plan.signatures,
            "terms": [[t.coefficient, t.blocks] for t in plan.terms],
            "prefix_restrictions": plan.prefix_schedule.restrictions,
        },
    }


def observe_all() -> dict:
    document = {case: observe(build()) for case, build in cases()}
    for k in range(1, 6):
        motifs = catalog.motifs(k)
        document[f"motifs/{k}"] = [sorted(p.edges) for p in motifs]
        document[f"codes/{k}"] = [canonical_code(p) for p in motifs]
    # through JSON so tuples compare in the recorded shape
    return json.loads(json.dumps(document))


def load_golden() -> dict:
    """``{case id: observation}``. On disk most cases share their
    observation with others (three regimes usually pick one order), so
    the file holds each distinct one once under ``pins`` and the cases
    as indices into it."""
    document = json.loads(GOLDEN.read_text())
    return {case: document["pins"][index]
            for case, index in document["cases"].items()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def observed():
    return observe_all()


def test_golden_covers_the_matrix(golden, observed):
    assert sorted(golden) == sorted(observed)


def test_reproduces_golden(golden, observed):
    moved = [case for case in golden if observed.get(case) != golden[case]]
    assert moved == []


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if not arguments or arguments[0] != "--write" or arguments[1:] not in (
            [], ["--force"]):
        sys.exit("usage: python tests/test_schedule_golden.py --write "
                 "[--force]")
    observed = observe_all()
    if GOLDEN.exists() and "--force" not in arguments:
        recorded = load_golden()
        moved = sorted(
            case for case in recorded if observed.get(case) != recorded[case]
        )
        if moved:
            sys.exit(
                f"refusing to overwrite {GOLDEN}: {len(moved)} recorded "
                f"pins are not reproduced (first: {moved[:5]}); a moved "
                "compiler decision is re-recorded with --force, and only "
                "in a PR that says it moves"
            )
    keys = {case: json.dumps(value) for case, value in observed.items()}
    index = {key: i for i, key in enumerate(dict.fromkeys(keys.values()))}
    GOLDEN.write_text(json.dumps(
        {"pins": [json.loads(key) for key in index],
         "cases": {case: index[key] for case, key in keys.items()}},
        separators=(",", ":"),
    ).replace('},{"', '},\n{"') + "\n")
    print(f"wrote {GOLDEN} ({len(keys)} cases, {len(index)} distinct)")
