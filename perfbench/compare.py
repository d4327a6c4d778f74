"""``python -m perfbench compare A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio with
its base, the metric's bound and a verdict —

- ``within``: B is no worse than A by more than the bound;
- ``worse``: it is;
- ``unresolved``: the spread recorded beside either number is wider
  than the bound, so the comparison cannot tell (reported as such, not
  as unchanged).

``sim_s`` is deterministic and held to 1e-9 relative in *either*
direction — a host-speed change must leave the modelled time alone —
and ``failed_share`` to 0, absolute. ``setup_s`` may worsen by
max(25 %, 0.25 s): a set-up of a few milliseconds moves by more than a
quarter of itself for no reason anyone could act on. The three service
metrics have rows on ``service-mix`` only; elsewhere they would restate
``wall_s``. This is the tool for the two-sets acceptance check and for
later changes' before/after tables.
"""

from __future__ import annotations

import json

from perfbench.metrics import (
    END_TO_END,
    SETUP_FLOOR_S,
    SIM_RELATIVE_TOLERANCE,
)


def _verdict(name: str, better: str, bound: float, a: dict, b: dict):
    base, new = a["value"], b["value"]
    if name == "sim_s":
        drift = abs(new - base) / abs(base) if base else abs(new)
        return "within" if drift <= SIM_RELATIVE_TOLERANCE else "worse"
    if max(a.get("noise", 0.0), b.get("noise", 0.0)) > bound:
        return "unresolved"
    worsening = (new - base) / base if better == "lower" \
        else (base - new) / base
    return "worse" if worsening > bound else "within"


def compare(a: dict, b: dict) -> list[dict]:
    """Rows comparing result document ``b`` against its base ``a``."""
    rows = []
    for workload, base in a["workloads"].items():
        other = b["workloads"][workload]
        for name, unit, better, bound in END_TO_END:
            left = base["end_to_end"].get(name)
            right = other["end_to_end"].get(name)
            if left is None or right is None:
                continue  # a service metric on a batch workload
            if name == "sim_s":
                bound = SIM_RELATIVE_TOLERANCE
            elif name == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / left["value"])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": unit,
                "a": left["value"],
                "b": right["value"],
                "ratio": (right["value"] / left["value"]
                          if left["value"] else None),
                "bound": bound,
                "verdict": _verdict(name, better, bound, left, right),
            })
        rows.append({
            "workload": workload,
            "metric": "failed_share",
            "unit": "ratio",
            "a": base["failed_share"],
            "b": other["failed_share"],
            "ratio": None,
            "bound": 0.0,
            "verdict": ("worse" if other["failed_share"] > 0
                        or base["failed_share"] > 0 else "within"),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<18}{'metric':<15}{'A':>13}{'B':>13}"
             f"  {'B/A':<22}{'bound':>8}  verdict"]
    for row in rows:
        ratio = ("" if row["ratio"] is None else
                 f"{row['ratio']:.3f}x of {row['a']:.4g} {row['unit']}")
        lines.append(
            f"{row['workload']:<18}{row['metric']:<15}"
            f"{row['a']:>13.6g}{row['b']:>13.6g}  {ratio:<22}"
            f"{row['bound']:>8.2g}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    if (a.get("seed"), a.get("mode")) != (b.get("seed"), b.get("mode")):
        print(f"note: comparing seed/mode {a.get('seed')}/{a.get('mode')} "
              f"with {b.get('seed')}/{b.get('mode')}: other inputs, so "
              f"sim_s and the counts are expected to differ")
    rows = compare(a, b)
    print(render(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0
