"""Using the low-level API: custom patterns, schedules, and UDFs.

Demonstrates what a GPM-system developer touches when porting onto
Khuzdul: define a pattern, compile a matching-order schedule (the
EXTEND function, Section 3.2), inspect its extension steps, and run it
with a user-defined function that receives every matched embedding.

The pattern here is the "house" (a 4-cycle with a roof) plus a custom
labeled pattern on a labeled graph.

Run:  python examples/custom_pattern.py
"""

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.core import KhuzdulEngine
from repro.graph import dataset
from repro.patterns import Pattern, house
from repro.patterns.schedule import automine_schedule, graphpi_schedule


def inspect_schedule(schedule) -> None:
    print(f"  matching order: {schedule.order}")
    print(f"  restrictions (a<b on pattern vertices): {schedule.restrictions}")
    for step in schedule.steps:
        reuse = (
            f", reuses level {step.reuse_level}'s intersection"
            if step.reuse_level is not None
            else ""
        )
        print(
            f"  level {step.level}: intersect N(pos {list(step.connected)})"
            f"{reuse}; active afterwards: {list(step.active_after)}"
        )


def main() -> None:
    graph = dataset("mico", scale=0.5, labeled=True)
    cluster = Cluster(graph, ClusterConfig(num_machines=4))
    engine = KhuzdulEngine(cluster)

    print("-- the 'house' pattern (5 vertices, 6 edges) --")
    schedule = graphpi_schedule(house())
    inspect_schedule(schedule)

    # a UDF that samples the first few matched embeddings. The machines
    # walk in lockstep, so its calls interleave machines one drain at a
    # time: the five samples come from whichever machines drain first,
    # and a UDF that must not depend on that order (every UDF of the
    # paper's applications) accumulates order-free state instead
    samples: list[tuple[int, ...]] = []

    def sample_udf(prefix: tuple[int, ...], candidates: np.ndarray) -> None:
        if len(samples) < 5:
            for v in candidates[: 5 - len(samples)]:
                samples.append(prefix + (int(v),))

    report = engine.run(schedule, udf=sample_udf, app="house")
    print(f"\n  {report.counts} house embeddings found "
          f"({report.simulated_seconds * 1e3:.2f}ms simulated)")
    for embedding in samples:
        print(f"  sample embedding: {embedding}")

    print("\n-- a custom labeled pattern --")
    # a triangle whose three vertices carry labels 0, 0, 1
    labeled = Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=(0, 0, 1))
    schedule = automine_schedule(labeled)
    inspect_schedule(schedule)
    report = engine.run(schedule, app="labeled-triangle")
    print(f"\n  {report.counts} labeled triangles "
          f"(root label filter: {schedule.root_label()})")


if __name__ == "__main__":
    main()
