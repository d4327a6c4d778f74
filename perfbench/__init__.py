"""perfbench — the wall-clock benchmark of the Khuzdul reproduction.

One harness, five named workloads, end-to-end and per-layer metrics,
pinned counts, every timed sample weighed against a probe of the host's
speed, and the measured noise beside every number. See
``perfbench/README.md`` for the layer -> metric -> end-to-end table and
``BENCHMARK.json`` (repo root) for the contract later changes are
checked against.

Entry points (run from the repo root)::

    python -m perfbench run [--seed N] [--smoke] [--out DIR]
    python -m perfbench bench --workload W --seed N --seconds S --trace 0|1
    python -m perfbench compare A.json B.json
"""

#: The seed the pinned counts in ``expected.json`` belong to: the
#: ``wdc`` analogue's generator seed (repro.graph.datasets.DATASETS).
DEFAULT_SEED = 19
