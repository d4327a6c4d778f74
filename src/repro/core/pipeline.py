"""Circulant-schedule pipeline timing (paper Section 4.3).

When a chunk becomes current, its embeddings are shuffled into N
batches by the machine owning their pending edge list, starting with
the local machine and proceeding in circulant order. The engine then
pipelines the batches: computation of batch *i* overlaps with the data
fetch of batch *i+1*. The standard two-stage pipeline bound gives the
wall time; whatever communication it fails to hide is the chunk's
exposed network time.
"""

from __future__ import annotations

from typing import Sequence


def pipeline_time(
    comm_times: Sequence[float], compute_times: Sequence[float]
) -> float:
    """Wall time of a pipelined (fetch | extend) chunk execution.

    ``comm_times[i]`` is the fetch time of batch ``i`` and
    ``compute_times[i]`` its extension time. The fetch of batch 0 must
    finish before its computation starts; afterwards the fetch of batch
    ``i+1`` proceeds concurrently with the computation of batch ``i``
    (and is *not* stalled by computation — Section 4.3's non-strict
    pipelining, which the max() accounts for).
    """
    if len(comm_times) != len(compute_times):
        raise ValueError("batch lists must have equal length")
    if not comm_times:
        return 0.0
    total = comm_times[0]
    for i in range(len(compute_times)):
        next_comm = comm_times[i + 1] if i + 1 < len(comm_times) else 0.0
        total += max(compute_times[i], next_comm)
    return total
