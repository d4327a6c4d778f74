"""Khuzdul core: the paper's primary contribution.

The extendable-embedding abstraction (Section 3), the EXTEND interface,
the BFS-DFS hybrid chunked exploration with circulant scheduling
(Section 4), the three GPM-specific data-reuse mechanisms (Section 5 —
vertical data/computation sharing, horizontal data sharing, static data
cache), and the distributed execution engine that ties them to the
simulated cluster.
"""

from repro.core.extend import ExtendResult, ScheduleExtender, compute_candidates
from repro.core.chunk import Chunk, EdgeListSource
from repro.core.hds import HorizontalShareTable
from repro.core.cache import EdgeCache, CachePolicy
from repro.core.pipeline import pipeline_time
from repro.core.runtime import RunReport
from repro.core.engine import EngineConfig, KhuzdulEngine

__all__ = [
    "ExtendResult",
    "ScheduleExtender",
    "compute_candidates",
    "Chunk",
    "EdgeListSource",
    "HorizontalShareTable",
    "EdgeCache",
    "CachePolicy",
    "pipeline_time",
    "RunReport",
    "EngineConfig",
    "KhuzdulEngine",
]
