"""Wire types of the process backend's fetch protocol.

Requests are **coalesced**: the requester groups one chunk's pending
circulant batches by *server worker* (not per embedding, not even per
server machine) and ships each group as one
:class:`CoalescedFetchRequest` carrying per-machine vertex segments —
one request-pipe message amortizes the pickle overhead over every fetch
the chunk needs from that worker. The transport may split a very large
group into several consecutive requests so each reply frame fits its
shared-memory ring (see :mod:`repro.exec.transport`).

Replies do not travel as pickled messages at all: the responder writes
the concatenated edge lists as a raw frame into the (server worker,
requester worker) shared-memory ring (:mod:`repro.exec.ring`), which is
sized to hold the graph's largest edge list.

Ordering contract (what makes one ring per worker pair enough): a
worker runs one scheduler at a time, so its requests to any given
server worker are posted in the order it will await them, the pair's
request pipe is FIFO, and the responder serves it single-threaded —
reply frames therefore land on the pair ring in exactly the awaited
order. The
transport still validates every frame against the awaited (kind,
element count) pair and fails loudly on a protocol violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------
# result-pipe message kinds: every message a worker sends the parent
# is a (kind, worker_id, payload) triple with one of these tags
# ---------------------------------------------------------------------
#: compute finished — payload carries counts/report/udf/obs/stats
RESULT = "result"
#: released, responder stopped — payload carries responder stats
STATS = "stats"
#: unexpected failure — payload is the formatted traceback text
ERROR = "error"
#: a bounded transport wait found its serving peer dead — payload is
#: ``{"peer": worker_id, "message": str}``; the parent treats the
#: sender as lost (its compute aborted) and applies the
#: ``on_worker_death`` policy
PEER_DEAD = "peer_dead"
#: completed-root-chunk delta — payload is ``(pattern, machine, roots,
#: matches)`` with the *absolute* cursor. Workers ship one per root
#: chunk so the parent always knows the fleet's progress: with a
#: checkpoint directory it appends them to the durable log, and on a
#: worker death the redistribution pass uses them to skip the dead
#: worker's completed chunks (docs/execution.md)
CKPT = "ckpt"
#: a redistributed-recovery replay finished — payload has the same
#: shape as a RESULT payload, restricted to the replayed machines
RECOVERY = "recovery"

@dataclass(frozen=True)
class RecoverAssignment:
    """Replay these machines on the receiving (surviving) worker.

    The one command of the fleet's command pipes (parent -> worker,
    after the worker's RESULT; releasing the lane ends them), sent to
    a survivor when a peer died under
    ``--on-worker-death recover``. ``resume`` is the parent's progress
    ledger — ``(pattern, machine)`` to the last shipped cursor
    ``(roots, matches)`` — so the survivor skips chunks the dead worker
    already completed — the same resume mechanism durable checkpoints
    use (docs/faults.md).
    """

    machines: tuple[int, ...]
    resume: dict


@dataclass(frozen=True)
class Segment:
    """One server machine's share of a coalesced request."""

    server_machine: int
    #: vertex ids whose edge lists are requested, in batch order
    vertices: np.ndarray


@dataclass(frozen=True)
class CoalescedFetchRequest:
    """One chunk's edge-list demand on one server worker (possibly one
    split of it), sent on the pair's request pipe.

    The responder serves every segment with a single bulk adjacency
    gather and answers with exactly one reply frame on the
    ``(server worker, requester worker)`` ring: the segments'
    edge lists concatenated in segment order.
    """

    requester_worker: int
    #: per-machine vertex batches, in the requester's circulant order
    segments: tuple[Segment, ...]
