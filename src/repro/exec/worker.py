"""Worker-process entry point of the process backend.

Each worker attaches the shared-memory graph, rebuilds its own
deterministic view of the cluster (hash partitioning is pure, so every
worker computes identical partitions), and runs the engine's one
machine loop (``KhuzdulEngine.execute``) over the job plan it was
handed — restricted to the machines it hosts (machine ``m`` lives on
worker ``m % num_workers``). Every worker maps the *whole* graph, so a
hosted scheduler reads a remote list where the inline one does and no
edge list crosses a process boundary; inter-machine communication is
the simulated clock's business (docs/execution.md, "Wall-clock vs
simulated time"). Reusing that loop wholesale is the determinism
argument in code form: there is no second scheduler implementation
that could drift from the simulated one, and no second derivation of
the plan.

Result protocol on the worker's private result pipe
(:mod:`repro.exec.lane`), as ``(tag, worker_id, payload)``:

- ``(RESULT, w, {...})`` — the hosted machines' ``Partial``, their
  UDF copies, observability dump and busy seconds (:func:`hosted_run`'s
  payload). Posted when the worker's compute loop finishes.
- ``(CKPT, w, (machine, roots, {pattern: matches}, udf_state))`` — one
  per completed root chunk of a pattern group: the group's absolute
  root cursor, each member's match total and the pickled state of the
  machine's UDF copy there, shipped unconditionally to the parent's
  progress ledger (:class:`~repro.faults.durability.DurableRun`).
- ``(RECOVERY, w, {...})`` — a redistributed replay of a dead peer's
  machines finished; RESULT-shaped payload restricted to them.
- ``(ERROR, w, traceback_text)`` — any unexpected failure. Expected
  engine outcomes (OOM / simulated timeout) are *not* errors: the
  machine loop already converts them into a structured
  ``FailureSummary`` on the partial.

After its RESULT a worker reads its command pipe: the parent may hand
it ``RecoverAssignment`` work — replay a dead peer's machines from the
ledger's cursors and UDF copies — until the parent releases the lane.

Every exit path closes the shared-memory mapping; the parent is the
only side that ever unlinks the segments.
"""

from __future__ import annotations

import os
import signal
import traceback
from time import perf_counter

from repro.cluster.cluster import Cluster
from repro.core.engine import KhuzdulEngine
from repro.exec.messages import (
    CKPT,
    ERROR,
    RECOVERY,
    RESULT,
    RecoverAssignment,
)
from repro.faults.durability import chaos_kill_threshold
from repro.graph.csr import attach_csr
from repro.obs import Observability


class _DeltaSink:
    """Ships completed-chunk cursors and UDF states to the parent as
    CKPT messages.

    Chaos-injection contract (benchmarks/chaos.py): a worker named by
    ``REPRO_CHAOS=worker-kill:<wid>:<n>`` SIGKILLs itself after shipping
    its n-th delta — a real mid-compute crash at a deterministic chunk
    boundary.
    """

    def __init__(self, worker_id: int, end) -> None:
        self.worker_id = worker_id
        self.end = end
        self.shipped = 0
        self.kill_after = chaos_kill_threshold("worker-kill", worker_id)

    def __call__(self, machine: int, roots: int, matches: dict[int, int],
                 udf_state) -> None:
        self.end.send((CKPT, self.worker_id,
                       (machine, roots, matches, udf_state)))
        self.shipped += 1
        if self.kill_after and self.shipped >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


def machines_of(worker_id: int, workers: int, machines: int) -> list[int]:
    """Simulated machine ``m`` is hosted by worker ``m % workers``."""
    return [m for m in range(machines) if m % workers == worker_id]


def hosted_run(graph, plan, udfs, hosted, obs_enabled, sink=None,
               resume=None) -> dict:
    """Run ``hosted`` machines of ``plan`` against ``graph`` on a fresh
    cluster view and observability bundle; returns the result payload.

    The one way any process runs part of a job on a backend's behalf:
    a worker's own share, a survivor's replay of a dead peer's machines,
    and the parent's replay of machines no survivor covered — each
    started by :meth:`~repro.faults.durability.DurableRun.start`, whose
    ``resume`` cursors and per-machine ``udfs`` copies (None for a
    count-only run) it takes.
    """
    cluster = Cluster(graph, plan.cluster_config)
    obs = Observability() if obs_enabled else None
    engine = KhuzdulEngine(cluster, plan.config, obs=obs)
    started = perf_counter()
    partial = engine.execute(plan, udfs, hosted=hosted, sink=sink,
                             resume=resume)
    return {
        "partial": partial,
        "udfs": udfs,
        "busy_seconds": perf_counter() - started,
        "obs": {
            "metrics": obs.registry.dump(),
            "spans": obs.tracer.spans,
            "dropped": obs.tracer.dropped,
        } if obs is not None else None,
    }


def worker_main(
    end,
    worker_id: int,
    num_workers: int,
    handle,
    plan,
    resume: dict,
    udfs,
    obs_enabled: bool,
) -> None:
    """Entry point of one fleet worker; ``end`` is its lane
    (:class:`repro.exec.lane.WorkerEnd`)."""
    shared = None
    try:
        shared = attach_csr(handle)
        hosted = set(machines_of(
            worker_id, num_workers, plan.cluster_config.num_machines))
        sink = _DeltaSink(worker_id, end)
        end.send((RESULT, worker_id, hosted_run(
            shared.graph, plan, udfs, hosted, obs_enabled, sink, resume)))
        for command in end.commands():
            if not isinstance(command, RecoverAssignment):
                raise RuntimeError(
                    f"worker {worker_id}: unexpected command {command!r}")
            end.send((RECOVERY, worker_id, hosted_run(
                shared.graph, plan, command.udfs, set(command.machines),
                obs_enabled, sink, command.resume,
            )))
    except BrokenPipeError:
        raise  # the parent stopped listening; the lane exits quietly
    except BaseException:
        end.send((ERROR, worker_id, traceback.format_exc()))
    finally:
        if shared is not None:
            shared.close()
