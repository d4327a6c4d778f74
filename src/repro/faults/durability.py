"""Durable chunk-granular checkpoints: kill the process, keep the work.

The in-memory recovery layer (:mod:`repro.faults.recovery`) survives
*simulated* machine crashes and (via the process backend) real worker
deaths — but a dead parent process still lost every completed chunk.
This module persists the recovery cursor to disk so a killed run can
restart with ``--resume`` and skip everything it already finished,
producing bit-identical final counts to an uninterrupted run
(docs/faults.md, "Durability").

On-disk layout under ``--checkpoint-dir``:

``manifest.json``
    Versioned fingerprint of the run: graph content (CRC32 of the CSR
    arrays) plus the job plan's own fingerprint — every schedule
    (pattern edges/labels, matching order, restrictions, counting plan
    and divisor, chunk budget), the count-relevant engine and cluster
    configuration, and the job identity. Written atomically (tmp + rename) when a
    checkpointed run starts; ``--resume`` refuses a directory whose
    manifest does not match the current run exactly — a stale
    checkpoint (changed graph seed/scale, different pattern, different
    partitioning) must never be silently replayed into wrong counts.

``chunks.log``
    Append-only completed-root-chunk records, one JSON object per line
    prefixed with its own CRC32. Each record carries the *absolute*
    per-(pattern, machine) cursor — roots completed and matches found —
    so replaying the log is idempotent and a resumed run can itself be
    checkpointed and resumed again. A root chunk of a pattern group
    writes one line per member, all with the group's one root cursor.
    Loading tolerates truncation: a torn or corrupt tail line (the one
    a SIGKILL interrupted) ends the replay at the last intact record
    instead of failing the resume, and a group resumes from the last
    cursor every member logged.

``aggregates.json``
    Partial aggregates snapshot, rewritten atomically at every flush:
    per-pattern counts derived from the progress map, per machine the
    pickled state of the mergeable UDF copy it drains into together
    with the cursors that state covers (inline backend only), and a
    metrics dump when observability is enabled.

Cadence: ``--checkpoint-every N`` makes every N-th completed root
chunk durable (log append + fsync + snapshot rewrite). Records between
flushes are buffered in memory — work since the last flush is the only
work a kill can lose, and the resumed run simply redoes it.

Chaos hook: when ``REPRO_CHAOS=parent-kill:<n>`` is set in the
environment, the process SIGKILLs itself right after its ``n``-th
durable flush. This is how ``benchmarks/chaos.py`` kills real runs at
a deterministic checkpoint without timing races.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import signal
import zlib
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.obs import names

#: bump when the on-disk layout or the fingerprinted fields change;
#: mismatches reject the resume. 3: the engine's EXTEND-mode field left
#: the fingerprint (one chunk loop, docs/performance.md). 4: a census
#: runs as pattern groups, so its root chunks — and the cursors logged
#: at them — are the group's, not the pattern's. 5: machines walk in
#: lockstep, so the snapshot keeps one UDF state per machine, each
#: with the cursors it covers. 6: UDFs take whole drains
#: (``chunk``), and the MNI collector's pickled state is vertex masks.
FORMAT_VERSION = 6

MANIFEST_NAME = "manifest.json"
LOG_NAME = "chunks.log"
SNAPSHOT_NAME = "aggregates.json"
#: shared-memory segment names of an in-flight process-backend run;
#: lets a resumed run unlink segments a SIGKILLed parent leaked
SHM_NAME = "shm.json"

#: environment variable the chaos harness uses for deterministic kills
CHAOS_ENV = "REPRO_CHAOS"


# ---------------------------------------------------------------------
# manifest fingerprinting
# ---------------------------------------------------------------------
def _crc_bytes(data) -> int:
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


def _graph_fingerprint(graph) -> dict:
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "indptr_crc": _crc_bytes(graph.indptr.tobytes()),
        "indices_crc": _crc_bytes(graph.indices.tobytes()),
        "labels_crc": (
            _crc_bytes(graph.labels.tobytes())
            if graph.labels is not None else None
        ),
    }


def run_manifest(plan, graph) -> dict:
    """The identity of one checkpointed run: the job plan's fingerprint
    (labels, per-pattern schedule / counting plan / divisor / chunk
    budget, cluster shape, every count-relevant engine knob — see
    :meth:`repro.core.plan.JobPlan.fingerprint`) plus the graph's
    content. Nothing is listed here by hand, so a plan field added
    later is checked on resume without touching this module."""
    return {
        "format": FORMAT_VERSION,
        **plan.fingerprint(),
        "graph": _graph_fingerprint(graph),
    }


def _diff_keys(expected: dict, found: dict, prefix: str = "") -> list[str]:
    """Dotted paths where two manifest trees disagree."""
    diffs = []
    for key in sorted(set(expected) | set(found)):
        path = f"{prefix}{key}"
        left, right = expected.get(key), found.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            diffs.extend(_diff_keys(left, right, prefix=f"{path}."))
        elif left != right:
            diffs.append(path)
    return diffs


# ---------------------------------------------------------------------
# atomic file helpers
# ---------------------------------------------------------------------
def _write_atomic(path: str, payload: str) -> None:
    """tmp + fsync + rename: readers see the old file or the new one,
    never a torn write — the property the parent-kill chaos scenario
    exercises."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def chaos_kill_threshold(kind: str, who=None) -> int:
    """``n`` of ``REPRO_CHAOS=<kind>[:<who>]:<n>`` when the spec names
    this caller — a worker id, a query id — else 0. For the kill kinds
    ``n`` is the event to die at; ``query-sleep`` reads it as
    milliseconds."""
    *target, count = os.environ.get(CHAOS_ENV, "").split(":")
    if target != ([kind] if who is None else [kind, str(who)]):
        return 0
    try:
        return max(1, int(count))
    except ValueError:
        return 0


# ---------------------------------------------------------------------
# shared-memory leak ledger (process backend)
# ---------------------------------------------------------------------
def write_shm_names(directory: str, names: list[str]) -> None:
    """Record the live segment names of a checkpointed process run."""
    _write_atomic(os.path.join(directory, SHM_NAME),
                  json.dumps({"segments": names}))


def clear_shm_names(directory: str) -> None:
    try:
        os.remove(os.path.join(directory, SHM_NAME))
    except OSError:
        pass


def reap_stale_segments(directory: str) -> int:
    """Unlink segments a previous (killed) run recorded; returns how
    many were actually reclaimed. Best effort: a name that no longer
    exists is the common case after a clean exit."""
    path = os.path.join(directory, SHM_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            names = json.load(handle).get("segments", [])
    except (OSError, ValueError):
        return 0
    from multiprocessing import shared_memory

    reaped = 0
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            segment.unlink()
            reaped += 1
        except (FileNotFoundError, OSError):
            pass
        finally:
            try:
                segment.close()
            except (OSError, BufferError):
                pass
    clear_shm_names(directory)
    return reaped


# ---------------------------------------------------------------------
# the checkpoint session
# ---------------------------------------------------------------------
class CheckpointSession:
    """One run's durable checkpoint state under ``--checkpoint-dir``.

    The caller owns the cadence contract: ``record`` once per completed
    root chunk (absolute cursor of each pattern it completed on one
    machine), and the session makes every ``every``-th record durable;
    ``flush`` at the
    end of the run (:class:`DurableRun` does it on every exit) writes
    whatever is still buffered.

    ``record`` may carry the pickled state of the UDF copy the machine
    drains into, taken at that root chunk: the snapshot keeps, per
    machine, the last such state with the cursors it covers, so UDF
    bytes and skipped work always describe the same prefix.
    ``snapshot_metrics`` may be set to a zero-argument callable
    returning the metrics dump (or None) each flush writes.
    """

    def __init__(self, directory: str, manifest: dict, num_patterns: int,
                 every: int = 1, resume: bool = False):
        self.directory = directory
        self.manifest = manifest
        self.num_patterns = num_patterns
        self.every = every
        self.resumed = resume
        #: absolute cursor per (pattern, machine): (roots, matches)
        self.progress: dict[tuple[int, int], tuple[int, int]] = {}
        #: every logged cursor per (pattern, machine): roots -> matches
        self.history: dict[tuple[int, int], dict[int, int]] = {}
        #: per machine, its UDF copy's last recorded state and the
        #: ``{pattern: (roots, matches)}`` cursors that state covers —
        #: loaded from the snapshot on resume, where a UDF run restarts
        self.udf_states: dict[int, tuple[dict, bytes]] = {}
        self.snapshot_metrics: Optional[Callable[[], Optional[dict]]] = None
        self.records_written = 0
        self.records_resumed = 0
        self.flushes = 0
        self.truncated = False
        self._buffer: list[tuple[int, int, int, int]] = []
        self._since_flush = 0
        self._chaos_kill_after = chaos_kill_threshold("parent-kill")

        os.makedirs(directory, exist_ok=True)
        if resume:
            self._load()
        else:
            self._initialize()

    # -- startup -------------------------------------------------------
    def _initialize(self) -> None:
        _write_atomic(self._path(MANIFEST_NAME),
                      json.dumps(self.manifest, sort_keys=True, indent=1))
        for stale in (LOG_NAME, SNAPSHOT_NAME):
            try:
                os.remove(self._path(stale))
            except OSError:
                pass

    def _load(self) -> None:
        manifest_path = self._path(MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                found = json.load(handle)
        except OSError:
            raise ConfigurationError(
                f"--resume: no checkpoint manifest under "
                f"{self.directory!r} (nothing to resume)"
            ) from None
        except ValueError as exc:
            raise ConfigurationError(
                f"--resume: unreadable checkpoint manifest: {exc}"
            ) from None
        if found.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"--resume: checkpoint format "
                f"{found.get('format')!r} does not match this build's "
                f"format {FORMAT_VERSION}"
            )
        diffs = _diff_keys(self.manifest, found)
        if diffs:
            raise ConfigurationError(
                "--resume: stale checkpoint rejected — the saved run "
                "differs from this one at: " + ", ".join(diffs) +
                " (same graph/pattern/config required; start fresh "
                "without --resume to discard it)"
            )
        self._load_log()
        self._load_snapshot()
        self.records_resumed = len(self.progress)

    def _load_log(self) -> None:
        try:
            with open(self._path(LOG_NAME), "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        for line in raw.split(b"\n"):
            if not line:
                continue
            record = _parse_log_line(line)
            if record is None:
                # torn tail from a mid-append kill: everything before
                # it is intact, everything after it is untrusted
                self.truncated = True
                break
            pattern, machine, roots, matches = record
            self._advance(pattern, machine, roots, matches)

    def _load_snapshot(self) -> None:
        try:
            with open(self._path(SNAPSHOT_NAME), "r",
                      encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError):
            return  # killed before the first snapshot: log-only resume
        for machine, entry in (snapshot.get("udf") or {}).items():
            self.udf_states[int(machine)] = (
                {int(pattern): tuple(cursor)
                 for pattern, cursor in entry["cursors"].items()},
                base64.b64decode(entry["state"]),
            )

    # -- recording -----------------------------------------------------
    def _advance(self, pattern: int, machine: int, roots: int,
                 matches: int) -> None:
        key = (pattern, machine)
        self.history.setdefault(key, {})[roots] = matches
        current = self.progress.get(key)
        if current is None or roots > current[0]:
            self.progress[key] = (roots, matches)

    def record(self, machine: int, roots_completed: int,
               matches: dict[int, int],
               udf_state: Optional[bytes] = None) -> None:
        """One completed root chunk: the absolute cursor and the match
        total of each pattern in ``matches``, and the pickled state of
        the machine's UDF copy there; flushes on cadence."""
        for pattern, found in matches.items():
            self._advance(pattern, machine, roots_completed, found)
            self._buffer.append((pattern, machine, roots_completed, found))
        if udf_state is not None:
            cursors = dict(self.udf_states.get(machine, ({}, b""))[0])
            cursors.update((pattern, (roots_completed, found))
                           for pattern, found in matches.items())
            self.udf_states[machine] = (cursors, udf_state)
        self._since_flush += 1
        if self._since_flush >= self.every:
            self.flush()

    def flush(self) -> None:
        """Make buffered records durable: log append + snapshot rewrite."""
        if not self._buffer:
            return
        with open(self._path(LOG_NAME), "ab") as handle:
            for record in self._buffer:
                handle.write(_format_log_line(*record))
            handle.flush()
            os.fsync(handle.fileno())
        self.records_written += len(self._buffer)
        self._buffer.clear()
        self._since_flush = 0
        self._write_snapshot()
        self.flushes += 1
        if self._chaos_kill_after and self.flushes >= self._chaos_kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def _write_snapshot(self) -> None:
        snapshot = {
            "format": FORMAT_VERSION,
            "progress": {
                f"{pattern}:{machine}": [roots, matches]
                for (pattern, machine), (roots, matches)
                in sorted(self.progress.items())
            },
            "counts": self.counts(),
            "udf": {
                str(machine): {
                    "cursors": {str(pattern): list(cursor)
                                for pattern, cursor in cursors.items()},
                    "state": base64.b64encode(state).decode("ascii"),
                }
                for machine, (cursors, state)
                in sorted(self.udf_states.items())
            } or None,
            "metrics": (self.snapshot_metrics()
                        if self.snapshot_metrics else None),
        }
        _write_atomic(self._path(SNAPSHOT_NAME), json.dumps(snapshot))

    def counts(self) -> list[int]:
        """Per-pattern match totals implied by the progress map."""
        totals = [0] * self.num_patterns
        for (pattern, _machine), (_roots, matches) in self.progress.items():
            if 0 <= pattern < self.num_patterns:
                totals[pattern] += matches
        return totals

    def stats(self) -> dict:
        return {
            "dir": self.directory,
            "every": self.every,
            "records": self.records_written,
            "flushes": self.flushes,
            "resumed": self.resumed,
            "resumed_entries": self.records_resumed,
            "resumed_roots": sum(
                roots for roots, _ in self.progress.values()
            ) if self.resumed else 0,
            "log_truncated": self.truncated,
        }

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)


class DurableRun:
    """One run's durability, the same for every backend: open the
    session, hand the machine loop its ``sink`` and ``resume`` cursors,
    flush on *every* exit (a structured failure or an exception must
    not drop cursors the run already received), publish the stats.
    Without ``checkpoint_dir`` each part is a no-op, so callers never
    branch on it.

    ``udf`` is the mergeable UDF whose state rides in the aggregates
    snapshot. The machines walk in lockstep, so one UDF's state at a
    machine's root-chunk boundary would also hold its peers' unfinished
    chunks, which a resume would then apply twice. So each machine
    drains into a copy of its own (``udfs``, made from ``udf`` as the
    run received it, as a process-backend worker's is), pickled with
    every cursor it logs; a resume restarts each copy from its
    machine's snapshot state and cursors, and :meth:`fold` merges the
    copies into ``udf`` once the machine loop is done.
    """

    def __init__(self, plan, graph, obs, udf=None):
        config = plan.config
        self.obs = obs
        self.session: Optional[CheckpointSession] = None
        self.sink = None
        self.resume: Optional[dict] = None
        self.udfs: Optional[dict] = None
        if config.checkpoint_dir is None:
            return
        session = self.session = CheckpointSession(
            config.checkpoint_dir, run_manifest(plan, graph),
            num_patterns=len(plan.patterns),
            every=config.checkpoint_every, resume=config.resume,
        )
        self.sink = session.record
        states = session.udf_states
        if udf is not None:
            blank = pickle.dumps(udf)
            self.udfs = {
                machine: pickle.loads(
                    states[machine][1] if machine in states else blank)
                for machine in range(plan.cluster_config.num_machines)
            }
            self.sink = self._record
        if config.resume:
            # Count-only runs trust the full log (counts are additive,
            # every intact record is usable). A UDF run resumes each
            # machine from the cursors its restored state covers, so
            # no chunk's UDF calls are dropped or applied twice (a UDF
            # job's groups are single patterns, so they always agree).
            self.resume = (
                _group_resume(plan.groups, session.history) if udf is None
                else {(pattern, machine): cursor
                      for machine, (cursors, _) in states.items()
                      for pattern, cursor in cursors.items()}
            )
        if obs.enabled:
            session.snapshot_metrics = obs.registry.dump

    def _record(self, machine: int, roots: int,
                matches: dict[int, int]) -> None:
        self.session.record(machine, roots, matches,
                            pickle.dumps(self.udfs[machine]))

    def fold(self, udf) -> None:
        """Merge every machine's UDF copy into ``udf``."""
        for machine in sorted(self.udfs or ()):
            udf.merge(self.udfs[machine])

    def __enter__(self) -> "DurableRun":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.session is not None:
            self.session.flush()

    def publish(self, report) -> None:
        """Attach ``extra["checkpoint"]`` and emit the counters."""
        if self.session is None:
            return
        stats = report.extra["checkpoint"] = self.session.stats()
        scope = self.obs.registry.scope()
        scope.counter(names.CHECKPOINT_RECORDS).inc(stats["records"])
        scope.counter(names.CHECKPOINT_FLUSHES).inc(stats["flushes"])
        scope.counter(names.CHECKPOINT_RESUMED_ROOTS).inc(
            stats["resumed_roots"]
        )


def _group_resume(groups, history: dict) -> dict:
    """The resume map of a logged run: per group and machine, the last
    root cursor every member pattern logged. A root chunk's lines are
    flushed together, but a torn tail may keep only some of them."""
    resume = {}
    machines = {machine for _, machine in history}
    for group in groups:
        for machine in machines:
            logs = [history.get((index, machine), {})
                    for index in group.members]
            common = set(logs[0]).intersection(*logs[1:])
            if common:
                roots = max(common)
                for index, log in zip(group.members, logs):
                    resume[(index, machine)] = (roots, log[roots])
    return resume


# ---------------------------------------------------------------------
# log line codec: "<crc32 hex> <json>\n"
# ---------------------------------------------------------------------
def _format_log_line(pattern: int, machine: int, roots: int,
                     matches: int) -> bytes:
    body = json.dumps(
        {"p": pattern, "m": machine, "r": roots, "c": matches},
        separators=(",", ":"),
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)


def _parse_log_line(line: bytes):
    """(pattern, machine, roots, matches), or None for a corrupt line."""
    parts = line.split(b" ", 1)
    if len(parts) != 2 or len(parts[0]) != 8:
        return None
    crc_text, body = parts
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(body)
        return (int(record["p"]), int(record["m"]),
                int(record["r"]), int(record["c"]))
    except (ValueError, KeyError, TypeError):
        return None
