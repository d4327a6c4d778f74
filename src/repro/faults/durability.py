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
    with the cursors that state covers (on the process backend, the
    state each worker shipped with its delta), and a metrics dump when
    observability is enabled.

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


def chaos_kill_threshold(kind: str, who=None, spec=None) -> int:
    """``n`` of ``REPRO_CHAOS=<kind>[:<who>]:<n>`` when the spec names
    this caller — a worker id, a query id — else 0. For the kill kinds
    ``n`` is the event to die at; ``query-sleep`` reads it as
    milliseconds. ``spec`` is a value of ``REPRO_CHAOS`` read earlier
    (a resident worker gets its job's); ``None`` reads it now."""
    if spec is None:
        spec = os.environ.get(CHAOS_ENV, "")
    *target, count = spec.split(":")
    if target != ([kind] if who is None else [kind, str(who)]):
        return 0
    try:
        return max(1, int(count))
    except ValueError:
        return 0


# ---------------------------------------------------------------------
# the progress ledger and the checkpoint session
# ---------------------------------------------------------------------
class ProgressLedger:
    """One run's progress, in memory. Per machine it keeps the last
    recorded UDF state with the cursors it covers, so UDF bytes and
    skipped work always describe the same prefix."""

    def __init__(self):
        #: absolute cursor per (pattern, machine): (roots, matches)
        self.progress: dict[tuple[int, int], tuple[int, int]] = {}
        #: every logged cursor per (pattern, machine): roots -> matches
        self.history: dict[tuple[int, int], dict[int, int]] = {}
        #: per machine, its UDF copy's last recorded state and the
        #: ``{pattern: (roots, matches)}`` cursors that state covers
        self.udf_states: dict[int, tuple[dict, bytes]] = {}

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
        the machine's UDF copy there."""
        for pattern, found in matches.items():
            self._advance(pattern, machine, roots_completed, found)
        if udf_state is not None:
            cursors = dict(self.udf_states.get(machine, ({}, b""))[0])
            cursors.update((pattern, (roots_completed, found))
                           for pattern, found in matches.items())
            self.udf_states[machine] = (cursors, udf_state)


class CheckpointSession(ProgressLedger):
    """One run's progress ledger, durable under ``--checkpoint-dir``.

    The caller owns the cadence contract: ``record`` once per completed
    root chunk, and the session makes every ``every``-th record
    durable; ``flush`` at the end of the run (:class:`DurableRun` does
    it on every exit) writes whatever is still buffered. The snapshot
    holds ``udf_states``, loaded from it on resume.
    ``snapshot_metrics`` may be set to a zero-argument callable
    returning the metrics dump (or None) each flush writes.
    """

    def __init__(self, directory: str, manifest: dict, num_patterns: int,
                 every: int = 1, resume: bool = False):
        super().__init__()
        self.directory = directory
        self.manifest = manifest
        self.num_patterns = num_patterns
        self.every = every
        self.resumed = resume
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
    def record(self, machine: int, roots_completed: int,
               matches: dict[int, int],
               udf_state: Optional[bytes] = None) -> None:
        """:meth:`ProgressLedger.record`, buffered for the log and
        flushed on cadence."""
        super().record(machine, roots_completed, matches, udf_state)
        self._buffer.extend((pattern, machine, roots_completed, found)
                            for pattern, found in matches.items())
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
    """One run's progress ledger, the same for every backend, and the
    one way any machine is started.

    Every completed root chunk — from the inline loop, or a worker's
    ``CKPT`` delta in the process backend's parent — is recorded with
    its absolute cursor and the pickled state of its machine's UDF
    copy; :meth:`start` turns the ledger into machines' resume cursors
    and UDF copies, for a fresh run, a resume, a worker's spawn, a
    survivor's replay and the parent's fallback alike. The ledger is a
    :class:`CheckpointSession` under ``checkpoint_dir``, flushed on
    *every* exit (a structured failure or an exception must not drop
    received cursors), else in memory, and then :attr:`sink`, the
    inline loop's, is None: nothing could restart it.

    The machines walk in lockstep, so one UDF's state at a machine's
    root-chunk boundary would also hold its peers' unfinished chunks,
    which a restart would apply twice: each machine drains into a copy
    of its own, made from ``udf`` as the run received it, and
    :meth:`fold` merges the copies into ``udf`` at the end. A UDF
    without ``merge`` is shared instead (inline, without
    ``checkpoint_dir`` only).
    """

    def __init__(self, plan, graph, obs, udf=None):
        config = plan.config
        directory = config.checkpoint_dir
        self.plan = plan
        self.obs = obs
        self.udf = udf
        self.ledger = ProgressLedger() if directory is None else \
            CheckpointSession(
                directory, run_manifest(plan, graph),
                num_patterns=len(plan.patterns),
                every=config.checkpoint_every, resume=config.resume,
            )
        self.sink = None if directory is None else self.ledger.record
        #: the state every machine's copy starts from (None: no copies)
        self._blank = (pickle.dumps(udf)
                       if callable(getattr(udf, "merge", None)) else None)
        if directory is not None and obs.enabled:
            self.ledger.snapshot_metrics = obs.registry.dump

    def start(self, machines) -> tuple[dict, Optional[dict]]:
        """``(resume map, {machine: UDF copy})`` for ``machines``: a
        count-only run (no copies) resumes each group from the last
        root cursor every member recorded (counts are additive); a UDF
        run each machine from the cursors its recorded state covers,
        its copy restored from that state, so no chunk's UDF calls are
        dropped or applied twice (a UDF job's groups are single
        patterns, so they always agree)."""
        machines = set(machines)
        states = self.ledger.udf_states
        if self.udf is None:
            resume, udfs = _group_resume(
                self.plan.groups, self.ledger.history), None
        else:
            resume = {(pattern, machine): cursor
                      for machine, (cursors, _) in states.items()
                      for pattern, cursor in cursors.items()}
            udfs = {machine: self.udf if self._blank is None else
                    pickle.loads(states[machine][1] if machine in states
                                 else self._blank)
                    for machine in machines}
        return {key: cursor for key, cursor in resume.items()
                if key[1] in machines}, udfs

    def fold(self, udfs: Optional[dict]) -> None:
        """Merge each machine's UDF copy into the run's UDF, once."""
        if self._blank is not None:
            for machine in sorted(udfs):
                self.udf.merge(udfs[machine])

    def __enter__(self) -> "DurableRun":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.sink is not None:
            self.ledger.flush()

    def publish(self, report) -> None:
        """Attach ``extra["checkpoint"]`` and emit the counters."""
        if self.sink is None:
            return
        stats = report.extra["checkpoint"] = self.ledger.stats()
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
