"""Chaos harness: real SIGKILLs against durable checkpoints.

Every fault elsewhere in the repo is either simulated (fault plans) or
scoped to one worker process (``tests/test_exec.py``). This harness
kills *real processes mid-run* — workers and the whole parent — and
asserts the durability contract of docs/faults.md end to end:

- a run killed between checkpoints restarts with ``--resume``, skips
  every completed root chunk, and reproduces the clean oracle's counts
  bit-identically (inline and process backends, including a
  kill-resume-kill-resume double fault, and a fused census whose root
  chunks checkpoint every pattern of a group at once);
- a run losing a worker to SIGKILL under ``--on-worker-death recover``
  completes through surviving-*worker* redistribution — no inline
  fallback — with identical counts, and an FSM run so killed in every
  round prints the inline run's frequent patterns and supports (its
  survivors restart the dead worker's machines from the MNI domains
  its deltas shipped);
- a worker killed *inside* a message — half of it written to its
  result pipe — is an ordinary death
  (docs/execution.md, "Real-process failure semantics"): ``RECOVERED``
  with exact counts under ``recover``, ``CRASHED`` ahead of the
  heartbeat under ``fail``, and the process that ran it exits leaving
  no child and no shared-memory segment behind.

Kill points are seed-deterministic, not timing races: the
``REPRO_CHAOS`` environment hooks (``parent-kill:<n>``,
``worker-kill:<wid>:<n>``, ``worker-kill-midsend:<wid>:<n>``; see
``repro.faults.durability``, ``repro.exec.worker`` and
``repro.exec.lane``) fire at exact
flush/delta/message ordinals, so every scenario reproduces
byte-for-byte.

``make chaos-check`` runs it (``pytest benchmarks/chaos.py``); for a
liveness change, loop the torn-message scenarios with the service's
kill-before-pickup test (docs/faults.md, "Durability", gives the loop).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the chaos job: small enough that a full matrix stays in CI budget,
#: chunked finely enough (1 KiB chunks) that every machine emits
#: several checkpointable root chunks
JOB = ("--graph", "mico", "--scale", "0.05", "--machines", "4",
       "--chunk-bytes", "1024", "--no-auto-fit", "--pattern", "clique3")

#: the census job: a fused 4-motif census under IEP (docs/performance.md,
#: "Census fusion"), whose root chunks log one cursor per group member
CENSUS_JOB = ("motifs", "--graph", "mico", "--scale", "0.3",
              "--machines", "4", "--chunk-bytes", "1024", "--no-auto-fit",
              "--size", "4", "--counting", "iep")

#: the FSM job: three rounds on labeled mico, whose MNI domains a
#: worker ships with every delta
FSM_JOB = ("fsm", "--graph", "mico", "--scale", "0.3", "--threshold", "25",
           "--machines", "4", "--chunk-bytes", "1024", "--no-auto-fit")

CLI_TIMEOUT = 240


def _env(chaos=None):
    """The subprocess environment: in-tree sources, and only the chaos
    hook the scenario asks for."""
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return env


def run_cli(extra, chaos=None, check=True, timeout=CLI_TIMEOUT,
            job=("count", *JOB)):
    """One ``python -m repro`` run of a chaos job (the ``count`` one by
    default), in a process group of its own (``proc.pid`` leads it) so
    that whatever it leaves behind can be found afterwards."""
    args = [sys.executable, "-m", "repro", *job,
            "--metrics", "json", *extra]
    with subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(chaos), cwd=str(REPO_ROOT), start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the run, or an orphan of it holding its stdout, hangs
            os.killpg(child.pid, signal.SIGKILL)
            raise AssertionError(
                f"chaos run ({chaos}) still alive after {timeout}s"
            ) from None
    proc = subprocess.CompletedProcess(args, child.returncode, out, err)
    proc.pid = child.pid
    if check and proc.returncode != 0:
        raise AssertionError(
            f"chaos run failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc


def report_of(proc):
    return json.loads(proc.stdout)["report"]


def clean_oracle():
    """The uninterrupted run every scenario's counts must match; its
    ``deltas`` are the CKPT messages each machine ships (one per
    completed root chunk), which place a kill on a worker's RESULT."""
    document = json.loads(run_cli([]).stdout)
    shipped = document["metrics"]["counters"]["recovery.checkpoints"]
    return {**document["report"],
            "deltas": [shipped[f"machine={m}"] for m in range(4)]}


def _alive_in_group(pgid):
    """Pids of the live (not zombie) processes of one process group."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited meanwhile
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if state != "Z" and int(group) == pgid:
            alive.append(int(entry))
    return alive


def owned_segments(pid):
    """Names of the shared-memory segments process ``pid`` created and
    has not unlinked (a segment's name carries its creator's pid)."""
    return sorted(path.name
                  for path in Path("/dev/shm").glob(f"repro_{pid:x}_*"))


def assert_nothing_left(proc):
    """The finished run left no process (orphans keep its process
    group) and no shared-memory segment."""
    deadline = time.monotonic() + 5.0
    while _alive_in_group(proc.pid):  # its resource tracker exits last
        assert time.monotonic() < deadline, (
            f"run {proc.pid} left {_alive_in_group(proc.pid)} behind")
        time.sleep(0.02)
    leaked = owned_segments(proc.pid)
    assert not leaked, f"segments leaked: {leaked}"


def _assert_killed(proc):
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL ({-signal.SIGKILL}), got {proc.returncode}:\n"
        f"{proc.stdout}\n{proc.stderr}")


# ---------------------------------------------------------------------
# scenarios — each returns a JSON-able summary row and raises on a
# violated invariant
# ---------------------------------------------------------------------
def scenario_parent_kill_inline(oracle, directory):
    """SIGKILL the inline run after its 2nd flush, resume, compare."""
    killed = run_cli(["--checkpoint-dir", directory],
                     chaos="parent-kill:2", check=False)
    _assert_killed(killed)
    resumed = report_of(run_cli(
        ["--checkpoint-dir", directory, "--resume"]))
    assert resumed["counts"] == oracle["counts"], (
        resumed["counts"], oracle["counts"])
    assert resumed["extra"]["checkpoint"]["resumed_roots"] > 0


def scenario_parent_kill_census(directory, backend=()):
    """The parent-kill scenario on the fused census: SIGKILL after the
    2nd flush, resume, and the census counts equal the clean run's."""
    oracle = report_of(run_cli([], job=CENSUS_JOB))
    killed = run_cli(["--checkpoint-dir", directory, *backend],
                     chaos="parent-kill:2", check=False, job=CENSUS_JOB)
    _assert_killed(killed)
    resumed = report_of(run_cli(
        ["--checkpoint-dir", directory, "--resume", *backend],
        job=CENSUS_JOB))
    assert resumed["counts"] == oracle["counts"], (
        resumed["counts"], oracle["counts"])
    assert resumed["extra"]["checkpoint"]["resumed_roots"] > 0


def scenario_parent_kill_resume_kill(oracle, directory):
    """Double fault: the *resumed* run is killed too, then resumed."""
    _assert_killed(run_cli(["--checkpoint-dir", directory],
                           chaos="parent-kill:1", check=False))
    # the resumed run redoes the unfinished tail and dies again at its
    # own 1st flush — absolute cursors make the log idempotent, so no
    # compaction is needed between the two faults
    _assert_killed(run_cli(["--checkpoint-dir", directory, "--resume"],
                           chaos="parent-kill:1", check=False))
    resumed = report_of(run_cli(
        ["--checkpoint-dir", directory, "--resume"]))
    assert resumed["counts"] == oracle["counts"], (
        resumed["counts"], oracle["counts"])


def scenario_parent_kill_process_backend(oracle, directory):
    """SIGKILL the whole process-backend fleet's parent; resume reaps
    the leaked shared-memory segments and finishes the counts."""
    killed = run_cli(
        ["--checkpoint-dir", directory, "--backend", "process",
         "--workers", "2"],
        chaos="parent-kill:2", check=False)
    _assert_killed(killed)
    ledger = Path(directory) / "shm.json"
    assert ledger.exists(), "killed parent should leave its shm ledger"
    leaked = json.loads(ledger.read_text())["segments"]
    resumed = report_of(run_cli(
        ["--checkpoint-dir", directory, "--backend", "process",
         "--workers", "2", "--resume"]))
    assert resumed["counts"] == oracle["counts"], (
        resumed["counts"], oracle["counts"])
    assert not ledger.exists(), "clean exit should clear the ledger"
    still_alive = [name for name in leaked
                   if os.path.exists(f"/dev/shm/{name}")]
    assert not still_alive, f"segments leaked: {still_alive}"


def scenario_worker_kill_redistributes(oracle, workers):
    """SIGKILL worker 1 after its 1st shipped delta; survivors must
    replay its machines (no inline fallback) to identical counts."""
    report = report_of(run_cli(
        ["--backend", "process", "--workers", str(workers),
         "--on-worker-death", "recover", "--heartbeat", "0.2"],
        chaos="worker-kill:1:1"))
    assert report["counts"] == oracle["counts"], (
        report["counts"], oracle["counts"])
    assert report["failure"]["outcome"] == "RECOVERED", report["failure"]
    redistribution = report["extra"]["exec"]["redistribution"]
    assert redistribution["inline_fallback"] == 0, redistribution
    assert redistribution["machines"] >= 1


def scenario_fsm_worker_kill(workers, kill_after):
    """SIGKILL worker 1 after its ``kill_after``-th delta of every FSM
    round; the printed frequent patterns and supports must equal the
    inline run's, and the outcome be ``RECOVERED``."""
    def printed(*extra, chaos=None):
        lines = run_cli(["--metrics", "off", *extra], chaos=chaos,
                        job=FSM_JOB).stdout.splitlines()
        return lines[:-1], lines[-1]

    expected, _ = printed()
    got, outcome = printed(
        "--backend", "process", "--workers", str(workers),
        "--on-worker-death", "recover", "--heartbeat", "0.2",
        chaos=f"worker-kill:1:{kill_after}")
    assert got == expected, (got, expected)
    assert outcome.startswith("outcome: RECOVERED"), outcome


#: where a worker is killed inside a message: (REPRO_CHAOS kind, which
#: of worker 1's messages) — its first result-pipe message (a CKPT
#: delta), its last (the RESULT)
TORN_MESSAGES = (("worker-kill-midsend", "first"),
                 ("worker-kill-midsend", "result"))


def scenario_worker_torn_message(oracle, workers, kind, which,
                                 policy="recover"):
    """SIGKILL worker 1 with half a message written: the length prefix
    and half the bytes are in the pipe, the rest never comes. The
    reader must see a death, not wait for the tail."""
    ordinal = 1 if which == "first" else 1 + sum(
        oracle["deltas"][machine] for machine in range(4)
        if machine % workers == 1)
    # under ``fail`` the heartbeat is long on purpose: a death is an
    # EOF, reported ahead of it
    heartbeat = 0.2 if policy == "recover" else 2.0
    proc = run_cli(
        ["--backend", "process", "--workers", str(workers),
         "--on-worker-death", policy, "--heartbeat", str(heartbeat)],
        chaos=f"{kind}:1:{ordinal}", check=False, timeout=30)
    report = report_of(proc)
    exec_extra = report["extra"]["exec"]
    if policy == "fail":
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert report["failure"]["outcome"] == "CRASHED", report["failure"]
        assert exec_extra["wall_seconds"] < 2 * heartbeat, exec_extra
    else:
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert report["failure"]["outcome"] == "RECOVERED", (
            report["failure"])
        assert report["counts"] == oracle["counts"], (
            report["counts"], oracle["counts"])
        redistribution = exec_extra["redistribution"]
        assert redistribution["inline_fallback"] == 0, redistribution
        if (kind, which) == ("worker-kill-midsend", "first") \
                and exec_extra["worker_deaths"] == 1:
            # the torn delta was all the dead worker sent and nobody
            # else was lost: nothing resumes, the replay is whole
            assert report["simulated_seconds"] == \
                oracle["simulated_seconds"]
    assert_nothing_left(proc)


def scenario_serve_sigkill_reaps_segments(directory):
    """SIGKILL a resident mining server mid-session; its shm ledger
    must survive, and the next server started with the same
    ``--checkpoint-dir`` must reap the leaked segments and serve
    queries normally (docs/service.md)."""
    env = _env()
    args = [sys.executable, "-m", "repro", "serve", "--graph", "mico",
            "--scale", "0.05", "--machines", "2", "--cores", "2",
            "--workers", "1", "--checkpoint-dir", directory,
            "--metrics", "json"]
    proc = subprocess.Popen(
        args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=str(REPO_ROOT),
    )
    try:
        hello = json.loads(proc.stdout.readline())
        assert hello["service"] == "ready", hello
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive
            proc.kill()
    _assert_killed(proc)
    ledger = Path(directory) / "shm.json"
    assert ledger.exists(), "SIGKILLed server should leave its shm ledger"
    leaked = json.loads(ledger.read_text())["segments"]
    assert leaked, "a 1-worker server must have exported shm segments"

    # a restarted server with the same checkpoint dir reaps the leak
    # before loading its own graph, then serves normally
    second = subprocess.run(
        args, input='{"id": "after", "app": "triangle"}\n',
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=CLI_TIMEOUT,
    )
    assert second.returncode == 0, (
        f"restarted server failed ({second.returncode}):\n"
        f"{second.stdout}\n{second.stderr}")
    hello2, report, summary = [
        json.loads(line) for line in second.stdout.splitlines()
        if line.strip()
    ]
    assert hello2["service"] == "ready"
    assert report["id"] == "after" and report["outcome"] == "OK"
    assert summary["ok"] == 1, summary
    assert not ledger.exists(), "clean shutdown should clear the ledger"
    still_alive = [name for name in leaked
                   if os.path.exists(f"/dev/shm/{name}")]
    assert not still_alive, f"segments leaked: {still_alive}"


# ---------------------------------------------------------------------
# pytest entry points (make chaos-check)
# ---------------------------------------------------------------------
import pytest

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def oracle():
    return clean_oracle()


def test_chaos_parent_kill_inline(oracle, tmp_path):
    scenario_parent_kill_inline(oracle, str(tmp_path))


@pytest.mark.parametrize("backend", [(), ("--backend", "process",
                                           "--workers", "2")],
                         ids=["inline", "process"])
def test_chaos_parent_kill_census(tmp_path, backend):
    scenario_parent_kill_census(str(tmp_path), backend)


def test_chaos_parent_kill_resume_kill(oracle, tmp_path):
    scenario_parent_kill_resume_kill(oracle, str(tmp_path))


def test_chaos_parent_kill_process_backend(oracle, tmp_path):
    scenario_parent_kill_process_backend(oracle, str(tmp_path))


@pytest.mark.parametrize("workers", [2, 4])
def test_chaos_worker_kill_redistributes(oracle, workers):
    scenario_worker_kill_redistributes(oracle, workers)


@pytest.mark.parametrize("kill_after", [1, 2, 3])
@pytest.mark.parametrize("workers", [2, 3])
def test_chaos_fsm_worker_kill(workers, kill_after):
    scenario_fsm_worker_kill(workers, kill_after)


@pytest.mark.parametrize("policy", ["recover", "fail"])
@pytest.mark.parametrize("kind,which", TORN_MESSAGES)
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_chaos_worker_torn_message(oracle, workers, kind, which, policy):
    scenario_worker_torn_message(oracle, workers, kind, which, policy)


def test_chaos_serve_sigkill_reaps_segments(tmp_path):
    scenario_serve_sigkill_reaps_segments(str(tmp_path))
