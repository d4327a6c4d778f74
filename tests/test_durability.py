"""Durable checkpoint/resume (docs/faults.md, "Durability").

Covers the on-disk session itself (manifest fingerprinting, log codec,
truncation tolerance) and the engine-level contract: a run checkpointed
under ``--checkpoint-dir`` and resumed with ``--resume`` reproduces the
uninterrupted run's counts bit-identically. Real ``SIGKILL``
mid-run scenarios live in ``tests/test_exec.py`` (subprocess-based,
marked ``exec_faults``) and ``benchmarks/chaos.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import ClusterConfig
from repro.core import EngineConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.faults.durability import (
    CheckpointSession,
    _format_log_line,
    _parse_log_line,
    run_manifest,
)
from repro.graph import dataset
from repro.patterns import catalog
from repro.systems import KAutomine

pytestmark = pytest.mark.faults

_CLUSTER = ClusterConfig(num_machines=4)


def _mico():
    return dataset("mico", scale=0.3)


def _manifest(graph=None, config=None, pattern=None):
    graph = graph if graph is not None else _mico()
    config = config or EngineConfig()
    system = KAutomine(graph, _CLUSTER, engine_config=config,
                       graph_name="mico")
    schedule = system.build_schedule(pattern or catalog.clique(3),
                                     induced=False)
    plan = system.engine.plan([schedule], None, "k-automine", "test", "mico")
    return run_manifest(plan, graph)


# ======================================================================
# log line codec
# ======================================================================
def test_log_line_codec_round_trip():
    line = _format_log_line(2, 3, 17, 940)
    assert line.endswith(b"\n")
    assert _parse_log_line(line.rstrip(b"\n")) == (2, 3, 17, 940)


@pytest.mark.parametrize("corrupt", [
    b"",                                  # empty
    b"deadbeef",                          # no body
    b"nothexno {}",                       # unparseable CRC
    b'00000000 {"p":1,"m":0,"r":2,"c":3}',  # CRC mismatch
    b'xxxxxxxx {"p":1,"m":0,"r":2,"c":3}',  # bad CRC text
])
def test_log_line_codec_rejects_corruption(corrupt):
    assert _parse_log_line(corrupt) is None


def test_log_line_codec_rejects_torn_tail():
    line = _format_log_line(0, 1, 5, 123).rstrip(b"\n")
    assert _parse_log_line(line[:-3]) is None  # kill mid-append


# ======================================================================
# session: record / flush / resume
# ======================================================================
def test_session_round_trip(tmp_path):
    directory = str(tmp_path)
    manifest = _manifest()
    session = CheckpointSession(directory, manifest, num_patterns=1)
    session.record(0, 0, 2, 10)
    session.record(0, 0, 5, 25)   # absolute cursor supersedes
    session.record(0, 2, 3, 7)
    session.flush()
    assert session.records_written == 3
    assert session.flushes >= 1

    resumed = CheckpointSession(directory, manifest, num_patterns=1,
                                resume=True)
    assert resumed.progress == {(0, 0): (5, 25), (0, 2): (3, 7)}
    assert resumed.counts() == [32]
    assert not resumed.truncated
    assert resumed.stats()["resumed_entries"] == 2


def test_session_cadence_buffers_between_flushes(tmp_path):
    session = CheckpointSession(str(tmp_path), _manifest(),
                                num_patterns=1, every=3)
    session.record(0, 0, 1, 1)
    session.record(0, 0, 2, 2)
    assert session.flushes == 0           # buffered, not yet durable
    assert not os.path.exists(tmp_path / "chunks.log")
    session.record(0, 0, 3, 3)
    assert session.flushes == 1           # third record crossed cadence
    assert session.records_written == 3


def test_resume_of_resume_is_idempotent(tmp_path):
    directory = str(tmp_path)
    manifest = _manifest()
    first = CheckpointSession(directory, manifest, num_patterns=1)
    first.record(0, 1, 4, 40)
    first.flush()
    second = CheckpointSession(directory, manifest, num_patterns=1,
                               resume=True)
    second.record(0, 1, 9, 90)            # keep going past the resume
    second.flush()
    third = CheckpointSession(directory, manifest, num_patterns=1,
                              resume=True)
    # absolute cursors: replaying both appended records lands on the
    # later one, no compaction needed
    assert third.progress == {(0, 1): (9, 90)}


# ======================================================================
# stale-manifest rejection
# ======================================================================
def test_resume_refuses_missing_manifest(tmp_path):
    with pytest.raises(ConfigurationError, match="nothing to resume"):
        CheckpointSession(str(tmp_path), _manifest(), num_patterns=1,
                          resume=True)


def test_resume_refuses_stale_manifest(tmp_path):
    directory = str(tmp_path)
    CheckpointSession(directory, _manifest(), num_patterns=1)
    changed_graph = _manifest(graph=dataset("mico", scale=0.2))
    with pytest.raises(ConfigurationError, match="stale checkpoint"):
        CheckpointSession(directory, changed_graph, num_patterns=1,
                          resume=True)
    changed_pattern = _manifest(pattern=catalog.chain(3))
    with pytest.raises(ConfigurationError, match="schedules"):
        CheckpointSession(directory, changed_pattern, num_patterns=1,
                          resume=True)
    changed_knob = _manifest(config=EngineConfig(chunk_bytes=1024))
    with pytest.raises(ConfigurationError, match="chunk_bytes"):
        CheckpointSession(directory, changed_knob, num_patterns=1,
                          resume=True)
    # the counting strategy decides what a cursor's matches mean: an
    # IEP cursor holds the restriction-free numerator
    changed_counting = _manifest(config=EngineConfig(counting="iep"))
    with pytest.raises(ConfigurationError, match=r"engine\.counting"):
        CheckpointSession(directory, changed_counting, num_patterns=1,
                          resume=True)


@pytest.mark.parametrize("saved_format,engine_extra", [
    (99, {}),
    # a manifest written before ``extend_mode`` left EngineConfig: it
    # must be refused by its version, not trip over the unknown field
    (2, {"extend_mode": "batched"}),
])
def test_resume_refuses_format_mismatch(tmp_path, saved_format,
                                        engine_extra):
    directory = str(tmp_path)
    manifest = _manifest()
    CheckpointSession(directory, manifest, num_patterns=1)
    path = tmp_path / "manifest.json"
    saved = json.loads(path.read_text())
    assert saved["format"] == 3
    saved["format"] = saved_format
    saved["engine"].update(engine_extra)
    path.write_text(json.dumps(saved))
    with pytest.raises(
        ConfigurationError,
        match=f"checkpoint format {saved_format} does not match "
              f"this build's format 3",
    ):
        CheckpointSession(directory, manifest, num_patterns=1,
                          resume=True)


# ======================================================================
# truncation tolerance
# ======================================================================
def test_resume_tolerates_torn_log_tail(tmp_path):
    directory = str(tmp_path)
    manifest = _manifest()
    session = CheckpointSession(directory, manifest, num_patterns=1)
    session.record(0, 0, 3, 30)
    session.record(0, 1, 2, 20)
    session.flush()
    # a SIGKILL mid-append leaves a torn final line
    with open(tmp_path / "chunks.log", "ab") as handle:
        handle.write(_format_log_line(0, 2, 9, 99)[:-4])

    resumed = CheckpointSession(directory, manifest, num_patterns=1,
                                resume=True)
    assert resumed.truncated
    assert resumed.stats()["log_truncated"]
    # everything before the torn line is trusted, the tail is not
    assert resumed.progress == {(0, 0): (3, 30), (0, 1): (2, 20)}


# ======================================================================
# configuration gates
# ======================================================================
def test_resume_requires_checkpoint_dir():
    with pytest.raises(ConfigurationError, match="resume"):
        EngineConfig(resume=True)


def test_checkpoints_exclude_fault_plans():
    with pytest.raises(ConfigurationError):
        EngineConfig(checkpoint_dir="/tmp/x",
                     faults=FaultPlan.parse("crash:m1@chunk=2"))


def test_checkpoint_every_validated():
    with pytest.raises(ConfigurationError, match="checkpoint_every"):
        EngineConfig(checkpoint_dir="/tmp/x", checkpoint_every=0)


# ======================================================================
# engine-level resume: bit-identical counts
# ======================================================================
def test_inline_resume_skips_completed_chunks(tmp_path):
    graph = _mico()
    oracle = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = oracle.count_pattern(catalog.clique(3))

    directory = str(tmp_path)
    config = EngineConfig(checkpoint_dir=directory)
    first = KAutomine(graph, _CLUSTER, engine_config=config,
                      graph_name="mico")
    checkpointed = first.count_pattern(catalog.clique(3))
    assert checkpointed.counts == expected.counts
    assert checkpointed.extra["checkpoint"]["records"] > 0

    # resume after the full run: every chunk is skipped, yet the
    # final counts are reproduced bit-identically from the log
    resumed_config = EngineConfig(checkpoint_dir=directory, resume=True)
    second = KAutomine(graph, _CLUSTER, engine_config=resumed_config,
                       graph_name="mico")
    resumed = second.count_pattern(catalog.clique(3))
    assert resumed.counts == expected.counts
    stats = resumed.extra["checkpoint"]
    assert stats["resumed"]
    assert stats["resumed_roots"] > 0


def test_inline_resume_with_udf_state(tmp_path):
    graph = dataset("mico", scale=0.25, labeled=True)
    patterns = [catalog.chain(2), catalog.chain(3)]
    oracle = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected, _ = oracle.mni_supports(patterns)

    directory = str(tmp_path)
    config = EngineConfig(checkpoint_dir=directory)
    first = KAutomine(graph, _CLUSTER, engine_config=config,
                      graph_name="mico")
    got, _ = first.mni_supports(patterns)
    assert got == expected

    resumed_config = EngineConfig(checkpoint_dir=directory, resume=True)
    second = KAutomine(graph, _CLUSTER, engine_config=resumed_config,
                       graph_name="mico")
    resumed, _ = second.mni_supports(patterns)
    # the UDF state came back from the snapshot, not from re-running
    assert resumed == expected


def test_process_backend_resume_counts_identical(tmp_path):
    from repro.exec import ProcessBackend

    graph = _mico()
    oracle = KAutomine(graph, _CLUSTER, graph_name="mico")
    expected = oracle.count_pattern(catalog.clique(3))

    directory = str(tmp_path)
    config = EngineConfig(checkpoint_dir=directory)
    first = KAutomine(graph, _CLUSTER, engine_config=config,
                      graph_name="mico", backend=ProcessBackend(workers=2))
    checkpointed = first.count_pattern(catalog.clique(3))
    assert checkpointed.counts == expected.counts
    assert checkpointed.extra["checkpoint"]["records"] > 0
    # the clean teardown cleared the segment ledger
    assert not os.path.exists(tmp_path / "shm.json")

    # a checkpoint written by the process backend resumes inline — the
    # manifest is backend-independent by design
    resumed_config = EngineConfig(checkpoint_dir=directory, resume=True)
    second = KAutomine(graph, _CLUSTER, engine_config=resumed_config,
                       graph_name="mico")
    resumed = second.count_pattern(catalog.clique(3))
    assert resumed.counts == expected.counts


def test_process_backend_refuses_udf_checkpointing(tmp_path):
    from repro.exec import ProcessBackend

    graph = dataset("mico", scale=0.25, labeled=True)
    config = EngineConfig(checkpoint_dir=str(tmp_path))
    proc = KAutomine(graph, _CLUSTER, engine_config=config,
                     graph_name="mico", backend=ProcessBackend(workers=2))
    with pytest.raises(ConfigurationError, match="checkpoint"):
        proc.mni_supports([catalog.chain(2)])


# ======================================================================
# the counting strategy is part of the run's identity
# ======================================================================
def test_resume_refuses_changed_counting_strategy(tmp_path):
    """Checkpointed cursors under ``enumerate`` hold restricted counts;
    resuming them under ``iep`` used to divide those by the stabilizer
    order (star(3): 19380 -> 3230, outcome OK)."""
    from repro.systems import KGraphPi

    graph = dataset("mico", 0.05)
    cluster = ClusterConfig(num_machines=2)
    directory = str(tmp_path)
    first = KGraphPi(graph, cluster,
                     engine_config=EngineConfig(checkpoint_dir=directory))
    fresh = first.count_pattern(catalog.star(3))
    assert fresh.counts == 19380
    resumed = KGraphPi(graph, cluster, engine_config=EngineConfig(
        checkpoint_dir=directory, resume=True, counting="iep"))
    with pytest.raises(ConfigurationError, match="engine.counting"):
        resumed.count_pattern(catalog.star(3))


# ======================================================================
# a killed run resumes identically wherever it resumes
# ======================================================================
@pytest.mark.parametrize("counting", ["enumerate", "iep"])
def test_killed_run_resumes_identically_on_every_backend(
    tmp_path, counting, comparable
):
    import shutil

    from repro.exec import InlineBackend, ProcessBackend

    graph = dataset("mico", 0.05)
    # chain(5), the wedge and the star end in one-list steps, which a
    # counting drain answers off the CSR (under "enumerate")
    patterns = [catalog.clique(3), catalog.chain(3), catalog.star(3),
                catalog.chain(5)]
    knobs = dict(counting=counting, chunk_bytes=1024,
                 auto_fit_chunks=False)

    def census(backend=None, **durability):
        system = KAutomine(graph, _CLUSTER, graph_name="mico",
                           engine_config=EngineConfig(**knobs, **durability),
                           backend=backend)
        return system.count_patterns(patterns, induced=False)

    oracle = census()
    assert comparable(census(ProcessBackend(workers=2))) == comparable(oracle)
    seed = tmp_path / "seed"
    # checkpointing observes the run, it never changes it
    assert comparable(census(checkpoint_dir=str(seed))) == comparable(oracle)
    # a SIGKILL between two flushes leaves a prefix of the log
    log = seed / "chunks.log"
    records = log.read_bytes().splitlines(keepends=True)
    assert len(records) > 8
    log.write_bytes(b"".join(records[:len(records) // 2]))

    resumed = {}
    for label, backend in (
        ("bare", None), ("object", InlineBackend()),
        ("w1", ProcessBackend(workers=1)), ("w2", ProcessBackend(workers=2)),
        ("w3", ProcessBackend(workers=3)),
    ):
        directory = tmp_path / label
        shutil.copytree(seed, directory)
        report = census(backend, checkpoint_dir=str(directory), resume=True)
        assert report.counts == oracle.counts, label
        assert report.extra["checkpoint"]["resumed_roots"] > 0, label
        resumed[label] = comparable(report)
    # skipped chunks carry no timing, so a resumed report differs from
    # the oracle's — but identically so on every backend
    assert resumed["bare"]["simulated_seconds"] < oracle.simulated_seconds
    for label, document in resumed.items():
        assert document == resumed["bare"], label
