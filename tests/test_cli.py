"""Tests for the command-line interface (python -m repro)."""

import dataclasses
import json

import pytest

from repro.__main__ import _parse_pattern, main
from repro.patterns import catalog
from repro.service import ServiceConfig


def test_parse_catalog_patterns():
    assert _parse_pattern("clique4") == catalog.clique(4)
    assert _parse_pattern("chain3") == catalog.chain(3)
    assert _parse_pattern("cycle5") == catalog.cycle(5)
    assert _parse_pattern("star3") == catalog.star(3)
    assert _parse_pattern("house") == catalog.house()
    assert _parse_pattern("tailed_triangle") == catalog.tailed_triangle()


def test_parse_explicit_edge_list():
    pattern = _parse_pattern("0-1,1-2,0-2")
    assert pattern == catalog.clique(3)


def test_parse_rejects_garbage():
    with pytest.raises(SystemExit):
        _parse_pattern("dodecahedron")


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "mico" in out and "wdc" in out


def test_count_command(capsys):
    code = main([
        "count", "--graph", "mico", "--scale", "0.3",
        "--pattern", "clique3", "--machines", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "count=" in out
    assert "breakdown" in out


def test_count_oriented(capsys):
    code = main([
        "count", "--graph", "mico", "--scale", "0.3",
        "--pattern", "clique3", "--oriented", "--machines", "2",
    ])
    assert code == 0


def test_motifs_command(capsys):
    code = main([
        "motifs", "--graph", "mico", "--scale", "0.3", "--size", "3",
        "--machines", "2", "--system", "k-graphpi",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated" in out


def test_fsm_command(capsys):
    code = main([
        "fsm", "--graph", "mico", "--scale", "0.3", "--threshold", "25",
        "--machines", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "frequent patterns" in out


def test_experiment_command(capsys):
    code = main(["experiment", "table7", "--scale", "0.15"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 7" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------
# the serve subcommand (docs/service.md)
# ---------------------------------------------------------------------
SERVE_BASE = ["serve", "--graph", "mico", "--scale", "0.2",
              "--machines", "2", "--cores", "2"]


def _write_trace(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_serve_happy_path(tmp_path, capsys):
    trace = _write_trace(tmp_path, [
        '{"id": "t", "app": "triangle"}',
        '{"id": "c", "app": "count", "pattern": "clique4"}',
    ])
    code = main(SERVE_BASE + ["--input", trace])
    assert code == 0
    out = capsys.readouterr().out
    assert "service: ready graph=mico" in out
    assert "outcome: OK query=t" in out
    assert "outcome: OK query=c" in out
    assert "service session: 2 queries (ok=2 rejected=0 failed=0)" in out


def test_serve_bad_query_fails_itself_not_the_session(tmp_path, capsys):
    trace = _write_trace(tmp_path, [
        '{"id": "good", "app": "triangle"}',
        "this is not json",
        '{"id": "bad", "pattern": "dodecahedron"}',
    ])
    code = main(SERVE_BASE + ["--input", trace])
    assert code == 1  # rejected queries are fatal outcomes
    out = capsys.readouterr().out
    assert "outcome: OK query=good" in out
    assert out.count("outcome: REJECTED") == 2
    assert "service session: 3 queries (ok=1 rejected=2 failed=0)" in out


def test_serve_json_mode_streams_reports(tmp_path, capsys):
    trace = _write_trace(tmp_path, ['{"id": "t", "app": "triangle"}'])
    code = main(SERVE_BASE + ["--metrics", "json", "--input", trace])
    assert code == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()
             if line.strip()]
    hello, report, summary = lines
    assert hello["service"] == "ready"
    assert hello["graph"] == "mico" and hello["workers"] == 0
    assert report["id"] == "t" and report["outcome"] == "OK"
    assert report["counts"] == 1562
    assert report["metrics"]["counters"]
    assert summary["service"] == "summary" and summary["ok"] == 1
    assert "service.queries" in summary["metrics"]["counters"]
    # outcome lines move to stderr in json mode
    assert "outcome: OK query=t" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--workers", "-3"], "workers must be >= 0"),
    (["--memory-kb", "0"], "memory_kb must be positive"),
    (["--resident-mb", "0"], "resident_mb must be positive"),
    (["--scale", "-1"], "scale must be positive"),
    (["--heartbeat", "0"], "heartbeat must be positive"),
])
def test_serve_validates_config_before_reading_queries(
        tmp_path, flags, message):
    trace = _write_trace(tmp_path, ['{"app": "triangle"}'])
    with pytest.raises(SystemExit) as excinfo:
        main(SERVE_BASE + flags + ["--input", trace])
    assert "configuration error" in str(excinfo.value)
    assert message in str(excinfo.value)


def test_serve_missing_input_is_a_configuration_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(SERVE_BASE + ["--input", str(tmp_path / "no-such-trace")])
    assert "configuration error" in str(excinfo.value)
    assert "cannot read --input" in str(excinfo.value)


def test_serve_has_no_checkpoint_dir(tmp_path, capsys):
    # a server creates nothing a later one must reap, so serve takes
    # no checkpoint directory
    with pytest.raises(SystemExit) as excinfo:
        main(SERVE_BASE + ["--checkpoint-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --checkpoint-dir" in \
        capsys.readouterr().err
    assert "checkpoint_dir" not in {
        field.name for field in dataclasses.fields(ServiceConfig)}
