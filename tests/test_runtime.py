"""Tests for run reports and formatting helpers."""

import pytest

from repro.analysis.report import ExperimentResult, format_cell
from repro.core.runtime import RunReport, format_bytes, format_seconds
from repro.systems.base import merge_reports
from tests.reference import speedup_over


def test_format_seconds_units():
    assert format_seconds(0.0352) == "35.2ms"
    assert format_seconds(2.5) == "2.50s"
    assert format_seconds(7200.0) == "2.00h"


def test_format_bytes_units():
    assert format_bytes(512) == "512.0B"
    assert format_bytes(33.8 * 1024**3) == "33.8GB"
    assert format_bytes(4.4 * 1024**4) == "4.4TB"


def _report(seconds=1.0, **kwargs):
    defaults = dict(
        system="khuzdul", app="TC", graph_name="g", counts=10,
        simulated_seconds=seconds,
    )
    defaults.update(kwargs)
    return RunReport(**defaults)


def test_speedup_over():
    fast = _report(seconds=1.0)
    slow = _report(seconds=19.0)
    assert speedup_over(fast, slow) == pytest.approx(19.0)
    assert speedup_over(slow, fast) == pytest.approx(1 / 19.0)


def test_breakdown_fractions_sum_to_one():
    report = _report(breakdown={"compute": 3.0, "network": 1.0})
    fractions = report.breakdown_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions["compute"] == pytest.approx(0.75)


def test_breakdown_fractions_empty():
    assert _report(breakdown={}).breakdown_fractions() == {}


def test_describe_contains_fields():
    text = _report().describe()
    assert "khuzdul" in text and "TC" in text and "count=10" in text


def test_merge_reports_sums_phases():
    a = _report(seconds=1.0, network_bytes=10,
                breakdown={"compute": 1.0}, machine_seconds=[1.0, 0.5],
                peak_memory_bytes=100)
    b = _report(seconds=2.0, network_bytes=30,
                breakdown={"compute": 1.5, "network": 0.5},
                machine_seconds=[2.0, 1.0], peak_memory_bytes=300)
    merged = merge_reports([a, b], "sys", "FSM", "g", counts=5)
    assert merged.simulated_seconds == pytest.approx(3.0)
    assert merged.network_bytes == 40
    assert merged.breakdown["compute"] == pytest.approx(2.5)
    assert merged.machine_seconds == [3.0, 1.5]
    assert merged.peak_memory_bytes == 300
    assert merged.counts == 5


def test_merge_reports_empty():
    merged = merge_reports([], "sys", "app", "g")
    assert merged.simulated_seconds == 0.0


# ----------------------------------------------------------------------
# experiment result tables
# ----------------------------------------------------------------------
def _table():
    return ExperimentResult(
        "Table X",
        "demo",
        ["app", "time", "traffic"],
        [
            {"app": "TC", "time": 0.5, "traffic": ("bytes", 2048)},
            {"app": "4-CC", "time": "CRASHED", "traffic": None},
        ],
        notes=["a note"],
    )


def test_format_cell_kinds():
    assert format_cell(None) == "-"
    assert format_cell("CRASHED") == "CRASHED"
    assert format_cell(1.5) == "1.50s"
    assert format_cell(("bytes", 1024)) == "1.0KB"
    assert format_cell(42) == "42"


def test_experiment_format_contains_rows_and_notes():
    text = _table().format()
    assert "Table X" in text
    assert "CRASHED" in text
    assert "2.0KB" in text
    assert "note: a note" in text


def test_experiment_markdown():
    md = _table().to_markdown()
    assert md.startswith("### Table X")
    assert "| TC |" in md or "| TC " in md
    assert "*Note: a note*" in md


def test_row_value_selector():
    table = _table()
    assert table.row_value("time", app="TC") == 0.5
    with pytest.raises(KeyError):
        table.row_value("time", app="nonexistent")
