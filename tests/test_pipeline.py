"""Tests for circulant-schedule pipeline timing (Section 4.3)."""

import pytest

from repro.core.pipeline import pipeline_time
from tests.reference import exposed_network_time


def test_empty_pipeline():
    assert pipeline_time([], []) == 0.0


def test_single_batch():
    # fetch then compute, nothing to overlap with
    assert pipeline_time([2.0], [3.0]) == 5.0


def test_full_overlap():
    # compute always covers the next fetch: only the first fetch shows
    comm = [1.0, 1.0, 1.0]
    compute = [5.0, 5.0, 5.0]
    assert pipeline_time(comm, compute) == 1.0 + 15.0


def test_no_overlap_when_comm_dominates():
    comm = [4.0, 4.0, 4.0]
    compute = [1.0, 1.0, 1.0]
    # c0 + max(p0,c1) + max(p1,c2) + p2 = 4 + 4 + 4 + 1
    assert pipeline_time(comm, compute) == 13.0


def test_mixed_overlap():
    comm = [2.0, 3.0, 0.5]
    compute = [1.0, 4.0, 2.0]
    # 2 + max(1,3) + max(4,0.5) + 2 = 11
    assert pipeline_time(comm, compute) == 11.0


def test_local_first_batch():
    # batch 0 local (no comm): pipeline starts computing immediately
    comm = [0.0, 2.0]
    compute = [3.0, 1.0]
    assert pipeline_time(comm, compute) == 0.0 + 3.0 + 1.0


def test_exposed_network_time():
    comm = [1.0, 1.0]
    compute = [5.0, 5.0]
    assert exposed_network_time(comm, compute) == pytest.approx(1.0)


def test_exposed_never_negative_under_domination():
    comm = [0.0, 0.0]
    compute = [1.0, 1.0]
    assert exposed_network_time(comm, compute) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        pipeline_time([1.0], [1.0, 2.0])


def test_pipeline_bounded_by_serial():
    comm = [1.0, 2.0, 1.5]
    compute = [2.0, 1.0, 3.0]
    pipelined = pipeline_time(comm, compute)
    serial = sum(comm) + sum(compute)
    assert pipelined <= serial
    assert pipelined >= max(sum(comm), sum(compute))
