"""Tests for the exception hierarchy."""

import pytest

from repro import errors
from repro.errors import (
    ConfigurationError,
    FetchFailedError,
    GraphFormatError,
    MachineCrashError,
    OutOfMemoryError,
    PatternError,
    ReproError,
    ScheduleError,
    SimTimeoutError,
)


def test_all_errors_are_repro_errors():
    for exc_type in (
        GraphFormatError,
        PatternError,
        ScheduleError,
        OutOfMemoryError,
        SimTimeoutError,
        ConfigurationError,
        MachineCrashError,
        FetchFailedError,
    ):
        assert issubclass(exc_type, ReproError)


def test_oom_attributes_and_message():
    exc = OutOfMemoryError(3, 2048, 1024)
    assert exc.machine_id == 3
    assert exc.needed_bytes == 2048
    assert exc.capacity_bytes == 1024
    assert "machine 3" in str(exc)
    assert "2048" in str(exc)


def test_timeout_attributes_and_message():
    exc = SimTimeoutError(120.5, 60.0)
    assert exc.simulated_seconds == 120.5
    assert exc.budget_seconds == 60.0
    # three significant digits, as the engine's own TIMEOUT message
    assert str(exc) == "simulated runtime 120s exceeded budget 60s"


def test_timeout_message_shows_sub_second_budgets():
    """Every budget a simulated run meets is a fraction of a second; one
    decimal place printed them all as 0.0s."""
    exc = SimTimeoutError(5.0062e-4, 5e-4)
    assert str(exc) == (
        "simulated runtime 0.000501s exceeded budget 0.0005s")


def test_timeout_alias_is_gone():
    # the old name shadowed the builtin; its one-release alias is over
    assert not hasattr(errors, "TimeoutError")


def test_machine_crash_attributes():
    exc = MachineCrashError(2, "chunk=5")
    assert exc.machine_id == 2
    assert exc.trigger == "chunk=5"
    assert "machine 2" in str(exc)


def test_fetch_failed_attributes():
    exc = FetchFailedError(1, 3, attempts=5)
    assert exc.requester == 1
    assert exc.owner == 3
    assert exc.attempts == 5
    assert "5 attempts" in str(exc)


def test_errors_catchable_as_base():
    with pytest.raises(ReproError):
        raise OutOfMemoryError(0, 1, 0)
    with pytest.raises(ReproError):
        raise ScheduleError("bad order")
