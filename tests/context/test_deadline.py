"""Unit tests for the cooperative Deadline."""

import pytest

from repro.context import Deadline
from repro.errors import AnalysisError, AnalysisTimeoutError


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestDeadline:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_fresh_deadline_passes_check(self):
        clock = FakeClock()
        dl = Deadline(2.0, clock=clock)
        dl.check()
        assert not dl.expired()
        assert dl.remaining() == pytest.approx(2.0)

    def test_check_raises_after_budget(self):
        clock = FakeClock()
        dl = Deadline(2.0, "my test", clock=clock)
        clock.advance(2.5)
        assert dl.expired()
        with pytest.raises(AnalysisTimeoutError) as ei:
            dl.check("propagation")
        err = ei.value
        assert err.budget == pytest.approx(2.0)
        assert err.elapsed == pytest.approx(2.5)
        assert "my test" in str(err)
        assert "propagation" in str(err)
        assert isinstance(err, AnalysisError)  # chain-catchable

    def test_elapsed_and_remaining_track_clock(self):
        clock = FakeClock()
        dl = Deadline(5.0, clock=clock)
        clock.advance(1.5)
        assert dl.elapsed() == pytest.approx(1.5)
        assert dl.remaining() == pytest.approx(3.5)

    def test_restart_resets_clock(self):
        clock = FakeClock()
        dl = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        assert dl.expired()
        dl.restart()
        assert not dl.expired()
        dl.check()

    def test_cancel_makes_check_raise(self):
        clock = FakeClock()
        dl = Deadline(100.0, "abandoned work", clock=clock)
        dl.check()
        dl.cancel()
        assert dl.cancelled
        assert dl.expired()
        with pytest.raises(AnalysisTimeoutError) as ei:
            dl.check("next checkpoint")
        assert "cancelled" in str(ei.value)
        assert "next checkpoint" in str(ei.value)

    def test_restart_clears_cancellation(self):
        dl = Deadline(10.0)
        dl.cancel()
        dl.restart()
        assert not dl.cancelled
        dl.check()

