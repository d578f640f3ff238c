"""Shared fixtures and the per-test hang guard.

The resilience subsystem deliberately exercises hung and crashed
workers; if one of those tests (or a runaway analysis) ever wedged, it
would take the whole CI run with it.  Every test therefore runs under a
SIGALRM wall-clock guard — a test that exceeds the limit fails with a
TimeoutError instead of hanging forever.  Override the limit with the
``REPRO_TEST_TIMEOUT`` environment variable (seconds; ``0`` disables).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

from repro.curves.piecewise import PiecewiseLinearCurve
from repro.curves.token_bucket import TokenBucket
from repro.network.tandem import build_tandem

TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

# ``pytest --hypothesis-profile nightly``: the nightly workflow's deeper
# property runs.  Without the flag the default profile applies.
settings.register_profile("nightly", max_examples=2000, deadline=None)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if (TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return (yield)

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT:g}s hang guard "
            "(REPRO_TEST_TIMEOUT)")

    prev_handler = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev_handler)


@pytest.fixture
def unit_bucket() -> TokenBucket:
    """sigma=1, rho=0.2, peak-limited at line rate 1 (paper defaults)."""
    return TokenBucket(1.0, 0.2, peak=1.0)


@pytest.fixture
def affine_bucket() -> TokenBucket:
    """sigma=1, rho=0.2, no peak limit."""
    return TokenBucket(1.0, 0.2)


@pytest.fixture
def line_unit() -> PiecewiseLinearCurve:
    """The unit-capacity service line C*t with C=1."""
    return PiecewiseLinearCurve.line(1.0)


@pytest.fixture
def tandem4():
    """A 4-hop tandem at 60% load (fast to analyze)."""
    return build_tandem(4, 0.6)
