"""Edge cases for ``busy_period`` / ``first_crossing_below``.

The busy-period scan is a closed-form breakpoint walk on the curve
itself — it must behave identically under every kernel (the kernel
only dispatches the *general* min-plus operations), and it must handle
the geometric corner cases exactly: a crossing landing on a
breakpoint, a tangency (touch and re-separate), the degenerate
``t -> 0+`` case where no backlog ever builds, and crossings in the
extrapolated tail beyond the last breakpoint.
"""

import math

import pytest

from repro.curves.kernels import KERNELS, use_kernel
from repro.curves.operations import busy_period
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.errors import CurveError


@pytest.fixture(params=KERNELS)
def kernel(request):
    with use_kernel(request.param):
        yield request.param


class TestBusyPeriod:
    def test_tail_crossing_closed_form(self, kernel):
        # sigma + rho*t = C*t  =>  t = sigma / (C - rho) = 2 / 0.5 = 4,
        # beyond the curve's last breakpoint (tail extrapolation branch)
        assert busy_period(P.affine(2.0, 0.5), 1.0) == pytest.approx(4.0)

    def test_crossing_exactly_at_breakpoint(self, kernel):
        # aggregate meets C*t exactly at its own breakpoint t=3
        agg = P.from_breakpoints([(0.0, 2.0), (3.0, 3.0)],
                                 final_slope=1.0 / 3.0)
        assert busy_period(agg, 1.0) == pytest.approx(3.0)

    def test_tangency_returns_touch_point(self, kernel):
        # aggregate touches C*t at t=2 then rises above it again;
        # the busy period ends at the first touch, not the re-crossing
        agg = P.from_breakpoints([(0.0, 1.0), (2.0, 2.0), (4.0, 5.0)],
                                 final_slope=2.0)
        assert busy_period(agg, 1.0) == pytest.approx(2.0)

    def test_no_initial_backlog_is_zero(self, kernel):
        # aggregate(0) = 0 with slope <= C: backlog never builds,
        # the busy period collapses to 0 (t -> 0+ limit)
        assert busy_period(P.line(0.5), 1.0) == 0.0
        assert busy_period(P.zero(), 1.0) == 0.0

    def test_slope_exactly_capacity_from_zero(self, kernel):
        # marginal t -> 0+ case: starts at 0 with slope == C
        assert busy_period(P.line(1.0), 1.0) == 0.0

    def test_unstable_is_infinite(self, kernel):
        assert math.isinf(busy_period(P.affine(1.0, 2.0), 1.0))

    def test_marginally_unstable_is_infinite(self, kernel):
        # long-term rate == capacity with positive burst: the backlog
        # bound never returns to zero
        assert math.isinf(busy_period(P.affine(1.0, 1.0), 1.0))

    def test_nonpositive_capacity_raises(self, kernel):
        with pytest.raises(CurveError, match="capacity"):
            busy_period(P.affine(1.0, 0.5), 0.0)
        with pytest.raises(CurveError, match="capacity"):
            busy_period(P.affine(1.0, 0.5), -1.0)

    def test_kernel_invariant_bit_identical(self):
        agg = P.from_breakpoints([(0.0, 2.0), (1.0, 2.5), (3.0, 3.2)],
                                 final_slope=0.3)
        results = set()
        for name in KERNELS:
            with use_kernel(name):
                results.add(busy_period(agg, 1.0))
        assert len(results) == 1


class TestFirstCrossingBelow:
    def test_crossing_mid_segment_interpolates(self):
        f = P.from_breakpoints([(0.0, 3.0), (4.0, 3.0)], final_slope=0.0)
        g = P.line(1.0)
        # 3 = t at t=3, inside the segment [0, 4]
        assert f.first_crossing_below(g) == pytest.approx(3.0)

    def test_crossing_at_shared_breakpoint(self):
        f = P.from_breakpoints([(0.0, 1.0), (2.0, 2.0)], final_slope=0.2)
        g = P.from_breakpoints([(0.0, 0.0), (2.0, 2.0)], final_slope=2.0)
        assert f.first_crossing_below(g) == pytest.approx(2.0)

    def test_starts_at_or_below_is_zero(self):
        f = P.line(0.5)
        assert f.first_crossing_below(P.line(1.0)) == 0.0

    def test_never_crossing_is_infinite(self):
        f = P.affine(1.0, 1.0)
        assert math.isinf(f.first_crossing_below(P.line(0.5)))

    def test_tangency_mid_curve(self):
        # difference dips to exactly zero at t=2 and grows again
        f = P.from_breakpoints([(0.0, 1.0), (2.0, 2.0), (3.0, 4.0)],
                               final_slope=3.0)
        assert f.first_crossing_below(P.line(1.0)) == pytest.approx(2.0)
