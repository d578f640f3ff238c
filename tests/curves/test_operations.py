"""Unit tests for the functional curve-operation façade."""

import math

import numpy as np
import pytest

from repro.curves.kernels import use_kernel
from repro.curves.operations import (
    busy_period,
    convolve,
    convolve_all,
    deconvolve,
    hdev,
    vdev,
)
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.errors import CurveError


class TestConvolveFacade:
    def test_exact_path_for_convex(self):
        c = convolve(P.rate_latency(1.0, 1.0), P.rate_latency(2.0, 2.0))
        assert c(3.0) == 0.0 and c(4.0) == pytest.approx(1.0)

    def test_exact_path_for_concave(self):
        c = convolve(P.affine(1.0, 0.5), P.affine(2.0, 0.2))
        assert c(10.0) == pytest.approx(min(1 + 5 + 2, 2 + 2 + 1))

    def test_fallback_for_mixed(self):
        concave = P.line(1.0).minimum(P.affine(1.0, 0.2))
        convex = P.rate_latency(1.0, 1.0)
        c = convolve(concave, convex, horizon=20.0)
        ss = np.linspace(0, 5, 2001)
        brute = min(concave(s) + convex(5.0 - s) for s in ss)
        assert c(5.0) == pytest.approx(brute, abs=0.02)

    def test_convolve_all(self):
        curves = [P.rate_latency(1.0, 1.0)] * 3
        c = convolve_all(curves)
        assert c(3.0) == 0.0 and c(4.0) == pytest.approx(1.0)

    def test_convolve_all_empty_raises(self):
        with pytest.raises(CurveError):
            convolve_all([])

    def test_convolve_all_single(self):
        f = P.line(1.0)
        assert convolve_all([f]) is f

    def test_convolve_all_rederives_horizon_per_fold(self):
        """Regression: a caller-supplied horizon used to be reused
        verbatim for *every* pairwise sampled fallback, so late folds
        of a long left fold were truncated to the first fold's window
        and their extrapolated tails went wrong far from the origin.
        The horizon is now a minimum: each fold samples at least its
        own characteristic window."""
        concave = P.line(1.0).minimum(P.affine(1.0, 0.2))
        convex = P.rate_latency(0.9, 3.0)
        late = P.rate_latency(0.15, 30.0)  # structure past the window
        t = 60.0
        ts = np.linspace(0.0, t, 1201)
        f, g, h = (c.sample(ts) for c in (concave, convex, late))
        fg = np.array([np.min(f[:i + 1] + g[i::-1])
                       for i in range(len(ts))])
        brute = float(np.min(fg + h[::-1]))  # ((f*g)*h)(t) on the grid
        assert brute > 1.0  # the true fold is far from degenerate

        with use_kernel("grid"):
            fixed = convolve_all([concave, convex, late], horizon=8.0)
            assert fixed(t) == pytest.approx(brute, abs=0.1)
            # the old behavior — every fold clamped to the caller's 8.0
            # window — saw only the zero prefix of the 30-latency curve
            # and extrapolated the whole fold to 0 (an unsound bound)
            old = convolve(convolve(concave, convex, horizon=8.0),
                           late, horizon=8.0)
            assert old(t) == 0.0


class TestDeconvolve:
    """Pins the *grid* backend's pad/splice semantics, so every test
    enters the ``grid`` kernel scope (the default exact kernel
    has no pad, no splice and no horizon)."""

    @pytest.fixture(autouse=True)
    def _grid_kernel(self):
        with use_kernel("grid"):
            yield

    def test_output_burstiness(self):
        # affine ⊘ rate-latency: burst inflated by rho*T
        out = deconvolve(P.affine(1.0, 0.25), P.rate_latency(1.0, 2.0),
                         horizon=50.0)
        assert out(0.0) == pytest.approx(1.5, abs=0.05)
        assert out.final_slope == pytest.approx(0.25, abs=0.01)

    def test_sampled_result_is_sound_upper_envelope(self):
        """The sampled sup sits up to ``dt * slope`` *below* the exact
        deconvolution — unsound for an output-traffic bound.  The
        resolution-derived pad must lift the whole result to at least
        the closed form, while staying a tight envelope."""
        out = deconvolve(P.affine(1.0, 0.25), P.rate_latency(1.0, 2.0),
                         horizon=50.0)
        exact = P.affine(1.5, 0.25)  # sigma + rho*T, slope rho
        ts = np.linspace(0.0, 120.0, 601)  # well past the 75% splice
        gap = out.sample(ts) - exact.sample(ts)
        assert np.all(gap >= -1e-9)
        assert float(np.max(gap)) < 0.05

    def test_tail_splice_is_continuous(self):
        """The grafted long-term-rate tail must join the kept prefix
        without a jump: finite differences across the splice stay
        bounded by the curve's own max slope."""
        f = P.line(1.0).minimum(P.affine(1.0, 0.2))
        g = P.rate_latency(1.0, 1.0)
        out = deconvolve(f, g, horizon=20.0)
        assert out.final_slope == pytest.approx(0.2, abs=1e-9)
        ts = np.linspace(10.0, 25.0, 3001)  # straddles 0.75 * 20
        dv = np.abs(np.diff(out.sample(ts)))
        max_slope = float(np.max(np.abs(out.slopes())))
        assert np.all(dv <= max_slope * (ts[1] - ts[0]) + 1e-9)


class TestDeviationFacade:
    def test_hdev(self):
        assert hdev(P.affine(1.0, 0.2), P.line(1.0)) == pytest.approx(1.0)

    def test_vdev(self):
        assert vdev(P.affine(1.0, 0.2), P.line(1.0)) == pytest.approx(1.0)


class TestBusyPeriod:
    def test_affine(self):
        # sigma + rho t = C t  ->  t = sigma/(C - rho)
        assert busy_period(P.affine(1.0, 0.5), 1.0) == pytest.approx(2.0)

    def test_peak_limited_aggregate(self):
        b = P.line(1.0).minimum(P.affine(1.0, 0.2))
        assert busy_period(b * 3.0, 1.0) == pytest.approx(7.5)

    def test_underload_zero(self):
        assert busy_period(P.line(0.2), 1.0) == 0.0

    def test_overload_inf(self):
        assert busy_period(P.affine(1.0, 2.0), 1.0) == math.inf

    def test_invalid_capacity(self):
        with pytest.raises(CurveError):
            busy_period(P.line(0.5), 0.0)

    def test_scales_with_capacity(self):
        b1 = busy_period(P.affine(1.0, 0.5), 1.0)
        b2 = busy_period(P.affine(2.0, 1.0), 2.0)
        assert b1 == pytest.approx(b2)


class TestAutoGridRateAware:
    """The fallback horizon must track rates, not just breakpoints.

    The previous formula was ``max(1.0, 4 * last_breakpoint)``: a
    near-degenerate curve such as ``affine(sigma, rho)`` — whose only
    breakpoint sits at 0 — always received the minimal 1.0 horizon no
    matter how slowly its tail accumulates.  The horizon now covers the
    curve's characteristic time ``x[-1] + y[-1] / final_slope`` (the
    tail's value-doubling scale) times the same safety factor.
    """

    def test_degenerate_affine_is_rate_aware(self):
        from repro.curves.operations import _auto_grid
        grid = _auto_grid(P.affine(1.0, 0.2))
        # 4 * (0 + 1.0 / 0.2); the old formula returned 1.0
        assert grid.horizon == pytest.approx(20.0)

    def test_breakpoint_driven_horizon_unchanged(self):
        from repro.curves.operations import _auto_grid
        flat_tail = P([0.0, 5.0], [0.0, 5.0], 0.0)
        # final slope 0: characteristic time is the last breakpoint,
        # exactly as before
        assert _auto_grid(flat_tail).horizon == pytest.approx(20.0)

    def test_constant_curve_keeps_floor(self):
        from repro.curves.operations import _auto_grid
        assert _auto_grid(P.constant(3.0)).horizon == 1.0

    def test_widest_curve_wins(self):
        from repro.curves.operations import _auto_grid
        a = P.affine(4.0, 0.25)            # characteristic time 16
        b = P.rate_latency(0.5, 0.2)       # characteristic time 0.2
        assert _auto_grid(a, b).horizon == pytest.approx(64.0)

    def test_sampled_fallback_bound_changes(self):
        """Regression pin: the default-horizon deconvolution of
        near-degenerate operands no longer equals the old 1.0-horizon
        result (the sampled bound genuinely moved)."""
        f = P.affine(4.0, 0.25)
        g = P.rate_latency(0.5, 0.2)
        with use_kernel("grid"):
            # old formula: max(1.0, 4 * 0.2) == 1.0
            old = deconvolve(f, g, horizon=1.0)
            new = deconvolve(f, g)
        assert old != new
        exact_burst = 4.0 + 0.25 * 0.2  # sup at j = latency
        assert new(0.0) == pytest.approx(exact_burst, abs=0.01)
        assert new.final_slope == pytest.approx(0.25, abs=0.01)
