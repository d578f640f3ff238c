"""Property-based tests (hypothesis) for the curve algebra.

These pin down the algebraic laws every analysis relies on:
commutativity/monotonicity of min-plus convolution, Galois connection of
the pseudo-inverse, soundness of deviations, and consistency between the
exact and sampled kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import numeric
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.curves.token_bucket import TokenBucket
from repro.utils.grid import make_grid
from tests.curves import examples

# -- strategies --------------------------------------------------------

finite = st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                   allow_infinity=False)
rate = st.floats(min_value=0.01, max_value=5.0, allow_nan=False,
                 allow_infinity=False)


@st.composite
def token_buckets(draw):
    sigma = draw(st.floats(min_value=0.0, max_value=10.0))
    rho = draw(st.floats(min_value=0.01, max_value=2.0))
    use_peak = draw(st.booleans())
    if use_peak:
        peak = draw(st.floats(min_value=rho, max_value=rho + 5.0))
        return TokenBucket(sigma, rho, max(peak, rho))
    return TokenBucket(sigma, rho)


@st.composite
def concave_curves(draw):
    """A concave nondecreasing curve built as min of affine pieces."""
    n = draw(st.integers(min_value=1, max_value=4))
    pieces = []
    last_rate = 10.0
    for _ in range(n):
        burst = draw(st.floats(min_value=0.0, max_value=20.0))
        r = draw(st.floats(min_value=0.01, max_value=last_rate))
        pieces.append(P.affine(burst, r))
    acc = pieces[0]
    for p in pieces[1:]:
        acc = acc.minimum(p)
    return acc


@st.composite
def convex_curves(draw):
    """A convex service curve: max of rate-latency pieces through 0."""
    n = draw(st.integers(min_value=1, max_value=3))
    acc = P.rate_latency(draw(rate), draw(st.floats(0.0, 10.0)))
    for _ in range(n - 1):
        acc = acc.maximum(
            P.rate_latency(draw(rate), draw(st.floats(0.0, 10.0))))
    return acc


# -- properties --------------------------------------------------------

class TestEvaluationProperties:
    @given(concave_curves(), st.lists(finite, min_size=1, max_size=10))
    def test_concave_curves_nondecreasing(self, f, ts):
        ts = sorted(ts)
        vals = [f(t) for t in ts]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    @given(token_buckets(), finite, finite)
    def test_constraint_curve_subadditive_increments(self, tb, t, dt):
        # b(t + dt) - b(t) <= b(dt): token-bucket curves are subadditive
        b = tb.constraint_curve()
        assert b(t + dt) - b(t) <= b(dt) + 1e-6 * max(1.0, b(dt))


class TestArithmeticProperties:
    @given(concave_curves(), concave_curves(), finite)
    def test_addition_pointwise(self, f, g, t):
        assert (f + g)(t) == pytest.approx(f(t) + g(t), rel=1e-9, abs=1e-9)

    @given(concave_curves(), concave_curves(), finite)
    def test_min_max_pointwise(self, f, g, t):
        assert f.minimum(g)(t) == pytest.approx(min(f(t), g(t)), abs=1e-6)
        assert f.maximum(g)(t) == pytest.approx(max(f(t), g(t)), abs=1e-6)

    @given(concave_curves(), finite)
    def test_simplified_is_equivalent(self, f, t):
        assert f.simplified()(t) == pytest.approx(f(t), abs=1e-9)


class TestConvolutionProperties:
    @given(concave_curves(), concave_curves())
    def test_concave_convolve_commutative(self, f, g):
        a, b = f.convolve(g), g.convolve(f)
        for t in [0.0, 1.0, 7.3, 40.0]:
            assert a(t) == pytest.approx(b(t), rel=1e-9, abs=1e-9)

    @given(convex_curves(), convex_curves())
    def test_convex_convolve_commutative(self, f, g):
        a, b = f.convolve(g), g.convolve(f)
        for t in [0.0, 1.0, 7.3, 40.0]:
            assert a(t) == pytest.approx(b(t), rel=1e-7, abs=1e-7)

    @given(convex_curves(), convex_curves())
    def test_convolution_below_operands(self, f, g):
        c = f.convolve(g)
        for t in [0.0, 2.0, 11.0, 50.0]:
            assert c(t) <= min(f(t), g(t)) + 1e-9

    @settings(max_examples=examples(25))
    @given(convex_curves(), convex_curves(),
           st.floats(min_value=0.1, max_value=30.0))
    def test_convex_convolution_matches_brute_force(self, f, g, t):
        c = f.convolve(g)
        ss = np.linspace(0.0, t, 600)
        brute = min(f(s) + g(t - s) for s in ss)
        # exact kernel must be <= any sampled decomposition and close to it
        assert c(t) <= brute + 1e-9
        assert c(t) == pytest.approx(brute, abs=0.3)


class TestPseudoInverseProperties:
    @given(concave_curves(), finite)
    def test_galois(self, f, v):
        t = f.pseudo_inverse(v)
        if math.isfinite(t):
            assert f(t) >= v - 1e-6 * max(1.0, v)

    @given(concave_curves(), finite)
    def test_inverse_of_value_below_t(self, f, t):
        # f^{-1}(f(t)) <= t for nondecreasing f
        assert f.pseudo_inverse(f(t)) <= t + 1e-6 * max(1.0, t)


class TestDeviationProperties:
    @given(concave_curves(), convex_curves())
    def test_hdev_certifies_service_shift(self, alpha, beta):
        d = alpha.horizontal_deviation(beta)
        if not math.isfinite(d):
            return
        # beta(t + d) >= alpha(t) at a spread of sample points
        for t in [0.0, 0.5, 3.0, 17.0, 60.0]:
            assert beta(t + d) >= alpha(t) - 1e-5 * max(1.0, alpha(t))

    @given(concave_curves(), convex_curves())
    def test_vdev_dominates_gap(self, alpha, beta):
        v = alpha.vertical_deviation(beta)
        if not math.isfinite(v):
            return
        for t in [0.0, 1.0, 9.0, 45.0]:
            assert alpha(t) - beta(t) <= v + 1e-6 * max(1.0, v)

    @given(concave_curves())
    def test_hdev_against_itself_like_line_zero(self, alpha):
        # service that dominates arrivals everywhere -> zero delay
        beta = alpha + 1.0
        # make beta nondecreasing (it is, alpha concave nondecreasing)
        assert alpha.horizontal_deviation(beta) == 0.0


class TestGridConsistency:
    @settings(max_examples=examples(20))
    @given(concave_curves())
    def test_sampling_roundtrip(self, f):
        g = make_grid(20.0, 501)
        back = numeric.to_curve(numeric.sample(f, g), g)
        for t in [0.0, 3.0, 11.0, 19.0]:
            assert back(t) == pytest.approx(f(t), rel=1e-6, abs=1e-6)

    @settings(max_examples=examples(15))
    @given(concave_curves(), convex_curves())
    def test_grid_hdev_close_to_exact(self, alpha, beta):
        exact = alpha.horizontal_deviation(beta)
        if not math.isfinite(exact) or exact > 100:
            return
        horizon = 4.0 * (exact + float(alpha.x[-1]) + float(beta.x[-1]) + 1)
        g = make_grid(horizon, 4001)
        approx = numeric.grid_hdev(numeric.sample(alpha, g),
                                   numeric.sample(beta, g), g)
        assert approx == pytest.approx(exact, rel=0.02, abs=2 * g.dt)
