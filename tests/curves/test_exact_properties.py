"""Property-based tests (hypothesis) for the exact general kernel.

The algebraic laws the analyses rely on, checked on *mixed-convexity*
operands (the shapes that force the general decomposition paths rather
than the closed forms):

* ``⊗`` is commutative and associative;
* the Galois (adjunction) inequality ``(f ⊘ g) ⊗ g >= f``;
* the exact results sit inside the sampled grid backend's documented
  error envelope (and on the sound side of it).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.curves.exact import exact_convolve, exact_deconvolve
from repro.curves.kernels import use_kernel
from repro.curves.operations import _auto_grid, convolve
from repro.curves.piecewise import PiecewiseLinearCurve as P
from tests.curves import examples

# -- strategies --------------------------------------------------------

burst = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
rho = st.floats(min_value=0.05, max_value=0.6, allow_nan=False)
latency = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


@st.composite
def mixed_curves(draw):
    """rate_latency ∧ affine — neither convex nor concave in general."""
    r = draw(rho)
    peak = draw(st.floats(min_value=r + 0.3, max_value=3.0))
    return P.rate_latency(peak, draw(latency)).minimum(
        P.affine(draw(burst), r)).simplified()


@st.composite
def concave_arrivals(draw):
    return P.affine(draw(burst), draw(rho))


@st.composite
def convex_services(draw):
    # rate above every arrival strategy's max rho, so ⊘ converges
    rate = draw(st.floats(min_value=0.7, max_value=3.0))
    return P.rate_latency(rate, draw(latency))


def _assert_pointwise_close(a, b, ts, atol=1e-7):
    np.testing.assert_allclose(a.sample(ts), b.sample(ts), atol=atol)


# -- properties --------------------------------------------------------

class TestConvolveAlgebra:
    @settings(max_examples=examples(60), deadline=None)
    @given(mixed_curves(), mixed_curves())
    def test_commutative(self, f, g):
        ts = np.linspace(0.0, 40.0, 201)
        _assert_pointwise_close(exact_convolve(f, g),
                                exact_convolve(g, f), ts)

    @settings(max_examples=examples(30), deadline=None)
    @given(mixed_curves(), mixed_curves(), convex_services())
    def test_associative(self, f, g, h):
        ts = np.linspace(0.0, 40.0, 101)
        left = exact_convolve(exact_convolve(f, g), h)
        right = exact_convolve(f, exact_convolve(g, h))
        _assert_pointwise_close(left, right, ts, atol=1e-6)

    @settings(max_examples=examples(60), deadline=None)
    @given(mixed_curves(), mixed_curves())
    def test_dominated_by_both_operands_plus_origin(self, f, g):
        # (f ⊗ g)(t) <= f(t) + g(0) and <= f(0) + g(t)
        ts = np.linspace(0.0, 30.0, 121)
        out = exact_convolve(f, g).sample(ts)
        assert np.all(out <= f.sample(ts) + g(0.0) + 1e-9)
        assert np.all(out <= g.sample(ts) + f(0.0) + 1e-9)


class TestGaloisConnection:
    @settings(max_examples=examples(60), deadline=None)
    @given(concave_arrivals(), convex_services())
    def test_deconvolve_then_convolve_dominates(self, f, g):
        # (f ⊘ g) ⊗ g >= f  (the adjunction the output bound rests on)
        out = exact_convolve(exact_deconvolve(f, g), g)
        ts = np.linspace(0.0, 60.0, 241)
        assert np.all(out.sample(ts) >= f.sample(ts) - 1e-7)

    @settings(max_examples=examples(60), deadline=None)
    @given(mixed_curves(), convex_services())
    @example(f=P([0.0, 0.5, 0.5902882710483099],
                 [0.0, 0.0, 0.08567566705063585], 0.25),
             g=P([0.0, 1e-12], [0.0, 0.0], 0.75))
    def test_mixed_numerator_galois(self, f, g):
        out = exact_convolve(exact_deconvolve(f, g), g)
        ts = np.linspace(0.0, 60.0, 241)
        assert np.all(out.sample(ts) >= f.sample(ts) - 1e-7)


class TestExactVsGridEnvelope:
    @settings(max_examples=examples(25), deadline=None)
    @given(mixed_curves(), convex_services())
    def test_convolution_within_grid_envelope(self, f, g):
        exact = exact_convolve(f, g)
        with use_kernel("grid"):
            sampled = convolve(f, g)
        grid = _auto_grid(f, g)
        # probe at grid points: between them the reconstructed grid
        # curve interpolates linearly and may dip below the exact
        # curve by O(dt*L) in concave regions
        ts = grid.times[:: max(1, grid.n // 96)]
        ts = ts[ts <= 0.5 * grid.horizon]
        ve, vg = exact.sample(ts), sampled.sample(ts)
        # grid inf ranges over fewer split points: never below exact
        assert np.all(ve <= vg + 1e-9)
        lips = float(np.max(np.abs(f.slopes()))) + \
            float(np.max(np.abs(g.slopes())))
        assert np.all(vg - ve <= 2.0 * grid.dt * (1.0 + lips) + 1e-9)
