"""Unit tests for the FIFO leftover-service-curve family kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import repro.core.subsystem as subsystem_module
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.fifo_family import (
    FamilyResult,
    _prepared_objective,
    affine_envelope,
    family_delay_for_thetas,
    family_pair_bound,
)
from repro.core.integrated import IntegratedAnalysis
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.curves.token_bucket import TokenBucket
from repro.network.tandem import build_tandem
from repro.utils.validation import check_positive

# ----------------------------------------------------------------------
# Oracle: the scalar objective and solver as they were before the
# objective was prepared once per block, kept verbatim (only renamed)
# except for the zero-start right-limit candidate, which both gained.
# Every value of the prepared objective must match it bit for bit.
# ----------------------------------------------------------------------


def _effective_start(theta: float, rate: float, a: float) -> float:
    """First instant a gated leftover curve can be positive.

    ``beta(t) = [R t - a]^+ . 1{t > theta}`` is identically 0 up to
    ``S = max(theta, a / R)`` — for ``theta`` below the latency ``a/R``
    the positive part, not the gate, is what holds the curve at zero.
    """
    if rate <= 0:
        return math.inf
    return max(theta, a / rate if a > 0 else 0.0)


def _branch_inverse(v: float, start: float, gate_shift: float,
                    rate: float, a: float) -> float:
    """First time the (shifted) gated branch reaches level ``v``.

    The branch is ``beta(t - gate_shift)`` with ``beta`` zero up to
    ``start`` and ``R t - a`` afterwards; its jump value at ``start`` is
    ``J = [R*start - a]^+`` (0 when the curve is continuous there).
    """
    if v <= 0:
        return 0.0
    if rate <= 0:
        return math.inf
    jump = max(0.0, rate * start - a)
    if v <= jump:
        return gate_shift + start
    return gate_shift + (a + v) / rate


def oracle_delay_for_thetas(f12: PiecewiseLinearCurve,
                             sigma1: float, rho1: float,
                             sigma2: float, rho2: float,
                             c1: float, c2: float,
                             theta1: float, theta2: float) -> float:
    """Exact delay bound for one ``(theta1, theta2)`` family member.

    ``sigma_i, rho_i`` describe the affine cross-traffic envelope at
    server ``i``; ``f12`` is the through-aggregate constraint curve.
    """
    r1 = c1 - rho1
    r2 = c2 - rho2
    if r1 <= 0 or r2 <= 0 or f12.long_term_rate() >= min(r1, r2):
        return math.inf
    a1 = sigma1 - rho1 * theta1
    a2 = sigma2 - rho2 * theta2
    # The composition (beta1 ⊗ beta2)(t) = min(beta1(t - S2),
    # beta2(t - S1)) for t > S1 + S2 (0 before), where S_i is each
    # curve's effective start (gate or latency, whichever is later).
    s1 = _effective_start(theta1, r1, a1)
    s2 = _effective_start(theta2, r2, a2)
    gate = s1 + s2

    def tau(v: float) -> float:
        if v <= 0:
            return 0.0
        t_a = _branch_inverse(v, s1, s2, r1, a1)
        t_b = _branch_inverse(v, s2, s1, r2, a2)
        return max(gate, t_a, t_b)

    # Candidate maximizers of tau(F12(t)) - t: the through curve's
    # breakpoints plus the pre-images of the branch jump levels (where
    # tau kinks).
    jump1 = max(0.0, r1 * s1 - a1)
    jump2 = max(0.0, r2 * s2 - a2)
    levels = [lv for lv in (jump1, jump2) if lv > 0]
    cands = list(f12.x) + [0.0]
    if levels:
        inv = np.atleast_1d(f12.pseudo_inverse(np.asarray(levels)))
        cands.extend(float(t) for t in inv if math.isfinite(t))
    best = 0.0
    for t in cands:
        if t < 0:
            continue
        best = max(best, tau(float(f12(t))) - t)
    # Added with the zero-start fix (not in the original solver): when
    # F12 is 0 up to t0 and positive after it, bits arriving at t0+
    # wait until the gate, so the supremum includes gate - t0.
    zero_at = [float(x) for x, y in zip(f12.x, f12.y) if y <= 0]
    if zero_at and (f12.y[-1] > 0 or f12.final_slope > 0):
        best = max(best, gate - max(zero_at))
    return best


def oracle_pair_bound(f12: PiecewiseLinearCurve,
                      f1: PiecewiseLinearCurve,
                      f2: PiecewiseLinearCurve,
                      c1: float, c2: float,
                      coarse: int = 25,
                      refine: bool = True) -> FamilyResult:
    """Best theta-family bound for a two-server subsystem.

    Parameters
    ----------
    f12, f1, f2:
        Through / server-1-cross / server-2-cross constraint sums
        (same conventions as :func:`repro.core.theorem1.theorem1_bound`).
    c1, c2:
        Server capacities.
    coarse:
        Grid points per theta axis for the initial sweep.
    refine:
        Run a Nelder–Mead polish from the best grid point.
    """
    check_positive("c1", c1)
    check_positive("c2", c2)
    sigma1, rho1 = affine_envelope(f1)
    sigma2, rho2 = affine_envelope(f2)
    if c1 - rho1 <= 0 or c2 - rho2 <= 0:
        return FamilyResult(math.inf, 0.0, 0.0)

    sig12, _ = affine_envelope(f12)
    # The interesting theta range: up to the time scale where jumps
    # exceed every relevant through level ~ (sig12 + sigma_x)/C.  The
    # range is kept proportional to the problem's own burst scale so the
    # optimization is invariant under joint rescaling of all bursts.
    scale1 = sigma1 + sig12
    scale2 = sigma2 + sig12
    tmax1 = 2.0 * scale1 / c1 if scale1 > 0 else 1.0 / c1
    tmax2 = 2.0 * scale2 / c2 if scale2 > 0 else 1.0 / c2

    def objective(t1: float, t2: float) -> float:
        if t1 < 0 or t2 < 0:
            return math.inf
        return oracle_delay_for_thetas(
            f12, sigma1, rho1, sigma2, rho2, c1, c2, t1, t2)

    best = (math.inf, 0.0, 0.0)
    for t1 in np.linspace(0.0, tmax1, coarse):
        for t2 in np.linspace(0.0, tmax2, coarse):
            d = objective(float(t1), float(t2))
            if d < best[0]:
                best = (d, float(t1), float(t2))

    if refine and math.isfinite(best[0]):
        res = optimize.minimize(
            lambda th: objective(max(th[0], 0.0), max(th[1], 0.0)),
            x0=np.array([best[1], best[2]]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        if res.fun < best[0]:
            best = (float(res.fun), float(max(res.x[0], 0.0)),
                    float(max(res.x[1], 0.0)))

    return FamilyResult(delay_through=best[0], theta1=best[1],
                        theta2=best[2])


# ----------------------------------------------------------------------


def gated_leftover(capacity, sigma, rho, theta):
    """Reference: beta_theta(t) sampled pointwise (for brute force)."""
    def beta(t):
        if t <= theta:
            return 0.0
        return max(0.0, capacity * t - sigma - rho * (t - theta))
    return beta


def brute_force_delay(f12, b1, b2, tmax=200.0, n=8001):
    """hdev(F12, beta1 ⊗ beta2) by dense sampling."""
    ts = np.linspace(0.0, tmax, n)
    # convolution samples
    conv = np.full(n, np.inf)
    beta1 = np.array([b1(t) for t in ts])
    beta2 = np.array([b2(t) for t in ts])
    for i in range(n):
        conv[i:] = np.minimum(conv[i:], beta1[i] + beta2[: n - i])
    # running max (delay uses first-crossing semantics)
    conv = np.maximum.accumulate(conv)
    worst = 0.0
    alph = np.array([f12(t) for t in ts])
    for i in range(0, n, 40):
        target = alph[i]
        j = np.searchsorted(conv, target - 1e-12)
        if j >= n:
            return math.inf
        worst = max(worst, ts[j] - ts[i])
    return worst


class TestAffineEnvelope:
    def test_affine_is_itself(self):
        s, r = affine_envelope(P.affine(2.0, 0.3))
        assert s == pytest.approx(2.0) and r == pytest.approx(0.3)

    def test_peak_limited_bucket(self):
        tb = TokenBucket(1.0, 0.2, peak=1.0)
        s, r = affine_envelope(tb.constraint_curve())
        assert s == pytest.approx(1.0) and r == pytest.approx(0.2)

    def test_zero_curve(self):
        s, r = affine_envelope(P.zero())
        assert s == 0.0 and r == 0.0

    def test_envelope_dominates(self):
        tb = TokenBucket(1.5, 0.4, peak=2.0)
        c = tb.constraint_curve()
        s, r = affine_envelope(c)
        for t in [0.0, 1.0, 5.0, 50.0]:
            assert s + r * t >= c(t) - 1e-9


class TestDelayForThetas:
    def test_matches_brute_force(self):
        f12 = P.affine(2.0, 0.2)
        cases = [
            (1.0, 0.25, 1.5, 0.3, 0.5, 0.7),
            (1.0, 0.25, 1.5, 0.3, 0.0, 0.0),
            (0.5, 0.1, 0.5, 0.1, 3.0, 2.0),
        ]
        for s1, r1, s2, r2, th1, th2 in cases:
            exact = family_delay_for_thetas(
                f12, s1, r1, s2, r2, 1.0, 1.0, th1, th2)
            brute = brute_force_delay(
                f12,
                gated_leftover(1.0, s1, r1, th1),
                gated_leftover(1.0, s2, r2, th2))
            assert exact == pytest.approx(brute, abs=0.08), \
                (s1, r1, s2, r2, th1, th2)

    def test_unstable_is_inf(self):
        f12 = P.affine(1.0, 0.5)
        # leftover rate 1 - 0.6 = 0.4 < rho12
        assert family_delay_for_thetas(
            f12, 1.0, 0.6, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0) == math.inf

    def test_zero_cross_zero_theta_is_aggregate_delay(self):
        f12 = P.affine(2.0, 0.2)
        d = family_delay_for_thetas(f12, 0.0, 0.0, 0.0, 0.0,
                                    1.0, 1.0, 0.0, 0.0)
        # beta_net = line(1): delay = burst
        assert d == pytest.approx(2.0)


class TestPairBound:
    def test_idle_second_server_optimum(self):
        # with sigma12=sigma_x=1, rho12=rho_x=0.2 and an idle second
        # unit server, the family optimum is at theta1 solving
        # theta1 + sigma12 = (sigma_x - rho_x theta1 + sigma12)/R1,
        # i.e. theta1 = 1.2 and d = 2.2 (hand-derived; the exact joint
        # worst case is 2.0, which the Theorem-1 kernel attains — see
        # test_subsystem.py)
        f12 = P.affine(1.0, 0.2)
        f1 = P.affine(1.0, 0.2)
        res = family_pair_bound(f12, f1, P.zero(), 1.0, 1.0)
        assert res.delay_through == pytest.approx(2.2, abs=1e-6)
        assert res.theta1 == pytest.approx(1.2, abs=1e-3)

    def test_pays_through_burst_once(self):
        # two identical servers with light cross traffic: the family
        # bound must be well below twice the single-node bound
        f12 = P.affine(4.0, 0.1)
        f1 = P.affine(0.5, 0.1)
        f2 = P.affine(0.5, 0.1)
        res = family_pair_bound(f12, f1, f2, 1.0, 1.0)
        single = (f12 + f1).horizontal_deviation(P.line(1.0))
        assert res.delay_through < 2 * single * 0.8

    def test_thetas_nonnegative(self):
        f12 = P.affine(1.0, 0.2)
        res = family_pair_bound(f12, P.affine(1.0, 0.2),
                                P.affine(1.0, 0.2), 1.0, 1.0)
        assert res.theta1 >= 0 and res.theta2 >= 0

    def test_overloaded_cross_is_inf(self):
        res = family_pair_bound(P.affine(1.0, 0.1), P.affine(1.0, 1.2),
                                P.zero(), 1.0, 1.0)
        assert res.delay_through == math.inf

    def test_refine_improves_or_matches_coarse(self):
        f12 = P.affine(2.0, 0.15)
        f1 = P.affine(1.0, 0.3)
        f2 = P.affine(1.0, 0.3)
        coarse = family_pair_bound(f12, f1, f2, 1.0, 1.0, coarse=7,
                                   refine=False)
        refined = family_pair_bound(f12, f1, f2, 1.0, 1.0, coarse=7,
                                    refine=True)
        assert refined.delay_through <= coarse.delay_through + 1e-12

    def test_coarse_below_one_is_rejected(self):
        f12 = P.affine(1.0, 0.2)
        for coarse in (0, -1):
            with pytest.raises(ValueError, match="coarse"):
                family_pair_bound(f12, P.affine(1.0, 0.2), P.zero(),
                                  1.0, 1.0, coarse=coarse)

    def test_single_point_grid_is_finite(self):
        res = family_pair_bound(P.affine(1.0, 0.2), P.affine(1.0, 0.2),
                                P.zero(), 1.0, 1.0, coarse=1,
                                refine=False)
        assert math.isfinite(res.delay_through)
        assert (res.theta1, res.theta2) == (0.0, 0.0)


def _hex(x):
    return float(x).hex()


def _assert_same(f12, s1, rho1, s2, rho2, c1, c2, th1, th2):
    args = (f12, s1, rho1, s2, rho2, c1, c2)
    want = oracle_delay_for_thetas(*args, th1, th2)
    assert _hex(_prepared_objective(*args)(th1, th2)) == _hex(want)
    assert _hex(family_delay_for_thetas(*args, th1, th2)) == _hex(want)


@st.composite
def concave_curve(draw):
    """A nondecreasing concave curve with 1-5 breakpoints."""
    y = [draw(st.floats(min_value=0.0, max_value=5.0))]
    x = [0.0]
    slope = draw(st.floats(min_value=0.0, max_value=1.0))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        x.append(x[-1] + draw(st.floats(min_value=1e-3, max_value=4.0)))
        y.append(y[-1] + slope * (x[-1] - x[-2]))
        slope *= draw(st.floats(min_value=0.0, max_value=1.0))
    return P(x, y, slope)


thetas = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(min_value=0.0, max_value=60.0))


class TestPreparedObjective:
    """The per-block objective against the verbatim scalar oracle."""

    @settings(max_examples=300, deadline=None)
    @given(f12=concave_curve(),
           s1=st.floats(min_value=0.0, max_value=5.0),
           s2=st.floats(min_value=0.0, max_value=5.0),
           rho1=st.floats(min_value=0.0, max_value=0.8),
           rho2=st.floats(min_value=0.0, max_value=0.8),
           c1=st.floats(min_value=0.5, max_value=2.0),
           c2=st.floats(min_value=0.5, max_value=2.0),
           th1=thetas, th2=thetas)
    def test_matches_oracle(self, f12, s1, rho1, s2, rho2, c1, c2, th1,
                            th2):
        _assert_same(f12, s1, rho1, s2, rho2, c1, c2, th1, th2)

    def test_negative_zero_theta(self):
        f12 = P([0.0, 1.0], [1.0, 1.8], 0.2)
        for th1, th2 in [(-0.0, -0.0), (-0.0, 0.7), (1.3, -0.0)]:
            _assert_same(f12, 1.0, 0.2, 0.5, 0.1, 1.0, 1.0, th1, th2)
            # -0.0 with a non-positive latency term keeps the gate at -0.0
            _assert_same(f12, 0.0, 0.2, 0.0, 0.1, 1.0, 1.0, th1, th2)

    def test_theta_beyond_grid(self):
        f12, f1, f2 = P.affine(2.0, 0.15), P.affine(1.0, 0.3), \
            P.affine(1.0, 0.3)
        s1, r1 = affine_envelope(f1)
        s2, r2 = affine_envelope(f2)
        sig12, _ = affine_envelope(f12)
        tmax = 2.0 * (s1 + sig12)
        for th in (tmax * 1.5, tmax * 40.0, 1e6):
            _assert_same(f12, s1, r1, s2, r2, 1.0, 1.0, th, th / 3)

    def test_flat_segment(self):
        # the segment (1, 2) -> (3, 2 + 1e-12) is flat up to tolerance,
        # so the pre-image of a level inside it snaps to its end
        f12 = P([0.0, 1.0, 3.0], [1.0, 2.0, 2.0 + 1e-12], 0.1)
        level = 2.0 + 5e-13
        assert f12.pseudo_inverse(level) == 3.0
        # jump1 = c1 * theta1 - sigma1 = level with sigma1 = rho1 = 0
        for th2 in (0.0, 0.5, 4.0):
            _assert_same(f12, 0.0, 0.0, 0.5, 0.1, 1.0, 1.0, level, th2)
        # a genuinely flat segment takes the same path
        flat = P([0.0, 1.0, 3.0], [1.0, 2.0, 2.0], 0.1)
        _assert_same(flat, 0.0, 0.0, 0.5, 0.1, 1.0, 1.0, 2.0, 0.5)

    def test_jump_above_bounded_curve(self):
        # final_slope 0: the curve never reaches a jump level above 2,
        # so that pre-image is inf and the candidate is dropped
        f12 = P([0.0, 1.0], [1.0, 2.0], 0.0)
        assert f12.pseudo_inverse(5.0) == math.inf
        for th2 in (0.0, 1.0, 5.0):
            _assert_same(f12, 0.0, 0.0, 0.5, 0.1, 1.0, 1.0, 5.0, th2)

    def test_single_breakpoint(self):
        f12 = P.affine(2.0, 0.2)
        for th1, th2 in [(0.0, 0.0), (0.5, 0.7), (3.0, 2.0), (9.0, 0.1)]:
            _assert_same(f12, 1.0, 0.25, 1.5, 0.3, 1.0, 1.0, th1, th2)

    def test_unstable_pair(self):
        f12 = P.affine(1.0, 0.5)
        _assert_same(f12, 1.0, 0.6, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        _assert_same(f12, 1.0, 1.2, 0.0, 0.0, 1.0, 1.0, 0.3, 0.0)
        assert _prepared_objective(
            f12, 1.0, 0.6, 0.0, 0.0, 1.0, 1.0)(0.5, 0.5) == math.inf


def _tandem_blocks(n_hops, utilization, monkeypatch):
    """The (f12, f1, f2, c1, c2) of every family solve on a tandem."""
    calls = []
    real = subsystem_module.family_pair_bound

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(subsystem_module, "family_pair_bound", recording)
    IntegratedAnalysis().analyze(build_tandem(n_hops, utilization))
    return calls


class TestSolverIdentity:
    @pytest.mark.parametrize("n_hops", [4, 8])
    def test_pair_bound_matches_oracle_solver(self, n_hops, monkeypatch):
        blocks = _tandem_blocks(n_hops, 0.7, monkeypatch)
        assert blocks
        for args in blocks:
            got = family_pair_bound(*args)
            want = oracle_pair_bound(*args)
            assert [_hex(got.delay_through), _hex(got.theta1),
                    _hex(got.theta2)] == [_hex(want.delay_through),
                                          _hex(want.theta1),
                                          _hex(want.theta2)]

    def test_objective_evals_counted_per_block(self):
        metrics = MetricsRegistry()
        IntegratedAnalysis().analyze(build_tandem(16, 0.7),
                                     ctx=AnalysisContext(metrics=metrics))
        # 8 blocks: 8 * 25 * 25 grid points + 1 707 Nelder-Mead calls
        assert metrics.get("family.objective_evals") == 6707


class TestZeroStartThrough:
    """A through aggregate with F12 = 0 on [0, t0] waits until the gate
    for every bit after t0: the right limit gate - t0 is a candidate."""

    def test_zero_burst_pair_matches_theorem1(self):
        # the objective used to miss the right limit at t = 0+ and
        # returned 0.0 here; Theorem 1 gives 1.0
        res = family_pair_bound(P.line(0.2), P.affine(1.0, 0.2), P.zero(),
                                1.0, 1.0)
        assert res.delay_through == pytest.approx(1.0)

    @pytest.mark.parametrize("thetas", [(0.0, 0.0), (2.0, 1.0),
                                        (5.0, 5.0)])
    def test_peak_limited_through_waits_for_the_gate(self, thetas):
        # t0 = 0 for a peak-limited bucket: F12(0) = 0, F12(0+) > 0,
        # and the composition is 0 up to its gate >= theta1 + theta2
        f12 = TokenBucket(1.0, 0.2, peak=1.0).constraint_curve()
        d = family_delay_for_thetas(f12, 1.0, 0.2, 0.5, 0.1, 1.0, 1.0,
                                    *thetas)
        assert d >= sum(thetas)

    def test_zero_run_then_rise(self):
        f12 = P([0.0, 2.0], [0.0, 0.0], 0.3)
        # gate = theta1 + theta2 = 5 with zero cross traffic; t0 = 2
        d = family_delay_for_thetas(f12, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0,
                                    3.0, 2.0)
        assert d == 3.0

    def test_identically_zero_through_has_no_delay(self):
        d = family_delay_for_thetas(P.zero(), 1.0, 0.2, 0.5, 0.1, 1.0,
                                    1.0, 2.0, 1.0)
        assert d == 0.0

    def test_network_reproducer_is_sound(self):
        from repro.network.flow import Flow
        from repro.network.topology import Network, ServerSpec
        from repro.validate.oracles import check_soundness

        net = Network([ServerSpec(1), ServerSpec(2)],
                      [Flow("thru", TokenBucket(0.0, 0.2), (1, 2)),
                       Flow("x1", TokenBucket(1.0, 0.2), (1,)),
                       Flow("x2", TokenBucket(1.0, 0.2), (2,))])
        report = IntegratedAnalysis().analyze(net)
        # the simulator reaches 1.4 on thru; the bound used to be 0.0
        assert report.delay_of("thru") >= 1.4
        assert check_soundness(net, "thru",
                               analyzers={"integrated":
                                          IntegratedAnalysis()}) == []
