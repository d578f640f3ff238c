"""FIFO leftover-service-curve family for a two-server subsystem.

The second integrated kernel: the rigorous min-plus counterpart of the
paper's server integration, based on the FIFO residual-service family
(Cruz [10]; Le Boudec & Thiran, Prop. 6.2.1).  For a FIFO server of rate
``C`` whose *cross* traffic is bounded by the affine curve
``sigma_x + rho_x t``, the through traffic is guaranteed, for every
parameter ``theta >= 0``, the service curve

``beta_theta(t) = [C t - sigma_x - rho_x (t - theta)]^+ * 1{t > theta}``

Composing one family member per server and minimizing the horizontal
deviation over ``(theta1, theta2)`` yields an end-to-end bound that
"pays the through burst only once" across the pair — the same
integration principle as Theorem 1, reached through the service-curve
formalism.  Taking the *minimum* of this bound and the Theorem-1 bound
is sound (both are valid upper bounds).

The composition has the closed form (derived in the module tests by
brute force):

``(beta1_t1 ⊗ beta2_t2)(t) = 0`` for ``t <= t1 + t2`` and otherwise
``min( beta1(t - t2), beta2(t - t1) )``

so the delay bound for through curve ``F12`` is computed exactly — no
grids — from the levels at which each branch crosses ``F12``.

General concave cross curves are soundly reduced to their affine upper
envelope first (:func:`affine_envelope`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.context.metrics import kernel_count
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.errors import CurveError
from repro.utils.validation import check_positive

__all__ = ["FamilyResult", "affine_envelope", "family_pair_bound",
           "family_delay_for_thetas", "SOLVER_VERSION"]

#: Version of the θ-family solver's results.  Bumped whenever a change
#: can move its bounds, and part of every cached block key, so a block
#: stored by an older solver never answers for this one.  2: the
#: right-limit candidate for through aggregates that start at zero.
SOLVER_VERSION = 2


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of the theta-family optimization for one subsystem."""

    delay_through: float
    theta1: float
    theta2: float


def affine_envelope(curve: PiecewiseLinearCurve) -> tuple[float, float]:
    """Smallest affine upper bound ``(sigma, rho)`` with ``rho`` equal to
    the curve's long-term rate.

    For a concave curve this is tight at infinity; for a general curve
    the burst term is the vertical deviation from the ``rho t`` line.
    """
    rho = curve.long_term_rate()
    line = PiecewiseLinearCurve.line(rho)
    sigma = curve.vertical_deviation(line)
    if not math.isfinite(sigma):
        raise ValueError("curve has no affine envelope at its long-term "
                         "rate (increasing slopes?)")
    return max(0.0, sigma), rho


def _prepared_objective(f12: PiecewiseLinearCurve,
                        sigma1: float, rho1: float,
                        sigma2: float, rho2: float,
                        c1: float, c2: float,
                        ) -> Callable[[float, float], float]:
    """The exact ``(theta1, theta2) -> delay`` objective of one block.

    Everything that does not depend on the thetas is done once here:
    the stability test, the monotonicity check of ``f12`` and its
    breakpoints as Python floats.  The returned plain-float closure
    evaluates ``f12`` and its lower pseudo-inverse through the curve's
    own plain-float helpers (``_value`` and ``_inverse``, the code behind
    :meth:`PiecewiseLinearCurve.__call__` and
    :meth:`PiecewiseLinearCurve.pseudo_inverse`), so every value is
    bit-identical to calling the curve methods, without their
    per-call checks and counters.
    """
    r1 = c1 - rho1
    r2 = c2 - rho2
    if r1 <= 0 or r2 <= 0 or f12.long_term_rate() >= min(r1, r2):
        return lambda theta1, theta2: math.inf
    nondecreasing = f12.is_nondecreasing()
    # f12 at its own breakpoints is just its y values (x[0] == 0 covers
    # t = 0).
    breakpoints = f12.breakpoints()
    f12_at, preimages = f12._value, f12._inverse
    final = f12.final_slope
    # t0: the last point of an initial zero run of f12, when f12 rises
    # after it.  tau(0) = 0 but tau(v) >= gate for every v > 0, so the
    # bits arriving just after t0 wait until the gate: the supremum
    # gate - t0 is a right limit that no breakpoint attains.
    t0 = None
    if breakpoints[0][1] <= 0.0:
        k = 0
        n = len(breakpoints)
        while k + 1 < n and breakpoints[k + 1][1] <= 0.0:
            k += 1
        if k + 1 < n or final > 0.0:
            t0 = breakpoints[k][0]

    def objective(theta1: float, theta2: float) -> float:
        a1 = sigma1 - rho1 * theta1
        a2 = sigma2 - rho2 * theta2
        # The composition (beta1 ⊗ beta2)(t) = min(beta1(t - S2),
        # beta2(t - S1)) for t > S1 + S2 (0 before), where S_i is each
        # curve's effective start: max(theta_i, a_i / r_i), the gate or
        # the latency, whichever is later.
        s1 = max(theta1, a1 / r1 if a1 > 0 else 0.0)
        s2 = max(theta2, a2 / r2 if a2 > 0 else 0.0)
        gate = s1 + s2
        # Each branch jumps to J_i = [r_i S_i - a_i]^+ at its start.
        jump1 = max(0.0, r1 * s1 - a1)
        jump2 = max(0.0, r2 * s2 - a2)

        def tau(v: float) -> float:
            # First time the composition reaches level v.  A branch
            # reaches any level up to its jump at S1 + S2 (= gate).
            if v <= 0:
                return 0.0
            t_a = gate if v <= jump1 else s2 + (a1 + v) / r1
            t_b = gate if v <= jump2 else s1 + (a2 + v) / r2
            return max(gate, t_a, t_b)

        # Candidate maximizers of tau(F12(t)) - t: the right limit
        # after f12's initial zero run, the through curve's breakpoints
        # plus the pre-images of the branch jump levels (where tau
        # kinks).
        best = 0.0 if t0 is None else max(0.0, gate - t0)
        for t, v in breakpoints:
            best = max(best, tau(v) - t)
        levels = [lv for lv in (jump1, jump2) if lv > 0]
        if levels:
            if not nondecreasing:
                raise CurveError(
                    "pseudo_inverse requires a nondecreasing curve")
            for t in preimages(levels):
                if math.isfinite(t):
                    best = max(best, tau(f12_at(t)) - t)
        return best

    return objective


def family_delay_for_thetas(f12: PiecewiseLinearCurve,
                            sigma1: float, rho1: float,
                            sigma2: float, rho2: float,
                            c1: float, c2: float,
                            theta1: float, theta2: float) -> float:
    """Exact delay bound for one ``(theta1, theta2)`` family member.

    ``sigma_i, rho_i`` describe the affine cross-traffic envelope at
    server ``i``; ``f12`` is the through-aggregate constraint curve.
    """
    return _prepared_objective(f12, sigma1, rho1, sigma2, rho2,
                               c1, c2)(theta1, theta2)


def family_pair_bound(f12: PiecewiseLinearCurve,
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
        Grid points per theta axis for the initial sweep (>= 1).
    refine:
        Run a Nelder–Mead polish from the best grid point.
    """
    if coarse < 1:
        raise ValueError(f"coarse must be >= 1, got {coarse}")
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

    objective = _prepared_objective(f12, sigma1, rho1, sigma2, rho2, c1, c2)
    # imported here, not at module load: np.linspace keeps the grid
    # bit-identical, and nothing else on the Decomposed path needs numpy
    import numpy as np

    grid2 = np.linspace(0.0, tmax2, coarse).tolist()
    best = (math.inf, 0.0, 0.0)
    for t1 in np.linspace(0.0, tmax1, coarse).tolist():
        for t2 in grid2:
            d = objective(t1, t2)
            if d < best[0]:
                best = (d, t1, t2)

    nfev = 0
    if refine and math.isfinite(best[0]):
        # imported here, not at module load: scipy is most of the
        # package's import time, and only this refinement uses it
        from scipy import optimize

        res = optimize.minimize(
            lambda th: objective(max(float(th[0]), 0.0),
                                 max(float(th[1]), 0.0)),
            x0=np.array([best[1], best[2]]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        nfev = res.nfev
        if res.fun < best[0]:
            best = (float(res.fun), float(max(res.x[0], 0.0)),
                    float(max(res.x[1], 0.0)))
    kernel_count("family.objective_evals", coarse * coarse + nfev)

    return FamilyResult(delay_through=best[0], theta1=best[1],
                        theta2=best[2])
