"""Free-function façade over the curve algebra — the kernel layer.

These wrappers give the analyses a uniform functional vocabulary
(``convolve``, ``deconvolve``, ``hdev`` …) and dispatch each operation
on the *active curve kernel* (see :mod:`repro.curves.kernels` and
``docs/KERNELS.md``):

``exact``  (default)
    Exact piecewise-linear algebra — closed forms plus the general
    convex-run convolution / branch deconvolution of
    :mod:`repro.curves.exact`.  No horizon, no sampling, bit-identical
    across runs.
``grid``
    The legacy sampled backend (:mod:`repro.curves.numeric`):
    rate-aware auto-horizons, 4096-point grids, and resolution-derived
    soundness pads that make every sampled bound *dominate* the exact
    one (delay/backlog bounds err on the safe side; deconvolution is
    lifted by its documented pad).  Kept as the differential-checking
    backend — see :func:`repro.validate.oracles.check_exact_grid`.

Each function reads the thread's active kernel
(:func:`repro.curves.kernels.current_kernel`) and nothing else.
``busy_period`` and the pseudo-inverse/crossing paths are closed-form
exact under **every** kernel — they never sampled to begin with.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.context.metrics import kernel_count
from repro.curves import numeric
from repro.curves.exact import exact_convolve, exact_deconvolve
from repro.curves.kernels import current_kernel
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.errors import CurveError
from repro.utils.grid import TimeGrid, make_grid

__all__ = [
    "convolve",
    "convolve_all",
    "hdev",
    "vdev",
    "busy_period",
    "deconvolve",
]

#: Grid resolution used by the sampled backend.
_FALLBACK_RESOLUTION = 4096


def _auto_horizon(*curves: PiecewiseLinearCurve) -> float:
    """The horizon that safely covers the features of *curves*.

    The characteristic time of a curve is its last breakpoint plus —
    when the tail keeps growing — the time the final slope needs to
    double the last breakpoint value.  Sizing by breakpoints alone is
    not enough: a near-degenerate curve like ``affine(sigma, rho)`` has
    its single breakpoint at 0 and would get the minimal 1.0 horizon
    regardless of how slowly its tail accumulates, silently truncating
    every sampled sup/inf that needs ``t ~ sigma/rho`` to settle.
    """
    tc = 0.0
    for c in curves:
        t = float(c.x[-1])
        if c.final_slope > 0:
            t += max(float(c.y[-1]), 0.0) / c.final_slope
        tc = max(tc, t)
    return max(1.0, 4.0 * tc)


def _auto_grid(*curves: PiecewiseLinearCurve,
               horizon: float | None = None) -> TimeGrid:
    """A grid whose horizon safely covers the features of *curves*."""
    if horizon is None:
        horizon = _auto_horizon(*curves)
    return make_grid(horizon, _FALLBACK_RESOLUTION)


def _grid_convolve(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve,
                   horizon: float | None) -> PiecewiseLinearCurve:
    """One pairwise convolution on the sampled backend."""
    try:
        return f.convolve(g)       # closed forms stay exact on any kernel
    except CurveError:
        pass
    grid = _auto_grid(f, g, horizon=horizon)
    out = numeric.grid_convolve(numeric.sample(f, grid),
                                numeric.sample(g, grid))
    return numeric.to_curve(out, grid)


def convolve(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve,
             horizon: float | None = None) -> PiecewiseLinearCurve:
    """Min-plus convolution ``f ⊗ g`` on the active kernel.

    The exact kernel is total (never raises, never samples); *horizon*
    only affects the grid backend's coverage and is ignored by the
    exact path.
    """
    if current_kernel() == "grid":
        return _grid_convolve(f, g, horizon)
    return exact_convolve(f, g)


def convolve_all(curves: Iterable[PiecewiseLinearCurve],
                 horizon: float | None = None) -> PiecewiseLinearCurve:
    """Min-plus convolution of an iterable of curves (left fold).

    On the grid backend *horizon* is a **minimum** coverage for the
    sampled folds, not the literal grid size: the accumulator's
    characteristic time grows with every fold, so each pairwise fold
    re-derives its grid from the current operands and only widens it to
    the caller's *horizon*.  (Reusing one fixed horizon for every fold
    truncated late folds — the accumulator's tail past the grid was
    extrapolated with a single slope, silently inflating the result.)
    The exact kernel folds with no horizon at all.
    """
    it = iter(curves)
    try:
        acc = next(it)
    except StopIteration:
        raise CurveError("convolve_all needs at least one curve") from None
    for c in it:
        h = None if horizon is None else max(horizon, _auto_horizon(acc, c))
        acc = convolve(acc, c, horizon=h)
    return acc


def _grid_deconvolve(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve,
                     horizon: float | None) -> PiecewiseLinearCurve:
    """``f ⊘ g`` on the sampled backend (padded, truncated sup)."""
    kernel_count("curve.deconvolve")
    grid = _auto_grid(f, g, horizon=horizon)
    out = numeric.grid_deconvolve(numeric.sample(f, grid),
                                  numeric.sample(g, grid))
    # The sampled sup is truncated at the horizon, which contaminates the
    # tail of the result (the sup near the boundary sees too few
    # offsets).  Keep
    # the first 75% of the samples and extend with f's long-term rate —
    # the analytically correct tail slope of f ⊘ g for stable systems.
    # The graft itself is continuous: the tail is anchored at the last
    # kept breakpoint's value, so no vertical jump can appear at the
    # splice (pinned against closed-form token-bucket / rate-latency
    # cases in tests/curves/test_operations.py).
    keep = max(2, (3 * grid.n) // 4)
    sub = TimeGrid(grid.times[keep - 1], keep)
    curve = numeric.to_curve(out[:keep], sub)
    # The grid sup evaluates only on-grid offsets and the reconstruction
    # interpolates between on-grid instants, so the raw samples sit up
    # to ~dt * slope *below* the exact supremum — the unsound direction
    # for an output-traffic bound.  Lift the whole curve by the
    # resolution-derived worst case so the result dominates the exact
    # f ⊘ g everywhere (the pad vanishes as the resolution grows).
    pad = 0.5 * grid.dt * (_max_abs_slope(f) + _max_abs_slope(g))
    return PiecewiseLinearCurve(curve.x, curve.y + pad, f.long_term_rate())


def deconvolve(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve,
               horizon: float | None = None) -> PiecewiseLinearCurve:
    """Min-plus deconvolution ``f ⊘ g`` on the active kernel.

    The output-traffic bound of a flow with arrival curve ``f`` served
    with service curve ``g``.  The exact kernel evaluates the supremum
    over breakpoint offsets with no horizon and raises
    :class:`CurveError` when it diverges (``f`` outgrows ``g``); the
    grid backend truncates at its rate-aware horizon instead and pads
    the result to dominate the exact one.
    """
    if current_kernel() == "grid":
        return _grid_deconvolve(f, g, horizon)
    return exact_deconvolve(f, g)


def _max_abs_slope(c: PiecewiseLinearCurve) -> float:
    """Largest absolute segment slope of *c* (Lipschitz constant)."""
    return float(np.max(np.abs(c.slopes())))


def hdev(arrival: PiecewiseLinearCurve,
         service: PiecewiseLinearCurve) -> float:
    """Horizontal deviation (worst-case delay bound).

    Exact on the ``exact`` kernel.  The grid backend samples
    both curves on a rate-aware grid and **adds its documented error
    envelope** (``2·dt·(1 + L_arr / rate_srv)``) so the sampled bound
    always dominates the exact one — a sampled delay bound below the
    true deviation would be unsound.
    """
    if current_kernel() != "grid":
        return arrival.horizontal_deviation(service)
    if arrival.final_slope > service.final_slope + 1e-12:
        return float("inf")
    grid = _auto_grid(arrival, service)
    sampled = numeric.grid_hdev(numeric.sample(arrival, grid),
                                numeric.sample(service, grid), grid)
    if not np.isfinite(sampled):
        return float(sampled)
    pad = 2.0 * grid.dt * (1.0 + _max_abs_slope(arrival)
                           / max(service.final_slope, 1e-9))
    return float(sampled + pad)


def vdev(arrival: PiecewiseLinearCurve,
         service: PiecewiseLinearCurve) -> float:
    """Vertical deviation (worst-case backlog bound).

    Exact on the ``exact`` kernel; the grid backend adds its
    error envelope (``2·dt·(L_arr + L_srv)``) so the sampled bound
    dominates the exact one.
    """
    if current_kernel() != "grid":
        return arrival.vertical_deviation(service)
    if arrival.final_slope > service.final_slope + 1e-12:
        return float("inf")
    grid = _auto_grid(arrival, service)
    sampled = numeric.grid_vdev(numeric.sample(arrival, grid),
                                numeric.sample(service, grid))
    pad = 2.0 * grid.dt * (_max_abs_slope(arrival)
                           + _max_abs_slope(service))
    return float(sampled + pad)


def busy_period(aggregate: PiecewiseLinearCurve, capacity: float) -> float:
    """Length of the maximum busy period of a work-conserving server.

    Smallest ``t > 0`` with ``aggregate(t) <= capacity * t`` (paper's
    ``B_j``).  Returns ``inf`` for an unstable server (long-term arrival
    rate >= capacity) — callers should have validated stability first.
    The crossing scan is closed-form exact and identical under every
    kernel.
    """
    if capacity <= 0:
        raise CurveError(f"capacity must be > 0, got {capacity}")
    return aggregate.first_crossing_below(
        PiecewiseLinearCurve.line(capacity))
