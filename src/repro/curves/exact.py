"""Exact min-plus convolution and deconvolution for general PL curves.

The closed forms in :mod:`repro.curves.piecewise` cover the two shapes
the local analyses produce (concave/concave arrival convolution and
convex/convex service convolution).  Everything else — mixed-convexity
convolution, all deconvolution — used to fall back to the 4096-point
sampled grid, whose horizon heuristics and soundness pads were a
recurring source of bug fixes.  This module replaces that fallback with
exact segment algebra:

Convolution
    Any piecewise-linear curve is the pointwise minimum of its maximal
    *convex runs* (the curve restricted to a maximal interval of
    nondecreasing segment slopes, ``+inf`` outside).  Min-plus
    convolution distributes over ``min``, and the convolution of two
    convex pieces is the classical slope interleave started at the sum
    of their domain origins (the Minkowski sum of their epigraphs).
    The result is the exact lower envelope of the piecewise
    convolutions.

Deconvolution
    ``(f ⊘ g)(t) = sup_{u >= 0} f(t+u) - g(u)``.  For fixed ``t`` the
    objective is piecewise linear in ``u`` with kinks only where ``u``
    is a breakpoint of ``g`` or ``t + u`` is a breakpoint of ``f``, so
    the supremum is attained on a finite *branch* family: one branch
    ``t -> f(t + u_i) - g(u_i)`` per breakpoint ``u_i`` of ``g``
    (unbounded domain, eventual slope ``f.final_slope``) and one branch
    ``t -> f(x_j) - g(x_j - t)`` per breakpoint ``x_j`` of ``f``
    (domain ``[0, x_j]``).  The result is the exact upper envelope of
    the branches; its tail slope is ``f.long_term_rate()`` exactly —
    no horizon, no 75%-keep truncation, no resolution pad.

Envelopes
    The lower (upper) envelope of finitely many line segments is
    computed exactly: the candidate abscissae are every segment
    endpoint plus every pairwise intersection inside the segments'
    common domain.  Between consecutive candidates no two segments
    cross, so the envelope is a single segment there and linear
    interpolation between candidate values is exact (midpoints are
    evaluated as well, purely as numerical insurance; collinear points
    are dropped by ``simplified()``).

Complexity is ``O(S^2)`` in the total segment count ``S`` — for the
analyses' curves ``S`` is a few dozen, orders of magnitude below the
``O(n^2)``-on-4096-samples grid kernel (see
``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.context.metrics import kernel_count
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.errors import CurveError
from repro.utils.tolerance import EPS

__all__ = ["exact_convolve", "exact_deconvolve"]

_INF = math.inf

#: Relative spacing below which two candidate breakpoints are merged.
_MERGE_REL = 1e-12


# ----------------------------------------------------------------------
# segment soup -> exact lower envelope
# ----------------------------------------------------------------------


def _lower_envelope(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
                    sl: np.ndarray) -> PiecewiseLinearCurve:
    """Exact lower envelope of line segments (``+inf`` off-domain).

    Segment ``k`` covers ``[x0[k], x1[k]]`` (``x1`` may be ``inf``)
    with value ``y0[k] + sl[k] * (x - x0[k])``.  The segments must
    cover ``[min(x0), inf)`` — at least one must be unbounded — and
    the true envelope must be continuous (both hold for the min-plus
    results this module builds; violations raise :class:`CurveError`).
    """
    # -- candidate abscissae: endpoints + pairwise intersections -------
    cands = [x0, x1[np.isfinite(x1)]]
    intercept = y0 - sl * x0
    dslope = sl[:, None] - sl[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = (intercept[None, :] - intercept[:, None]) / dslope
    lo = np.maximum(x0[:, None], x0[None, :])
    hi = np.minimum(x1[:, None], x1[None, :])
    ok = (np.abs(dslope) > 1e-15) & np.isfinite(xc)
    tol = 1e-9 * np.maximum(1.0, np.abs(np.where(ok, xc, 0.0)))
    ok &= (xc >= lo - tol) & (xc <= hi + tol)
    cands.append(xc[ok])

    xmin = float(np.min(x0))
    xs = np.unique(np.concatenate(cands))
    xs = xs[xs >= xmin]
    if xs.size == 0 or xs[0] != xmin:
        xs = np.concatenate(([xmin], xs[xs > xmin]))
    if xs.size > 1:
        keep = np.concatenate(
            ([True],
             np.diff(xs) > _MERGE_REL * np.maximum(1.0, np.abs(xs[1:]))))
        xs = xs[keep]
    if xs.size > 1:
        pts = np.unique(np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])]))
    else:
        pts = xs

    # -- envelope values at the candidates -----------------------------
    atol = 1e-9 * np.maximum(1.0, np.abs(pts))
    active = ((pts[None, :] >= x0[:, None] - atol[None, :])
              & (pts[None, :] <= x1[:, None] + atol[None, :]))
    vals = y0[:, None] + sl[:, None] * (pts[None, :] - x0[:, None])
    env = np.min(np.where(active, vals, _INF), axis=0)
    if not np.all(np.isfinite(env)):
        raise CurveError("segment envelope leaves the domain uncovered")

    # -- tail: the unbounded segment that wins past the last candidate
    unbounded = np.isinf(x1)
    if not np.any(unbounded):
        raise CurveError("segment envelope needs an unbounded segment")
    far = pts[-1] + max(1.0, abs(pts[-1]))
    far_vals = y0[unbounded] + sl[unbounded] * (far - x0[unbounded])
    near = far_vals <= np.min(far_vals) + EPS * max(1.0, far)
    final_slope = float(np.min(sl[unbounded][near]))

    return PiecewiseLinearCurve(pts, env, final_slope)


# ----------------------------------------------------------------------
# convolution: convex-run decomposition + slope interleave
# ----------------------------------------------------------------------


def _convex_runs(c: PiecewiseLinearCurve):
    """Maximal convex runs of *c* as ``(x0, y0, [(slope, length), ...])``.

    The runs partition the domain; on its own interval each run equals
    *c* and is convex, so ``c`` is the pointwise min of the runs
    extended by ``+inf`` — the decomposition convolution distributes
    over.  The last run's last segment has infinite length (the final
    slope).
    """
    s = c.slopes()
    m = s.size
    lengths = np.append(np.diff(c.x), _INF)
    runs = []
    start = 0
    for i in range(1, m):
        if s[i] < s[i - 1] - EPS:      # concave kink: a new run begins
            runs.append(start)
            start = i
    runs.append(start)
    out = []
    for r, a in enumerate(runs):
        b = runs[r + 1] if r + 1 < len(runs) else m
        segs = [(float(s[i]), float(lengths[i])) for i in range(a, b)]
        out.append((float(c.x[a]), float(c.y[a]), segs))
    return out


def _convolve_runs(p, q):
    """Min-plus convolution of two convex runs (slope interleave).

    The epigraph of the inf-convolution of convex functions is the
    Minkowski sum of the operand epigraphs: starting at the sum of the
    domain origins, traverse the union of both runs' segments in
    nondecreasing slope order.  The first infinite segment terminates
    the walk (steeper segments are never reached).
    """
    ax, ay, asegs = p
    bx, by, bsegs = q
    merged = sorted(asegs + bsegs, key=lambda seg: seg[0])
    cx, cy = ax + bx, ay + by
    x0s, y0s, sls, x1s = [], [], [], []
    for slope, length in merged:
        if math.isinf(length):
            x0s.append(cx)
            y0s.append(cy)
            sls.append(slope)
            x1s.append(_INF)
            break
        x0s.append(cx)
        y0s.append(cy)
        sls.append(slope)
        cx += length
        cy += slope * length
        x1s.append(cx)
    return x0s, x1s, y0s, sls


def exact_convolve(f: PiecewiseLinearCurve,
                   g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Exact ``f ⊗ g`` for arbitrary finite PL curves.

    Uses the closed forms of :meth:`PiecewiseLinearCurve.convolve` when
    the operands' shapes admit them, otherwise the convex-run
    decomposition (counted as ``curve.exact_convolve``).  Total: never
    raises, never samples.
    """
    try:
        return f.convolve(g)
    except CurveError:
        pass
    kernel_count("curve.exact_convolve")
    x0s: list[float] = []
    x1s: list[float] = []
    y0s: list[float] = []
    sls: list[float] = []
    for p in _convex_runs(f):
        for q in _convex_runs(g):
            a, b, c, d = _convolve_runs(p, q)
            x0s.extend(a)
            x1s.extend(b)
            y0s.extend(c)
            sls.extend(d)
    return _lower_envelope(np.asarray(x0s), np.asarray(x1s),
                           np.asarray(y0s), np.asarray(sls)).simplified()


# ----------------------------------------------------------------------
# deconvolution: breakpoint-offset branches + upper envelope
# ----------------------------------------------------------------------


def exact_deconvolve(f: PiecewiseLinearCurve,
                     g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Exact ``f ⊘ g`` — the output-traffic bound, with no horizon.

    Raises :class:`CurveError` when ``f`` outgrows ``g``
    (``f.final_slope > g.final_slope``): the supremum is infinite and
    no finite curve bounds the output.  The grid backend silently
    truncates that divergence at its horizon.
    """
    if f.final_slope > g.final_slope + EPS:
        raise CurveError(
            f"deconvolution diverges: f grows at {f.final_slope:g} > "
            f"g at {g.final_slope:g}; no finite output bound exists")
    kernel_count("curve.exact_deconvolve")
    x0s: list[float] = []
    x1s: list[float] = []
    y0s: list[float] = []
    sls: list[float] = []

    def add_branch(ts: np.ndarray, vs: np.ndarray, tail: float | None):
        # negate: the upper envelope of branches is the negated lower
        # envelope of the negated branches
        for k in range(ts.size - 1):
            dx = ts[k + 1] - ts[k]
            if dx <= 0:
                continue
            x0s.append(float(ts[k]))
            x1s.append(float(ts[k + 1]))
            y0s.append(float(-vs[k]))
            sls.append(float(-(vs[k + 1] - vs[k]) / dx))
        if tail is not None:
            x0s.append(float(ts[-1]))
            x1s.append(_INF)
            y0s.append(float(-vs[-1]))
            sls.append(-tail)

    # type 1: u pinned at a breakpoint of g -> f shifted left by u
    for u, gu in zip(g.x, g.y):
        ts = np.unique(np.concatenate(
            ([0.0], f.x[f.x > u] - u)))
        vs = f.sample(ts + u) - gu
        add_branch(ts, vs, tail=f.final_slope)

    # type 2: t + u pinned at a breakpoint of f -> reflected g
    for xj, fj in zip(f.x, f.y):
        if xj <= 0.0:
            continue      # single-point domain; covered by type 1 at t=0
        ts = np.unique(np.clip(np.concatenate(
            ([0.0, xj], xj - g.x[g.x < xj])), 0.0, xj))
        vs = fj - g.sample(xj - ts)
        add_branch(ts, vs, tail=None)

    env = _lower_envelope(np.asarray(x0s), np.asarray(x1s),
                          np.asarray(y0s), np.asarray(sls))
    # the sup's tail slope is analytically f's long-term rate
    return PiecewiseLinearCurve(env.x, -env.y,
                                f.long_term_rate()).simplified()
