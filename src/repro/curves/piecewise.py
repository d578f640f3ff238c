"""Exact piecewise-linear curves on ``[0, +inf)``.

This module implements the workhorse data structure of the whole library:
:class:`PiecewiseLinearCurve`, a continuous piecewise-linear function

``f(t) = y_k + s_k * (t - x_k)``  for ``t`` in ``[x_k, x_{k+1}]``

defined by sorted breakpoints ``x`` (with ``x[0] == 0``), values ``y`` at
those breakpoints and a ``final_slope`` used beyond the last breakpoint.
An instantaneous burst at ``t = 0`` (a token bucket's ``sigma``) is
represented by ``y[0] > 0``; the curves are continuous everywhere on
``(0, inf)``.

The network-calculus operations provided here are *exact* (no sampling):

* pointwise ``+``, ``-``, scalar multiply, pointwise ``min`` / ``max``
  (with segment-intersection breakpoints),
* min-plus convolution for the concave/concave and convex/convex cases
  (the only ones the analyses need; a sampled fallback for the general
  case lives in :mod:`repro.curves.numeric`),
* lower pseudo-inverse ``f^{-1}(y) = inf{t : f(t) >= y}``,
* horizontal and vertical deviation (delay / backlog bounds),
* first positive crossing (busy-period computation).

All evaluation paths are vectorized with numpy, per the optimization
guidance for this codebase (vectorize; avoid Python-level loops on hot
paths; operate on views where possible).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.context.metrics import kernel_count
from repro.errors import CurveError
from repro.utils.tolerance import EPS, close

__all__ = ["PiecewiseLinearCurve"]

_INF = math.inf


def _as_sorted_breakpoints(x: Sequence[float], y: Sequence[float]):
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise CurveError("x and y must be 1-D arrays of equal length")
    if xa.size == 0:
        raise CurveError("a curve needs at least one breakpoint")
    if not np.all(np.isfinite(xa)) or not np.all(np.isfinite(ya)):
        raise CurveError("breakpoints must be finite")
    if xa[0] != 0.0:
        raise CurveError(f"first breakpoint must be at x=0, got {xa[0]}")
    if np.any(np.diff(xa) <= 0):
        raise CurveError("breakpoint x values must be strictly increasing")
    return xa, ya


class PiecewiseLinearCurve:
    """A continuous piecewise-linear function on ``[0, inf)``.

    Parameters
    ----------
    x, y:
        Breakpoint coordinates. ``x`` must be strictly increasing with
        ``x[0] == 0``.
    final_slope:
        Slope of the curve for ``t >= x[-1]``.

    Notes
    -----
    Instances are immutable; all operations return new curves.
    """

    __slots__ = ("x", "y", "final_slope")

    def __init__(self, x: Sequence[float], y: Sequence[float],
                 final_slope: float) -> None:
        xa, ya = _as_sorted_breakpoints(x, y)
        if not math.isfinite(final_slope):
            raise CurveError(f"final_slope must be finite, got {final_slope}")
        self.x = xa
        self.y = ya
        self.final_slope = float(final_slope)
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewiseLinearCurve":
        """The identically-zero curve."""
        return cls([0.0], [0.0], 0.0)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinearCurve":
        """The constant curve ``f(t) = value``."""
        return cls([0.0], [float(value)], 0.0)

    @classmethod
    def line(cls, rate: float) -> "PiecewiseLinearCurve":
        """The linear curve ``f(t) = rate * t`` (e.g. a link's capacity)."""
        return cls([0.0], [0.0], float(rate))

    @classmethod
    def affine(cls, burst: float, rate: float) -> "PiecewiseLinearCurve":
        """The affine curve ``f(t) = burst + rate * t`` (token bucket)."""
        return cls([0.0], [float(burst)], float(rate))

    @classmethod
    def rate_latency(cls, rate: float, latency: float) -> "PiecewiseLinearCurve":
        """The rate-latency service curve ``R * max(0, t - T)``."""
        if latency < 0:
            raise CurveError(f"latency must be >= 0, got {latency}")
        if latency == 0:
            return cls.line(rate)
        return cls([0.0, float(latency)], [0.0, 0.0], float(rate))

    @classmethod
    def from_breakpoints(cls, points: Iterable[tuple[float, float]],
                         final_slope: float) -> "PiecewiseLinearCurve":
        """Build a curve from an iterable of ``(x, y)`` pairs."""
        pts = sorted(points)
        return cls([p[0] for p in pts], [p[1] for p in pts], final_slope)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def __call__(self, t):
        """Evaluate the curve at ``t`` (scalar or array); ``t < 0`` maps to 0.

        The convention ``f(t) = 0`` for ``t < 0`` matches the network
        calculus convention for arrival/service curves extended to the
        whole real line.
        """
        ta = np.asarray(t, dtype=float)
        out = np.interp(ta, self.x, self.y)
        tail = ta > self.x[-1]
        if np.any(tail):
            out = np.where(
                tail, self.y[-1] + self.final_slope * (ta - self.x[-1]), out
            )
        out = np.where(ta < 0, 0.0, out)
        if np.isscalar(t) or ta.ndim == 0:
            return float(out)
        return out

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation returning an ndarray (grid kernels)."""
        return np.asarray(self(times), dtype=float)

    @property
    def n_breakpoints(self) -> int:
        """Number of breakpoints."""
        return int(self.x.size)

    def slopes(self) -> np.ndarray:
        """Per-segment slopes, including the final slope (length == len(x))."""
        if self.x.size == 1:
            return np.array([self.final_slope])
        seg = np.diff(self.y) / np.diff(self.x)
        return np.append(seg, self.final_slope)

    def is_nondecreasing(self, eps: float = EPS) -> bool:
        """True when every segment slope is >= 0 (up to tolerance)."""
        return bool(np.all(self.slopes() >= -eps))

    def _shape_holds(self, sign: float, eps: float) -> bool:
        """Shared convexity/concavity test; ``sign`` +1 convex, -1 concave.

        A kink violates the shape when the slope changes the wrong way
        by more than *eps* — unless the preceding segment is so narrow
        that it moves the curve by at most *eps* in **value**.  The
        width-weighted let-out keeps representation-level artifacts
        (e.g. denormal-width segments produced by max/min of
        near-identical curves) from flipping the classification of a
        curve that is convex for every practical purpose.  A forgiven
        narrow segment is merged into its neighbour and the test runs
        again, so a real kink hidden behind a narrow segment (slopes
        ``a < b > c`` with ``b`` narrow and ``a > c``) still counts.
        """
        x, y = self.x, self.y
        while x.size > 1:
            s = np.append(np.diff(y) / np.diff(x), self.final_slope)
            defect = sign * -np.diff(s)
            bad = ~(defect <= eps)  # a NaN defect counts as a violation
            if not bad.any():
                return True
            narrow = np.diff(x)[bad] * defect[bad] <= eps
            if not narrow.all():
                return False
            # merge each forgiven segment k into segment k-1 by dropping
            # its left breakpoint (the first segment into segment 1)
            keep = np.ones(x.size, dtype=bool)
            keep[np.maximum(np.flatnonzero(bad), 1)] = False
            x, y = x[keep], y[keep]
        return True

    def is_convex(self, eps: float = EPS) -> bool:
        """True when segment slopes are nondecreasing (up to tolerance)."""
        return self._shape_holds(1.0, eps)

    def is_concave(self, eps: float = EPS) -> bool:
        """True when segment slopes are nonincreasing (up to tolerance).

        Note: a curve with ``y[0] > 0`` is treated as concave on
        ``(0, inf)``; the jump at 0 is ignored, matching the arrival-curve
        convention.
        """
        return self._shape_holds(-1.0, eps)

    def value_at_zero(self) -> float:
        """The curve value at ``t = 0`` (a token bucket's burst)."""
        return float(self.y[0])

    def long_term_rate(self) -> float:
        """The asymptotic growth rate (the final slope)."""
        return self.final_slope

    # ------------------------------------------------------------------
    # normalization helpers
    # ------------------------------------------------------------------

    def simplified(self, eps: float = EPS) -> "PiecewiseLinearCurve":
        """Drop collinear breakpoints; the returned curve is equivalent."""
        if self.x.size <= 1:
            return self
        s = self.slopes()
        keep = [0]
        for k in range(1, self.x.size):
            if not close(s[k], s[k - 1], eps):
                keep.append(k)
        return PiecewiseLinearCurve(self.x[keep], self.y[keep],
                                    self.final_slope)

    # ------------------------------------------------------------------
    # pointwise arithmetic
    # ------------------------------------------------------------------

    def _binary_grid(self, other: "PiecewiseLinearCurve") -> np.ndarray:
        """Union of both curves' breakpoints (shared evaluation points)."""
        return np.union1d(self.x, other.x)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return PiecewiseLinearCurve(self.x, self.y + float(other),
                                        self.final_slope)
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        xs = self._binary_grid(other)
        ys = self.sample(xs) + other.sample(xs)
        return PiecewiseLinearCurve(xs, ys,
                                    self.final_slope + other.final_slope)

    __radd__ = __add__

    def __neg__(self):
        return PiecewiseLinearCurve(self.x, -self.y, -self.final_slope)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-float(other))
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        c = float(scalar)
        return PiecewiseLinearCurve(self.x, self.y * c, self.final_slope * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        a, b = self.simplified(), other.simplified()
        return (
            a.x.size == b.x.size
            and bool(np.allclose(a.x, b.x))
            and bool(np.allclose(a.y, b.y))
            and close(a.final_slope, b.final_slope)
        )

    def __hash__(self):  # pragma: no cover - curves are not dict keys
        return id(self)

    def __repr__(self) -> str:
        pts = ", ".join(f"({xi:g},{yi:g})" for xi, yi in
                        zip(self.x[:4], self.y[:4]))
        more = "..." if self.x.size > 4 else ""
        return (f"PiecewiseLinearCurve([{pts}{more}], "
                f"final_slope={self.final_slope:g})")

    # ------------------------------------------------------------------
    # pointwise min / max (with intersection breakpoints)
    # ------------------------------------------------------------------

    def _minmax(self, other: "PiecewiseLinearCurve", take_min: bool):
        kernel_count("curve.minmax")
        xs = self._binary_grid(other)
        # Within each shared segment the difference is affine, so any
        # sign change pinpoints one intersection to add as a breakpoint.
        fa = self.sample(xs)
        fb = other.sample(xs)
        diff = fa - fb
        extra = []
        for k in range(xs.size - 1):
            d0, d1 = diff[k], diff[k + 1]
            if (d0 > EPS and d1 < -EPS) or (d0 < -EPS and d1 > EPS):
                frac = d0 / (d0 - d1)
                extra.append(xs[k] + frac * (xs[k + 1] - xs[k]))
        # A final intersection may occur beyond the last breakpoint.
        dslope = self.final_slope - other.final_slope
        dlast = diff[-1]
        if abs(dslope) > EPS:
            tcross = xs[-1] - dlast / dslope
            if tcross > xs[-1] + EPS:
                extra.append(tcross)
        if extra:
            xs = np.union1d(xs, np.asarray(extra))
            fa = self.sample(xs)
            fb = other.sample(xs)
        ys = np.minimum(fa, fb) if take_min else np.maximum(fa, fb)
        # Tail slope: whichever curve is lower (min) / higher (max) at the
        # far end dictates the final slope; ties pick the smaller/larger
        # slope respectively.
        far = xs[-1] + 1.0
        va, vb = self(far), other(far)
        if take_min:
            if close(va, vb):
                fs = min(self.final_slope, other.final_slope)
            else:
                fs = self.final_slope if va < vb else other.final_slope
        else:
            if close(va, vb):
                fs = max(self.final_slope, other.final_slope)
            else:
                fs = self.final_slope if va > vb else other.final_slope
        return PiecewiseLinearCurve(xs, ys, fs).simplified()

    def minimum(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact pointwise minimum of two curves."""
        return self._minmax(other, take_min=True)

    def maximum(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact pointwise maximum of two curves."""
        return self._minmax(other, take_min=False)

    def positive_part(self) -> "PiecewiseLinearCurve":
        """Pointwise ``max(f, 0)`` — used for leftover service curves."""
        return self.maximum(PiecewiseLinearCurve.zero())

    # ------------------------------------------------------------------
    # shifts
    # ------------------------------------------------------------------

    def shift_right(self, d: float) -> "PiecewiseLinearCurve":
        """The curve ``t -> f(t - d)`` (0 before ``d``); ``d >= 0``.

        Used to delay a service curve; the region ``[0, d]`` is filled
        with the value 0, so the result of shifting a curve with
        ``f(0) > 0`` keeps a 0 segment then ramps (continuity at the
        library level is preserved by inserting the pre-jump point).
        """
        if d < 0:
            raise CurveError(f"shift_right needs d >= 0, got {d}")
        if d == 0:
            return self
        x = np.concatenate(([0.0], self.x + d))
        y = np.concatenate(([0.0], self.y))
        if self.y[0] > EPS:
            # keep the vertical rise at t=d representable: approximate the
            # jump with the segment [d-0, d] of slope ~ y0/epsilon is not
            # needed -- np.interp between (0,0) and (d, y0) would smear the
            # jump, so insert a point just before d.
            d_pre = d * (1.0 - 1e-12) if d > 0 else 0.0
            x = np.concatenate(([0.0, d_pre], self.x + d))
            y = np.concatenate(([0.0, 0.0], self.y))
        return PiecewiseLinearCurve(x, y, self.final_slope)

    def shift_left_x(self, d: float) -> "PiecewiseLinearCurve":
        """The curve ``t -> f(t + d)`` for ``d >= 0`` (Cruz output bound).

        For a traffic-constraint function ``b`` and a delay bound ``d``,
        the departing traffic obeys ``b(I + d)`` — this method computes
        that curve exactly.
        """
        if d < 0:
            raise CurveError(f"shift_left_x needs d >= 0, got {d}")
        if d == 0:
            return self
        keep = self.x >= d
        x_new = self.x[keep] - d
        y_new = self.y[keep]
        if x_new.size == 0 or x_new[0] > 0:
            x_new = np.concatenate(([0.0], x_new))
            y_new = np.concatenate(([self(d)], y_new))
        return PiecewiseLinearCurve(x_new, y_new, self.final_slope)

    # ------------------------------------------------------------------
    # pseudo-inverse
    # ------------------------------------------------------------------

    def pseudo_inverse(self, v):
        """Lower pseudo-inverse ``f^{-1}(v) = inf{t >= 0 : f(t) >= v}``.

        Requires a nondecreasing curve. Returns ``inf`` for values the
        curve never reaches (possible when the final slope is 0).
        Vectorized over ``v``.
        """
        if not self.is_nondecreasing():
            raise CurveError("pseudo_inverse requires a nondecreasing curve")
        kernel_count("curve.pseudo_inverse")
        va = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty_like(va)

        xk, yk = self.x, self.y
        # np.searchsorted on y gives, for each target, the first breakpoint
        # with y >= target; we then back off into the preceding segment.
        idx = np.searchsorted(yk, va, side="left")
        for i, (target, k) in enumerate(zip(va, idx)):
            if target <= yk[0]:
                out[i] = 0.0
            elif k < yk.size:
                # inside segment (k-1, k); the segment slope is > 0 here
                # because y is reached strictly between breakpoints.
                y0, y1 = yk[k - 1], yk[k]
                x0, x1 = xk[k - 1], xk[k]
                if close(y1, y0):
                    out[i] = x1 if target > y0 else x0
                else:
                    out[i] = x0 + (target - y0) * (x1 - x0) / (y1 - y0)
            else:
                # beyond the last breakpoint
                if self.final_slope <= EPS:
                    out[i] = _INF if target > yk[-1] + EPS else xk[-1]
                else:
                    out[i] = xk[-1] + (target - yk[-1]) / self.final_slope
        if np.isscalar(v) or np.asarray(v).ndim == 0:
            return float(out[0])
        return out

    # ------------------------------------------------------------------
    # min-plus convolution
    # ------------------------------------------------------------------

    def convolve(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact min-plus convolution ``(f ⊗ g)(t) = inf_{0<=s<=t} f(s)+g(t-s)``.

        Exact closed forms are used for the two families the analyses
        need:

        * both curves concave (arrival curves): the infimum of a concave
          objective over ``[0, t]`` sits at an endpoint, so
          ``f ⊗ g = min(f + g(0), g + f(0))``;
        * both curves convex with value 0 at 0 (service curves): the
          classical slope-interleaving construction.

        Raises :class:`CurveError` for mixed shapes — callers should use
        :func:`repro.curves.numeric.grid_convolve` there.
        """
        if self.is_concave() and other.is_concave():
            kernel_count("curve.convolve")
            a = self + other.value_at_zero()
            b = other + self.value_at_zero()
            return a.minimum(b)
        if (self.is_convex() and other.is_convex()
                and abs(self.value_at_zero()) <= EPS
                and abs(other.value_at_zero()) <= EPS):
            kernel_count("curve.convolve")
            return _convolve_convex(self, other)
        raise CurveError(
            "exact convolution implemented for concave/concave and "
            "convex/convex (0 at 0) curves; use repro.curves.numeric."
            "grid_convolve for the general case"
        )

    # ------------------------------------------------------------------
    # deviations (delay / backlog bounds)
    # ------------------------------------------------------------------

    def vertical_deviation(self, other: "PiecewiseLinearCurve") -> float:
        """``sup_t [self(t) - other(t)]`` — the backlog bound when *self*
        is an arrival curve and *other* a service curve.

        Returns ``inf`` when *self* eventually outgrows *other*.
        """
        kernel_count("curve.vdev")
        if self.final_slope > other.final_slope + EPS:
            return _INF
        xs = np.union1d(self.x, other.x)
        gap = self.sample(xs) - other.sample(xs)
        return float(np.max(gap))

    def horizontal_deviation(self, other: "PiecewiseLinearCurve") -> float:
        """``sup_t [ other^{-1}(self(t)) - t ]`` — the delay bound when
        *self* is an arrival curve and *other* a (nondecreasing) service
        curve.

        Returns ``inf`` when the arrival rate exceeds the long-term
        service rate or the service curve saturates below the arrivals.
        """
        if not other.is_nondecreasing():
            raise CurveError("horizontal_deviation needs nondecreasing "
                             "service curve")
        kernel_count("curve.hdev")
        if self.final_slope > other.final_slope + EPS:
            return _INF
        # h(t) = other^{-1}(self(t)) - t is affine between "kink"
        # instants: the arrival curve's breakpoints and the pre-images
        # (under the arrival curve) of the service curve's breakpoint
        # values.  h may jump *up* at a kink's right limit when the
        # service curve has a flat segment (its pseudo-inverse jumps), so
        # the supremum over each open interval is taken from the affine
        # restriction's limits at both ends, reconstructed from two
        # interior evaluations.
        cands = [self.x]
        inv = np.atleast_1d(self.pseudo_inverse(other.y))
        cands.append(inv[np.isfinite(inv)])
        ts = np.union1d(np.concatenate(cands), [0.0])
        # sentinel interval past the last kink (covers the tail limit)
        ts = np.append(ts, ts[-1] + max(1.0, ts[-1]))

        def h(points: np.ndarray) -> np.ndarray:
            lags = np.atleast_1d(np.asarray(
                other.pseudo_inverse(self.sample(points)), dtype=float))
            return lags - points

        at_kinks = h(ts)
        if np.any(np.isinf(at_kinks)):
            return _INF
        best = float(np.max(at_kinks))
        q1 = ts[:-1] + 0.25 * np.diff(ts)
        q2 = ts[:-1] + 0.75 * np.diff(ts)
        h1, h2 = h(q1), h(q2)
        if np.any(np.isinf(h1)) or np.any(np.isinf(h2)):
            return _INF
        slope = (h2 - h1) / (q2 - q1)
        lim_left = h1 + slope * (ts[:-1] - q1)
        lim_right = h1 + slope * (ts[1:] - q1)
        best = max(best, float(np.max(lim_left)), float(np.max(lim_right)))
        return max(0.0, best)

    # ------------------------------------------------------------------
    # crossings
    # ------------------------------------------------------------------

    def first_crossing_below(self, other: "PiecewiseLinearCurve") -> float:
        """Smallest ``t > 0`` with ``self(t) <= other(t)``.

        Used to compute busy-period lengths: with *self* the aggregate
        arrival bound ``G`` and *other* the service line ``C*t``, the busy
        period is the first positive instant where the backlog bound hits
        zero.  Returns ``inf`` when the curves never cross.
        """
        kernel_count("curve.crossing")
        diff = self - other
        xs = diff.x
        ys = diff.y
        slopes = diff.slopes()
        # Is the difference strictly positive immediately after t=0?
        # If not, the "busy period" never builds up and its length is 0.
        if ys[0] <= EPS and slopes[0] <= EPS:
            return 0.0
        # Scan for the first instant t > 0 where the difference returns
        # to (or below) zero after having been positive.
        for k in range(xs.size - 1):
            y0, y1 = ys[k], ys[k + 1]
            if y1 <= EPS and y0 > EPS:
                frac = y0 / (y0 - y1) if not close(y0, y1) else 1.0
                return float(xs[k] + frac * (xs[k + 1] - xs[k]))
            if y1 <= EPS and y0 <= EPS:
                # the difference touched zero at the start of this segment
                return float(xs[k])
        if diff.final_slope < -EPS and ys[-1] > EPS:
            return float(xs[-1] + ys[-1] / (-diff.final_slope))
        if ys[-1] <= EPS:
            return float(xs[-1])
        return _INF


def _convolve_convex(f: PiecewiseLinearCurve,
                     g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Min-plus convolution of two convex curves with value 0 at 0.

    The classical construction: the convolution's graph is obtained by
    traversing the union of both curves' segments in order of increasing
    slope.  Latency (0-slope) segments add up; the result is convex.
    """
    def segments(c: PiecewiseLinearCurve):
        segs = []
        for k in range(c.x.size - 1):
            dx = c.x[k + 1] - c.x[k]
            dy = c.y[k + 1] - c.y[k]
            segs.append((dy / dx, dx))
        segs.append((c.final_slope, _INF))
        return segs

    merged = sorted(segments(f) + segments(g), key=lambda s: s[0])
    xs = [0.0]
    ys = [0.0]
    final = merged[-1][0]
    for slope, length in merged:
        if math.isinf(length):
            # the first infinite segment dominates all later ones
            final = slope
            break
        nx = xs[-1] + length
        ny = ys[-1] + slope * length
        if nx <= xs[-1]:
            # segment shorter than float resolution at this offset:
            # merge it into the current breakpoint
            ys[-1] = ny
            continue
        xs.append(nx)
        ys.append(ny)
    return PiecewiseLinearCurve(xs, ys, final).simplified()
