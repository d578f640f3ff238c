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

Representation.  The analyses' curves are tiny (1-15 breakpoints), so
numpy's per-call overhead costs more than the arithmetic.  Breakpoints
are therefore kept as lists of Python floats and every operation runs
in plain floats; only the vectorized :meth:`PiecewiseLinearCurve.sample`
(array arguments) uses numpy.  ``x`` and ``y`` are still readable as
read-only float64 arrays, built on first use.

Every result is bit-identical to the numpy formulas the class used
before (``tests/curves/reference_piecewise.py`` keeps that code as the
differential reference):

* scalar evaluation is ``np.interp``'s exact formula: a hit on a
  breakpoint returns its ``y``; inside segment ``j`` the value is
  ``slope * (t - x[j]) + y[j]``, re-evaluated from the right end when
  that is NaN; past the last breakpoint ``y[-1] + s * (t - x[-1])``;
  ``t < 0`` maps to 0;
* merged breakpoint sets are sorted unions (``np.union1d``);
* maxima propagate NaN (``np.max``); ``np.minimum`` / ``np.maximum``
  return the second operand on a tie;
* a batch of pseudo-inverse targets is searched the way
  ``np.searchsorted`` searches it, narrowing each search by the previous
  key's result.

Outside the rule is only the sign of a zero that numpy picks by its
kernels' internal order: which of a ``0.0`` and a ``-0.0`` first
breakpoint a union keeps, and which of two equal zeros a maximum
returns.

See ``docs/KERNELS.md`` for the rule a change to this module must keep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import lt
from typing import Iterable, Sequence

import numpy as np

from repro.context.metrics import kernel_count
from repro.errors import CurveError
from repro.utils.hashing import Encoded, encode_curve
from repro.utils.tolerance import EPS, close

__all__ = ["PiecewiseLinearCurve"]

_INF = math.inf
_NAN = math.nan
_isfinite = math.isfinite

#: Element types converted with ``float()``; anything else goes through
#: numpy's float64 conversion (same values, same errors as before).
_PLAIN = frozenset((float, int, np.float64))


def _float_list(v) -> list | None:
    """*v* as a list of Python floats; ``None`` when it is not 1-D."""
    if type(v) in (list, tuple) and set(map(type, v)) <= _PLAIN:
        return [float(e) for e in v]
    a = np.asarray(v, dtype=float)
    return a.tolist() if a.ndim == 1 else None


def _check(xs: list | None, ys: list | None, final_slope: float) -> None:
    """The breakpoint checks, in order, with their :class:`CurveError`."""
    if xs is None or ys is None or len(xs) != len(ys):
        raise CurveError("x and y must be 1-D arrays of equal length")
    if not xs:
        raise CurveError("a curve needs at least one breakpoint")
    if not (all(map(_isfinite, xs)) and all(map(_isfinite, ys))):
        raise CurveError("breakpoints must be finite")
    if xs[0] != 0.0:
        raise CurveError(f"first breakpoint must be at x=0, got {xs[0]}")
    if not all(map(lt, xs, xs[1:])):
        raise CurveError("breakpoint x values must be strictly increasing")
    if not _isfinite(final_slope):
        raise CurveError(f"final_slope must be finite, got {final_slope}")


def _frozen(values) -> np.ndarray:
    """*values* as a read-only float64 array (an array of that kind as is)."""
    a = np.asarray(values, dtype=float)
    a.setflags(write=False)
    return a


def _union(a: list, b: list) -> list:
    """Sorted union of two breakpoint lists (``np.union1d``)."""
    if a is b:
        return a
    return sorted(set(a).union(b))


def _segment_slopes(xs: list, ys: list, final_slope: float) -> list:
    """Segment slopes of breakpoints *xs*, *ys*, then *final_slope*."""
    out = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
           for k in range(len(xs) - 1)]
    out.append(final_slope)
    return out


def _amax(values: list) -> float:
    """``np.max`` of a non-empty list: NaN wins, then the last maximum."""
    best = values[0]
    for v in values:
        if v >= best:
            best = v
        elif v != v:
            return v
    return best


def _div(a: float, b: float) -> float:
    """IEEE ``a / b``, which numpy computes where Python would raise."""
    if b:
        return a / b
    if a != a or not a:
        return _NAN
    return math.copysign(_INF, a) * math.copysign(1.0, b)


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

    __slots__ = ("_x", "_y", "final_slope", "_xa", "_ya")

    def __init__(self, x: Sequence[float], y: Sequence[float],
                 final_slope: float) -> None:
        xs, ys = _float_list(x), _float_list(y)
        _check(xs, ys, final_slope)
        self._x = xs
        self._y = ys
        self.final_slope = float(final_slope)
        self._xa = self._ya = None

    @classmethod
    def _new(cls, xs: list, ys: list, final_slope: float,
             checked: bool = True) -> "PiecewiseLinearCurve":
        """A curve from lists of Python floats the caller owns.

        *checked* runs the constructor's checks; pass False only when
        the breakpoints come from a valid curve unchanged in x and with
        finite y.
        """
        if checked:
            _check(xs, ys, final_slope)
        c = object.__new__(cls)
        c._x = xs
        c._y = ys
        c.final_slope = final_slope
        c._xa = c._ya = None
        return c

    # The pickled state holds the float lists.  Pickles written before
    # hold read-only float64 arrays under the same names (the numpy
    # class's slots); both load.  Stores tag segments of list-state
    # pickles with their own value schema (repro.store.format), so
    # code that reads only arrays never meets one.
    def __getstate__(self):
        return None, {"x": self._x, "y": self._y,
                      "final_slope": self.final_slope}

    def __setstate__(self, state) -> None:
        slots = state[1]
        xs, ys = slots["x"], slots["y"]
        if type(xs) is list and type(ys) is list:
            self._x, self._y = xs, ys
            self._xa = self._ya = None
        else:
            self._xa = _frozen(xs)
            self._ya = _frozen(ys)
            self._x = self._xa.tolist()
            self._y = self._ya.tolist()
        self.final_slope = float(slots["final_slope"])

    def key_part(self) -> Encoded:
        """This curve's part of a content key: the bytes
        :func:`~repro.utils.hashing.stable_digest` encodes for
        ``(self.x, self.y, self.final_slope)``, without the arrays."""
        return encode_curve(self._x, self._y, self.final_slope)

    @property
    def x(self) -> np.ndarray:
        """Breakpoint abscissae as a read-only float64 array."""
        if self._xa is None:
            self._xa = _frozen(self._x)
        return self._xa

    @property
    def y(self) -> np.ndarray:
        """Breakpoint values as a read-only float64 array."""
        if self._ya is None:
            self._ya = _frozen(self._y)
        return self._ya

    def breakpoints(self) -> list[tuple[float, float]]:
        """The breakpoints as ``(x, y)`` pairs of Python floats."""
        return list(zip(self._x, self._y))

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
        if type(t) is not float:
            ta = np.asarray(t, dtype=float)
            if ta.ndim:
                return self.sample(ta)
            t = float(ta)
        return self._value(t)

    def _value(self, t: float) -> float:
        """``f(t)`` for a Python float, by ``np.interp``'s formula."""
        if t < 0.0:
            return 0.0
        xs = self._x
        x_end = xs[-1]
        if t > x_end:
            return self._y[-1] + self.final_slope * (t - x_end)
        ys = self._y
        n = len(xs)
        if n == 1:          # np.interp's one-point rule, NaN included
            return ys[0]
        if t != t:
            return t
        j = bisect_right(xs, t) - 1
        if j == n - 1 or xs[j] == t:
            return ys[j]
        x0, y0, x1, y1 = xs[j], ys[j], xs[j + 1], ys[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        v = slope * (t - x0) + y0
        if v != v:
            v = slope * (t - x1) + y1
            if v != v and y0 == y1:
                v = y0
        return v

    def _values(self, ts: list) -> list:
        """``[f(t) for t in ts]`` for Python floats."""
        value = self._value
        return [value(t) for t in ts]

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation returning an ndarray (grid kernels)."""
        ta = np.asarray(times, dtype=float)
        x, y = self.x, self.y
        out = np.interp(ta, x, y)
        tail = ta > x[-1]
        if np.any(tail):
            out = np.where(tail, y[-1] + self.final_slope * (ta - x[-1]),
                           out)
        return np.where(ta < 0, 0.0, out)

    @property
    def n_breakpoints(self) -> int:
        """Number of breakpoints."""
        return len(self._x)

    def _slopes(self) -> list:
        """Per-segment slopes, then the final slope (Python floats)."""
        return _segment_slopes(self._x, self._y, self.final_slope)

    def slopes(self) -> np.ndarray:
        """Per-segment slopes, including the final slope (length == len(x))."""
        return np.array(self._slopes())

    def is_nondecreasing(self, eps: float = EPS) -> bool:
        """True when every segment slope is >= 0 (up to tolerance)."""
        floor = -eps
        return all(s >= floor for s in self._slopes())

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
        x, y = self._x, self._y
        while len(x) > 1:
            s = _segment_slopes(x, y, self.final_slope)
            defect = [sign * -(b - a) for a, b in zip(s, s[1:])]
            # a NaN defect counts as a violation
            bad = [k for k, d in enumerate(defect) if not d <= eps]
            if not bad:
                return True
            if not all((x[k + 1] - x[k]) * defect[k] <= eps for k in bad):
                return False
            # merge each forgiven segment k into segment k-1 by dropping
            # its left breakpoint (the first segment into segment 1)
            drop = {max(k, 1) for k in bad}
            x = [v for i, v in enumerate(x) if i not in drop]
            y = [v for i, v in enumerate(y) if i not in drop]
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
        return self._y[0]

    def long_term_rate(self) -> float:
        """The asymptotic growth rate (the final slope)."""
        return self.final_slope

    # ------------------------------------------------------------------
    # normalization helpers
    # ------------------------------------------------------------------

    def simplified(self, eps: float = EPS) -> "PiecewiseLinearCurve":
        """Drop collinear breakpoints; the returned curve is equivalent."""
        xs = self._x
        if len(xs) <= 1:
            return self
        s = self._slopes()
        keep = [0]
        keep.extend(k for k in range(1, len(xs))
                    if not close(s[k], s[k - 1], eps))
        if len(keep) == len(xs):
            return self
        ys = self._y
        return self._new([xs[k] for k in keep], [ys[k] for k in keep],
                         self.final_slope, checked=False)

    # ------------------------------------------------------------------
    # pointwise arithmetic
    # ------------------------------------------------------------------

    def _with_y(self, ys: list, final_slope: float,
                checked: bool = True) -> "PiecewiseLinearCurve":
        """This curve's x with new values, sharing the x array."""
        c = self._new(self._x, ys, final_slope, checked)
        c._xa = self._xa
        return c

    def __add__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return self._with_y([v + c for v in self._y], self.final_slope)
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        xs = _union(self._x, other._x)
        ys = [a + b for a, b in zip(self._values(xs), other._values(xs))]
        return self._new(xs, ys, self.final_slope + other.final_slope)

    __radd__ = __add__

    def __neg__(self):
        return self._with_y([-v for v in self._y], -self.final_slope,
                            checked=False)

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
        return self._with_y([v * c for v in self._y], self.final_slope * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        a, b = self.simplified(), other.simplified()
        return (
            len(a._x) == len(b._x)
            and _allclose(a._x, b._x)
            and _allclose(a._y, b._y)
            and close(a.final_slope, b.final_slope)
        )

    def __hash__(self):  # pragma: no cover - curves are not dict keys
        return id(self)

    def __repr__(self) -> str:
        pts = ", ".join(f"({xi:g},{yi:g})" for xi, yi in
                        zip(self._x[:4], self._y[:4]))
        more = "..." if len(self._x) > 4 else ""
        return (f"PiecewiseLinearCurve([{pts}{more}], "
                f"final_slope={self.final_slope:g})")

    # ------------------------------------------------------------------
    # pointwise min / max (with intersection breakpoints)
    # ------------------------------------------------------------------

    def _minmax(self, other: "PiecewiseLinearCurve", take_min: bool):
        kernel_count("curve.minmax")
        xs = _union(self._x, other._x)
        # Within each shared segment the difference is affine, so any
        # sign change pinpoints one intersection to add as a breakpoint.
        fa = self._values(xs)
        fb = other._values(xs)
        diff = [a - b for a, b in zip(fa, fb)]
        extra = []
        for k in range(len(xs) - 1):
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
            xs = _union(xs, extra)
            fa = self._values(xs)
            fb = other._values(xs)
        # np.minimum / np.maximum: NaN propagates, a tie takes b
        if take_min:
            ys = [a if a < b or a != a else b for a, b in zip(fa, fb)]
        else:
            ys = [a if a > b or a != a else b for a, b in zip(fa, fb)]
        # Tail slope: whichever curve is lower (min) / higher (max) at the
        # far end dictates the final slope; ties pick the smaller/larger
        # slope respectively.
        far = xs[-1] + 1.0
        va, vb = self._value(far), other._value(far)
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
        return self._new(xs, ys, fs).simplified()

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
        d = float(d)
        shifted = [v + d for v in self._x]
        if self._y[0] > EPS:
            # keep the vertical rise at t=d representable: linear
            # interpolation between (0,0) and (d, y0) would smear the
            # jump, so insert a point just before d.
            d_pre = d * (1.0 - 1e-12) if d > 0 else 0.0
            return self._new([0.0, d_pre] + shifted, [0.0, 0.0] + self._y,
                             self.final_slope)
        return self._new([0.0] + shifted, [0.0] + self._y, self.final_slope)

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
        d = float(d)
        xs = self._x
        # the breakpoints at or past d (none for a NaN d)
        k = bisect_left(xs, d) if d == d else len(xs)
        x_new = [v - d for v in xs[k:]]
        y_new = self._y[k:]
        if not x_new or x_new[0] > 0:
            x_new.insert(0, 0.0)
            y_new.insert(0, self._value(d))
        return self._new(x_new, y_new, self.final_slope)

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
        if type(v) is not float:
            va = np.asarray(v, dtype=float)
            if va.ndim:
                return np.array(self._inverse(va.tolist()), dtype=float)
            v = float(va)
        return self._inverse([v])[0]

    def _inverse(self, targets: list) -> list:
        """Pseudo-inverse of each target (no monotonicity check, no count)."""
        xs, ys = self._x, self._y
        n = len(ys)
        y_first, x_end, y_end = ys[0], xs[-1], ys[-1]
        final = self.final_slope
        out = []
        # k = np.searchsorted(ys, targets, side="left")[i].  numpy narrows
        # each search by the previous key's result; that only matters
        # when ys is not sorted (a curve nondecreasing up to tolerance),
        # and it is reproduced here.  NaN sorts after every number.
        lo = hi = n
        last = targets[0] if targets else 0.0
        for target in targets:
            if last < target or (target != target and last == last):
                hi = n
            else:
                lo = 0
                hi = hi + 1 if hi < n else n
            last = target
            k = lo = hi = (bisect_left(ys, target, lo, hi) if target == target
                           else hi)
            if target <= y_first:
                out.append(0.0)
            elif k < n:
                # inside segment (k-1, k); the segment slope is > 0 here
                # because y is reached strictly between breakpoints.
                y0, y1 = ys[k - 1], ys[k]
                x0, x1 = xs[k - 1], xs[k]
                if close(y1, y0):
                    out.append(x1 if target > y0 else x0)
                else:
                    out.append(x0 + (target - y0) * (x1 - x0) / (y1 - y0))
            elif final <= EPS:
                # beyond the last breakpoint
                out.append(_INF if target > y_end + EPS else x_end)
            else:
                out.append(x_end + (target - y_end) / final)
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
        xs = _union(self._x, other._x)
        return _amax([a - b for a, b in
                      zip(self._values(xs), other._values(xs))])

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
        if not self.is_nondecreasing():
            raise CurveError("pseudo_inverse requires a nondecreasing curve")
        kernel_count("curve.pseudo_inverse")
        inv = self._inverse(other._y)
        ts = sorted(set(self._x).union([t for t in inv if _isfinite(t)],
                                       (0.0,)))
        # sentinel interval past the last kink (covers the tail limit)
        ts.append(ts[-1] + max(1.0, ts[-1]))

        def h(points: list) -> list:
            kernel_count("curve.pseudo_inverse")
            lags = other._inverse(self._values(points))
            return [lag - t for lag, t in zip(lags, points)]

        at_kinks = h(ts)
        if any(map(math.isinf, at_kinks)):
            return _INF
        best = _amax(at_kinks)
        q1 = [a + 0.25 * (b - a) for a, b in zip(ts, ts[1:])]
        q2 = [a + 0.75 * (b - a) for a, b in zip(ts, ts[1:])]
        h1, h2 = h(q1), h(q2)
        if any(map(math.isinf, h1)) or any(map(math.isinf, h2)):
            return _INF
        slope = [_div(b2 - b1, p2 - p1)
                 for b1, b2, p1, p2 in zip(h1, h2, q1, q2)]
        lim_left = [b1 + s * (t - p1)
                    for b1, s, t, p1 in zip(h1, slope, ts, q1)]
        lim_right = [b1 + s * (t - p1)
                     for b1, s, t, p1 in zip(h1, slope, ts[1:], q1)]
        best = max(best, _amax(lim_left), _amax(lim_right))
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
        xs = diff._x
        ys = diff._y
        slopes = diff._slopes()
        # Is the difference strictly positive immediately after t=0?
        # If not, the "busy period" never builds up and its length is 0.
        if ys[0] <= EPS and slopes[0] <= EPS:
            return 0.0
        # Scan for the first instant t > 0 where the difference returns
        # to (or below) zero after having been positive.
        for k in range(len(xs) - 1):
            y0, y1 = ys[k], ys[k + 1]
            if y1 <= EPS and y0 > EPS:
                frac = y0 / (y0 - y1) if not close(y0, y1) else 1.0
                return xs[k] + frac * (xs[k + 1] - xs[k])
            if y1 <= EPS and y0 <= EPS:
                # the difference touched zero at the start of this segment
                return xs[k]
        if diff.final_slope < -EPS and ys[-1] > EPS:
            return xs[-1] + ys[-1] / (-diff.final_slope)
        if ys[-1] <= EPS:
            return xs[-1]
        return _INF


def _allclose(a: list, b: list) -> bool:
    """``np.allclose`` (rtol 1e-5, atol 1e-8) for finite float lists."""
    return all(abs(p - q) <= 1e-08 + 1e-05 * abs(q) for p, q in zip(a, b))


def _convolve_convex(f: PiecewiseLinearCurve,
                     g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Min-plus convolution of two convex curves with value 0 at 0.

    The classical construction: the convolution's graph is obtained by
    traversing the union of both curves' segments in order of increasing
    slope.  Latency (0-slope) segments add up; the result is convex.
    """
    def segments(c: PiecewiseLinearCurve):
        xs, ys = c._x, c._y
        segs = []
        for k in range(len(xs) - 1):
            dx = xs[k + 1] - xs[k]
            dy = ys[k + 1] - ys[k]
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
