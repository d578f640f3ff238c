"""Token-bucket traffic constraint functions (paper eq. (4)).

The paper assumes every connection is shaped at its source by a token
bucket and is additionally limited by the (unit-capacity) access line:

``b(I) = min(C * I, sigma + rho * I)``

:class:`TokenBucket` captures the ``(sigma, rho)`` pair plus the optional
peak rate and converts to the exact piecewise-linear constraint curve
used by every analysis.  The class also implements the operations the
analyses perform on traffic descriptors — burstiness inflation after a
delay (Cruz's output characterization) and aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.curves.piecewise import PiecewiseLinearCurve
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["TokenBucket", "aggregate_curve"]


@dataclass(frozen=True)
class TokenBucket:
    """A ``(sigma, rho)`` token bucket with an optional peak-rate limit.

    Attributes
    ----------
    sigma:
        Bucket depth (maximum burst), in data units.
    rho:
        Token accumulation rate (long-term rate), data units per second.
    peak:
        Peak (line) rate limiting instantaneous emission; ``inf`` means
        the pure affine constraint ``sigma + rho * I``.
    """

    sigma: float
    rho: float
    peak: float = math.inf

    def __post_init__(self) -> None:
        check_nonnegative("sigma", self.sigma)
        check_nonnegative("rho", self.rho)
        if self.peak != math.inf:
            check_positive("peak", self.peak)
            if self.peak < self.rho:
                raise ValueError(
                    f"peak rate {self.peak} must be >= sustained rate {self.rho}"
                )

    # ------------------------------------------------------------------

    def constraint_curve(self) -> PiecewiseLinearCurve:
        """The exact traffic-constraint function ``b(I)``.

        ``b(I) = min(peak * I, sigma + rho * I)`` — continuous, concave,
        with ``b(0) = 0`` when a finite peak applies and ``b(0) = sigma``
        for the pure affine case.  Built once per bucket: the bucket is
        frozen and curves are immutable, so every caller shares it.
        """
        curve = self.__dict__.get("_curve")
        if curve is None:
            curve = self._build_curve()
            object.__setattr__(self, "_curve", curve)
        return curve

    def _build_curve(self) -> PiecewiseLinearCurve:
        if math.isinf(self.peak):
            return PiecewiseLinearCurve.affine(self.sigma, self.rho)
        if self.peak == self.rho:
            # degenerate: constant-rate source, the bucket never matters
            return PiecewiseLinearCurve.line(self.rho)
        knee = self.sigma / (self.peak - self.rho)
        if knee == 0.0:
            return PiecewiseLinearCurve.affine(self.sigma, self.rho)
        return PiecewiseLinearCurve(
            [0.0, knee], [0.0, self.peak * knee], self.rho
        )

    def __getstate__(self) -> dict:
        # the cached curve is rebuilt on demand, not pickled
        return {"sigma": self.sigma, "rho": self.rho, "peak": self.peak}

    def delayed(self, delay: float) -> "TokenBucket":
        """Descriptor after traversing an element with delay bound *delay*.

        Cruz: departing traffic obeys ``b(I + delay)``; for a token bucket
        this is burstiness inflation ``sigma -> sigma + rho * delay``.
        The peak-rate envelope does not survive multiplexing inside the
        network (a FIFO server can emit a connection's backlog at line
        rate), so the inflated descriptor drops the source peak limit.
        """
        check_nonnegative("delay", delay)
        return TokenBucket(self.sigma + self.rho * delay, self.rho)

    def delayed_curve(self, delay: float) -> PiecewiseLinearCurve:
        """Exact output-constraint curve ``b(I + delay)``.

        Tighter than :meth:`delayed` (it keeps the full piecewise shape),
        used where the analyses can exploit the exact curve.
        """
        check_nonnegative("delay", delay)
        return self.constraint_curve().shift_left_x(delay)

    def scaled(self, factor: float) -> "TokenBucket":
        """A token bucket with both sigma and rho scaled by *factor*."""
        check_positive("factor", factor)
        peak = self.peak if math.isinf(self.peak) else self.peak * factor
        return TokenBucket(self.sigma * factor, self.rho * factor, peak)

    def __add__(self, other: "TokenBucket") -> "TokenBucket":
        """Aggregate of two independent token-bucket flows.

        Burst and rate add; the aggregate peak is the sum of peaks
        (infinite if either is unbounded).
        """
        if not isinstance(other, TokenBucket):
            return NotImplemented
        peak = (math.inf if math.isinf(self.peak) or math.isinf(other.peak)
                else self.peak + other.peak)
        return TokenBucket(self.sigma + other.sigma, self.rho + other.rho,
                           peak)


def aggregate_curve(descriptors) -> PiecewiseLinearCurve:
    """Exact sum of the constraint curves of an iterable of descriptors.

    Accepts :class:`TokenBucket` instances and/or already-built
    :class:`PiecewiseLinearCurve` objects; returns the pointwise sum
    (the aggregate arrival bound ``G(t)`` of paper eq. (6)).
    """
    total = PiecewiseLinearCurve.zero()
    for d in descriptors:
        curve = d.constraint_curve() if isinstance(d, TokenBucket) else d
        total = total + curve
    return total.simplified()
