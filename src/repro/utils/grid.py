"""Uniform time grids for the sampled (numeric) curve kernels.

The integrated two-server kernel and the generic min-plus fallback both
evaluate curves on a dense uniform grid.  :class:`TimeGrid` centralizes
the grid construction so every kernel agrees on spacing and horizon, and
so tests can sweep resolution in one place (ablation ABL1 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """A uniform grid ``t_k = k * dt`` for ``k = 0 .. n-1``.

    Attributes
    ----------
    horizon:
        Largest time covered (inclusive of the final sample).
    n:
        Number of samples (>= 2).
    """

    horizon: float
    n: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @property
    def dt(self) -> float:
        """Grid spacing."""
        return self.horizon / (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        """The sample instants as a 1-D float array."""
        import numpy as np

        return np.linspace(0.0, self.horizon, self.n)

    def index_of(self, t: float) -> int:
        """Index of the last grid point ``<= t`` (clamped to the grid)."""
        if t <= 0:
            return 0
        return min(self.n - 1, int(t / self.dt))

    def refined(self, factor: int) -> "TimeGrid":
        """A grid with the same horizon and ``factor``-times the samples."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return TimeGrid(self.horizon, (self.n - 1) * factor + 1)


def make_grid(horizon: float, resolution: int = 2048) -> TimeGrid:
    """Build a :class:`TimeGrid` covering ``[0, horizon]``.

    Parameters
    ----------
    horizon:
        Time horizon; callers typically pass a small multiple of the sum
        of the busy periods involved so that every extremum of the delay
        expressions falls inside the grid.
    resolution:
        Number of samples.
    """
    return TimeGrid(float(horizon), int(resolution))
