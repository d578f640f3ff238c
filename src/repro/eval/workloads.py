"""Workload definitions for the evaluation (paper §4.1).

The paper sweeps the tandem's network load ``U`` for several network
sizes; every source is a unit-burst token bucket with rate ``U/4``.
This module centralizes the sweep parameters so figures, benchmarks and
tests agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Sweep", "default_sweep", "quick_sweep"]


@dataclass(frozen=True)
class Sweep:
    """One evaluation sweep configuration.

    Attributes
    ----------
    loads:
        Network loads ``U`` (interior-port utilizations) to evaluate.
    hops:
        Tandem sizes ``n`` to evaluate.
    sigma:
        Source burst size (paper: 1).
    """

    loads: tuple[float, ...]
    hops: tuple[int, ...]
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.loads or not self.hops:
            raise ValueError("sweep needs at least one load and one size")
        for u in self.loads:
            if not (0.0 < u < 1.0):
                raise ValueError(f"loads must be in (0, 1), got {u}")
        for n in self.hops:
            if n < 1:
                raise ValueError(f"hops must be >= 1, got {n}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


def default_sweep(hops: tuple[int, ...] = (2, 4, 6, 8)) -> Sweep:
    """The paper's sweep: U from 0.1 to 0.9 in steps of 0.1."""
    import numpy as np

    loads = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))
    return Sweep(loads=loads, hops=hops)


def quick_sweep(hops: tuple[int, ...] = (2, 4)) -> Sweep:
    """A small sweep for fast tests and benchmark warmups."""
    return Sweep(loads=(0.2, 0.5, 0.8), hops=hops)
