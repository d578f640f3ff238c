"""Regeneration of the paper's evaluation figures (§4.3).

Each figure has two panels: the end-to-end delay bound ``D_X(U)`` of
Connection 0 (the longest connection) for several tandem sizes, and the
relative improvement ``R_{X,Y}(U)`` between the two algorithms compared.
We regenerate both panels as numeric series; the benchmark harness
prints them as tables (the paper's log-scale plots are monotone reading
of the same numbers).

Conventions for the relative-improvement panels (paper eq. (10), with X
the looser algorithm so the metric is positive when the paper says
"improvement"):

* Figure 4: ``R_{ServiceCurve, Decomposed}``;
* Figure 5: ``R_{Decomposed, Integrated}``;
* Figure 6: ``R_{ServiceCurve, Integrated}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.analysis.base import Analyzer
from repro.analysis.comparison import relative_improvement
from repro.analysis.registry import PAPER_ANALYZERS
from repro.eval.workloads import Sweep, default_sweep
from repro.network.tandem import CONNECTION0, build_tandem

__all__ = [
    "Series",
    "FigureData",
    "delay_series",
    "figure4",
    "figure5",
    "figure6",
    "FIGURES",
]


@dataclass(frozen=True)
class Series:
    """One plotted line: a label plus (load, value) pairs."""

    label: str
    loads: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.loads) != len(self.values):
            raise ValueError("loads and values length mismatch")


@dataclass(frozen=True)
class FigureData:
    """All series of one two-panel figure."""

    figure_id: str
    title: str
    delay_series: tuple[Series, ...]
    improvement_series: tuple[Series, ...]


def _analyzer_factory(name: str) -> Callable[[], Analyzer]:
    try:
        return PAPER_ANALYZERS[name]
    except KeyError:
        raise ValueError(f"unknown analyzer {name!r}") from None


def delay_series(analyzer_name: str, n_hops: int,
                 loads: Sequence[float], sigma: float = 1.0,
                 ) -> Series:
    """D_X(U) of Connection 0 for one algorithm and tandem size."""
    analyzer = _analyzer_factory(analyzer_name)()
    values = []
    for u in loads:
        net = build_tandem(n_hops, float(u), sigma)
        values.append(analyzer.analyze(net).delay_of(CONNECTION0))
    return Series(label=f"{analyzer_name} (n={n_hops})",
                  loads=tuple(float(u) for u in loads),
                  values=tuple(values))


def _figure(figure_id: str, title: str, algo_x: str, algo_y: str,
            sweep: Sweep) -> FigureData:
    """Generic two-algorithm figure: X is the looser baseline."""
    delay: list[Series] = []
    improv: list[Series] = []
    for n in sweep.hops:
        sx = delay_series(algo_x, n, sweep.loads, sweep.sigma)
        sy = delay_series(algo_y, n, sweep.loads, sweep.sigma)
        delay.extend([sx, sy])
        improv.append(Series(
            label=f"R[{algo_x},{algo_y}] (n={n})",
            loads=sweep.loads,
            values=tuple(
                relative_improvement(vx, vy)
                for vx, vy in zip(sx.values, sy.values)),
        ))
    return FigureData(figure_id=figure_id, title=title,
                      delay_series=tuple(delay),
                      improvement_series=tuple(improv))


def figure4(sweep: Sweep | None = None) -> FigureData:
    """Figure 4: Decomposed vs Service Curve (hops 2, 4, 6, 8)."""
    sweep = sweep if sweep is not None else default_sweep((2, 4, 6, 8))
    return _figure("FIG4",
                   "Decomposed method vs Service Curve method",
                   "service_curve", "decomposed", sweep)


def figure5(sweep: Sweep | None = None) -> FigureData:
    """Figure 5: Integrated vs Decomposed (hops 2, 4, 8)."""
    sweep = sweep if sweep is not None else default_sweep((2, 4, 8))
    return _figure("FIG5",
                   "Integrated method vs Decomposed method",
                   "decomposed", "integrated", sweep)


def figure6(sweep: Sweep | None = None) -> FigureData:
    """Figure 6: Integrated vs Service Curve (hops 2, 4, 6, 8)."""
    sweep = sweep if sweep is not None else default_sweep((2, 4, 6, 8))
    return _figure("FIG6",
                   "Integrated method vs Service Curve method",
                   "service_curve", "integrated", sweep)


#: Registry used by the benchmark harness and the experiment runner.
FIGURES: Mapping[str, Callable[..., FigureData]] = {
    "FIG4": figure4,
    "FIG5": figure5,
    "FIG6": figure6,
}
