"""TGT — systematic tightness study: observed worst case vs bounds.

For a set of topologies (tandem, parking lot, random feed-forward) the
study runs the adversarial packet-level simulation against the longest
flow and reports the ratio ``observed / bound`` for each analysis — a
direct empirical read on how much each method over-provisions.  The
observed value is a *lower* bound on the true worst case, so the ratios
are conservative (the bounds can only be tighter than they look).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.network.generators import parking_lot, random_feedforward
from repro.network.tandem import build_tandem
from repro.network.topology import Network
from repro.sim.adversary import simulate_adversarial
from repro.validate.oracles import (
    _longest_flow,
    packetizable,
    packetization_slack,
)

__all__ = ["TightnessRow", "tightness_study", "render_tightness"]


@dataclass(frozen=True)
class TightnessRow:
    """One topology's observed-vs-bound comparison for its longest flow."""

    topology: str
    flow: str
    observed: float
    integrated: float
    decomposed: float

    @property
    def integrated_ratio(self) -> float:
        """``observed / integrated``; NaN when the bound is zero/missing.

        A zero or missing bound used to yield ``0.0``, which silently
        read as "infinitely tight" in the table — NaN keeps the broken
        bound visible (rendered as ``n/a``).
        """
        return _ratio(self.observed, self.integrated)

    @property
    def decomposed_ratio(self) -> float:
        """``observed / decomposed``; NaN when the bound is zero/missing."""
        return _ratio(self.observed, self.decomposed)


def _ratio(observed: float, bound: float) -> float:
    """Observed-over-bound ratio; NaN for zero/missing bounds."""
    if not bound or math.isnan(bound):
        return float("nan")
    return observed / bound


def default_topologies() -> Mapping[str, Callable[[], Network]]:
    """The study's default topology suite."""
    return {
        "tandem(2,0.8)": lambda: build_tandem(2, 0.8),
        "tandem(4,0.6)": lambda: build_tandem(4, 0.6),
        "parking_lot(3,0.8)": lambda: parking_lot(3, 0.8),
        "random(seed=3)": lambda: random_feedforward(3),
        "random(seed=5)": lambda: random_feedforward(5),
    }


def tightness_study(topologies: Mapping[str, Callable[[], Network]]
                    | None = None,
                    horizon: float = 120.0,
                    packet_size: float = 0.05) -> list[TightnessRow]:
    """Run the tightness study; observed delays must stay below bounds.

    Raises AssertionError on a soundness violation — this function
    doubles as a self-check.  As in the soundness oracle, bursts below
    one packet are simulated and bounded as one packet
    (:func:`~repro.validate.oracles.packetizable`), and observed delays
    may exceed the fluid bound by the per-hop packetization slack.
    """
    topologies = topologies or default_topologies()
    rows = []
    for name, factory in topologies.items():
        net = packetizable(factory(), packet_size)
        target = _longest_flow(net)
        d_int = IntegratedAnalysis().analyze(net).delay_of(target)
        d_dec = DecomposedAnalysis().analyze(net).delay_of(target)
        sim = simulate_adversarial(net, target, horizon=horizon,
                                   packet_size=packet_size)
        obs = sim.max_delay(target)
        slack = packetization_slack(net, net.flow(target), packet_size)
        assert obs <= d_int + slack + 1e-9, \
            f"soundness violation on {name}: {obs} > {d_int}"
        rows.append(TightnessRow(topology=name, flow=target,
                                 observed=obs, integrated=d_int,
                                 decomposed=d_dec))
    return rows


def _fmt_ratio(ratio: float) -> str:
    """``n/a`` for NaN ratios (zero/missing bound), ``xx.x%`` otherwise."""
    return f"{'n/a':>8}" if math.isnan(ratio) else f"{ratio:8.1%}"


def render_tightness(rows: Sequence[TightnessRow]) -> str:
    """Aligned text table of a tightness study."""
    header = (f"{'topology':>20} {'observed':>9} {'integ.':>8} "
              f"{'obs/int':>8} {'decomp.':>8} {'obs/dec':>8}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.topology:>20} {r.observed:9.3f} {r.integrated:8.3f} "
            f"{_fmt_ratio(r.integrated_ratio)} {r.decomposed:8.3f} "
            f"{_fmt_ratio(r.decomposed_ratio)}")
    return "\n".join(lines)
