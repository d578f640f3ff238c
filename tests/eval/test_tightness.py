"""Unit tests for the tightness study."""

import math

import pytest

from repro.eval.tightness import (
    TightnessRow,
    default_topologies,
    render_tightness,
    tightness_study,
)
from repro.network.generators import parking_lot, random_feedforward, with_burst
from repro.network.tandem import build_tandem


def zero_burst(net):
    return with_burst(net, [f.name for f in net.iter_flows()], 0.0)


class TestTightnessStudy:
    def test_small_study_runs_and_is_sound(self):
        rows = tightness_study(
            {"tandem(2,0.8)": lambda: build_tandem(2, 0.8)},
            horizon=60.0)
        assert len(rows) == 1
        r = rows[0]
        assert 0 < r.observed <= r.integrated + 0.2
        assert r.integrated <= r.decomposed

    def test_ratios(self):
        r = TightnessRow("t", "f", observed=5.0, integrated=10.0,
                         decomposed=20.0)
        assert r.integrated_ratio == pytest.approx(0.5)
        assert r.decomposed_ratio == pytest.approx(0.25)

    def test_render(self):
        r = TightnessRow("t", "f", 5.0, 10.0, 20.0)
        out = render_tightness([r])
        assert "50.0%" in out and "25.0%" in out

    def test_zero_bound_ratio_is_nan_not_zero(self):
        # a 0.0 ratio would read as "infinitely tight"; an undefined
        # ratio must be NaN
        r = TightnessRow("t", "f", observed=5.0, integrated=0.0,
                         decomposed=20.0)
        assert math.isnan(r.integrated_ratio)
        assert r.decomposed_ratio == pytest.approx(0.25)

    def test_nan_bound_ratio_is_nan(self):
        r = TightnessRow("t", "f", observed=5.0,
                         integrated=math.nan, decomposed=math.nan)
        assert math.isnan(r.integrated_ratio)
        assert math.isnan(r.decomposed_ratio)

    def test_render_undefined_ratio_as_na(self):
        r = TightnessRow("t", "f", observed=5.0, integrated=0.0,
                         decomposed=20.0)
        out = render_tightness([r])
        assert "n/a" in out and "25.0%" in out
        assert "0.0%" not in out

    def test_default_suite_shape(self):
        topo = default_topologies()
        assert len(topo) >= 4
        for factory in topo.values():
            net = factory()
            net.check_stability()

    def test_zero_burst_networks_report_no_false_violation(self):
        # a packetized source cannot send from a zero-depth bucket: the
        # simulated stream conforms to a one-packet bucket, so that is
        # the network the study must bound (it used to compare against
        # the zero-burst fluid bounds and raise on every seed)
        topologies = {f"random({seed})":
                      (lambda seed=seed: zero_burst(random_feedforward(seed)))
                      for seed in range(12)}
        topologies["parking_lot(4,0.9)"] = \
            lambda: zero_burst(parking_lot(4, 0.9))
        rows = tightness_study(topologies)
        assert len(rows) == 13
        assert all(r.observed > 0 and r.integrated > 0 for r in rows)
