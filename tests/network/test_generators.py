"""Unit tests for the topology generators."""

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.network.generators import (
    fat_tree,
    parking_lot,
    random_feedforward,
    with_burst,
)


class TestParkingLot:
    def test_structure(self):
        net = parking_lot(4, 0.6)
        assert len(net.servers) == 4
        assert len(net.flows) == 5
        assert net.flow("long").n_hops == 4
        assert net.flow("cross_2").path == (2,)

    def test_utilization(self):
        net = parking_lot(3, 0.6)
        for k in (1, 2, 3):
            assert net.utilization(k) == pytest.approx(0.6)

    def test_analyzable(self):
        net = parking_lot(4, 0.7)
        di = IntegratedAnalysis().analyze(net).delay_of("long")
        dd = DecomposedAnalysis().analyze(net).delay_of("long")
        assert 0 < di <= dd

    def test_invalid(self):
        with pytest.raises(ValueError):
            parking_lot(0, 0.5)
        with pytest.raises(ValueError):
            parking_lot(2, 1.0)


class TestFatTree:
    def test_structure(self):
        net = fat_tree(2, 0.6)
        # 4 leaves + 2 mid + 1 root
        assert len(net.servers) == 7
        assert len(net.flows) == 4
        assert net.flow("leaf_0").n_hops == 3

    def test_root_utilization(self):
        net = fat_tree(3, 0.72)
        assert net.utilization((3, 0)) == pytest.approx(0.72)

    def test_upstream_lighter(self):
        net = fat_tree(2, 0.8)
        assert net.utilization((0, 0)) < net.utilization((2, 0))

    def test_analyzable_and_symmetric(self):
        net = fat_tree(2, 0.6)
        rep = DecomposedAnalysis().analyze(net)
        vals = {round(rep.delay_of(f"leaf_{i}"), 9) for i in range(4)}
        assert len(vals) == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            fat_tree(0, 0.5)


class TestRandomFeedforward:
    @pytest.mark.parametrize("seed", range(6))
    def test_stable_and_analyzable(self, seed):
        net = random_feedforward(seed)
        net.check_stability()
        assert net.max_utilization() < 0.9
        rep = IntegratedAnalysis().analyze(net)
        assert rep.all_finite()

    def test_deterministic(self):
        a = random_feedforward(7)
        b = random_feedforward(7)
        assert {f.name: f.path for f in a.flows.values()} == \
            {f.name: f.path for f in b.flows.values()}

    def test_seeds_differ(self):
        a = random_feedforward(1)
        b = random_feedforward(2)
        pa = {f.name: f.path for f in a.flows.values()}
        pb = {f.name: f.path for f in b.flows.values()}
        assert pa != pb

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_feedforward(0, n_servers=0)
        with pytest.raises(ValueError):
            random_feedforward(0, max_utilization=1.2)


class TestWithBurst:
    def test_zeroes_named_bursts_only(self):
        net = parking_lot(3, 0.6)
        out = with_burst(net, ["long"], 0.0)
        assert out.flow("long").bucket.sigma == 0.0
        assert out.flow("long").bucket.rho == net.flow("long").bucket.rho
        assert out.flow("long").path == net.flow("long").path
        assert out.flow("cross_1") == net.flow("cross_1")
        assert out.max_utilization() == net.max_utilization()

    def test_zero_burst_through_bound_is_positive(self):
        out = with_burst(parking_lot(4, 0.8), ["long"], 0.0)
        assert IntegratedAnalysis().analyze(out).delay_of("long") > 0
