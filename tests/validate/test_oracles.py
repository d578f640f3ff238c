"""Unit tests for the three differential oracles."""

import pytest

from repro.context import AnalysisContext, MetricsRegistry
from repro.curves.token_bucket import TokenBucket
from repro.network.generators import random_feedforward, with_burst
from repro.network.tandem import build_tandem
from repro.validate import (
    Violation,
    check_kernels,
    check_monotonicity,
    check_ordering,
    check_soundness,
    default_analyzers,
    packetization_slack,
)
from repro.validate.oracles import packetizable
from repro.validate.runner import topology_for_seed


class _Fixed:
    """Analyzer stub: the same bound for every flow of any network."""

    def __init__(self, value: float):
        self.value = value

    def run(self, net, ctx):
        return self

    def delay_of(self, name: str) -> float:
        return self.value


class _BurstInverse:
    """Analyzer stub whose bound *shrinks* as bursts grow (anti-
    monotone on purpose)."""

    def run(self, net, ctx):
        total = sum(f.bucket.sigma for f in net.iter_flows())
        stub = _Fixed(10.0 / total)
        return stub


class TestViolation:
    def test_margin_and_dict(self):
        v = Violation("soundness", "f0", "detail", 3.0, 2.5)
        assert v.margin == pytest.approx(0.5)
        d = v.as_dict()
        assert d["oracle"] == "soundness" and d["flow"] == "f0"
        assert d["margin"] == pytest.approx(0.5)


class TestPacketizationSlack:
    def test_one_packet_time_per_hop(self):
        net = build_tandem(3, 0.5)
        flow = next(net.iter_flows())
        slack = packetization_slack(net, flow, 0.05)
        # tandem servers have unit capacity
        assert slack == pytest.approx(0.05 * flow.n_hops)


class TestPacketizable:
    def test_raises_only_sub_packet_bursts(self):
        net = with_burst(build_tandem(2, 0.6), ["long_1"], 0.0)
        out = packetizable(net, 0.05)
        assert out.flow("long_1").bucket == TokenBucket(
            0.05, net.flow("long_1").bucket.rho,
            net.flow("long_1").bucket.peak)
        for f in net.iter_flows():
            if f.name != "long_1":
                assert out.flow(f.name) == f

    def test_zero_burst_network_is_checked_as_simulated(self):
        # a zero-burst source still emits whole packets; its bounds are
        # checked for the one-packet bucket the stream conforms to
        net = with_burst(build_tandem(2, 0.6), ["long_1"], 0.0)
        assert check_soundness(net, horizon=40.0) == []

    def test_fuzz_population_includes_zero_bursts(self):
        zeroed = [s for s in range(16) if any(
            f.bucket.sigma == 0.0
            for f in topology_for_seed(s).iter_flows())]
        assert 0 < len(zeroed) < 16


class TestSoundness:
    def test_real_analyzers_hold_on_tandem(self):
        net = build_tandem(2, 0.6)
        assert check_soundness(net, horizon=40.0) == []

    def test_detects_unsound_bound(self):
        net = build_tandem(2, 0.6)
        violations = check_soundness(
            net, horizon=40.0, analyzers={"tiny": _Fixed(0.0)})
        assert violations
        assert all(v.oracle == "soundness" and v.margin > 0
                   for v in violations)
        assert "tiny bound" in violations[0].detail

    def test_counts_checks_on_context(self):
        ctx = AnalysisContext(metrics=MetricsRegistry())
        net = build_tandem(2, 0.6)
        check_soundness(net, horizon=40.0, ctx=ctx)
        assert ctx.metrics.get("validate.soundness_checks") > 0


class TestOrdering:
    def test_holds_on_random_topologies(self):
        for seed in range(4):
            net = random_feedforward(seed, n_servers=3, n_flows=4)
            assert check_ordering(net) == []

    def test_detects_inverted_pair(self):
        net = build_tandem(2, 0.6)
        violations = check_ordering(net, analyzers={
            "integrated": _Fixed(2.0), "decomposed": _Fixed(1.0)})
        assert len(violations) == len(net.flows)
        assert violations[0].oracle == "ordering"
        assert violations[0].observed == pytest.approx(2.0)


class TestMonotonicity:
    def test_holds_for_real_analyzers(self):
        net = random_feedforward(3, n_servers=3, n_flows=4,
                                 max_utilization=0.6)
        assert check_monotonicity(net) == []

    def test_detects_anti_monotone_bound(self):
        net = build_tandem(2, 0.5)
        violations = check_monotonicity(
            net, analyzers={"anti": _BurstInverse()})
        assert violations
        assert violations[0].oracle == "monotonicity"
        assert "dropped" in violations[0].detail
        assert violations[0].margin > 0

    def test_rate_inflation_skipped_near_saturation(self):
        # U=0.9: rates x1.25 would saturate; only burst inflation runs
        net = build_tandem(2, 0.9)
        assert check_monotonicity(net, rate_factor=1.25) == []


class TestKernels:
    def test_exact_matches_sampled_within_tolerance(self):
        for seed in (0, 1, 2):
            assert check_kernels(seed, trials=4) == []

    def test_counts_checks(self):
        ctx = AnalysisContext(metrics=MetricsRegistry())
        check_kernels(0, trials=2, ctx=ctx)
        # 4 comparisons per trial
        assert ctx.metrics.get("validate.kernel_checks") == 8

    def test_deterministic_per_seed(self):
        a = check_kernels(7, trials=3)
        b = check_kernels(7, trials=3)
        assert a == b


class TestDefaultAnalyzers:
    def test_pair(self):
        analyzers = default_analyzers()
        assert set(analyzers) == {"integrated", "decomposed"}
