"""Differential fuzz harness: engine reports == cold reports, exactly.

Seeded random admit/release sequences are replayed twice — once through
the :class:`~repro.engine.IncrementalEngine` and once with a cold
analyzer on the same network snapshots.  Every pair of
:class:`~repro.analysis.base.DelayReport` objects must be bit-identical
(``==`` on every float, not approximately equal).  This is the
enforcement of the engine's correctness contract for both Algorithm
Decomposed and Algorithm Integrated.
"""

import random

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import (
    IncrementalEngine,
    describe_report_difference,
    reports_identical,
)
from repro.errors import AnalysisError, InstabilityError
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.topology import Network, ServerSpec


def random_ops(rng, base, n_ops, max_extra=8):
    """A seeded admit/release schedule against *base*'s server line.

    Yields ("admit", flow) / ("release", name) ops that are always
    legal for a controller that applies them in order.
    """
    servers = sorted(base.servers, key=str)
    live = set(base.flows)
    ops = []
    fresh = 0
    for _ in range(n_ops):
        removable = [n for n in sorted(live) if n.startswith("fz")]
        if removable and (len(removable) >= max_extra
                          or rng.random() < 0.4):
            name = rng.choice(removable)
            live.discard(name)
            ops.append(("release", name))
        else:
            start = rng.randrange(len(servers) - 1)
            length = rng.randint(2, min(4, len(servers) - start))
            path = tuple(servers[start:start + length])
            name = f"fz{fresh}"
            fresh += 1
            live.add(name)
            ops.append(("admit", Flow(
                name,
                TokenBucket(rng.uniform(0.2, 2.0),
                            rng.uniform(0.01, 0.1)),
                path, deadline=rng.uniform(20.0, 200.0))))
    return ops


def run_differential(analyzer_factory, seed, n_servers=8, n_flows=10,
                     n_ops=14):
    base = random_feedforward(seed=seed, n_servers=n_servers,
                              n_flows=n_flows, max_utilization=0.5)
    engine = IncrementalEngine(analyzer_factory())
    cold = analyzer_factory()
    rng = random.Random(seed * 31 + 7)

    net = base
    for op in random_ops(rng, base, n_ops):
        if op[0] == "admit":
            candidate = net.with_flow(op[1])
        else:
            candidate = net.without_flow(op[1])
        try:
            want = cold.analyze(candidate)
        except (AnalysisError, InstabilityError) as exc:
            # overload etc.: the engine must fail the same way; the
            # caller keeps its network, and the next edit starts from it
            with pytest.raises(type(exc)):
                engine.analyze(candidate)
            continue
        got = engine.analyze(candidate)
        assert reports_identical(got, want), (
            f"op {op[0]} diverged: "
            f"{describe_report_difference(got, want)}")
        net = candidate
    assert engine.stats.reused > 0  # the run actually exercised reuse


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_decomposed_differential(seed):
    run_differential(DecomposedAnalysis, seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_integrated_differential(seed):
    run_differential(IntegratedAnalysis, seed, n_servers=6,
                     n_flows=6, n_ops=8)


def test_capped_decomposed_differential():
    run_differential(lambda: DecomposedAnalysis(capped_propagation=True),
                     seed=5)


def test_integrated_partition_moving_off_the_cone():
    # admitting the longest flow moves PairAlongPath's pairing from
    # 1 -> 2 to 6 -> 7 -> 8 -> 9; server 3, outside the new flow's cone,
    # then receives flow a's curve from two singletons instead of a pair
    servers = [ServerSpec(k) for k in range(1, 10)]
    net = Network(servers, [
        Flow("a", TokenBucket(2.0, 0.2), (1, 2, 3)),
        Flow("e1", TokenBucket(3.0, 0.3), (1,)),
        Flow("e2", TokenBucket(3.0, 0.3), (2,)),
        Flow("d", TokenBucket(1.0, 0.2), (3, 5)),
        Flow("x", TokenBucket(1.0, 0.1), (6, 7))])
    engine = IncrementalEngine(IntegratedAnalysis())
    engine.analyze(net)
    for candidate in (
            net.with_flow(Flow("c", TokenBucket(1.0, 0.1), (6, 7, 8, 9))),
            net):  # and back
        got = engine.analyze(candidate)
        want = IntegratedAnalysis().analyze(candidate)
        assert reports_identical(got, want), describe_report_difference(
            got, want)
