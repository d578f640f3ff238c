"""Differential guarantees of the execution layer.

The context must be *observation only*: running any analysis under full
tracing/metrics — or under a deadline that never fires — must produce a
report bit-identical (exact float ``==``) to the NULL_CONTEXT run.  And
when a deadline does fire mid-propagation, the failure must be a
structured :class:`AnalysisTimeoutError` with the partial trace still
exportable.
"""

import json

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.context import AnalysisContext, Deadline
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import (
    IncrementalEngine,
    describe_report_difference,
    reports_identical,
)
from repro.errors import AnalysisTimeoutError
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.tandem import build_tandem

FACTORIES = [DecomposedAnalysis, IntegratedAnalysis, ServiceCurveAnalysis]


class TickingClock:
    """Monotonic clock advancing one second per observation."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_traced_run_bit_identical(factory):
    net = build_tandem(4, 0.7)
    want = factory().analyze(net)
    ctx = AnalysisContext.tracing()
    got = factory().analyze(net, ctx=ctx)
    assert reports_identical(got, want), \
        describe_report_difference(got, want)
    assert ctx.tracer.n_spans > 0
    assert len(ctx.metrics) > 0


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_generous_deadline_bit_identical(factory):
    net = build_tandem(4, 0.7)
    want = factory().analyze(net)
    ctx = AnalysisContext.tracing(deadline=Deadline(3600.0))
    got = factory().analyze(net, ctx=ctx)
    assert reports_identical(got, want), \
        describe_report_difference(got, want)


@pytest.mark.parametrize("factory", [DecomposedAnalysis,
                                     IntegratedAnalysis],
                         ids=lambda f: f.__name__)
def test_traced_run_bit_identical_random_networks(factory):
    net = random_feedforward(seed=11, n_servers=7, n_flows=8,
                             max_utilization=0.5)
    want = factory().analyze(net)
    got = factory().analyze(net, ctx=AnalysisContext.tracing())
    assert reports_identical(got, want), \
        describe_report_difference(got, want)


def test_engine_under_tracing_bit_identical():
    base = random_feedforward(seed=3, n_servers=6, n_flows=6,
                              max_utilization=0.5)
    engine = IncrementalEngine(DecomposedAnalysis())
    cold = DecomposedAnalysis()
    ctx = AnalysisContext.tracing()
    servers = sorted(base.servers, key=str)

    net = base
    for k in range(4):
        flow = Flow(f"extra{k}", TokenBucket(0.3, 0.02),
                    tuple(servers[k % 2:k % 2 + 3]), deadline=500.0)
        candidate = net.with_flow(flow)
        want = cold.analyze(candidate)
        got = engine.analyze(candidate, ctx=ctx)
        assert reports_identical(got, want), \
            describe_report_difference(got, want)
        net = candidate

    # the engine's verdict counters are mirrored into the context
    assert ctx.metrics.get("engine.queries") == engine.stats.queries
    assert ctx.metrics.get("engine.hits") == engine.stats.hits
    assert engine.stats.queries == 4


def test_deadline_expiry_mid_propagation_flushes_partial_trace(tmp_path):
    net = build_tandem(6, 0.7)
    # one tick per deadline observation: the budget survives the first
    # couple of server steps, then expires strictly mid-propagation
    deadline = Deadline(4.5, "expiry test", clock=TickingClock())
    ctx = AnalysisContext.tracing(deadline=deadline)

    with pytest.raises(AnalysisTimeoutError) as ei:
        DecomposedAnalysis().analyze(net, ctx=ctx)
    err = ei.value
    assert err.budget == pytest.approx(4.5)
    assert err.elapsed >= 4.5
    assert "expiry test" in str(err)

    # the analyze span aborted but survived; some server steps completed
    (root,) = ctx.tracer.roots
    assert root.name == "analyze"
    assert root.status == "aborted"
    steps = [c for c in root.children if c.name == "server_step"]
    assert 0 < len(steps) < 6

    # the partial trace still exports as valid JSON
    blob = json.loads(
        ctx.write_trace(tmp_path / "partial.json").read_text())
    assert blob["spans"][0]["status"] == "aborted"
    assert "AnalysisTimeoutError" in blob["spans"][0]["attrs"]["error"]
