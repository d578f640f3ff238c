"""The engine builds no sweep-unit input for a unit it fast-reuses.

Admitting into one component of a multi-component network leaves every
other component outside the dirty cone.  Those servers (blocks) replay
the previous sweep's result, so their ``ServerInput`` (``BlockInput``)
must never be assembled; every other unit still builds exactly one.
The report stays bit-identical to a cold analysis.

Untraced, a Decomposed sweep takes the replayed servers from the
previous sweep in one go (a ``SweepReplay``): it must count them exactly
as a traced sweep that replays them one span at a time, and build no
source curve for a flow outside the cone.
"""

import pytest

from repro.analysis import propagation
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine, reports_identical
from repro.network.flow import Flow
from repro.network.generators import random_multicomponent


def _spans(roots):
    for sp in roots:
        yield sp
        yield from _spans(sp.children)


def _newcomer(net, component_servers):
    """A light flow on an existing path inside one component."""
    path = next(f.path for f in net.iter_flows()
                if set(f.path) <= component_servers)
    return Flow("newcomer", TokenBucket(0.1, 0.001), path)


@pytest.mark.parametrize("seed", [0, 3])
def test_decomposed_fast_reuse_builds_no_server_input(seed, monkeypatch):
    net = random_multicomponent(seed, 8, 4, 32)
    engine = IncrementalEngine(DecomposedAnalysis())
    engine.analyze(net)

    built: list = []
    original = propagation.build_server_input

    def counting(network, sid, curve_at, capped):
        built.append(sid)
        return original(network, sid, curve_at, capped)

    monkeypatch.setattr(propagation, "build_server_input", counting)
    ctx = AnalysisContext.tracing()
    grown = net.with_flow(_newcomer(net, {0, 1, 2, 3}))
    report = engine.analyze(grown, ctx=ctx)

    reused = {sp.attrs["server"] for sp in _spans(ctx.tracer.roots)
              if sp.name == "server_step"
              and sp.attrs.get("cache") == "fast_reuse"}
    fast = ctx.metrics.get("engine.fast_reuses")
    steps = ctx.metrics.get("analysis.server_steps")
    assert fast == len(reused) >= 28  # the seven untouched components
    assert not reused & {str(sid) for sid in built}
    assert len(built) == steps - fast
    assert set(built) <= {0, 1, 2, 3}
    monkeypatch.undo()
    assert reports_identical(report,
                             DecomposedAnalysis().analyze(grown))


@pytest.mark.parametrize("seed", [0, 3])
def test_decomposed_untraced_replay_counts_like_traced(seed, monkeypatch):
    net = random_multicomponent(seed, 8, 4, 32)
    grown = net.with_flow(_newcomer(net, {0, 1, 2, 3}))
    traced = IncrementalEngine(DecomposedAnalysis())
    traced.analyze(net)
    traced_ctx = AnalysisContext.tracing()
    traced.analyze(grown, ctx=traced_ctx)

    engine = IncrementalEngine(DecomposedAnalysis())
    engine.analyze(net)
    built: list = []
    sources: list = []
    original = propagation.build_server_input
    original_curve = TokenBucket.constraint_curve

    def counting(network, sid, curve_at, capped):
        built.append(sid)
        return original(network, sid, curve_at, capped)

    def counting_curve(bucket):
        sources.append(bucket)
        return original_curve(bucket)

    monkeypatch.setattr(propagation, "build_server_input", counting)
    monkeypatch.setattr(TokenBucket, "constraint_curve", counting_curve)
    ctx = AnalysisContext(metrics=MetricsRegistry())
    report = engine.analyze(grown, ctx=ctx)
    monkeypatch.undo()

    for counter in ("engine.fast_reuses", "analysis.server_steps",
                    "engine.misses", "engine.hits"):
        assert ctx.metrics.get(counter) == traced_ctx.metrics.get(counter)
    assert engine.stats.fast_reuses == traced.stats.fast_reuses >= 28
    steps = ctx.metrics.get("analysis.server_steps")
    assert len(built) == steps - ctx.metrics.get("engine.fast_reuses")
    assert set(built) <= {0, 1, 2, 3}
    in_cone = [f for f in grown.iter_flows() if set(f.path) <= {0, 1, 2, 3}]
    assert 0 < len(sources) <= len(in_cone)
    assert reports_identical(report, DecomposedAnalysis().analyze(grown))


def test_integrated_fast_reuse_builds_no_block_input(monkeypatch):
    net = random_multicomponent(1, 3, 2, 3)
    engine = IncrementalEngine(IntegratedAnalysis())
    engine.analyze(net)

    built: list = []
    original = IntegratedAnalysis.build_block_input

    def counting(self, network, kind, block, curve_at):
        built.append(block)
        return original(self, network, kind, block, curve_at)

    monkeypatch.setattr(IntegratedAnalysis, "build_block_input", counting)
    ctx = AnalysisContext.tracing()
    grown = net.with_flow(_newcomer(net, {0, 1}))
    report = engine.analyze(grown, ctx=ctx)

    reused = {sp.attrs["servers"] for sp in _spans(ctx.tracer.roots)
              if sp.name == "block"
              and sp.attrs.get("cache") == "fast_reuse"}
    fast = ctx.metrics.get("engine.fast_reuses")
    assert fast == len(reused) >= 2
    assert not reused & {str(block) for block in built}
    assert len(built) == ctx.metrics.get("analysis.block_steps") - fast
    assert all(set(block) <= {0, 1} for block in built)
    monkeypatch.undo()
    assert reports_identical(report,
                             IntegratedAnalysis().analyze(grown))
