"""Unit tests for AnalysisContext / NullContext plumbing."""

import json
from types import SimpleNamespace

import pytest

from repro.context import (
    NULL_CONTEXT,
    AnalysisContext,
    Deadline,
    MetricsRegistry,
    NullContext,
    active_registry,
)
from repro.errors import AnalysisTimeoutError
from tests.context.test_deadline import FakeClock


def _unit(flows=()):
    """A stand-in for a ServerInput/BlockInput."""
    return SimpleNamespace(flows=flows)


def _build(unit=None, built=None):
    """An on-demand input thunk that records each call in *built*."""
    unit = _unit() if unit is None else unit

    def build():
        if built is not None:
            built.append(unit)
        return unit
    return build


def _step_result(*names):
    """A stand-in ServerStep (the traced span reads its flow count)."""
    return SimpleNamespace(
        local=SimpleNamespace(delay_by_flow=dict.fromkeys(names, 1.0)))


class TestBuilders:
    def test_tracing_builder_is_fully_instrumented(self):
        ctx = AnalysisContext.tracing()
        assert ctx.tracer is not None
        assert ctx.metrics is not None
        assert ctx.deadline is None

    def test_with_deadline_shares_observability(self):
        base = AnalysisContext.tracing()
        dl = Deadline(10.0)
        derived = base.with_deadline(dl)
        assert derived.deadline is dl
        assert derived.tracer is base.tracer
        assert derived.metrics is base.metrics
        assert base.deadline is None  # original untouched

    def test_null_context_derivations_enforce(self):
        clock = FakeClock()
        dl = Deadline(1.0, clock=clock)
        derived = NULL_CONTEXT.with_deadline(dl)
        # a NullContext-derived copy must be a real enforcing context
        assert not isinstance(derived, NullContext)
        clock.advance(2.0)
        with pytest.raises(AnalysisTimeoutError):
            derived.checkpoint("after expiry")

    def test_with_interceptors_shares_deadline(self):
        dl = Deadline(10.0)
        base = AnalysisContext(deadline=dl)
        step = lambda sid, build: "memo"  # noqa: E731
        derived = base.with_interceptors(step=step)
        assert derived.step_interceptor is step
        assert derived.deadline is dl


class TestPrimitives:
    def test_checkpoint_count_annotate_are_noops_unconfigured(self):
        ctx = AnalysisContext()
        ctx.checkpoint("free")
        ctx.count("x")
        ctx.annotate(k=1)
        with ctx.span("s"):
            pass
        with ctx.timed("t"):
            pass

    def test_count_lands_in_registry(self):
        ctx = AnalysisContext(metrics=MetricsRegistry())
        ctx.count("admission.requests")
        ctx.count("engine.spent_s", 0.5)
        assert ctx.metrics.get("admission.requests") == 1.0
        assert ctx.metrics.get("engine.spent_s") == 0.5

    def test_analysis_scope_activates_registry(self):
        ctx = AnalysisContext.tracing()
        assert active_registry() is None
        with ctx.analysis_scope("decomposed"):
            assert active_registry() is ctx.metrics
        assert active_registry() is None
        (root,) = ctx.tracer.roots
        assert root.name == "analyze"
        assert root.attrs["algorithm"] == "decomposed"

    def test_null_singleton_is_pure_passthrough(self):
        si, built = _unit(), []
        out = NULL_CONTEXT.run_server_step("s1", _build(si, built),
                                           lambda x: ("pure", x))
        assert out == ("pure", si)
        assert built == [si]
        out = NULL_CONTEXT.run_block_step("fifo_pair", (1, 2),
                                          _build(si, built),
                                          lambda x: ("joint", x))
        assert out == ("joint", si)
        assert built == [si, si]


class TestStepDispatch:
    def test_interceptor_replaces_compute(self):
        calls, built = [], []
        ctx = AnalysisContext(
            step_interceptor=lambda sid, build: calls.append(sid) or "memo")
        out = ctx.run_server_step("s1", _build(built=built),
                                  lambda si: "pure")
        assert out == "memo"
        assert calls == ["s1"]
        assert built == []  # a replaying interceptor builds nothing

    def test_interceptor_builds_on_demand(self):
        si, built = _unit(), []
        ctx = AnalysisContext(
            step_interceptor=lambda sid, build: ("memo", build()),
            block_interceptor=lambda kind, blk, build: (kind, blk, build()))
        assert ctx.run_server_step("s1", _build(si, built),
                                   lambda x: "pure") == ("memo", si)
        assert ctx.run_block_step("sp_pair", (1, 2), _build(si, built),
                                  lambda x: "joint") == ("sp_pair", (1, 2),
                                                         si)
        assert built == [si, si]

    def test_compute_used_without_interceptor(self):
        ctx = AnalysisContext(metrics=MetricsRegistry())
        out = ctx.run_server_step("s1", _build(), lambda si: "pure")
        assert out == "pure"
        assert ctx.metrics.get("analysis.server_steps") == 1.0

    def test_server_step_traced_with_flow_count(self):
        ctx = AnalysisContext.tracing()
        ctx.run_server_step("s1", _build(),
                            lambda si: _step_result("f", "g"))
        (sp,) = ctx.tracer.roots
        assert sp.name == "server_step"
        assert sp.attrs == {"server": "s1", "n_flows": 2}

    def test_block_step_traced_and_counted(self):
        ctx = AnalysisContext.tracing()
        joint = SimpleNamespace(delays=(("f", 1.0),))
        out = ctx.run_block_step("fifo_pair", (1, 2), _build(),
                                 lambda bi: joint)
        assert out is joint
        assert ctx.metrics.get("analysis.block_steps") == 1.0
        (sp,) = ctx.tracer.roots
        assert sp.name == "block"
        assert sp.attrs == {"kind": "fifo_pair", "servers": str((1, 2)),
                            "n_flows": 1}

    def test_deadline_checked_at_step_boundary(self):
        clock = FakeClock()
        dl = Deadline(1.0, "unit test", clock=clock)
        ctx = AnalysisContext(deadline=dl)
        ctx.run_server_step("s1", _build(), lambda si: None)
        clock.advance(2.0)
        built = []
        with pytest.raises(AnalysisTimeoutError):
            ctx.run_server_step("s1", _build(built=built), lambda si: None)
        with pytest.raises(AnalysisTimeoutError):
            ctx.run_block_step("singleton", (1,), _build(built=built),
                               lambda bi: None)
        assert built == []  # the deadline fires before any input is built


class TestExport:
    def test_export_merges_spans_counters_meta(self, tmp_path):
        ctx = AnalysisContext.tracing()
        with ctx.span("analyze", algorithm="integrated"):
            ctx.count("curve.convolve", 4)
        blob = ctx.export(command="unit-test")
        assert blob["trace_version"] == 1
        assert blob["meta"] == {"command": "unit-test"}
        assert blob["counters"]["curve.convolve"] == 4.0
        assert blob["spans"][0]["name"] == "analyze"

        path = ctx.write_trace(tmp_path / "t.json", command="unit-test")
        assert json.loads(path.read_text()) == blob

    def test_write_trace_flushes_open_spans(self, tmp_path):
        ctx = AnalysisContext.tracing()
        ctx.tracer.span("left_open").__enter__()
        path = ctx.write_trace(tmp_path / "partial.json")
        blob = json.loads(path.read_text())
        assert blob["spans"][0]["status"] == "aborted"
