"""The :class:`AnalysisContext` execution layer.

One object carries everything that *controls* or *observes* an analysis
without being part of its mathematical input:

* a cooperative :class:`~repro.context.deadline.Deadline`, checked at
  every server-step / block boundary (an online admission test that has
  not answered within budget is a failed test);
* a :class:`~repro.context.tracing.Tracer` of structured spans
  (admission test → analyzer attempt → per-server step / per-block
  Theorem-1 evaluation), exportable as JSON;
* a :class:`~repro.context.metrics.MetricsRegistry` of counters and
  timers (curve-kernel op counts, engine cache hits, sweep progress);
* optional *step interceptors* — the incremental engine's memoizing
  replacements for the pure per-server / per-block functions, formerly
  the ``step=`` / ``block_step=`` keyword hooks plumbed through every
  layer.

Analyses receive the context explicitly (``analyze(net, ctx=...)``) and
route their per-unit work through :meth:`AnalysisContext.run_server_step`
/ :meth:`AnalysisContext.run_block_step`.  The default everywhere is the
:data:`NULL_CONTEXT` singleton, whose hot-path methods collapse to a
single extra call — untraced analysis stays allocation-light and
bit-identical to the pre-context code path.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

from repro.context.deadline import Deadline
from repro.context.metrics import MetricsRegistry, activate_registry
from repro.context.tracing import Tracer

__all__ = ["AnalysisContext", "NullContext", "NULL_CONTEXT"]

#: Shared no-op context manager (avoids one allocation per use).
_NULL_CM = nullcontext()

#: Interceptor signatures (mirror the engine's memoizing wrappers):
#: ``step(sid, build) -> ServerStep`` and
#: ``block(kind, block_ids, build) -> BlockOutcome``, where ``build()``
#: returns the unit's ``ServerInput`` / ``BlockInput``.  The input is
#: built on demand: an interceptor that replays a remembered result
#: never calls ``build``.  An interceptor MUST be extensionally equal
#: to the pure function applied to ``build()``.  A step interceptor may
#: also carry a ``replay`` attribute
#: (:class:`repro.analysis.propagation.SweepReplay`): the previous
#: sweep, whose steps the sweep then reuses outside its dirty servers
#: without calling the interceptor.
StepInterceptor = Callable[[object, Callable[[], object]], object]
BlockInterceptor = Callable[[str, tuple, Callable[[], object]], object]


class AnalysisContext:
    """Execution context threaded through an analysis call chain.

    All attributes are optional; a context with none set behaves like
    :data:`NULL_CONTEXT` (modulo a few ``None`` checks per unit).
    Contexts are cheap value-like objects: the ``with_*`` builders
    return shallow copies sharing the tracer/metrics/deadline, so a
    caller can hand the engine a derived context carrying interceptors
    without disturbing its own.
    """

    __slots__ = ("deadline", "tracer", "metrics",
                 "step_interceptor", "block_interceptor")

    def __init__(self, *, deadline: Deadline | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 step_interceptor: StepInterceptor | None = None,
                 block_interceptor: BlockInterceptor | None = None) -> None:
        self.deadline = deadline
        self.tracer = tracer
        self.metrics = metrics
        self.step_interceptor = step_interceptor
        self.block_interceptor = block_interceptor

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    @classmethod
    def tracing(cls, *, deadline: Deadline | None = None,
                max_spans: int | None = None) -> "AnalysisContext":
        """A fully instrumented context (fresh tracer + registry)."""
        tracer = Tracer(max_spans) if max_spans else Tracer()
        return cls(deadline=deadline, tracer=tracer,
                   metrics=MetricsRegistry())

    def with_deadline(self, deadline: Deadline | None) -> "AnalysisContext":
        """Copy of this context with *deadline* swapped in."""
        return AnalysisContext(
            deadline=deadline, tracer=self.tracer, metrics=self.metrics,
            step_interceptor=self.step_interceptor,
            block_interceptor=self.block_interceptor)

    def with_interceptors(self, step: StepInterceptor | None = None,
                          block: BlockInterceptor | None = None,
                          ) -> "AnalysisContext":
        """Copy with the per-unit interceptors replaced.

        The incremental engine derives such a context per query; the
        observability attributes (deadline/tracer/metrics) are
        shared so interception composes with tracing and budgets.
        """
        return AnalysisContext(
            deadline=self.deadline, tracer=self.tracer,
            metrics=self.metrics,
            step_interceptor=step, block_interceptor=block)

    # ------------------------------------------------------------------
    # control & observation primitives
    # ------------------------------------------------------------------

    def checkpoint(self, what: str | None = None) -> None:
        """Cooperative deadline check (cheap no-op without a deadline)."""
        dl = self.deadline
        if dl is not None:
            dl.check(what)

    def count(self, name: str, n: float = 1.0) -> None:
        """Increment a registry counter (no-op without metrics)."""
        m = self.metrics
        if m is not None:
            m.inc(name, n)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (no-op untraced)."""
        t = self.tracer
        if t is not None:
            t.annotate(**attrs)

    def span(self, name: str, **attrs):
        """Context manager: a traced span, or a shared no-op."""
        t = self.tracer
        if t is None:
            return _NULL_CM
        return t.span(name, **attrs)

    def timed(self, name: str):
        """Context manager: a registry timer, or a shared no-op."""
        m = self.metrics
        if m is None:
            return _NULL_CM
        return m.timed(name)

    @contextmanager
    def analysis_scope(self, algorithm: str, **attrs) -> Iterator[None]:
        """Wrap one full analyzer run: root span and metrics.

        Every :class:`~repro.analysis.base.Analyzer` opens this scope at
        the top of ``analyze`` so curve-kernel op counters land in this
        context's registry and the analysis appears as one span.
        """
        self.checkpoint(f"{algorithm} analysis start")
        if self.tracer is not None:
            with self.tracer.span("analyze", algorithm=algorithm, **attrs):
                with activate_registry(self.metrics):
                    yield
        elif self.metrics is not None:
            with activate_registry(self.metrics):
                yield
        else:
            yield

    # ------------------------------------------------------------------
    # per-unit execution (the former step=/block_step= hooks)
    # ------------------------------------------------------------------

    def run_server_step(self, sid, build, compute):
        """Run one per-server propagation step under this context.

        *build* returns the step's
        :class:`~repro.analysis.propagation.ServerInput` and *compute*
        is the pure function of it
        (:func:`repro.analysis.propagation.server_step`).  Without an
        interceptor the result is ``compute(build())``; the engine's
        memoizing :attr:`step_interceptor`, when installed, replaces
        both, calls *build* only when it has no result to replay, and
        must be extensionally equal.
        """
        dl = self.deadline
        if dl is not None:
            dl.check("propagation")
        fn = self.step_interceptor
        if self.tracer is None:
            out = compute(build()) if fn is None else fn(sid, build)
        else:
            with self.tracer.span("server_step", server=str(sid)) as sp:
                out = compute(build()) if fn is None else fn(sid, build)
                if sp is not None:
                    sp.attrs["n_flows"] = len(out.local.delay_by_flow)
        if self.metrics is not None:
            self.metrics.inc("analysis.server_steps")
        return out

    def run_block_step(self, kind: str, block: tuple, build, compute):
        """Run one per-block joint evaluation under this context.

        *build* returns the block's
        :class:`~repro.core.integrated.BlockInput` and *compute* is the
        pure function of it (:func:`repro.core.integrated.
        evaluate_block`); the engine's :attr:`block_interceptor`
        replaces both when installed, as in :meth:`run_server_step`.
        """
        dl = self.deadline
        if dl is not None:
            dl.check("block evaluation")
        fn = self.block_interceptor
        if self.tracer is None:
            out = compute(build()) if fn is None else fn(kind, block, build)
        else:
            with self.tracer.span("block", kind=kind,
                                  servers=str(tuple(block))) as sp:
                out = (compute(build()) if fn is None
                       else fn(kind, block, build))
                if sp is not None:
                    sp.attrs["n_flows"] = len(out.delays)
        if self.metrics is not None:
            self.metrics.inc("analysis.block_steps")
        return out

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export(self, **meta) -> dict:
        """JSON-ready snapshot: spans, counters and caller metadata."""
        out: dict = {"trace_version": 1}
        if meta:
            out["meta"] = meta
        if self.tracer is not None:
            out.update(self.tracer.as_dict())
        if self.metrics is not None:
            out["counters"] = self.metrics.as_dict()
        return out

    def write_trace(self, path: str | Path, **meta) -> Path:
        """Flush open spans and write :meth:`export` to *path* as JSON."""
        import json

        if self.tracer is not None:
            self.tracer.flush_open("flushed at export")
        path = Path(path)
        path.write_text(json.dumps(self.export(**meta), indent=2),
                        encoding="utf-8")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [name for name, val in (
            ("deadline", self.deadline), ("tracer", self.tracer),
            ("metrics", self.metrics),
            ("step", self.step_interceptor),
            ("block", self.block_interceptor)) if val is not None]
        return f"AnalysisContext({', '.join(parts) or 'empty'})"


class NullContext(AnalysisContext):
    """The no-op context: every hot-path method collapses to nothing.

    Used as the default ``ctx`` everywhere so untraced analyses pay one
    extra method call per unit and allocate nothing.  ``with_*``
    builders return real :class:`AnalysisContext` objects, so deriving
    from the null context (as the engine does) works transparently.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()

    def checkpoint(self, what: str | None = None) -> None:
        pass

    def count(self, name: str, n: float = 1.0) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_CM

    def timed(self, name: str):
        return _NULL_CM

    def analysis_scope(self, algorithm: str, **attrs):
        return _NULL_CM

    def run_server_step(self, sid, build, compute):
        return compute(build())

    def run_block_step(self, kind: str, block: tuple, build, compute):
        return compute(build())


#: Shared default instance — do not mutate.
NULL_CONTEXT = NullContext()
