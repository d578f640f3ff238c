"""In-memory span recorder for the benchmark's traced run.

The traced run wraps the public functions of each ``repro`` layer in a
timing wrapper (see :data:`LAYER_MAP`).  Each wrapper is installed where
its callers look the name up: on the class for methods, and in every
loaded ``repro`` module whose globals hold the original function, so
``from x import f as _f`` aliases are covered too.  No file under ``src/`` is changed; :func:`install` returns
an undo callable that puts every original back.

A wrapper opens a span (name, start, end, parent, op id).  A layer's
self time is its spans' durations minus the part covered by their child
spans; the recorder keeps that sum per layer as it goes, so it is exact
for every call even when the stored span list hits its cap.  Calls of
*hot* functions (curve primitives, the theta-family objective) made from
inside their own layer open no span: they are only counted, and their
time stays in the enclosing span of the same layer.

Only the main thread of the process that installed the wrappers
records.  Pool workers forked by ``admit_batch`` inherit the wrappers
but record nothing; the one wrapper that runs there times the worker's
whole task and returns it through the metrics the program already
merges back into the parent (``bench.worker_s``).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

#: Spans kept for the written trace; self times are exact beyond it.
MAX_SPANS = 50_000

#: Counter the worker-side wrapper adds to each batch group's metrics.
WORKER_SECONDS = "bench.worker_s"

# (target, layer, span name, hot).  A target is "module:function" or
# "module:Class.method".
_CURVE = "repro.curves.piecewise:PiecewiseLinearCurve."
LAYER_MAP: tuple[tuple[str, str, str, bool], ...] = (
    # curves: exact piecewise-linear primitives
    (_CURVE + "__init__", "curves", "curves.new", True),
    (_CURVE + "__call__", "curves", "curves.eval", True),
    (_CURVE + "sample", "curves", "curves.eval", True),
    (_CURVE + "__add__", "curves", "curves.arith", True),
    (_CURVE + "__sub__", "curves", "curves.arith", True),
    (_CURVE + "__neg__", "curves", "curves.arith", True),
    (_CURVE + "__mul__", "curves", "curves.arith", True),
    (_CURVE + "minimum", "curves", "curves.minmax", True),
    (_CURVE + "maximum", "curves", "curves.minmax", True),
    (_CURVE + "positive_part", "curves", "curves.minmax", True),
    (_CURVE + "shift_right", "curves", "curves.shift", True),
    (_CURVE + "shift_left_x", "curves", "curves.shift", True),
    (_CURVE + "simplified", "curves", "curves.simplify", True),
    (_CURVE + "pseudo_inverse", "curves", "curves.pseudo_inverse", True),
    (_CURVE + "convolve", "curves", "curves.minplus", True),
    (_CURVE + "vertical_deviation", "curves", "curves.deviation", True),
    (_CURVE + "horizontal_deviation", "curves", "curves.deviation", True),
    (_CURVE + "first_crossing_below", "curves", "curves.crossing", True),
    (_CURVE + "long_term_rate", "curves", "curves.shape", True),
    (_CURVE + "is_nondecreasing", "curves", "curves.shape", True),
    (_CURVE + "is_convex", "curves", "curves.shape", True),
    (_CURVE + "is_concave", "curves", "curves.shape", True),
    ("repro.curves.operations:convolve", "curves", "curves.minplus", True),
    ("repro.curves.operations:convolve_all", "curves", "curves.minplus",
     True),
    ("repro.curves.operations:deconvolve", "curves", "curves.minplus", True),
    ("repro.curves.operations:hdev", "curves", "curves.deviation", True),
    ("repro.curves.operations:vdev", "curves", "curves.deviation", True),
    ("repro.curves.operations:busy_period", "curves", "curves.busy_period",
     True),
    ("repro.curves.token_bucket:TokenBucket.constraint_curve", "curves",
     "curves.new", True),
    # servers: single-node bounds and output characterizations
    ("repro.servers.fifo:fifo_local_analysis", "servers",
     "servers.fifo_local", False),
    ("repro.servers.fifo:fifo_delay_bound", "servers", "servers.fifo_delay",
     False),
    ("repro.servers.fifo:fifo_backlog_bound", "servers",
     "servers.fifo_backlog", False),
    ("repro.servers.fifo:fifo_busy_period", "servers", "servers.fifo_busy",
     False),
    ("repro.servers.fifo:cruz_output_curve", "servers", "servers.output",
     False),
    ("repro.servers.fifo:capped_output_curve", "servers", "servers.output",
     False),
    ("repro.servers.guaranteed_rate:wfq_service_curve", "servers",
     "servers.wfq_curve", False),
    ("repro.servers.guaranteed_rate:gr_local_analysis", "servers",
     "servers.gr_local", False),
    ("repro.servers.static_priority:sp_local_analysis", "servers",
     "servers.sp_local", False),
    # analysis: analyzer entry points and the per-server sweep
    ("repro.analysis.base:Analyzer.run", "analysis", "analysis.run", False),
    ("repro.analysis.decomposed:DecomposedAnalysis.analyze", "analysis",
     "analysis.decomposed", False),
    ("repro.analysis.service_curve:ServiceCurveAnalysis.analyze", "analysis",
     "analysis.service_curve", False),
    ("repro.analysis.propagation:propagate", "analysis",
     "analysis.propagate", False),
    ("repro.analysis.propagation:build_server_input", "analysis",
     "analysis.server_input", False),
    ("repro.analysis.propagation:server_step", "analysis",
     "analysis.server_step", False),
    ("repro.analysis.propagation:_local_analysis", "analysis",
     "analysis.local", False),
    # core: Algorithm Integrated, Theorem 1 and the theta family
    ("repro.core.integrated:IntegratedAnalysis.analyze", "core",
     "core.integrated", False),
    ("repro.core.integrated:evaluate_block", "core", "core.block", False),
    ("repro.core.partition:PairAlongPath.partition", "core",
     "core.partition", False),
    ("repro.core.subsystem:TwoServerSubsystem.analyze", "core",
     "core.subsystem", False),
    ("repro.core.subsystem:TwoServerSubsystem.output_curves", "core",
     "core.subsystem_outputs", False),
    ("repro.core.theorem1:theorem1_bound", "core", "core.theorem1", False),
    ("repro.core.fifo_family:family_pair_bound", "core", "core.family",
     False),
    ("repro.core.fifo_family:family_delay_for_thetas", "core",
     "core.family_objective", True),
    # engine: incremental reuse ladder and its content keys
    ("repro.engine.incremental:IncrementalEngine.analyze", "engine",
     "engine.analyze", False),
    ("repro.engine.incremental:IncrementalEngine.seed_cache", "engine",
     "engine.seed_cache", False),
    ("repro.utils.hashing:stable_digest", "engine", "engine.key", False),
    # store: the persistent content-addressed tier
    ("repro.store.store:AnalysisStore.__init__", "store", "store.open",
     False),
    ("repro.store.store:AnalysisStore.get", "store", "store.get", False),
    ("repro.store.store:AnalysisStore.put", "store", "store.put", False),
    ("repro.store.store:AnalysisStore.seed", "store", "store.seed", False),
    ("repro.store.store:AnalysisStore.flush", "store", "store.flush", False),
    ("repro.store.store:AnalysisStore.close", "store", "store.close", False),
    # network: candidate networks, stability, serialization
    ("repro.network.topology:Network.__init__", "network", "network.build",
     False),
    ("repro.network.topology:Network.with_flow", "network", "network.edit",
     False),
    ("repro.network.topology:Network.without_flow", "network",
     "network.edit", False),
    ("repro.network.topology:Network.check_stability", "network",
     "network.stability", False),
    ("repro.network.serialization:network_to_dict", "network",
     "network.serialize", False),
    ("repro.network.serialization:network_from_dict", "network",
     "network.serialize", False),
    # admission: the controller and the batch planner
    ("repro.admission.controller:AdmissionController.test", "admission",
     "admission.test", False),
    ("repro.admission.controller:AdmissionController.commit", "admission",
     "admission.commit", False),
    ("repro.admission.controller:AdmissionController.release", "admission",
     "admission.release", False),
    ("repro.admission.batch:plan_batch", "admission", "admission.batch_plan",
     False),
    # service: durable front end, journal, recovery
    ("repro.service.service:AdmissionService.admit", "service",
     "service.admit", False),
    ("repro.service.service:AdmissionService.admit_batch", "service",
     "service.admit_batch", False),
    ("repro.service.service:AdmissionService.release", "service",
     "service.release", False),
    ("repro.service.service:AdmissionService.checkpoint", "service",
     "service.checkpoint", False),
    ("repro.service.service:AdmissionService.close", "service",
     "service.close", False),
    ("repro.service.journal:Journal._append", "service",
     "service.journal_append", False),
    ("repro.service.journal:Journal.snapshot", "service", "service.snapshot",
     False),
    ("repro.service.journal:load_journal", "service", "service.journal_load",
     False),
    ("repro.utils.durable:fsync_file", "service", "service.fsync", False),
    ("repro.utils.durable:fsync_dir", "service", "service.fsync", False),
    ("repro.utils.durable:atomic_write_text", "service",
     "service.atomic_write", False),
    ("repro.service.recovery:recover_service", "service", "service.recover",
     False),
    ("repro.service.recovery:recover_state", "service",
     "service.recover_replay", False),
    ("repro.service.recovery:verify_recovery", "service",
     "service.recover_verify", False),
    ("repro.service.degrade:ConservativeAnalysis.analyze", "service",
     "service.conservative", False),
)

#: Names whose aliases are replaced only in modules under this prefix:
#: ``engine.key`` is the engine's content keying, not every digest.
_ALIAS_SCOPE = {"repro.utils.hashing:stable_digest": "repro.engine"}

#: Every layer the traced run reports, in report order.
LAYERS = ("curves", "core", "analysis", "servers", "engine", "store",
          "admission", "service", "network", "harness")


class Recorder:
    """Span stack, per-layer self times and per-name counters.

    ``enabled`` gates recording; while it is False every wrapper is a
    plain pass-through.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.enabled = False
        self.thread = threading.get_ident()
        self.pid = os.getpid()
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: time with each layer anywhere on the stack (callees included)
        self.layer_s: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.written_stores: dict[int, object] = {}
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        # frames: [layer, seconds covered by children, span id, parent]
        self._stack: list[list] = [["", 0.0, -1, -1]]

    def recording(self) -> bool:
        return self.enabled and threading.get_ident() == self.thread

    def _open(self, layer: str) -> list:
        sid = self._next_id
        self._next_id = sid + 1
        frame = [layer, 0.0, sid, self._stack[-1][2]]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        layer, covered, sid, parent = frame
        self.self_s[layer] += dur - covered
        self.incl_s[name] += dur
        self._stack[-1][1] += dur
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_s[layer] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, name, t0, t1, self.op))
        else:
            self.dropped += 1

    def wrap(self, fn, layer: str, name: str, hot: bool = False,
             on_result=None):
        """A timing wrapper around *fn* recording into this recorder."""
        rec = self
        stack = self._stack
        calls = self.calls
        depth = self._depth
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled or get_ident() != rec.thread:
                return fn(*args, **kwargs)
            calls[name] += 1
            if hot and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            # _open inlined: this runs on every curve call that crosses
            # into the curves layer, hundreds of thousands per run
            sid = rec._next_id
            rec._next_id = sid + 1
            frame = [layer, 0.0, sid, stack[-1][2]]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(frame, name, t0, perf_counter())
            if on_result is not None:
                on_result(rec, out, args)
            return out

        return wrapper

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself (loop, op, idle)."""
        if not self.recording():
            yield
            return
        self.calls[name] += 1
        frame = self._open(layer)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, t0, perf_counter())

    def export(self) -> dict:
        """JSON-ready spans plus the aggregates they produced."""
        return {
            "span_fields": ["id", "parent", "name", "start", "end", "op"],
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
            "inclusive_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "values": dict(self.values),
        }


class NullRecorder:
    """Stand-in for untraced runs: every span is a no-op."""

    op = -1

    @contextmanager
    def span(self, layer: str, name: str):
        yield


NULL_RECORDER = NullRecorder()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------

def _resolve(target: str):
    """(owner, attribute, original) for a LAYER_MAP target."""
    modname, _, qual = target.partition(":")
    owner = importlib.import_module(modname)
    *classes, attr = qual.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


def _count_store_hit(rec: Recorder, entry, args) -> None:
    if entry is not None:
        rec.values["store.get_hits"] += 1


def _note_written_store(rec: Recorder, written, args) -> None:
    # StoreStats counts per handle; the traced run sums the handles it
    # wrote through (set-up writes no entries)
    rec.written_stores[id(args[0])] = args[0]


def _count_verified(rec: Recorder, report, args) -> None:
    rec.values["service.verified_bounds"] += report.checked


_ON_RESULT = {
    "repro.store.store:AnalysisStore.get": _count_store_hit,
    "repro.store.store:AnalysisStore.put": _note_written_store,
    "repro.service.recovery:verify_recovery": _count_verified,
}


def _worker_wrapper(fn, rec: Recorder):
    """Times one batch-admission group inside its pool worker."""

    @functools.wraps(fn)
    def wrapper(payload):
        if os.getpid() == rec.pid:
            return fn(payload)
        rec.enabled = False  # forked copy: the worker records no spans
        t0 = perf_counter()
        out = fn(payload)
        metrics = out.setdefault("metrics", {})
        metrics[WORKER_SECONDS] = (metrics.get(WORKER_SECONDS, 0.0)
                                   + perf_counter() - t0)
        return out

    return wrapper


def _timed_pool(rec: Recorder):
    """ProcessPoolExecutor that adds its lifetime to ``pool_wall_s``."""

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_t0 = perf_counter()
            self._bench_workers = kwargs.get(
                "max_workers", args[0] if args else None) or 1
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if self._bench_t0 is not None:
                    wall = perf_counter() - self._bench_t0
                    rec.values["admission.pool_wall_s"] += wall
                    rec.values["admission.pool_capacity_s"] += (
                        wall * self._bench_workers)
                    self._bench_t0 = None

    return TimedPool


def _replace_aliases(original, wrapper, modules, prefix: str | None,
                     undo: list) -> None:
    for mod in modules:
        if prefix is not None and not mod.__name__.startswith(prefix):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))


def install(rec: Recorder):
    """Install every LAYER_MAP wrapper; returns the undo callable."""
    import repro.admission.batch as batch

    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "repro"
                                     or name.startswith("repro."))]
    for target, layer, name, hot in LAYER_MAP:
        owner, attr, original = _resolve(target)
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"{target} is not a plain function")
        wrapper = rec.wrap(original, layer, name, hot,
                           _ON_RESULT.get(target))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        else:
            _replace_aliases(original, wrapper, modules,
                             _ALIAS_SCOPE.get(target), undo)
    for mod, attr, new in (
            (batch, "_admit_group", _worker_wrapper(batch._admit_group, rec)),
            (batch, "ProcessPoolExecutor", _timed_pool(rec))):
        undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
