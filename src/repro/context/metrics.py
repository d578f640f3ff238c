"""Metrics registry: named counters and timers for one analysis run.

:class:`MetricsRegistry` is the single accounting substrate of the
execution layer — the incremental engine's :class:`~repro.engine.stats.
EngineStats`, the report generator's per-section timings and the sweep
progress line all read and write the same counter namespace instead of
keeping private ``perf_counter`` bookkeeping.

The curve kernels (:mod:`repro.curves.piecewise`,
:mod:`repro.curves.exact`, :mod:`repro.curves.numeric`) are too
low-level to thread an explicit context through every call, so this
module also provides a *thread-local active registry*:
:func:`kernel_count` is a cheap no-op until an
:class:`~repro.context.AnalysisContext` activates its registry around an
analysis, at which point every curve operation is counted.  The
inactive-path cost is one thread-local attribute read and a ``None``
check — negligible next to the numpy work each kernel performs.

Exact-kernel counters: ``curve.exact_convolve`` /
``curve.exact_deconvolve`` count the general (mixed-convexity) exact
paths — see ``docs/KERNELS.md`` and ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "MetricsRegistry",
    "QuantileReservoir",
    "kernel_count",
    "active_registry",
    "activate_registry",
]


class MetricsRegistry:
    """Named counters and accumulating timers.

    Counters are plain floats (``inc``/``add``); timers accumulate
    wall-clock seconds and an invocation count under
    ``<name>.s`` / ``<name>.n``.  The registry is deliberately schema
    free: layers agree on dotted names (``engine.hits``,
    ``curve.convolve``, ``sweep.done`` …) documented in
    ``docs/OBSERVABILITY.md``.

    All mutators and views are thread-safe: the service layer shares
    one registry between its request thread and breaker/latency
    bookkeeping, and the load harness hammers a shared registry from
    worker threads — an unlocked read-modify-write ``inc`` silently
    loses counts under that contention.
    """

    __slots__ = ("_counters", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- counters ------------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        """Add *n* (default 1) to counter *name*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + n

    #: Alias — ``add`` reads better for accumulating measured values.
    add = inc

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of counter *name*."""
        with self._lock:
            return self._counters.get(name, default)

    def set(self, name: str, value: float) -> None:
        """Overwrite counter *name* (used by gauges like ``sweep.total``)."""
        with self._lock:
            self._counters[name] = float(value)

    # -- timers --------------------------------------------------------

    @contextmanager
    def timed(self, name: str):
        """Time a block; accumulates ``<name>.s`` and ``<name>.n``."""
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.add(name + ".s", perf_counter() - t0)
            self.inc(name + ".n")

    def timer_s(self, name: str) -> float:
        """Accumulated seconds of timer *name*."""
        return self.get(name + ".s")

    # -- views ---------------------------------------------------------

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """Plain-dict snapshot, optionally filtered by name *prefix*."""
        with self._lock:
            if not prefix:
                return dict(self._counters)
            return {k: v for k, v in self._counters.items()
                    if k.startswith(prefix)}

    def merge_into(self, other: "MetricsRegistry") -> None:
        """Add every counter of this registry into *other*.

        Snapshots under this registry's lock, then adds into *other*
        under its own — never both locks at once, so two registries
        merging into each other concurrently cannot deadlock.
        """
        for name, value in self.as_dict().items():
            other.add(name, value)

    def reset(self, prefix: str = "") -> None:
        """Zero every counter, or only those matching *prefix*."""
        with self._lock:
            if not prefix:
                self._counters.clear()
            else:
                for k in [k for k in self._counters
                          if k.startswith(prefix)]:
                    del self._counters[k]

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._counters)} counters)"


class QuantileReservoir:
    """Streaming latency reservoir with exact small-sample quantiles.

    Keeps every observation up to *capacity* (quantiles are then
    **exact**), after which it degrades to seeded Algorithm-R reservoir
    sampling — uniformly representative, deterministic for a given
    seed, and bounded in memory.  ``max``, ``mean`` and ``count`` stay
    exact regardless of sampling.

    The EWMA the admission service sheds on reacts in O(1) but hides
    the tail; this reservoir is the complementary view: p50/p95/p99
    that a load test (and the ``repro serve`` shutdown summary) can
    report honestly.

    All methods are thread-safe: the load harness's worker threads
    observe into one shared reservoir while the driver reads summaries,
    and an unlocked ``observe`` can lose observations (``_count`` /
    ``_sum`` read-modify-writes interleave) or corrupt the Algorithm-R
    swap.
    """

    __slots__ = ("_capacity", "_samples", "_rng", "_count",
                 "_sum", "_max", "_lock")

    def __init__(self, capacity: int = 65536, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._samples: list[float] = []
        self._rng = random.Random(seed)
        self._count = 0
        self._sum = 0.0
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds, bytes, anything ordered)."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if len(self._samples) < self._capacity:
                self._samples.append(value)
            else:
                j = self._rng.randrange(self._count)
                if j < self._capacity:
                    self._samples[j] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def exact(self) -> bool:
        """True while no observation has been dropped (quantiles exact)."""
        with self._lock:
            return self._count <= self._capacity

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else float("nan")

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else float("nan")

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1] over retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return float("nan")
        ordered = sorted(samples)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return ordered[rank] if q > 0 else ordered[0]

    def summary(self) -> dict[str, float]:
        """The standard report block: count/mean/p50/p95/p99/max.

        Snapshots count/sum/max and the sample list under one lock
        acquisition, so the block is internally consistent even while
        other threads keep observing.
        """
        with self._lock:
            ordered = sorted(self._samples)
            count = self._count
            mean = self._sum / count if count else float("nan")
            peak = self._max if count else float("nan")

        def at(q: float) -> float:
            if not ordered:
                return float("nan")
            rank = min(len(ordered) - 1,
                       max(0, int(q * len(ordered) + 0.5) - 1))
            return ordered[rank]

        return {
            "count": float(count),
            "mean": mean,
            "p50": at(0.50),
            "p95": at(0.95),
            "p99": at(0.99),
            "max": peak,
        }

    def gauge_into(self, metrics: "MetricsRegistry | None",
                   prefix: str) -> dict[str, float]:
        """Publish the summary as ``<prefix>.<stat>`` gauges; returns it."""
        stats = self.summary()
        if metrics is not None:
            for key, value in stats.items():
                metrics.set(f"{prefix}.{key}", value)
        return stats


# ----------------------------------------------------------------------
# thread-local active registry (the curve kernels' counting hook)
# ----------------------------------------------------------------------

_ACTIVE = threading.local()


def active_registry() -> MetricsRegistry | None:
    """The registry currently activated on this thread, if any."""
    return getattr(_ACTIVE, "reg", None)


def kernel_count(name: str, n: float = 1.0) -> None:
    """Count one low-level kernel operation.

    No-op (one attribute read) unless a registry is active on this
    thread; the curve kernels call this unconditionally.
    """
    reg = getattr(_ACTIVE, "reg", None)
    if reg is not None:
        reg.inc(name, n)


@contextmanager
def activate_registry(reg: MetricsRegistry | None):
    """Make *reg* the active registry on this thread for the block.

    Nested activations stack (the innermost wins); activating ``None``
    temporarily disables counting.
    """
    prev = getattr(_ACTIVE, "reg", None)
    _ACTIVE.reg = reg
    try:
        yield reg
    finally:
        _ACTIVE.reg = prev
