"""Counter block for the incremental engine.

Separated from the engine so evaluation code and the CLI can render
statistics without importing the engine internals.

Since the :class:`~repro.context.AnalysisContext` refactor the stats
are a *view* over a :class:`~repro.context.MetricsRegistry` (namespace
``engine.*``) instead of private attribute bookkeeping: the engine
writes its counters into the registry, traces export them alongside
curve-kernel op counts, and this class keeps the familiar attribute
API (``stats.hits``, ``stats.hit_rate``, ``stats.render()``) on top.
"""

from __future__ import annotations

from repro.context import MetricsRegistry

__all__ = ["EngineStats"]

#: Integer counters, in render order.
_COUNTERS = ("queries", "hits", "misses", "store_hits", "store_misses",
             "fast_reuses", "invalidations", "fallbacks")
#: Seconds accumulators.
_SECONDS = ("saved_s", "spent_s")


def _counter(name: str, cast):
    key = "engine." + name

    def fget(self) -> float:
        return cast(self.registry.get(key))

    def fset(self, value) -> None:
        self.registry.set(key, float(value))

    return property(fget, fset, doc=f"``{key}`` registry counter.")


class EngineStats:
    """Operational counters of one :class:`~repro.engine.IncrementalEngine`.

    Attributes
    ----------
    queries:
        Analyses answered by the engine (incremental or fallback).
    hits:
        Block/step results served from the content-addressed cache.
    misses:
        Block/step results that had to be computed.
    store_hits / store_misses:
        Memory-cache misses that the persistent analysis store (when
        one is attached) did / did not answer.  A store hit still
        counts as neither ``hits`` nor ``misses``: the three tiers are
        disjoint.
    fast_reuses:
        Results reused from the previous sweep without even hashing
        (the block was outside the invalidation cone).
    invalidations:
        Servers dirtied by network changes, summed over queries.
    fallbacks:
        Queries answered by a cold full analysis (unsupported analyzer
        or network shape).
    saved_s:
        Estimated wall-clock seconds saved: the original compute time
        of every result served from cache or reused.
    spent_s:
        Wall-clock seconds spent computing cache misses.

    Parameters
    ----------
    registry:
        Backing :class:`~repro.context.MetricsRegistry`; a private one
        is created when omitted.  Counters live under ``engine.*``.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    queries = _counter("queries", int)
    hits = _counter("hits", int)
    misses = _counter("misses", int)
    store_hits = _counter("store_hits", int)
    store_misses = _counter("store_misses", int)
    fast_reuses = _counter("fast_reuses", int)
    invalidations = _counter("invalidations", int)
    fallbacks = _counter("fallbacks", int)
    saved_s = _counter("saved_s", float)
    spent_s = _counter("spent_s", float)

    @property
    def reused(self) -> int:
        """Results not recomputed (memory + store hits, fast reuses)."""
        return self.hits + self.store_hits + self.fast_reuses

    @property
    def hit_rate(self) -> float:
        """Fraction of block/step evaluations served without computing."""
        total = self.reused + self.misses
        return self.reused / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-serializable)."""
        out: dict = {name: getattr(self, name) for name in _COUNTERS}
        out["hit_rate"] = self.hit_rate
        for name in _SECONDS:
            out[name] = getattr(self, name)
        return out

    def render(self) -> str:
        """Aligned human-readable counter block."""
        d = self.as_dict()
        lines = ["engine stats:"]
        for key in _COUNTERS:
            lines.append(f"  {key:<14}{d[key]:>10d}")
        lines.append(f"  {'hit_rate':<14}{d['hit_rate']:>10.1%}")
        lines.append(f"  {'saved_s':<14}{d['saved_s']:>10.4f}")
        lines.append(f"  {'spent_s':<14}{d['spent_s']:>10.4f}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every counter."""
        self.registry.reset("engine.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"EngineStats({pairs})"
