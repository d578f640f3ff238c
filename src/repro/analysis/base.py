"""Analyzer framework: common interface and report types.

Every end-to-end delay algorithm (Decomposed, Service Curve, Integrated)
implements :class:`Analyzer` and returns a :class:`DelayReport`, so the
evaluation harness, admission controller and tests can treat them
uniformly and compute the paper's relative-improvement metric between
any pair.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.context import NULL_CONTEXT, AnalysisContext
from repro.network.topology import Network

__all__ = ["Analyzer", "DelayReport", "FlowDelay"]

ServerId = Hashable


@dataclass(frozen=True)
class FlowDelay:
    """End-to-end result for one flow.

    Attributes
    ----------
    flow:
        Flow name.
    total:
        End-to-end worst-case delay bound.
    contributions:
        Ordered ``(element, delay)`` pairs summing to *total*; *element*
        is a server id (decomposition) or a tuple of server ids (an
        integrated subsystem).  Service-curve analyses report a single
        contribution labelled with the whole path.
    """

    flow: str
    total: float
    contributions: tuple[tuple[object, float], ...] = ()

    def __post_init__(self) -> None:
        if self.contributions:
            s = sum(d for _, d in self.contributions)
            if math.isfinite(self.total) and abs(s - self.total) > 1e-6 * max(
                    1.0, abs(self.total)):
                raise ValueError(
                    f"contributions sum {s:g} != total {self.total:g} "
                    f"for flow {self.flow!r}")


@dataclass(frozen=True)
class DelayReport:
    """End-to-end delay bounds for every flow of a network.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name ("decomposed", …).
    delays:
        Per-flow :class:`FlowDelay`.  Analyzers list flows in name
        order, but a report the incremental engine derives from a
        previous one lists the flows added since then last: compare
        reports as mappings
        (:func:`repro.engine.reports_identical`), never by order.
    meta:
        Algorithm-specific diagnostics (grid resolution, theta values,
        per-server local bounds, …).
    """

    algorithm: str
    delays: Mapping[str, FlowDelay]
    meta: Mapping[str, object] = field(default_factory=dict)

    def delay_of(self, flow_name: str) -> float:
        """End-to-end bound for *flow_name* (KeyError when unknown)."""
        return self.delays[flow_name].total

    def worst(self) -> FlowDelay:
        """The flow with the largest end-to-end bound (the first by
        name among equals)."""
        if not self.delays:
            raise ValueError("report contains no flows")
        return max((self.delays[name] for name in sorted(self.delays)),
                   key=lambda fd: fd.total)

    def all_finite(self) -> bool:
        """True when every flow received a finite bound."""
        return all(math.isfinite(fd.total) for fd in self.delays.values())

    def meets_deadlines(self, network: Network) -> bool:
        """True when every flow's bound is within its deadline."""
        return all(
            self.delay_of(f.name) <= f.deadline
            for f in network.flows.values()
        )


class Analyzer(abc.ABC):
    """Interface of all end-to-end delay analyses."""

    #: short machine name, overridden by subclasses
    name: str = "abstract"

    @abc.abstractmethod
    def analyze(self, network: Network, *,
                ctx: AnalysisContext = NULL_CONTEXT) -> DelayReport:
        """Compute end-to-end worst-case delay bounds for every flow.

        Implementations must call ``network.check_stability()`` first and
        raise :class:`repro.errors.InstabilityError` on overload.

        *ctx* is the :class:`~repro.context.AnalysisContext` execution
        layer (cooperative deadline, tracing, metrics).  Every analyzer
        must accept it and honor its deadline by calling
        ``ctx.checkpoint(...)`` at natural boundaries (per-server steps,
        per-block evaluations).
        """

    def run(self, network: Network,
            ctx: AnalysisContext = NULL_CONTEXT) -> DelayReport:
        """Analyze under *ctx*.

        Harness layers (admission, survivability, the engine's cold
        fallback) call this one entry point, and perfbench's traced run
        wraps it by name to time every analysis.
        """
        return self.analyze(network, ctx=ctx)
