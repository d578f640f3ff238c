"""Hop-by-hop traffic propagation shared by the analyses.

Both decomposition-style algorithms (plain Cruz and the line-rate-capped
variant used inside Algorithm Integrated) and the service-curve baseline
need per-flow constraint curves *at every server's input*.  This module
implements the single topological sweep that produces them, together
with the per-server local analyses.

The per-server step is factored into a standalone pure function,
:func:`server_step`: it consumes a :class:`ServerInput` (capacity,
discipline, the flows present with their exact input curves) and
produces a :class:`ServerStep` (the local analysis plus each flow's
output curve).  Because the step depends on nothing but its input
value, the incremental engine (:mod:`repro.engine`) can memoize it
content-addressed and replay cached steps with bit-identical results:
:func:`propagate` routes every step through
:meth:`repro.context.AnalysisContext.run_server_step`, whose optional
step interceptor is exactly that memoizing wrapper (and which also
carries the cooperative deadline and per-step tracing).  The step's
input is handed over as a thunk, so a replayed step costs no
:class:`ServerInput` construction.

Input curves are never copied forward hop by hop: a flow's curve at a
server is resolved when a step's input is built, from the source
constraint at its first hop or else from its previous hop's
:attr:`ServerStep.out_curves`.  An interceptor may also offer
:func:`propagate` the previous sweep as a :class:`SweepReplay`; the
sweep then takes every server outside the replay's dirty set from the
previous sweep without visiting it: a replayed server costs no
per-flow work — no source curve, no output-curve bookkeeping, not even
a loop iteration — so a sweep after a small change costs the changed
cone plus copying the previous sweep's per-server maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from repro.context import NULL_CONTEXT, AnalysisContext
from repro.curves.kernels import current_kernel, use_kernel
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.errors import AnalysisError
from repro.network.topology import Discipline, Network
from repro.servers.base import LocalAnalysis
from repro.servers.fifo import (
    capped_output_curve,
    cruz_output_curve,
    fifo_local_analysis,
)
from repro.servers.guaranteed_rate import gr_local_analysis
from repro.servers.static_priority import sp_local_analysis

if TYPE_CHECKING:
    from repro.analysis.base import DelayReport

__all__ = [
    "PropagationResult",
    "FlowAtServer",
    "ServerInput",
    "ServerStep",
    "SweepReplay",
    "server_step",
    "propagate",
    "analyze_server",
]

ServerId = Hashable


@dataclass(frozen=True)
class FlowAtServer:
    """One flow as seen by a single server's local analysis.

    Attributes
    ----------
    name:
        Flow name (keys the per-flow delay results).
    curve:
        Exact constraint curve of the flow at this server's input.
    has_next:
        Whether the flow continues to another server (output curve
        needed) or exits the network here.
    priority:
        Priority level (static-priority servers only).
    rho:
        Sustained source rate (guaranteed-rate servers reserve it).
    """

    name: str
    curve: PiecewiseLinearCurve
    has_next: bool
    priority: int
    rho: float


@dataclass(frozen=True)
class ServerInput:
    """Everything that determines one server's local analysis step.

    ``kernel`` is the curve kernel the step runs under (captured at
    build time from the thread's active selection): it is part of the
    step's mathematical input — the grid backend's padded bounds differ
    from the exact ones — so it participates in the incremental
    engine's content keys and exact/grid results never alias.
    """

    capacity: float
    discipline: str
    capped: bool
    flows: tuple[FlowAtServer, ...]
    kernel: str = "exact"


@dataclass(frozen=True)
class ServerStep:
    """Output of one per-server analysis step.

    Attributes
    ----------
    local:
        The server's :class:`LocalAnalysis` (delays/backlog/busy period).
    out_curves:
        ``(flow name, curve)`` pairs for every flow with a next hop —
        the constraint curve entering that next hop, already simplified.
    """

    local: LocalAnalysis
    out_curves: tuple[tuple[str, PiecewiseLinearCurve], ...]


def _local_analysis(capacity: float, discipline: str,
                    curves: Mapping[str, PiecewiseLinearCurve],
                    priorities: Mapping[str, int],
                    rates: Mapping[str, float]) -> LocalAnalysis:
    """Dispatch the local analysis on the discipline."""
    if discipline == Discipline.FIFO:
        return fifo_local_analysis(curves, capacity)
    if discipline == Discipline.STATIC_PRIORITY:
        return sp_local_analysis(curves, dict(priorities), capacity)
    if discipline == Discipline.GUARANTEED_RATE:
        # Reserve exactly the sustained rate of each flow — the minimal
        # allocation that keeps the per-flow bound finite.
        if any(r <= 0 for r in rates.values()):
            raise AnalysisError(
                "guaranteed-rate servers need every flow rate > 0")
        return gr_local_analysis(curves, dict(rates), capacity)
    raise AnalysisError(
        f"no local analysis for discipline {discipline!r}")


def server_step(si: ServerInput) -> ServerStep:
    """The per-server analysis step as a pure function of its input.

    Computes the local analysis and, for every flow that continues,
    its output constraint curve (Cruz's ``b(I + d)``, optionally
    intersected with the line rate when ``si.capped``).  Deterministic:
    identical inputs produce bit-identical outputs — the step activates
    ``si.kernel`` itself, so a replayed step does not depend on the
    caller's ambient kernel.
    """
    with use_kernel(si.kernel):
        curves = {fa.name: fa.curve for fa in si.flows}
        la = _local_analysis(
            si.capacity, si.discipline, curves,
            {fa.name: fa.priority for fa in si.flows},
            {fa.name: fa.rho for fa in si.flows})
        outs: list[tuple[str, PiecewiseLinearCurve]] = []
        for fa in si.flows:
            if not fa.has_next:
                continue
            d = la.delay_by_flow[fa.name]
            if si.capped:
                out = capped_output_curve(fa.curve, d, si.capacity)
            else:
                out = cruz_output_curve(fa.curve, d)
            outs.append((fa.name, out.simplified()))
    return ServerStep(local=la, out_curves=tuple(outs))


def build_server_input(network: Network, sid: ServerId,
                       curve_at: Mapping[tuple[str, ServerId],
                                         PiecewiseLinearCurve],
                       capped: bool) -> ServerInput:
    """Assemble the :class:`ServerInput` for one server of a sweep."""
    spec = network.server(sid)
    flows = tuple(
        FlowAtServer(
            name=f.name,
            curve=curve_at[(f.name, sid)],
            has_next=f.path[-1] != sid,
            priority=f.priority,
            rho=f.bucket.rho,
        )
        for f in network.flows_at(sid))
    return ServerInput(capacity=spec.capacity,
                       discipline=spec.discipline,
                       capped=capped, flows=flows,
                       kernel=current_kernel())


@dataclass(frozen=True)
class SweepReplay:
    """A previous sweep, offered for replay by a step interceptor.

    The incremental engine's step interceptor carries one as its
    ``replay`` attribute when it knows which servers a change can
    reach.  :func:`propagate` then keeps the previous step of every
    server not in *dirty* without visiting it, and steps only the dirty
    ones; :class:`~repro.analysis.decomposed.DecomposedAnalysis` keeps
    *report*'s result for every flow that visits no dirty server.

    Attributes
    ----------
    steps, local:
        The previous sweep's step, and its local analysis, of every
        server it visited.
    dirty:
        Servers whose step may differ from the previous sweep's.
    report:
        The report the previous sweep produced.
    dropped:
        Names of the flows in *report* the new network no longer has.
    """

    steps: dict[ServerId, ServerStep]
    local: dict[ServerId, LocalAnalysis]
    dirty: frozenset[ServerId]
    report: "DelayReport"
    dropped: tuple[str, ...]


class _InputCurves(Mapping):
    """Each flow's constraint curve at each server on its path.

    Keyed by ``(flow name, server id)``.  A curve is resolved on first
    use and kept: the source constraint at the flow's first hop, else
    the output curve its previous hop's step produced.  *steps* is the
    sweep's step record, filled as the sweep goes, so a key can be read
    once the previous hop has been stepped.
    """

    def __init__(self, network: Network,
                 steps: Mapping[ServerId, ServerStep]) -> None:
        self._network = network
        self._flows = network.flows
        self._steps = steps
        self._outs: dict[ServerId, dict[str, PiecewiseLinearCurve]] = {}
        self._resolved: dict[tuple[str, ServerId],
                             PiecewiseLinearCurve] = {}

    def __getitem__(self, key: tuple[str, ServerId]) -> PiecewiseLinearCurve:
        curve = self._resolved.get(key)
        if curve is not None:
            return curve
        name, sid = key
        f = self._flows.get(name)
        if f is None or sid not in f.path:
            raise KeyError(key)
        path = f.path
        if path[0] == sid:
            curve = f.bucket.constraint_curve()
        else:
            prev = path[path.index(sid) - 1]
            outs = self._outs.get(prev)
            if outs is None:
                step = self._steps.get(prev)
                if step is None:
                    raise KeyError(key)
                outs = self._outs[prev] = dict(step.out_curves)
            curve = outs[name]
        self._resolved[key] = curve
        return curve

    def __iter__(self) -> Iterator[tuple[str, ServerId]]:
        for f in self._network.iter_flows():
            for sid in f.path:
                yield (f.name, sid)

    def __len__(self) -> int:
        return sum(len(f.path) for f in self._network.iter_flows())


@dataclass(frozen=True)
class PropagationResult:
    """Output of one network-wide topological propagation sweep.

    Attributes
    ----------
    local:
        Per-server :class:`LocalAnalysis` (delay/backlog/busy period).
    curve_at:
        Constraint curve of each flow at each server it traverses,
        keyed by ``(flow_name, server_id)``.
    capped:
        Whether line-rate capping was applied to output curves.
    replay:
        The :class:`SweepReplay` the sweep reused, or None when every
        server was stepped.
    """

    local: Mapping[ServerId, LocalAnalysis]
    curve_at: Mapping[tuple[str, ServerId], PiecewiseLinearCurve]
    capped: bool
    replay: SweepReplay | None = None

    def flow_delay_at(self, flow_name: str, server_id: ServerId) -> float:
        """Local delay bound of one flow at one server."""
        return self.local[server_id].delay_by_flow[flow_name]


def analyze_server(network: Network, server_id: ServerId,
                   curves: Mapping[str, PiecewiseLinearCurve],
                   ) -> LocalAnalysis:
    """Dispatch the local analysis on the server's discipline.

    Thin wrapper around the discipline dispatch kept for callers that
    analyze one server outside a sweep (diagnostics, tests).
    """
    spec = network.server(server_id)
    flows_here = network.flows_at(server_id)
    return _local_analysis(
        spec.capacity, spec.discipline, curves,
        {f.name: f.priority for f in flows_here},
        {f.name: f.bucket.rho for f in flows_here})


def propagate(network: Network, capped: bool = False,
              ctx: AnalysisContext = NULL_CONTEXT) -> PropagationResult:
    """Run the decomposition-style topological sweep over *network*.

    At each server (in topological order of the server graph) the local
    delay bound is computed from the currently known per-flow input
    curves, and each flow's curve for its next hop is derived via Cruz's
    output characterization — optionally intersected with the upstream
    server's line rate when ``capped`` is True (the integrated method's
    self-regulation cap; plain Algorithm Decomposed uses ``False``).

    Parameters
    ----------
    ctx:
        Execution context.  Each step runs through
        :meth:`~repro.context.AnalysisContext.run_server_step` with
        :func:`server_step` as the pure compute and
        :func:`build_server_input` as the on-demand input, so the
        context's cooperative deadline is checked at every server
        boundary, each step gets a span, and an installed step
        interceptor (the incremental engine's memoizer) transparently
        replaces the computation — building no input at all for a
        server whose previous result it replays.  When the interceptor
        offers a :class:`SweepReplay`, only its dirty servers are
        stepped, in topological order; every other server keeps its
        previous step and still counts as a server step.
    """
    network.check_stability()
    replay: SweepReplay | None = getattr(ctx.step_interceptor, "replay",
                                         None)
    active = network.active_servers()
    if replay is None:
        steps: dict[ServerId, ServerStep] = {}
        local: dict[ServerId, LocalAnalysis] = {}
        order: Iterable[ServerId] = active
    else:
        # every server outside the dirty set keeps its previous step
        steps = replay.steps.copy()
        local = replay.local.copy()
        for sid in replay.dirty:
            steps.pop(sid, None)
            local.pop(sid, None)
        ctx.count("analysis.server_steps", len(steps))
        order = sorted((sid for sid in replay.dirty if sid in active),
                       key=active.__getitem__)
    curve_at = _InputCurves(network, steps)
    for sid in order:
        res = steps[sid] = ctx.run_server_step(
            sid, lambda: build_server_input(network, sid, curve_at, capped),
            server_step)
        local[sid] = res.local

    return PropagationResult(local=local, curve_at=curve_at, capped=capped,
                             replay=replay)
