"""Survivability analysis: which deadline guarantees survive a fault?

For a network and a set of :class:`~repro.resilience.faults.FaultScenario`,
re-run an end-to-end analysis on every faulted counterpart and report a
per-flow verdict:

* ``met`` — the flow still meets its deadline under the fault;
* ``violated`` — the flow's bound exceeds its deadline (or no finite
  bound exists because the fault overloaded a server);
* ``severed`` — a failed server cut the flow's path and no alternate
  route exists.

When a scenario fails servers outright, severed flows are first
*rerouted and retested*: if the union server graph (minus the failed
servers) still connects the flow's entry to its exit, the flow is
re-added along the shortest such path and judged on its rerouted bound.
This answers the operational question behind the paper's admission story
— not just "is the bound tight?" but "does the guarantee survive?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.base import Analyzer, DelayReport
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.errors import (
    AnalysisError,
    AnalysisTimeoutError,
    InstabilityError,
    TopologyError,
)
from repro.network.flow import Flow
from repro.network.topology import Network
from repro.resilience.faults import FaultScenario

__all__ = [
    "MET",
    "VIOLATED",
    "SEVERED",
    "FlowVerdict",
    "ScenarioOutcome",
    "SurvivabilityReport",
    "survivability",
    "render_survivability",
]

#: Verdict statuses.
MET = "met"
VIOLATED = "violated"
SEVERED = "severed"


@dataclass(frozen=True)
class FlowVerdict:
    """One flow's fate under one fault scenario.

    Attributes
    ----------
    flow:
        Flow name.
    status:
        One of :data:`MET`, :data:`VIOLATED`, :data:`SEVERED`.
    bound:
        End-to-end bound under the fault (``inf`` when severed or no
        finite bound exists).
    deadline:
        The flow's deadline (``inf`` = best-effort).
    baseline:
        The flow's bound in the healthy network, for comparison.
    rerouted:
        True when the verdict is for a rerouted path around a failure.
    detail:
        Extra context ("no finite bound (overloaded)", the reroute…).
    """

    flow: str
    status: str
    bound: float
    deadline: float
    baseline: float
    rerouted: bool = False
    detail: str = ""


@dataclass(frozen=True)
class ScenarioOutcome:
    """All verdicts for one scenario."""

    scenario: str
    verdicts: tuple[FlowVerdict, ...]
    error: str | None = None

    def _count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    @property
    def n_met(self) -> int:
        return self._count(MET)

    @property
    def n_violated(self) -> int:
        return self._count(VIOLATED)

    @property
    def n_severed(self) -> int:
        return self._count(SEVERED)

    @property
    def survives(self) -> bool:
        """True when every flow still meets its deadline."""
        return all(v.status == MET for v in self.verdicts)


@dataclass(frozen=True)
class SurvivabilityReport:
    """Survivability verdicts for every (scenario, flow) pair."""

    algorithm: str
    outcomes: tuple[ScenarioOutcome, ...]

    @property
    def survives(self) -> bool:
        """True when every scenario leaves every deadline intact."""
        return all(o.survives for o in self.outcomes)

    def worst_flows(self) -> tuple[str, ...]:
        """Flows that lose their guarantee under at least one scenario."""
        bad = {v.flow for o in self.outcomes for v in o.verdicts
               if v.status != MET}
        return tuple(sorted(bad))


# ----------------------------------------------------------------------


def _reroute_path(network: Network, flow: Flow,
                  failed: frozenset) -> tuple | None:
    """Shortest alternate path for *flow* avoiding *failed* servers.

    Routes over the union server graph induced by all flows (the
    observable topology); returns None when entry or exit failed or no
    alternate route exists.
    """
    src, dst = flow.path[0], flow.path[-1]
    if src in failed or dst in failed:
        return None
    # Successors in first-use order, predecessors in server order:
    # together they pick among equally short reroutes, so neither
    # order may change.
    succ: dict = {}
    pred: dict = {}
    for a in network.servers:
        if a in failed:
            continue
        succ[a] = [b for b in network.successors(a) if b not in failed]
        for b in succ[a]:
            pred.setdefault(b, []).append(a)
    return _shortest_path(succ, pred, src, dst)


def _shortest_path(succ: dict, pred: dict, source, target) -> tuple | None:
    """A shortest path from *source* to *target*, or None.

    A bidirectional breadth-first search: it grows the smaller of the
    two frontiers by one level, over successors forward and
    predecessors backward, and stops at the first node both searches
    reach.  Which of several shortest paths it returns depends on the
    order of *succ* and *pred*.
    """
    if source == target:
        return (source,)
    before = {source: None}  # each forward-reached node's predecessor
    after = {target: None}   # each backward-reached node's successor
    forward, backward = [source], [target]
    while forward and backward:
        if len(forward) <= len(backward):
            forward, meet = _advance(forward, succ, before, after)
        else:
            backward, meet = _advance(backward, pred, after, before)
        if meet is not None:
            break
    else:
        return None
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = before[node]
    path.reverse()
    node = after[meet]
    while node is not None:
        path.append(node)
        node = after[node]
    return tuple(path)


def _advance(level: list, adj: dict, reached: dict, other: dict,
             ) -> tuple[list, object]:
    """Grow one search of :func:`_shortest_path` by a level.

    Returns the next level and the first node the other search has
    reached (None if none yet); *reached* maps each new node to the
    node it was reached from.
    """
    nxt = []
    for v in level:
        for w in adj.get(v, ()):
            if w not in reached:
                nxt.append(w)
                reached[w] = v
            if w in other:
                return nxt, w
    return nxt, None


def _verdict(flow: Flow, report: DelayReport, baseline: float,
             rerouted: bool, detail: str = "") -> FlowVerdict:
    bound = report.delay_of(flow.name)
    status = MET if bound <= flow.deadline else VIOLATED
    return FlowVerdict(flow.name, status, bound, flow.deadline,
                       baseline, rerouted=rerouted, detail=detail)


def survivability(network: Network,
                  scenarios: Iterable[FaultScenario],
                  analyzer: Analyzer,
                  reroute: bool = True, *,
                  ctx: AnalysisContext = NULL_CONTEXT,
                  ) -> SurvivabilityReport:
    """Re-analyze *network* under every scenario and judge every flow.

    Parameters
    ----------
    network:
        The healthy network (flows' deadlines drive the verdicts;
        ``inf`` deadlines can be violated only by severing).
    scenarios:
        Fault scenarios to evaluate, one outcome each.
    analyzer:
        End-to-end analysis used for the healthy baseline and every
        faulted retest.
    reroute:
        Attempt to reroute severed flows around failed servers before
        declaring them severed.
    ctx:
        Execution context: the baseline and every scenario retest get a
        span, deadlines are checked between scenarios, and per-scenario
        verdict counts land in the registry.

    Returns
    -------
    SurvivabilityReport
        One :class:`ScenarioOutcome` per scenario, in input order.
    """
    with ctx.span("survivability_baseline", analyzer=analyzer.name):
        baseline = analyzer.run(network, ctx)
    outcomes = []
    for scenario in scenarios:
        ctx.checkpoint("survivability scenario")
        with ctx.span("scenario", scenario=scenario.describe()):
            outcome = _evaluate_scenario(network, scenario, analyzer,
                                         baseline, reroute, ctx)
            ctx.annotate(met=outcome.n_met, violated=outcome.n_violated,
                         severed=outcome.n_severed,
                         survives=outcome.survives)
        ctx.count("survivability.scenarios")
        if not outcome.survives:
            ctx.count("survivability.degraded")
        outcomes.append(outcome)
    return SurvivabilityReport(algorithm=analyzer.name,
                               outcomes=tuple(outcomes))


def _evaluate_scenario(network: Network, scenario: FaultScenario,
                       analyzer: Analyzer, baseline: DelayReport,
                       reroute: bool,
                       ctx: AnalysisContext = NULL_CONTEXT,
                       ) -> ScenarioOutcome:
    faulted = scenario.apply(network)
    failed = scenario.failed_servers(network)

    rerouted: dict[str, tuple] = {}
    severed = [f for f in network.iter_flows()
               if f.name not in faulted.flows]
    if reroute and failed:
        for flow in severed:
            path = _reroute_path(network, flow, failed)
            if path is None:
                continue
            try:
                faulted = faulted.with_flow(
                    Flow(flow.name, flow.bucket, path,
                         deadline=flow.deadline, priority=flow.priority))
            except TopologyError:
                continue  # reroute would create a cycle: stay severed
            rerouted[flow.name] = path

    error: str | None = None
    report: DelayReport | None = None
    try:
        faulted.check_stability()
        report = analyzer.run(faulted, ctx)
    except AnalysisTimeoutError:
        # the caller's deadline expired: abort the whole sweep rather
        # than recording a misleading "violated" verdict
        raise
    except (InstabilityError, AnalysisError) as exc:
        error = f"{type(exc).__name__}: {exc}"

    verdicts = []
    for flow in network.iter_flows():
        base = baseline.delay_of(flow.name)
        if flow.name not in faulted.flows:
            verdicts.append(FlowVerdict(
                flow.name, SEVERED, math.inf, flow.deadline, base,
                detail="no alternate path around the failure"))
        elif report is None:
            verdicts.append(FlowVerdict(
                flow.name, VIOLATED, math.inf, flow.deadline, base,
                rerouted=flow.name in rerouted,
                detail=f"no finite bound ({error})"))
        else:
            path = rerouted.get(flow.name)
            detail = (f"rerouted via {list(path)}" if path else "")
            verdicts.append(_verdict(
                faulted.flow(flow.name), report, base,
                rerouted=path is not None, detail=detail))
    return ScenarioOutcome(scenario.describe(), tuple(verdicts),
                           error=error)


# ----------------------------------------------------------------------


def render_survivability(report: SurvivabilityReport,
                         verbose: bool = False) -> str:
    """Human-readable table of a survivability report."""
    width = max([len("scenario")]
                + [len(o.scenario) for o in report.outcomes])
    lines = [f"survivability ({report.algorithm} analyzer, "
             f"{len(report.outcomes)} scenarios)",
             f"{'scenario':<{width}}  met  viol  sev  verdict"]
    for o in report.outcomes:
        verdict = "SURVIVES" if o.survives else "DEGRADED"
        lines.append(f"{o.scenario:<{width}}  {o.n_met:3d}  "
                     f"{o.n_violated:4d}  {o.n_severed:3d}  {verdict}")
        for v in o.verdicts:
            if v.status == MET and not verbose:
                continue
            extra = f" [{v.detail}]" if v.detail else ""
            if v.status == SEVERED:
                lines.append(f"  - {v.flow}: severed{extra}")
            else:
                lines.append(
                    f"  - {v.flow}: {v.status} "
                    f"(bound {v.bound:.4g}, deadline {v.deadline:.4g},"
                    f" healthy {v.baseline:.4g}){extra}")
    return "\n".join(lines)
