"""Algorithm Integrated — the paper's contribution (Figure 2).

End-to-end delay analysis of feed-forward FIFO networks:

1. partition the network into subnetworks of at most two servers
   (:mod:`repro.core.partition`);
2. order the subnetworks topologically;
3. for each subnetwork, jointly bound the delay of connections that
   traverse both servers (:mod:`repro.core.subsystem`) and characterize
   the traffic leaving the subnetwork;
4. sum the per-subnetwork delays along each connection's path.

Static-priority pairs whose through connections share one priority
class use the SP pair kernel (:mod:`repro.core.sp_subsystem` — the
extension the paper's §5 announces); every other non-FIFO block falls
back to singleton analysis, keeping the algorithm sound for arbitrary
mixed networks.

The per-block computation is factored into the pure function
:func:`evaluate_block`: it consumes a :class:`BlockInput` (server
parameters plus every incident flow's exact entry curve and role) and
returns a :class:`BlockOutcome` (per-flow class delays and output
curves).  Identical inputs produce bit-identical outcomes, which is
what lets the incremental engine (:mod:`repro.engine`) memoize blocks
content-addressed: every block runs through
:meth:`repro.context.AnalysisContext.run_block_step`, whose optional
block interceptor is exactly that memoizing wrapper (and which also
carries the cooperative deadline and per-block tracing).  The block's
input is handed over as a thunk, so a replayed block costs no
:class:`BlockInput` construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.analysis.base import Analyzer, DelayReport, FlowDelay
from repro.analysis.propagation import _local_analysis
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.core.partition import PairAlongPath, PartitionStrategy
from repro.core.subsystem import TwoServerSubsystem
from repro.curves.kernels import current_kernel, use_kernel
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.errors import AnalysisError
from repro.network.topology import Discipline, Network
from repro.servers.fifo import capped_output_curve

__all__ = [
    "IntegratedAnalysis",
    "FlowAtBlock",
    "BlockInput",
    "BlockOutcome",
    "evaluate_block",
]

ServerId = Hashable

#: Roles a flow can play inside a block.  "through" traverses both
#: servers of a pair (j then k); "cross1"/"cross2" enter only j / only
#: k; "local" is the single role at singleton blocks.
_EXIT_INDEX = {"through": -1, "cross1": 0, "cross2": -1, "local": 0}


@dataclass(frozen=True)
class FlowAtBlock:
    """One flow as seen by a block's joint analysis.

    ``curve`` is the exact constraint curve at the flow's entry server
    *within* the block (server j for through/cross1/local, server k for
    cross2).  ``has_next`` says whether the flow continues past the
    block (an output curve is needed).
    """

    name: str
    role: str
    curve: PiecewiseLinearCurve
    has_next: bool
    priority: int
    rho: float


@dataclass(frozen=True)
class BlockInput:
    """Everything that determines one block's joint analysis.

    Deliberately free of server *ids* — two blocks with identical
    parameters, flow sets and entry curves produce identical outcomes
    regardless of where they sit in the network, so the incremental
    engine can share cache entries between them.
    """

    kind: str                       # "fifo_pair" | "sp_pair" | "singleton"
    capacities: tuple[float, ...]   # one per block server, in block order
    disciplines: tuple[str, ...]
    use_family_kernel: bool
    flows: tuple[FlowAtBlock, ...]
    #: Curve kernel the block evaluates under (captured at build time);
    #: part of the engine's content key so exact/grid never alias.
    kernel: str = "exact"


@dataclass(frozen=True)
class BlockOutcome:
    """Result of one block's joint analysis.

    Attributes
    ----------
    delays:
        ``(flow name, class delay)`` in block flow order — the block's
        contribution to each flow's end-to-end bound.
    out_curves:
        ``(flow name, curve)`` for every flow with ``has_next`` — the
        constraint curve at the flow's next server, already simplified.
    kernel:
        Which kernel produced the through bound ("theorem1" / "family" /
        "tie" / "sp_theorem1"), None for singleton blocks.
    """

    delays: tuple[tuple[str, float], ...]
    out_curves: tuple[tuple[str, PiecewiseLinearCurve], ...]
    kernel: str | None


def _evaluate_singleton(bi: BlockInput) -> BlockOutcome:
    curves = {fa.name: fa.curve for fa in bi.flows}
    la = _local_analysis(
        bi.capacities[0], bi.disciplines[0], curves,
        {fa.name: fa.priority for fa in bi.flows},
        {fa.name: fa.rho for fa in bi.flows})
    delays: list[tuple[str, float]] = []
    outs: list[tuple[str, PiecewiseLinearCurve]] = []
    for fa in bi.flows:
        d = la.delay_by_flow[fa.name]
        delays.append((fa.name, d))
        if fa.has_next:
            outs.append((fa.name, capped_output_curve(
                fa.curve, d, bi.capacities[0]).simplified()))
    return BlockOutcome(tuple(delays), tuple(outs), None)


def _evaluate_fifo_pair(bi: BlockInput) -> BlockOutcome:
    c1, c2 = bi.capacities
    through = {fa.name: fa.curve for fa in bi.flows
               if fa.role == "through"}
    cross1 = {fa.name: fa.curve for fa in bi.flows
              if fa.role == "cross1"}
    cross2 = {fa.name: fa.curve for fa in bi.flows
              if fa.role == "cross2"}

    sub = TwoServerSubsystem(
        through, cross1, cross2, c1, c2,
        use_family_kernel=bi.use_family_kernel)
    res = sub.analyze()
    outputs = sub.output_curves(res)

    class_delay = {"through": res.delay_through,
                   "cross1": res.delay_server1,
                   "cross2": res.delay_server2}
    delays = tuple((fa.name, class_delay[fa.role]) for fa in bi.flows)
    outs = tuple((fa.name, outputs[fa.name].simplified())
                 for fa in bi.flows if fa.has_next)
    return BlockOutcome(delays, outs, res.winning_kernel)


def _evaluate_sp_pair(bi: BlockInput) -> BlockOutcome:
    from repro.core.sp_subsystem import sp_pair_bound

    c1, c2 = bi.capacities
    through = {fa.name: fa.curve for fa in bi.flows
               if fa.role == "through"}
    cross1 = {fa.name: fa.curve for fa in bi.flows
              if fa.role == "cross1"}
    cross2 = {fa.name: fa.curve for fa in bi.flows
              if fa.role == "cross2"}
    priorities = {fa.name: fa.priority for fa in bi.flows}

    res = sp_pair_bound(through, cross1, cross2, priorities, c1, c2)

    delays: list[tuple[str, float]] = []
    outs: list[tuple[str, PiecewiseLinearCurve]] = []
    for fa in bi.flows:
        if fa.role == "through":
            d = res.delay_through
            out_cap = c2
        elif fa.role == "cross1":
            d = res.delay1_by_flow[fa.name]
            out_cap = c1
        else:
            d = res.delay2_by_flow[fa.name]
            out_cap = c2
        delays.append((fa.name, d))
        if fa.has_next:
            outs.append((fa.name, capped_output_curve(
                fa.curve, d, out_cap).simplified()))
    return BlockOutcome(tuple(delays), tuple(outs), "sp_theorem1")


def evaluate_block(bi: BlockInput) -> BlockOutcome:
    """Joint analysis of one block as a pure function of its input.

    Deterministic: identical :class:`BlockInput` values (bit-identical
    curves included) produce bit-identical outcomes — the contract the
    incremental engine's content-addressed cache relies on.  The block
    activates ``bi.kernel`` itself, so a replayed block does not depend
    on the caller's ambient kernel.
    """
    with use_kernel(bi.kernel):
        if bi.kind == "singleton":
            return _evaluate_singleton(bi)
        if bi.kind == "fifo_pair":
            return _evaluate_fifo_pair(bi)
        if bi.kind == "sp_pair":
            return _evaluate_sp_pair(bi)
    raise AnalysisError(f"unknown block kind {bi.kind!r}")


class IntegratedAnalysis(Analyzer):
    """End-to-end bounds via two-server subsystem integration.

    Parameters
    ----------
    strategy:
        Partitioning strategy; default pairs consecutive servers along
        the longest connection's path (the paper's evaluation setup).
    use_family_kernel:
        Enable the theta-family kernel in addition to the Theorem-1
        kernel (the through bound is the minimum of both).  Disable for
        the ABL2/ABL1 ablations.
    """

    name = "integrated"

    def __init__(self, strategy: PartitionStrategy | None = None,
                 use_family_kernel: bool = True) -> None:
        self.strategy = strategy if strategy is not None else PairAlongPath()
        self.use_family_kernel = bool(use_family_kernel)

    # ------------------------------------------------------------------

    def _pair_is_fifo(self, network: Network, block) -> bool:
        return all(
            network.server(s).discipline == Discipline.FIFO for s in block)

    def _sp_pair_applicable(self, network: Network, block) -> bool:
        """True when both servers are static-priority and the through
        connections share one priority class (the condition for the
        SP pair bound, see :mod:`repro.core.sp_subsystem`)."""
        j, k = block
        if any(network.server(s).discipline != Discipline.STATIC_PRIORITY
               for s in block):
            return False
        through_prios = {f.priority for f in network.flows_at(j)
                         if f.next_hop(j) == k}
        return len(through_prios) == 1

    def effective_blocks(self, network: Network,
                         partition) -> list[tuple[str, tuple]]:
        """Resolve the partition into ``(kind, block)`` work units.

        Paired blocks that are neither all-FIFO nor SP-applicable fall
        back to per-server singleton analysis (soundness for arbitrary
        mixed networks), exactly like the pre-refactor control flow.
        """
        units: list[tuple[str, tuple]] = []
        for block in partition:
            if len(block) == 2 and self._pair_is_fifo(network, block):
                units.append(("fifo_pair", tuple(block)))
            elif len(block) == 2 and \
                    self._sp_pair_applicable(network, block):
                units.append(("sp_pair", tuple(block)))
            else:
                units.extend(("singleton", (sid,)) for sid in block)
        return units

    def build_block_input(self, network: Network, kind: str, block: tuple,
                          curve_at) -> BlockInput:
        """Assemble the :class:`BlockInput` for one work unit."""
        flows: list[FlowAtBlock] = []
        if kind == "singleton":
            sid = block[0]
            for f in network.flows_at(sid):
                flows.append(FlowAtBlock(
                    f.name, "local", curve_at[(f.name, sid)],
                    f.next_hop(sid) is not None, f.priority,
                    f.bucket.rho))
        else:
            j, k = block
            through: set[str] = set()
            for f in network.flows_at(j):
                if f.next_hop(j) == k:
                    through.add(f.name)
                    flows.append(FlowAtBlock(
                        f.name, "through", curve_at[(f.name, j)],
                        f.next_hop(k) is not None, f.priority,
                        f.bucket.rho))
                else:
                    flows.append(FlowAtBlock(
                        f.name, "cross1", curve_at[(f.name, j)],
                        f.next_hop(j) is not None, f.priority,
                        f.bucket.rho))
            for f in network.flows_at(k):
                if f.name not in through:
                    flows.append(FlowAtBlock(
                        f.name, "cross2", curve_at[(f.name, k)],
                        f.next_hop(k) is not None, f.priority,
                        f.bucket.rho))
        return BlockInput(
            kind=kind,
            capacities=tuple(network.server(s).capacity for s in block),
            disciplines=tuple(network.server(s).discipline for s in block),
            use_family_kernel=self.use_family_kernel,
            flows=tuple(flows),
            kernel=current_kernel())

    def analyze(self, network: Network, *,
                ctx: AnalysisContext = NULL_CONTEXT) -> DelayReport:
        """Analyze *network* under *ctx*: the cooperative deadline is
        checked at every block boundary, each block gets a span, and a
        block interceptor installed on the context (the incremental
        engine's memoizing wrapper, extensionally equal to
        :func:`evaluate_block`) transparently replaces the per-block
        computation."""
        network.check_stability()
        with ctx.analysis_scope(self.name):
            return self._analyze(network, ctx)

    def _analyze(self, network: Network, ctx: AnalysisContext) -> DelayReport:
        partition = self.strategy.partition(network)

        curve_at: dict[tuple[str, ServerId], PiecewiseLinearCurve] = {}
        for f in network.iter_flows():
            curve_at[(f.name, f.path[0])] = f.bucket.constraint_curve()

        # accumulated (element, delay) contributions per flow
        contribs: dict[str, list[tuple[object, float]]] = {
            f.name: [] for f in network.iter_flows()}
        kernel_wins: dict[tuple, str] = {}

        for kind, block in self.effective_blocks(network, partition):
            if kind == "singleton" and not network.flows_at(block[0]):
                continue
            outcome = ctx.run_block_step(
                kind, block,
                lambda: self.build_block_input(network, kind, block,
                                               curve_at),
                evaluate_block)
            self._apply_outcome(network, kind, block, outcome, curve_at,
                                contribs, kernel_wins)

        delays = {}
        for f in network.iter_flows():
            parts = tuple(contribs[f.name])
            delays[f.name] = FlowDelay(
                flow=f.name,
                total=sum(d for _, d in parts),
                contributions=parts,
            )
        meta = {
            "partition": tuple(partition.blocks),
            "n_pairs": partition.n_pairs,
            "kernel_wins": kernel_wins,
            "use_family_kernel": self.use_family_kernel,
        }
        return DelayReport(algorithm=self.name, delays=delays, meta=meta)

    # ------------------------------------------------------------------

    @staticmethod
    def _roles(network: Network, kind: str, block: tuple) -> dict[str, str]:
        """Each flow's role in one work unit, as
        :meth:`build_block_input` assigns it (a flow entering both
        servers of a pair without passing j → k ends as "cross2")."""
        if kind == "singleton":
            return {f.name: "local" for f in network.flows_at(block[0])}
        j, k = block
        roles = {f.name: "through" if f.next_hop(j) == k else "cross1"
                 for f in network.flows_at(j)}
        for f in network.flows_at(k):
            if roles.get(f.name) != "through":
                roles[f.name] = "cross2"
        return roles

    @classmethod
    def _apply_outcome(cls, network: Network, kind: str, block: tuple,
                       outcome: BlockOutcome, curve_at, contribs,
                       kernel_wins) -> None:
        """Fold one block's outcome into the sweep state.

        Reads the flows' roles off *network*, not off the block's
        input, which a replayed block never builds.
        """
        role_of = cls._roles(network, kind, block)
        for name, d in outcome.delays:
            role = role_of[name]
            if role == "through":
                element: tuple = tuple(block)
            else:
                element = (block[_EXIT_INDEX[role]],)
            contribs[name].append((element, d))
        for name, curve in outcome.out_curves:
            exit_sid = block[_EXIT_INDEX[role_of[name]]]
            nxt = network.flow(name).next_hop(exit_sid)
            curve_at[(name, nxt)] = curve
        if outcome.kernel is not None and len(block) == 2:
            kernel_wins[tuple(block)] = outcome.kernel
