"""Algorithm Decomposed (paper §1.1 and §4.2, after Cruz [8, 9]).

The network is decomposed into isolated servers.  Per-connection traffic
is characterized at every server (source constraint at the entry hop,
Cruz's ``b(I + d)`` inflation afterwards), local worst-case delays are
computed independently, and the end-to-end bound is the sum of the local
bounds along the path — the classical, simple, conservative method the
integrated approach is measured against.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.base import Analyzer, DelayReport, FlowDelay
from repro.analysis.propagation import propagate
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.network.flow import Flow
from repro.network.topology import Network

__all__ = ["DecomposedAnalysis"]


class DecomposedAnalysis(Analyzer):
    """End-to-end bounds by summing per-server worst-case delays.

    Parameters
    ----------
    capped_propagation:
        When True, output curves are intersected with the upstream line
        rate (``min(C I, b(I+d))``).  Cruz's original method — and the
        paper's Algorithm Decomposed baseline — does not apply the cap,
        so the default is False.  The capped variant is exposed for the
        ABL2 ablation (it is the degenerate one-server-subsystem case of
        the integrated method).
    """

    name = "decomposed"

    def __init__(self, capped_propagation: bool = False) -> None:
        self.capped_propagation = bool(capped_propagation)

    def analyze(self, network: Network, *,
                ctx: AnalysisContext = NULL_CONTEXT) -> DelayReport:
        """Analyze *network* under *ctx* (deadline checks and spans at
        every server step; the incremental engine installs its
        memoizing step interceptor on a derived context — see
        :func:`repro.analysis.propagation.propagate`).

        When the sweep replayed a previous one
        (:attr:`~repro.analysis.propagation.PropagationResult.replay`),
        only the flows that visit a re-stepped server get a new
        :class:`FlowDelay`; every other flow keeps the previous
        report's, which the same local bounds produced.  Entries new
        since the previous report then come last in ``delays`` and in
        the per-server ``meta`` maps, instead of in name and sweep
        order; the values are those of a cold analysis.
        """
        with ctx.analysis_scope(self.name):
            prop = propagate(network, capped=self.capped_propagation,
                             ctx=ctx)
        local = prop.local
        replay = prop.replay
        if replay is None:
            delays: dict[str, FlowDelay] = {}
            local_delay: dict = {}
            busy_period: dict = {}
            servers: Iterable = local
            flows: Iterable[Flow] = network.iter_flows()
        else:
            # Start from the previous report and redo only what the
            # re-stepped servers reach.
            previous = replay.report
            delays = previous.delays.copy()
            local_delay = previous.meta["local_delay"].copy()
            busy_period = previous.meta["busy_period"].copy()
            for name in replay.dropped:
                del delays[name]
            servers = replay.dirty
            flows = {f.name: f for sid in servers
                     for f in network.flows_at(sid)}.values()
        for sid in servers:
            la = local.get(sid)
            if la is None:  # no flow visits it any more
                local_delay.pop(sid, None)
                busy_period.pop(sid, None)
            else:
                local_delay[sid] = la.max_delay
                busy_period[sid] = la.busy_period
        for f in flows:
            parts = tuple(
                (sid, local[sid].delay_by_flow[f.name])
                for sid in f.path
            )
            delays[f.name] = FlowDelay(
                flow=f.name,
                total=sum(d for _, d in parts),
                contributions=parts,
            )
        meta = {
            "capped_propagation": self.capped_propagation,
            "local_delay": local_delay,
            "busy_period": busy_period,
        }
        return DelayReport(algorithm=self.name, delays=delays, meta=meta)
