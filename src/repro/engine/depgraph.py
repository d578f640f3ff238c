"""Dependency tracking between flows, servers and downstream results.

The engine's invalidation rule comes straight from the analyses'
structure: a per-server (or per-block) result depends on

1. the server specs involved,
2. the set of flows incident to the server and their descriptors, and
3. each incident flow's *input* curve — which is the output of the
   flow's previous hop.

Changing a flow therefore dirties exactly the servers on its path
(dependency 2) plus, through dependency 3, everything reachable from
them in the server graph — burstiness propagates strictly downstream
in a feed-forward network.  :func:`affected_cone` computes that set;
everything outside it is guaranteed to receive bit-identical inputs
and can reuse its previous result without recomputation.

There is no separate dependency graph to build: the incidence and the
server graph are the :class:`~repro.network.topology.Network`'s own
indexes (:meth:`~repro.network.topology.Network.flows_at`,
:meth:`~repro.network.topology.Network.successors`), which every edit
derives from its parent's.  Computing a cone therefore costs the size
of the cone, not of the network.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.network.flow import Flow
from repro.network.topology import Network

__all__ = ["affected_cone"]

ServerId = Hashable


def _downstream(network: Network,
                seeds: Iterable[ServerId]) -> set[ServerId]:
    """*seeds* (those in *network*) plus every server reachable from
    them.

    Multi-source BFS over the flow-induced server graph; linear in the
    size of the reached subgraph.
    """
    servers = network.servers
    frontier = [s for s in seeds if s in servers]
    seen = set(frontier)
    while frontier:
        nxt: list[ServerId] = []
        for s in frontier:
            for succ in network.successors(s):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def affected_cone(old: Network | None, new: Network,
                  changed_flows: Iterable[Flow]) -> set[ServerId]:
    """Servers whose results may change between two network snapshots.

    Seeds are every server on a changed flow's path (in either
    snapshot); the cone closes the seeds downstream in *both* server
    graphs, because an admitted flow adds propagation edges while a
    released flow's effects linger along its former path.

    The cone is a sound over-approximation: any server outside it has
    an unchanged incident flow set and receives bit-identical input
    curves, hence produces a bit-identical result.
    """
    seeds: set[ServerId] = set()
    for f in changed_flows:
        seeds.update(f.path)
    cone = seeds | _downstream(new, seeds)
    if old is not None:
        cone |= _downstream(old, seeds)
    return cone
