"""The server graph against networkx, kept here as a test-only oracle.

The runtime reads the server graph from :class:`Network`'s own edge
index.  On random networks whose server ids mix ints and strs — ids
such as ``1`` and ``"1"`` collide under ``str``, which decides the
lexicographic order — every graph operation must give what networkx
gives on a graph built from the same flows:

* the topological order, the acyclicity flag, each server's successor
  order and the cycle named by the constructor's error;
* the blocks of every partition strategy, against a networkx copy of
  the partition kept below;
* the groups of a parallel batch plan, against weak connectivity;
* survivability reroutes, against ``nx.shortest_path``.

The nightly workflow runs this module under ``--hypothesis-profile
nightly``.
"""

import ast

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.admission.batch import _group_requests
from repro.admission.requests import ConnectionRequest
from repro.core.partition import (
    GreedyPairing,
    PairAlongPath,
    SingletonPartition,
)
from repro.curves.token_bucket import TokenBucket
from repro.errors import TopologyError
from repro.network.flow import Flow
from repro.network.topology import Network, ServerSpec
from repro.resilience.survivability import _reroute_path

#: Server ids: ints and strs, several colliding under ``str``.
IDS = (0, 1, 2, 3, 4, "0", "1", "2", "a", "b")


@st.composite
def networks(draw, acyclic=False):
    """A network of 1–8 servers and 0–7 flows.  With *acyclic*, every
    path runs forward in the (random) server order, so the server graph
    is a DAG; otherwise paths are arbitrary and cycles are allowed."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=8,
                        unique=True))
    flows = []
    for k in range(draw(st.integers(0, 7))):
        if acyclic:
            picks = draw(st.lists(st.integers(0, len(ids) - 1), min_size=1,
                                  max_size=len(ids), unique=True))
            path = [ids[i] for i in sorted(picks)]
        else:
            path = draw(st.lists(st.sampled_from(ids), min_size=1,
                                 max_size=len(ids), unique=True))
        rho = draw(st.sampled_from((0.02, 0.05, 0.1)))
        flows.append(Flow(f"f{k}", TokenBucket(1.0, rho), path))
    return Network([ServerSpec(s) for s in ids], flows,
                   allow_cycles=not acyclic)


def reference_graph(network):
    """The networkx server graph: every server, then each flow's edges
    in flow insertion order."""
    g = nx.DiGraph()
    g.add_nodes_from(network.servers)
    for f in network.flows.values():
        g.add_edges_from(zip(f.path, f.path[1:]))
    return g


def lex_order(g):
    return list(nx.lexicographical_topological_sort(g, key=str))


def outcome(fn):
    try:
        return ("ok", fn())
    except (TopologyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


# ----------------------------------------------------------------------
# order and acyclicity
# ----------------------------------------------------------------------

@settings(deadline=None)
@given(networks())
def test_order_acyclicity_and_successors(net):
    g = reference_graph(net)
    assert net.is_feedforward == nx.is_directed_acyclic_graph(g)
    for sid in net.servers:
        assert list(net.successors(sid)) == list(g.successors(sid))
    if net.is_feedforward:
        assert net.topological_servers() == lex_order(g)
        return
    with pytest.raises(TopologyError):
        net.topological_servers()
    with pytest.raises(TopologyError) as caught:
        Network(net.servers.values(), net.flows.values())
    message = str(caught.value)
    head, tail = "server graph has a cycle (", (
        "); pass allow_cycles=True and use the feedback analysis for "
        "non-feed-forward networks")
    assert message.startswith(head) and message.endswith(tail)
    cycle = ast.literal_eval(message[len(head):-len(tail)])
    assert cycle and all(g.has_edge(u, v) for u, v in cycle)
    assert all(cycle[i][1] == cycle[(i + 1) % len(cycle)][0]
               for i in range(len(cycle)))


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def reference_partition(g, blocks):
    """The blocks in the networkx graph's quotient order; raises
    TopologyError for what the library's Partition refuses."""
    seen = set()
    for blk in blocks:
        if len(blk) not in (1, 2):
            raise TopologyError(
                f"blocks must have 1 or 2 servers, got {blk!r}")
        for sid in blk:
            if sid in seen:
                raise TopologyError(f"server {sid!r} appears in two blocks")
            if sid not in g:
                raise TopologyError(f"unknown server {sid!r} in block")
            seen.add(sid)
        if len(blk) == 2 and not g.has_edge(blk[0], blk[1]):
            raise TopologyError(
                f"paired block {blk!r} has no server-graph edge "
                f"{blk[0]!r} -> {blk[1]!r}")
    missing = set(g.nodes) - seen
    if missing:
        raise TopologyError(
            f"partition does not cover servers {sorted(map(str, missing))}")
    block_of = {sid: tuple(blk) for blk in blocks for sid in blk}
    q = nx.DiGraph()
    q.add_nodes_from(tuple(blk) for blk in blocks)
    for a, b in g.edges:
        if block_of[a] != block_of[b]:
            q.add_edge(block_of[a], block_of[b])
    if not nx.is_directed_acyclic_graph(q):
        raise TopologyError(
            "contracting the blocks creates a cycle; choose a "
            "different pairing")
    return tuple(lex_order(q))


def reference_singleton(net, g):
    return reference_partition(g, [(s,) for s in lex_order(g)])


def reference_pair_along(net, g, flow_name):
    if flow_name is not None:
        path = net.flow(flow_name).path
    else:
        path = max(net.flows.values(), key=lambda f: f.n_hops).path
    blocks = [tuple(path[i:i + 2]) for i in range(0, len(path), 2)]
    blocks += [(s,) for s in lex_order(g) if s not in path]
    return reference_partition(g, blocks)


def reference_greedy(net, g):
    weight = {}
    for f in net.iter_flows():
        for e in zip(f.path, f.path[1:]):
            weight[e] = weight.get(e, 0.0) + f.bucket.rho
    paired, pairs = set(), []
    for (a, b), _ in sorted(weight.items(),
                            key=lambda kv: (-kv[1], str(kv[0]))):
        if a in paired or b in paired:
            continue
        rest = [(s,) for s in g.nodes if s not in paired | {a, b}]
        try:
            reference_partition(g, pairs + [(a, b)] + rest)
        except TopologyError:
            continue
        pairs.append((a, b))
        paired.update((a, b))
    return reference_partition(
        g, pairs + [(s,) for s in lex_order(g) if s not in paired])


@settings(deadline=None)
@given(networks(acyclic=True), st.data())
def test_partitions(net, data):
    g = reference_graph(net)
    name = data.draw(st.sampled_from([None, *net.flows]))
    cases = [
        (SingletonPartition(), lambda: reference_singleton(net, g)),
        (PairAlongPath(name), lambda: reference_pair_along(net, g, name)),
        (GreedyPairing(), lambda: reference_greedy(net, g)),
    ]
    for strategy, reference in cases:
        assert (outcome(lambda: strategy.partition(net).blocks)
                == outcome(reference))


# ----------------------------------------------------------------------
# batch groups
# ----------------------------------------------------------------------

@settings(deadline=None)
@given(networks(acyclic=True), st.data())
def test_batch_groups(net, data):
    ids = list(net.servers)
    placed = []
    for idx in range(data.draw(st.integers(0, 6))):
        path = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                  max_size=3, unique=True))
        name = data.draw(st.sampled_from(("r0", "r1", "r2", "r3")))
        placed.append((idx, ConnectionRequest(
            name, TokenBucket(0.5, 0.01), path, 100.0)))

    union = reference_graph(net)
    first_of_name = {}
    for _, request in placed:
        path = request.path
        union.add_edges_from(zip(path, path[1:]))
        union.add_edge(first_of_name.setdefault(request.name, path[0]),
                       path[0])
    comp = {sid: k
            for k, c in enumerate(nx.weakly_connected_components(union))
            for sid in c}
    expected = {}
    for idx, request in placed:
        expected.setdefault(comp[request.path[0]], []).append(idx)
    expected = sorted(
        (items, [sid for sid in net.servers if comp[sid] == k])
        for k, items in expected.items())

    got = [([idx for idx, _ in items], keep)
           for items, keep in _group_requests(net, placed)]
    assert got == expected


# ----------------------------------------------------------------------
# reroutes
# ----------------------------------------------------------------------

def reference_reroute(g, flow, failed):
    """``nx.shortest_path`` on a copy of *g* without *failed*.

    ``DiGraph.copy`` re-adds the edges server by server, so the copy's
    predecessor lists follow the server order, not the edges' first
    use; the bidirectional search's tie breaks depend on both orders.
    """
    src, dst = flow.path[0], flow.path[-1]
    if src in failed or dst in failed:
        return None
    g = g.copy()
    g.remove_nodes_from(failed)
    try:
        return tuple(nx.shortest_path(g, src, dst))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


@settings(deadline=None)
@given(networks(), st.data())
def test_reroutes(net, data):
    g = reference_graph(net)
    ids = list(net.servers)
    failed = frozenset(data.draw(st.lists(st.sampled_from(ids),
                                          max_size=3, unique=True)))
    # every entry/exit pair, so that ties between shortest paths occur
    probes = [Flow("probe", TokenBucket(1.0, 0.1), (a, b))
              for a in ids for b in ids if a != b]
    for f in [*net.flows.values(), *probes]:
        assert _reroute_path(net, f, failed) == reference_reroute(
            g, f, failed)
