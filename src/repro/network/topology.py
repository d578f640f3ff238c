"""Network model: servers plus flows, with feed-forward validation.

A :class:`Network` is the unit every analysis consumes: a set of
:class:`ServerSpec` (the multiplexors — output ports in the paper's
switch model) and a set of :class:`repro.network.flow.Flow` whose paths
induce a directed *server graph*.  The analyses in this package are only
valid for feed-forward (acyclic) networks, exactly like the paper's
Algorithm Integrated, so construction eagerly verifies acyclicity and
stability hooks are provided.

A network is immutable, so everything derived from its flows — the
flows of each server and of the whole network in name order, each
server's aggregate rate and the overloaded servers, the server graph
with its per-edge use counts, the topological order — is built once.
The edits (:meth:`Network.with_flow`, :meth:`Network.without_flow`,
:meth:`Network.replace_flow`, :meth:`Network.replace_server`) derive the
child's views from the parent's through the same helper the constructor
uses, touching only the servers and edges of the flows that change.  A
flow edit also records itself (:attr:`Network.last_edit`: the parent's
version and the flows added and dropped, never the parent object), so
the incremental engine can tell what changed between a network and its
parent or sibling without comparing every flow.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import InstabilityError, TopologyError
from repro.network.flow import Flow
from repro.utils.hashing import stable_digest
from repro.utils.validation import check_positive

__all__ = ["ServerSpec", "Network", "Discipline", "FlowEdit",
           "lexicographic_order"]

ServerId = Hashable
Edge = tuple[ServerId, ServerId]

_by_name = attrgetter("name")


class Discipline:
    """Scheduling discipline identifiers understood by the analyses."""

    FIFO = "fifo"
    STATIC_PRIORITY = "static_priority"
    GUARANTEED_RATE = "guaranteed_rate"

    ALL = (FIFO, STATIC_PRIORITY, GUARANTEED_RATE)


@dataclass(frozen=True)
class ServerSpec:
    """A work-conserving server (switch output port / multiplexor).

    Attributes
    ----------
    server_id:
        Unique, hashable identifier.
    capacity:
        Service rate in data units per second (the paper normalizes to 1).
    discipline:
        One of :class:`Discipline`; the analyses specialize on this.
    """

    server_id: ServerId
    capacity: float = 1.0
    discipline: str = Discipline.FIFO

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        if self.discipline not in Discipline.ALL:
            raise TopologyError(
                f"unknown discipline {self.discipline!r}; "
                f"expected one of {Discipline.ALL}")

    def content_key(self) -> bytes:
        """A stable digest of this server's identity and parameters."""
        return stable_digest("server", str(self.server_id),
                             self.capacity, self.discipline)


#: Monotonically increasing structural version counter.  Every Network
#: instance — including the derived ones produced by with_flow/
#: without_flow/replace_* — gets a fresh version at construction, so
#: version equality implies object identity and the incremental engine
#: can use it as a cheap same-network check before falling back to
#: content comparison.
_STRUCT_VERSION = itertools.count(1)


@dataclass(frozen=True)
class FlowEdit:
    """The flow edit that derived a network from its parent.

    Attributes
    ----------
    parent:
        The parent network's :attr:`Network.version` (a number, not the
        parent itself: holding the parent would keep every ancestor of
        a long edit chain alive).
    added, dropped:
        The flows the edit added and removed; a replaced flow appears
        in both, old version dropped and new version added.
    """

    parent: int
    added: tuple[Flow, ...]
    dropped: tuple[Flow, ...]


def _edges(flow: Flow) -> Iterator[Edge]:
    return zip(flow.path, flow.path[1:])


def lexicographic_order(succ: Mapping[Hashable, Iterable[Hashable]],
                        ) -> list | None:
    """The lexicographic topological order of a directed graph, or None
    when the graph has a cycle.

    *succ* maps every node, in insertion order, to its distinct
    successors.  Of the nodes whose predecessors are all placed, the
    next is the least by ``str(node)``, then by insertion position, so
    the order is unique even where ids collide under ``str`` (``1``
    and ``"1"``).
    """
    index = {n: i for i, n in enumerate(succ)}
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for v in targets:
            indegree[v] += 1
    ready = [(str(n), i, n) for n, i in index.items() if not indegree[n]]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)[2]
        order.append(node)
        for v in succ[node]:
            indegree[v] -= 1
            if not indegree[v]:
                heapq.heappush(ready, (str(v), index[v], v))
    return order if len(order) == len(index) else None


def _find_cycle(succ: Mapping[ServerId, Sequence[ServerId]]) -> list[Edge]:
    """The edges of one cycle of a cyclic graph, found by depth-first
    search (an empty list for an acyclic one)."""
    done: set[ServerId] = set()
    for root in succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(succ[root])]
        while stack:
            for w in stack[-1]:
                if w in on_path:
                    cycle = path[path.index(w):] + [w]
                    return list(zip(cycle, cycle[1:]))
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(succ[w]))
                    break
            else:
                stack.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return []


class Network:
    """A feed-forward network of servers and flows.

    Parameters
    ----------
    servers:
        Iterable of :class:`ServerSpec`.
    flows:
        Iterable of :class:`Flow`; every server named in a path must be
        declared in *servers*.
    allow_cycles:
        Permit cyclic server graphs.  The decomposition/integrated
        analyses require feed-forward routing and will refuse such
        networks (``topological_servers`` raises), but the feedback
        fixed-point analysis (:mod:`repro.analysis.feedback`) and the
        simulator handle them.

    Raises
    ------
    TopologyError
        On duplicate ids, paths through unknown servers, or — unless
        ``allow_cycles`` — cyclic server graphs.
    """

    def __init__(self, servers: Iterable[ServerSpec],
                 flows: Iterable[Flow],
                 allow_cycles: bool = False) -> None:
        specs: dict[ServerId, ServerSpec] = {}
        for s in servers:
            if s.server_id in specs:
                raise TopologyError(f"duplicate server id {s.server_id!r}")
            specs[s.server_id] = s
        self._derive(specs, None, flows, (), bool(allow_cycles))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _edit(self, add: Sequence[Flow] = (), drop: Sequence[Flow] = (),
              servers: dict[ServerId, ServerSpec] | None = None,
              ) -> "Network":
        """A child network: *drop* removed, *add* added, from this one's
        views.  An added flow named like a dropped one takes its place
        in the flow order; *servers* may swap specs but keeps the ids."""
        child = Network.__new__(Network)
        child._derive(self._servers if servers is None else servers,
                      self, add, drop, self.allow_cycles)
        if servers is None:
            child.last_edit = FlowEdit(self.version, tuple(add), tuple(drop))
        return child

    def _derive(self, servers: dict[ServerId, ServerSpec],
                base: "Network | None", add: Iterable[Flow],
                drop: Sequence[Flow], allow_cycles: bool) -> None:
        """Set every derived view, from scratch (*base* None) or from
        *base*'s views with the flows in *drop* removed and *add* added.

        Work is proportional to the changed flows' paths plus C-level
        copies of the per-server and per-edge maps; nothing rescans the
        unchanged flows, except to restore the server graph's successor
        order (see below).
        """
        gone = {f.name for f in drop}
        if base is None:
            flows: dict[str, Flow] = {}
            at: dict[ServerId, tuple[Flow, ...]] = {
                sid: () for sid in servers}
            rate: dict[ServerId, float] = {}
            uses: dict[Edge, int] = {}
            ordered: list[Flow] = []
        else:
            flows = dict(base._flows)
            at = dict(base._at)
            rate = dict(base._rate)
            uses = dict(base._uses)
            ordered = (list(base._ordered) if not gone else
                       [f for f in base._ordered if f.name not in gone])
        added: list[Flow] = []
        joined: dict[ServerId, list[Flow]] = {}
        for f in drop:
            for sid in f.path:
                joined.setdefault(sid, [])
        replaced: set[str] = set()
        for f in add:
            if f.name in flows and (f.name not in gone
                                    or f.name in replaced):
                raise TopologyError(f"duplicate flow name {f.name!r}")
            for sid in f.path:
                if sid not in servers:
                    raise TopologyError(
                        f"flow {f.name!r} traverses unknown server {sid!r}")
            if f.name in gone:
                replaced.add(f.name)
            flows[f.name] = f
            added.append(f)
            for sid in f.path:
                joined.setdefault(sid, []).append(f)
        for name in gone - replaced:
            del flows[name]
        for sid, new in joined.items():
            kept = [f for f in at[sid] if f.name not in gone]
            at[sid] = tuple(sorted(kept + new, key=_by_name))
        ordered = tuple(sorted(ordered + added, key=_by_name))

        # Aggregate rates, summed in each server's flow-name order, and
        # the servers they overload.  Only servers whose flows or spec
        # changed are recomputed.
        if base is None or servers is not base._servers:
            touched_rates = servers
            over: set[ServerId] = set()
        else:
            touched_rates = joined
            over = set(base._over)
        for sid in touched_rates:
            if base is None or sid in joined:
                rate[sid] = sum(f.bucket.rho for f in at[sid])
            if rate[sid] >= servers[sid].capacity:
                over.add(sid)
            else:
                over.discard(sid)

        # Server graph.  Each node's successors are kept in the order of
        # their edges' first use over the flows in insertion order, as
        # building the graph from scratch gives (shortest-path tie
        # breaks depend on it).  Appending flows keeps that order; when
        # a dropped or in-place replaced flow leaves a node with two or
        # more successors, the order is recounted from every flow.
        grew = False
        changed = False
        for f in drop:
            for e in _edges(f):
                uses[e] -= 1
                if not uses[e]:
                    del uses[e]
                    changed = True
        for f in added:
            for e in _edges(f):
                n = uses.get(e, 0)
                uses[e] = n + 1
                if not n:
                    grew = changed = True
        if drop:
            touched = {a for f in itertools.chain(drop, added)
                       for a, _ in _edges(f)}
            out_degree = Counter(a for a, _ in uses)
            if any(out_degree[a] > 1 for a in touched):
                recount: dict[Edge, int] = {}
                for f in flows.values():
                    for e in _edges(f):
                        recount[e] = recount.get(e, 0) + 1
                changed = changed or list(recount) != list(uses)
                uses = recount

        if base is not None and not changed:
            succ = base._succ
            is_dag = base._is_dag
            topo = base._topo
            if all(bool(at[sid]) == bool(base._at[sid]) for sid in joined):
                active = base._active
            else:
                active = None
        else:
            succ = {sid: [] for sid in servers}
            for a, b in uses:
                succ[a].append(b)
            topo = active = None
            # Dropping edges keeps a DAG acyclic: test only new edges.
            if grew or not (base is None or base._is_dag):
                order = lexicographic_order(succ)
                is_dag = order is not None
                if is_dag:
                    topo = tuple(order)
            else:
                is_dag = True
        if not is_dag and not allow_cycles:
            raise TopologyError(
                f"server graph has a cycle ({_find_cycle(succ)}); pass "
                "allow_cycles=True and use the feedback analysis for "
                "non-feed-forward networks")

        self._servers = servers
        self._flows = flows
        self._at = at
        self._rate = rate
        self._over = frozenset(over)
        self._ordered = ordered
        self._uses = uses
        self._succ: dict[ServerId, list[ServerId]] = succ
        self._is_dag = is_dag
        self._topo: tuple[ServerId, ...] | None = topo
        self._active: Mapping[ServerId, int] | None = active
        self.allow_cycles = allow_cycles
        self.version = next(_STRUCT_VERSION)
        #: The flow edit that derived this network (None when built
        #: from scratch or by a server swap).
        self.last_edit: FlowEdit | None = None
        self._content_key: bytes | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def servers(self) -> Mapping[ServerId, ServerSpec]:
        """Read-only view of server id to spec."""
        return MappingProxyType(self._servers)

    @property
    def flows(self) -> Mapping[str, Flow]:
        """Read-only view of flow name to flow."""
        return MappingProxyType(self._flows)

    def server(self, server_id: ServerId) -> ServerSpec:
        """Look up a server spec; raises :class:`TopologyError` if absent."""
        try:
            return self._servers[server_id]
        except KeyError:
            raise TopologyError(f"unknown server {server_id!r}") from None

    def flow(self, name: str) -> Flow:
        """Look up a flow by name; raises :class:`TopologyError` if absent."""
        try:
            return self._flows[name]
        except KeyError:
            raise TopologyError(f"unknown flow {name!r}") from None

    def flows_at(self, server_id: ServerId) -> list[Flow]:
        """All flows traversing *server_id*, in deterministic name order.

        A fresh list on every call: mutating it leaves the network as
        it was.
        """
        try:
            return list(self._at[server_id])
        except KeyError:
            raise TopologyError(f"unknown server {server_id!r}") from None

    def successors(self, server_id: ServerId) -> Iterator[ServerId]:
        """The servers some flow visits right after *server_id*, in the
        order of their edges' first use over the flows in insertion
        order (shortest-path tie breaks depend on it)."""
        return iter(self._succ[server_id])

    @property
    def is_feedforward(self) -> bool:
        """True when the server graph is acyclic."""
        return self._is_dag

    def content_key(self) -> bytes:
        """A stable digest of the whole network's structure.

        Covers every server spec and every flow (in sorted order, so
        construction order is irrelevant).  Two networks with equal
        content keys produce bit-identical analysis results; the
        incremental engine uses this for whole-network memoization and
        to detect out-of-band structural changes.  Computed lazily and
        cached — Network is immutable after construction.
        """
        if self._content_key is None:
            parts: list[object] = ["network", self.allow_cycles]
            for sid in sorted(self._servers, key=str):
                parts.append(self._servers[sid].content_key())
            for f in self._ordered:
                parts.append(f.content_key())
            self._content_key = stable_digest(*parts)
        return self._content_key

    def topological_servers(self) -> list[ServerId]:
        """Server ids in a (deterministic) topological order.

        Raises :class:`TopologyError` on cyclic networks — use
        :mod:`repro.analysis.feedback` there.
        """
        if not self._is_dag:
            raise TopologyError(
                "cyclic server graph has no topological order; use the "
                "feedback analysis")
        if self._topo is None:
            self._topo = tuple(lexicographic_order(self._succ))
        return list(self._topo)

    def active_servers(self) -> Mapping[ServerId, int]:
        """The servers that carry at least one flow, in the order of
        :meth:`topological_servers`, each mapped to its position in
        that order (a read-only view).

        Cached; an edit that changes neither the server graph nor which
        servers carry flows keeps its parent's.
        """
        if self._active is None:
            at = self._at
            self._active = MappingProxyType({
                s: i for i, s in enumerate(
                    s for s in self.topological_servers() if at[s])})
        return self._active

    def iter_flows(self) -> Iterator[Flow]:
        """Iterate flows in deterministic name order."""
        return iter(self._ordered)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def utilization(self, server_id: ServerId) -> float:
        """Long-term utilization rho_total / capacity of one server."""
        spec = self.server(server_id)
        return self._rate[server_id] / spec.capacity

    def max_utilization(self) -> float:
        """The largest per-server utilization in the network."""
        if not self._servers:
            return 0.0
        return max(self.utilization(s) for s in self._servers)

    def check_stability(self) -> None:
        """Raise :class:`InstabilityError` unless every server has
        utilization strictly below 1.

        Deterministic delay bounds do not exist otherwise; every analysis
        calls this before doing any work.  The per-server rate sums are
        kept up to date by every edit, so a stable network answers in
        constant time; an overloaded one names the first overloaded
        server in server order.
        """
        if not self._over:
            return
        for sid, spec in self._servers.items():
            rate = self._rate[sid]
            if rate >= spec.capacity:
                raise InstabilityError(
                    f"server {sid!r} overloaded: aggregate rate {rate:g} >= "
                    f"capacity {spec.capacity:g}",
                    rate=rate, capacity=spec.capacity)

    def with_flow(self, flow: Flow) -> "Network":
        """A new network with *flow* added (used by admission control)."""
        return self._edit(add=(flow,))

    def without_flow(self, name: str) -> "Network":
        """A new network with flow *name* removed."""
        return self._edit(drop=(self.flow(name),))

    def replace_flow(self, flow: Flow) -> "Network":
        """A new network with the same-named flow swapped for *flow*.

        Used by fault injection (burst inflation) and reroute-and-retest
        (path replacement); the flow must already exist.
        """
        return self._edit(add=(flow,), drop=(self.flow(flow.name),))

    def replace_server(self, spec: ServerSpec) -> "Network":
        """A new network with the same-id server swapped for *spec*.

        Used by fault injection (capacity degradation); the server must
        already exist.
        """
        self.server(spec.server_id)
        servers = dict(self._servers)
        servers[spec.server_id] = spec
        return self._edit(servers=servers)

    def without_server(self, server_id: ServerId) -> "Network":
        """A new network with *server_id* removed.

        Every flow whose path traverses the server is removed with it
        (its connection is severed); rerouting severed flows around the
        failure is the survivability analysis' job, not the topology's.
        """
        self.server(server_id)
        return Network(
            [s for s in self._servers.values()
             if s.server_id != server_id],
            [f for f in self._flows.values()
             if not f.traverses(server_id)],
            allow_cycles=self.allow_cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Network({len(self._servers)} servers, "
                f"{len(self._flows)} flows)")
