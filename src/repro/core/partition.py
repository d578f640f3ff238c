"""Network partitioning into subnetworks of at most two servers.

Algorithm Integrated's Step 1–2 (paper Figure 2): split the server set
into blocks of one or two servers, such that (i) every paired block
``(j, k)`` has server-graph edge ``j -> k`` (some connection actually
flows from j to k — otherwise pairing buys nothing), and (ii) the
quotient graph obtained by contracting each block stays acyclic, so a
topological processing order over blocks exists.

Three strategies are provided:

* :class:`PairAlongPath` — pair consecutive servers along a designated
  connection's path (the paper's tandem evaluation pairs along
  Connection 0).  Default.
* :class:`GreedyPairing` — repeatedly pair the server-graph edge with
  the largest through-traffic rate (a reasonable general heuristic).
* :class:`SingletonPartition` — no pairing; the degenerate case used by
  the ABL2 ablation (equivalent to capped decomposition).
"""

from __future__ import annotations

import abc
from typing import Hashable, Sequence

from repro.errors import TopologyError
from repro.network.topology import Network, lexicographic_order

__all__ = [
    "Partition",
    "PartitionStrategy",
    "PairAlongPath",
    "GreedyPairing",
    "SingletonPartition",
]

ServerId = Hashable
Block = tuple  # tuple of 1 or 2 server ids


class Partition:
    """A validated partition of a network's servers into blocks.

    Attributes
    ----------
    blocks:
        Tuple of blocks in a topological order of the quotient graph.
    """

    def __init__(self, network: Network, blocks: Sequence[Block]) -> None:
        seen: set[ServerId] = set()
        servers = network.servers
        for blk in blocks:
            if len(blk) not in (1, 2):
                raise TopologyError(
                    f"blocks must have 1 or 2 servers, got {blk!r}")
            for sid in blk:
                if sid in seen:
                    raise TopologyError(
                        f"server {sid!r} appears in two blocks")
                if sid not in servers:
                    raise TopologyError(f"unknown server {sid!r} in block")
                seen.add(sid)
            if len(blk) == 2 and blk[1] not in network.successors(blk[0]):
                raise TopologyError(
                    f"paired block {blk!r} has no server-graph edge "
                    f"{blk[0]!r} -> {blk[1]!r}")
        missing = set(servers) - seen
        if missing:
            raise TopologyError(
                f"partition does not cover servers {sorted(map(str, missing))}")

        order = lexicographic_order(self._quotient_graph(network, blocks))
        if order is None:
            raise TopologyError(
                "contracting the blocks creates a cycle; choose a "
                "different pairing")
        self.blocks: tuple[Block, ...] = tuple(order)
        self._block_of = {sid: blk for blk in self.blocks for sid in blk}

    @staticmethod
    def _quotient_graph(network: Network, blocks: Sequence[Block],
                        ) -> dict[Block, dict[Block, None]]:
        """Each block mapped to the blocks its servers' edges reach."""
        block_of = {sid: tuple(blk) for blk in blocks for sid in blk}
        q: dict[Block, dict[Block, None]] = {
            tuple(blk): {} for blk in blocks}
        for a in network.servers:
            ba = block_of[a]
            for b in network.successors(a):
                bb = block_of[b]
                if ba != bb:
                    q[ba][bb] = None
        return q

    def block_of(self, server_id: ServerId) -> Block:
        """The block containing *server_id*."""
        try:
            return self._block_of[server_id]
        except KeyError:
            raise TopologyError(f"unknown server {server_id!r}") from None

    @property
    def n_pairs(self) -> int:
        """Number of two-server blocks."""
        return sum(1 for b in self.blocks if len(b) == 2)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class PartitionStrategy(abc.ABC):
    """Produces a :class:`Partition` for a network."""

    @abc.abstractmethod
    def partition(self, network: Network) -> Partition:
        """Build the partition (raises :class:`TopologyError` on failure)."""


class SingletonPartition(PartitionStrategy):
    """Every server is its own block (no integration)."""

    def partition(self, network: Network) -> Partition:
        blocks = [(sid,) for sid in network.topological_servers()]
        return Partition(network, blocks)


class PairAlongPath(PartitionStrategy):
    """Pair consecutive servers along one connection's path.

    Parameters
    ----------
    flow_name:
        The connection to pair along; default None selects the flow with
        the longest path (the paper's Connection 0 in the tandem).
    """

    def __init__(self, flow_name: str | None = None) -> None:
        self.flow_name = flow_name

    def partition(self, network: Network) -> Partition:
        if self.flow_name is not None:
            flow = network.flow(self.flow_name)
        else:
            flow = max(network.flows.values(), key=lambda f: f.n_hops)
        path = flow.path
        blocks: list[Block] = []
        i = 0
        while i < len(path):
            if i + 1 < len(path):
                blocks.append((path[i], path[i + 1]))
                i += 2
            else:
                blocks.append((path[i],))
                i += 1
        on_path = set(path)
        for sid in network.topological_servers():
            if sid not in on_path:
                blocks.append((sid,))
        return Partition(network, blocks)


class GreedyPairing(PartitionStrategy):
    """Pair the edges carrying the most through traffic, greedily.

    Edge weight = total sustained rate of flows whose path contains the
    edge (consecutively).  Edges are tried in decreasing weight; a pair
    is kept only if it leaves the quotient graph acyclic.
    """

    def partition(self, network: Network) -> Partition:
        weight: dict[tuple[ServerId, ServerId], float] = {}
        for f in network.iter_flows():
            for a, b in zip(f.path, f.path[1:]):
                weight[(a, b)] = weight.get((a, b), 0.0) + f.bucket.rho
        paired: set[ServerId] = set()
        pairs: list[Block] = []
        for (a, b), _w in sorted(weight.items(),
                                 key=lambda kv: (-kv[1], str(kv[0]))):
            if a in paired or b in paired:
                continue
            candidate = pairs + [(a, b)]
            remaining = [(s,) for s in network.servers
                         if s not in paired and s not in (a, b)]
            try:
                Partition(network, candidate + remaining)
            except TopologyError:
                continue
            pairs.append((a, b))
            paired.update((a, b))
        blocks = pairs + [(s,) for s in network.topological_servers()
                          if s not in paired]
        return Partition(network, blocks)
