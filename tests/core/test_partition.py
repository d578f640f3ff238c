"""Unit tests for network partitioning (Algorithm Integrated step 1-2)."""

import pytest

from repro.core.partition import (
    GreedyPairing,
    PairAlongPath,
    Partition,
    SingletonPartition,
)
from repro.curves.token_bucket import TokenBucket
from repro.errors import TopologyError
from repro.network.flow import Flow
from repro.network.tandem import build_tandem
from repro.network.topology import Network, ServerSpec


TB = TokenBucket(1.0, 0.1, peak=1.0)


class TestPartitionValidation:
    def test_valid_pairing(self, tandem4):
        p = Partition(tandem4, [(1, 2), (3, 4)])
        assert p.n_pairs == 2

    def test_all_servers_must_be_covered(self, tandem4):
        with pytest.raises(TopologyError):
            Partition(tandem4, [(1, 2)])

    def test_no_duplicates(self, tandem4):
        with pytest.raises(TopologyError):
            Partition(tandem4, [(1, 2), (2, 3), (4,)])

    def test_pair_needs_edge(self, tandem4):
        with pytest.raises(TopologyError):
            Partition(tandem4, [(1, 3), (2,), (4,)])

    def test_block_size_limited(self, tandem4):
        with pytest.raises(TopologyError):
            Partition(tandem4, [(1, 2, 3), (4,)])

    def test_unknown_server(self, tandem4):
        with pytest.raises(TopologyError):
            Partition(tandem4, [(1, 2), (3, 4), (99,)])

    def test_topological_block_order(self, tandem4):
        p = Partition(tandem4, [(3, 4), (1, 2)])
        assert p.blocks.index((1, 2)) < p.blocks.index((3, 4))

    def test_block_of(self, tandem4):
        p = Partition(tandem4, [(1, 2), (3, 4)])
        assert p.block_of(3) == (3, 4)
        with pytest.raises(TopologyError):
            p.block_of(99)

    def test_contraction_cycle_rejected(self):
        # a -> b and a separate flow c -> d, plus flows a->c and d->b:
        # pairing (a,b) with (c,d)? edges: a->b, c->d, a->c, d->b.
        # contracting (a,b) and (c,d): AB -> CD (a->c), CD -> AB (d->b):
        # cycle.
        servers = [ServerSpec(s) for s in "abcd"]
        flows = [
            Flow("f1", TB, ["a", "b"]),
            Flow("f2", TB, ["c", "d"]),
            Flow("f3", TB, ["a", "c"]),
            Flow("f4", TB, ["d", "b"]),
        ]
        net = Network(servers, flows)
        with pytest.raises(TopologyError):
            Partition(net, [("a", "b"), ("c", "d")])


class TestStrategies:
    def test_singletons(self, tandem4):
        p = SingletonPartition().partition(tandem4)
        assert p.n_pairs == 0 and len(p) == 4

    def test_pair_along_path_even(self, tandem4):
        p = PairAlongPath().partition(tandem4)
        assert set(p.blocks) == {(1, 2), (3, 4)}

    def test_pair_along_path_odd(self):
        net = build_tandem(5, 0.5)
        p = PairAlongPath().partition(net)
        assert (5,) in p.blocks and p.n_pairs == 2

    def test_pair_along_named_flow(self, tandem4):
        p = PairAlongPath("long_2").partition(tandem4)
        assert (2, 3) in p.blocks

    def test_pair_along_path_defaults_to_longest(self, tandem4):
        # longest flow is conn0
        assert PairAlongPath().partition(tandem4).blocks == \
            PairAlongPath("conn0").partition(tandem4).blocks

    def test_off_path_servers_become_singletons(self):
        servers = [ServerSpec(s) for s in ("a", "b", "x")]
        flows = [Flow("main", TB, ["a", "b"]), Flow("other", TB, ["x"])]
        net = Network(servers, flows)
        p = PairAlongPath("main").partition(net)
        assert ("x",) in p.blocks

    def test_greedy_pairs_heaviest_edge(self, tandem4):
        p = GreedyPairing().partition(tandem4)
        assert p.n_pairs >= 1
        # every pair must be a server-graph edge
        for blk in p.blocks:
            if len(blk) == 2:
                assert blk[1] in tandem4.successors(blk[0])

    def test_greedy_on_tandem_covers_everything(self):
        net = build_tandem(6, 0.5)
        p = GreedyPairing().partition(net)
        covered = sorted(s for blk in p.blocks for s in blk)
        assert covered == list(range(1, 7))
