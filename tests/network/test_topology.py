"""Unit tests for the Network model and feed-forward validation."""

import networkx as nx
import pytest

from repro.curves.token_bucket import TokenBucket
from repro.errors import InstabilityError, TopologyError
from repro.network.flow import Flow
from repro.network.topology import Discipline, Network, ServerSpec


TB = TokenBucket(1.0, 0.25, peak=1.0)


def two_server_net(rho=0.25):
    tb = TokenBucket(1.0, rho, peak=1.0)
    servers = [ServerSpec(1), ServerSpec(2)]
    flows = [
        Flow("through", tb, [1, 2]),
        Flow("c1", tb, [1]),
        Flow("c2", tb, [2]),
    ]
    return Network(servers, flows)


class TestServerSpec:
    def test_defaults(self):
        s = ServerSpec("s")
        assert s.capacity == 1.0
        assert s.discipline == Discipline.FIFO

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ServerSpec("s", capacity=0.0)

    def test_invalid_discipline(self):
        with pytest.raises(TopologyError):
            ServerSpec("s", discipline="weird")


class TestConstruction:
    def test_duplicate_server_rejected(self):
        with pytest.raises(TopologyError):
            Network([ServerSpec(1), ServerSpec(1)], [])

    def test_duplicate_flow_rejected(self):
        with pytest.raises(TopologyError):
            Network([ServerSpec(1)],
                    [Flow("f", TB, [1]), Flow("f", TB, [1])])

    def test_unknown_server_in_path_rejected(self):
        with pytest.raises(TopologyError):
            Network([ServerSpec(1)], [Flow("f", TB, [1, 2])])

    def test_cycle_rejected(self):
        servers = [ServerSpec(1), ServerSpec(2)]
        flows = [Flow("a", TB, [1, 2]), Flow("b", TB, [2, 1])]
        with pytest.raises(TopologyError):
            Network(servers, flows)

    def test_empty_network(self):
        net = Network([], [])
        assert net.max_utilization() == 0.0


class TestAccessors:
    def test_server_lookup(self):
        net = two_server_net()
        assert net.server(1).capacity == 1.0
        with pytest.raises(TopologyError):
            net.server(9)

    def test_flow_lookup(self):
        net = two_server_net()
        assert net.flow("through").n_hops == 2
        with pytest.raises(TopologyError):
            net.flow("nope")

    def test_flows_at(self):
        net = two_server_net()
        names = [f.name for f in net.flows_at(1)]
        assert names == ["c1", "through"]

    def test_flows_at_unknown_server(self):
        with pytest.raises(TopologyError):
            two_server_net().flows_at(9)

    def test_server_graph_is_copy(self):
        net = two_server_net()
        g = nx.DiGraph([(a, b) for a in net.servers
                        for b in net.successors(a)])
        g.add_edge(2, 1)
        assert nx.is_directed_acyclic_graph(nx.DiGraph(
            [(a, b) for a in net.servers for b in net.successors(a)]))

    def test_topological_order(self):
        net = two_server_net()
        order = net.topological_servers()
        assert order.index(1) < order.index(2)

    def test_iter_flows_sorted(self):
        names = [f.name for f in two_server_net().iter_flows()]
        assert names == sorted(names)


class TestDerived:
    def test_utilization(self):
        net = two_server_net(rho=0.25)
        assert net.utilization(1) == pytest.approx(0.5)
        assert net.max_utilization() == pytest.approx(0.5)

    def test_stability_ok(self):
        two_server_net(rho=0.25).check_stability()

    def test_stability_violation(self):
        net = two_server_net(rho=0.5)  # 2 flows x 0.5 = capacity
        with pytest.raises(InstabilityError) as exc:
            net.check_stability()
        assert exc.value.capacity == 1.0

    def test_with_flow(self):
        net = two_server_net()
        net2 = net.with_flow(Flow("new", TB, [1, 2]))
        assert "new" in net2.flows and "new" not in net.flows

    def test_without_flow(self):
        net = two_server_net().without_flow("c1")
        assert "c1" not in net.flows

    def test_without_unknown_flow_raises(self):
        with pytest.raises(TopologyError):
            two_server_net().without_flow("nope")
