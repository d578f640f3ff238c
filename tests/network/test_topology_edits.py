"""Edge cases of the structural edit methods used by fault injection
and the incremental engine: ``replace_server``, ``without_server`` and
``replace_flow``; and a differential check that every edit derives the
same views as building the edited network from scratch."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.admission import AdmissionController, ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.errors import InstabilityError, TopologyError
from repro.network.flow import Flow
from repro.network.generators import random_feedforward, random_multicomponent
from repro.network.topology import Network, ServerSpec


def flow(name, path, rho=0.1):
    return Flow(name, TokenBucket(1.0, rho), tuple(path))


def net3():
    return Network([ServerSpec(k) for k in (1, 2, 3)],
                   [flow("a", [1, 2, 3]), flow("b", [2, 3]),
                    flow("c", [3])])


class TestReplaceServer:
    def test_swaps_spec_keeps_flows(self):
        out = net3().replace_server(ServerSpec(2, capacity=5.0))
        assert out.server(2).capacity == 5.0
        assert set(out.flows) == {"a", "b", "c"}

    def test_unknown_server_raises(self):
        with pytest.raises(TopologyError):
            net3().replace_server(ServerSpec(9))

    def test_original_untouched(self):
        base = net3()
        base.replace_server(ServerSpec(1, capacity=2.0))
        assert base.server(1).capacity != 2.0

    def test_version_counter_advances(self):
        base = net3()
        out = base.replace_server(ServerSpec(1, capacity=2.0))
        assert out.version > base.version

    def test_content_key_tracks_spec_change(self):
        base = net3()
        same = Network(base.servers.values(), base.flows.values())
        changed = base.replace_server(ServerSpec(1, capacity=2.0))
        assert base.content_key() == same.content_key()
        assert base.content_key() != changed.content_key()


class TestWithoutServer:
    def test_severs_traversing_flows(self):
        out = net3().without_server(2)
        assert set(out.servers) == {1, 3}
        # 'a' and 'b' traverse server 2 and are severed with it
        assert set(out.flows) == {"c"}

    def test_no_dangling_path_references(self):
        out = net3().without_server(2)
        for f in out.flows.values():
            assert all(sid in out.servers for sid in f.path)

    def test_removing_every_server_leaves_empty_network(self):
        out = net3().without_server(3).without_server(2) \
                    .without_server(1)
        assert not out.servers and not out.flows
        out.check_stability()  # trivially stable

    def test_unknown_server_raises(self):
        with pytest.raises(TopologyError):
            net3().without_server(0)

    def test_result_rejects_flow_through_removed_server(self):
        out = net3().without_server(2)
        with pytest.raises(TopologyError):
            out.with_flow(flow("d", [1, 2]))


class TestReplaceFlow:
    def test_swaps_same_name(self):
        out = net3().replace_flow(flow("b", [1, 2], rho=0.3))
        assert out.flow("b").path == (1, 2)
        assert out.flow("b").bucket.rho == 0.3
        assert len(out.flows) == 3

    def test_unknown_flow_raises(self):
        with pytest.raises(TopologyError):
            net3().replace_flow(flow("zz", [1]))

    def test_new_path_must_exist(self):
        with pytest.raises(TopologyError):
            net3().replace_flow(flow("a", [1, 2, 99]))

    def test_replace_on_empty_network_raises(self):
        empty = Network([], [])
        with pytest.raises(TopologyError):
            empty.replace_flow(flow("a", [1]))

    def test_duplicate_ids_still_rejected_after_edits(self):
        out = net3().without_flow("a")
        with pytest.raises(TopologyError):
            Network(list(out.servers.values()) + [ServerSpec(1)],
                    out.flows.values())


# ----------------------------------------------------------------------
# Differential: every edit agrees with building the result from scratch
# ----------------------------------------------------------------------

def outcome(fn):
    """``(exception type, message)`` of calling *fn*, or its value."""
    try:
        return ("ok", fn())
    except (TopologyError, InstabilityError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_views(derived, fresh):
    assert list(derived.servers.items()) == list(fresh.servers.items())
    assert list(derived.flows.items()) == list(fresh.flows.items())
    for sid in fresh.servers:
        assert derived.flows_at(sid) == fresh.flows_at(sid)
    assert list(derived.iter_flows()) == list(fresh.iter_flows())
    assert derived.is_feedforward == fresh.is_feedforward
    assert (outcome(derived.topological_servers)
            == outcome(fresh.topological_servers))
    assert derived.content_key() == fresh.content_key()
    assert outcome(derived.check_stability) == \
        outcome(fresh.check_stability)
    # the cached rate sums are bit-identical to summing from scratch
    for sid in fresh.servers:
        assert derived.utilization(sid) == fresh.utilization(sid)
        assert derived.utilization(sid) == (
            sum(f.bucket.rho for f in fresh.flows_at(sid))
            / fresh.server(sid).capacity)
    assert (outcome(lambda: list(derived.active_servers().items()))
            == outcome(lambda: list(fresh.active_servers().items())))
    # successor order decides shortest-path tie breaks (rerouting)
    assert ([(n, list(derived.successors(n))) for n in derived.servers]
            == [(n, list(fresh.successors(n))) for n in fresh.servers])


def random_flow(rng, net, name):
    sids = list(net.servers)
    path = rng.sample(sids, rng.randint(1, min(4, len(sids))))
    if rng.random() < 0.1:
        path.insert(rng.randrange(len(path) + 1), "ghost")
    return Flow(name, TokenBucket(rng.uniform(0.0, 2.0),
                                  rng.choice([0.01, 0.05, 0.3])), path)


def edit_pair(rng, net, op, i):
    """``(derived thunk, fresh thunk)`` for one random edit of *net*."""
    servers = list(net.servers.values())
    flows = list(net.flows.values())
    cycles = net.allow_cycles
    if op == "with" or not flows:
        name = (rng.choice(flows).name if flows and rng.random() < 0.15
                else f"n{i}")
        f = random_flow(rng, net, name)
        return (lambda: net.with_flow(f),
                lambda: Network(servers, flows + [f], allow_cycles=cycles))
    if op == "without":
        name = rng.choice(flows).name
        return (lambda: net.without_flow(name),
                lambda: Network(servers, [g for g in flows
                                          if g.name != name],
                                allow_cycles=cycles))
    if op == "replace_flow":
        f = random_flow(rng, net, rng.choice(flows).name)
        return (lambda: net.replace_flow(f),
                lambda: Network(servers, [f if g.name == f.name else g
                                          for g in flows],
                                allow_cycles=cycles))
    spec = ServerSpec(rng.choice(servers).server_id,
                      capacity=rng.choice([0.5, 1.0, 2.0]))
    return (lambda: net.replace_server(spec),
            lambda: Network([spec if s.server_id == spec.server_id else s
                             for s in servers], flows,
                            allow_cycles=cycles))


OPS = ("with", "without", "replace_flow", "replace_server")


@st.composite
def edit_chains(draw):
    make = draw(st.sampled_from([
        lambda s: random_multicomponent(s, n_components=2,
                                        servers_per_component=4,
                                        flows_per_component=5),
        lambda s: random_feedforward(s, n_servers=6, n_flows=8),
    ]))
    base = make(draw(st.integers(0, 30)))
    if draw(st.booleans()):
        base = Network(base.servers.values(), base.flows.values(),
                       allow_cycles=True)
    steps = draw(st.lists(st.tuples(st.sampled_from(OPS),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=15))
    return base, steps


class TestEditsMatchFreshConstruction:
    @settings(max_examples=150, deadline=None)
    @given(edit_chains())
    def test_edit_chain(self, chain):
        net, steps = chain
        seen = {net.version}
        for i, (op, seed) in enumerate(steps):
            derived, fresh = edit_pair(random.Random(seed), net, op, i)
            got, want = outcome(derived), outcome(fresh)
            if want[0] != "ok":
                assert got == want
                continue
            assert got[0] == "ok", got
            child = got[1]
            assert child.version not in seen
            seen.add(child.version)
            assert_same_views(child, want[1])
            net = child

    def test_fresh_version_even_when_views_are_shared(self):
        base = net3()
        out = base.replace_server(ServerSpec(1, capacity=2.0))
        assert out.version != base.version
        assert out.topological_servers() == base.topological_servers()


class TestCachedRates:
    """Each edit re-sums only the rates of the servers it touches, over
    their flows in name order, so every overload decision is the one
    the plain sum over ``flows_at`` gives."""

    @staticmethod
    def two_flows():
        net = Network([ServerSpec(1)], [])
        for name, rho in (("c", 0.7), ("b", 0.2)):
            net = net.with_flow(Flow(name, TokenBucket(1.0, rho), (1,)))
        return net

    def test_utilization_exactly_at_capacity_is_overload(self):
        net = self.two_flows()
        net.check_stability()
        full = net.with_flow(Flow("a", TokenBucket(1.0, 0.1), (1,)))
        # in name order (0.1 + 0.2) + 0.7 is exactly 1.0; in insertion
        # order it would be 0.9999999999999999, below capacity
        assert full.utilization(1) == 1.0
        assert sum(f.bucket.rho for f in full.flows_at(1)) == 1.0
        with pytest.raises(InstabilityError,
                           match="aggregate rate 1 >= capacity 1"):
            full.check_stability()
        fresh = Network(full.servers.values(), full.flows.values())
        assert outcome(fresh.check_stability) == \
            outcome(full.check_stability)
        full.without_flow("c").check_stability()

    def test_server_swap_rechecks_capacity(self):
        full = self.two_flows().with_flow(
            Flow("a", TokenBucket(1.0, 0.1), (1,)))
        roomy = full.replace_server(ServerSpec(1, capacity=2.0))
        roomy.check_stability()
        assert roomy.utilization(1) == 0.5
        with pytest.raises(InstabilityError):
            roomy.replace_server(ServerSpec(1)).check_stability()

    def test_admission_rejects_at_capacity(self):
        controller = AdmissionController(self.two_flows(),
                                         DecomposedAnalysis())
        decision = controller.test(
            ConnectionRequest("a", TokenBucket(1.0, 0.1), (1,), 100.0))
        assert not decision.admitted
        assert decision.reason.startswith("overload: server 1 overloaded")
        assert controller.test(ConnectionRequest(
            "a", TokenBucket(1.0, 0.05), (1,), 100.0)).admitted


def fan():
    # server 1 has two successors, first used by "a" then "b"
    return Network([ServerSpec(k) for k in (1, 2, 3)],
                   [flow("a", [1, 2]), flow("b", [1, 3]),
                    flow("c", [1, 2])])


class TestEditErrorsMatchConstructor:
    @pytest.mark.parametrize("allow_cycles", [False, True])
    def test_duplicate_name(self, allow_cycles):
        base = Network(fan().servers.values(), fan().flows.values(),
                       allow_cycles=allow_cycles)
        dup = flow("b", [2, 3])
        got = outcome(lambda: base.with_flow(dup))
        want = outcome(lambda: Network(
            base.servers.values(), list(base.flows.values()) + [dup],
            allow_cycles=allow_cycles))
        assert got == want and "duplicate flow name" in got[1]

    @pytest.mark.parametrize("allow_cycles", [False, True])
    def test_unknown_server(self, allow_cycles):
        base = Network(fan().servers.values(), fan().flows.values(),
                       allow_cycles=allow_cycles)
        bad = flow("d", [2, 9])
        for derive, flows in (
                (lambda: base.with_flow(bad),
                 list(base.flows.values()) + [bad]),
                (lambda: base.replace_flow(flow("a", [1, 9])),
                 [flow("a", [1, 9])] + list(base.flows.values())[1:])):
            got = outcome(derive)
            want = outcome(lambda: Network(base.servers.values(), flows,
                                           allow_cycles=allow_cycles))
            assert got == want and "unknown server" in got[1]

    def test_cycle_rejected_like_constructor(self):
        base = fan().without_flow("a")
        closing = flow("d", [3, 2, 1])
        got = outcome(lambda: base.with_flow(closing))
        want = outcome(lambda: Network(
            base.servers.values(), list(base.flows.values()) + [closing]))
        assert got == want and "cycle" in got[1]

    def test_cycle_allowed_with_allow_cycles(self):
        base = Network(fan().servers.values(), fan().flows.values(),
                       allow_cycles=True)
        cyclic = base.with_flow(flow("d", [3, 1]))
        assert not cyclic.is_feedforward
        with pytest.raises(TopologyError):
            cyclic.topological_servers()
        # dropping the closing flow makes it feed-forward again
        back = cyclic.without_flow("d")
        assert back.is_feedforward
        assert_same_views(back, Network(back.servers.values(),
                                        back.flows.values(),
                                        allow_cycles=True))

    def test_dropping_first_user_keeps_successor_order(self):
        out = fan().without_flow("a")
        assert_same_views(out, Network(out.servers.values(),
                                       out.flows.values()))
        assert list(out.successors(1)) == [3, 2]


class TestReturnedViewsAreReadOnly:
    def test_mutating_flows_at_leaves_network_unchanged(self):
        net = fan()
        before = net.flows_at(1)
        got = net.flows_at(1)
        got.clear()
        got.append(flow("x", [1]))
        assert net.flows_at(1) == before
        assert net.utilization(1) == pytest.approx(0.3)

    def test_flows_and_servers_are_views(self):
        net = fan()
        with pytest.raises(TypeError):
            net.flows["x"] = flow("x", [1])
        with pytest.raises(TypeError):
            net.servers[9] = ServerSpec(9)
        assert "a" in net.flows and 1 in net.servers
        assert net.with_flow(flow("x", [1])).flows.keys() != \
            net.flows.keys()
