"""The sweep record: one store entry per complete engine sweep.

``IncrementalEngine.save_sweep`` persists the memo of a network's
complete sweep; ``load_sweep`` seeds a fresh engine with it for an equal
network, rebuilt from its serialized form as recovery does.  The seeded
engine's next query then costs its cone, and every report must equal a
cold analysis bit for bit.  The record's key must move with every input
that reaches a step, and only with those.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.incremental as incremental
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext
from repro.core.integrated import IntegratedAnalysis
from repro.core.partition import PairAlongPath
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine, reports_identical
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.serialization import network_from_dict, network_to_dict
from repro.network.topology import Network, ServerSpec
from repro.store import AnalysisStore

ANALYZERS = {
    "decomposed": DecomposedAnalysis,
    "capped": lambda: DecomposedAnalysis(capped_propagation=True),
    "integrated": IntegratedAnalysis,
}


def rebuilt(network):
    """*network* as recovery rebuilds it from a snapshot."""
    return network_from_dict(network_to_dict(network))


def saved(tmp_path, analyzer, network):
    store = AnalysisStore(tmp_path / "store")
    engine = IncrementalEngine(analyzer, store=store)
    engine.analyze(network)
    assert engine.save_sweep(network)
    return store


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), name=st.sampled_from(sorted(ANALYZERS)))
def test_seeded_engine_equals_cold(tmp_path_factory, seed, name):
    tmp_path = tmp_path_factory.mktemp("sweep")
    rng = random.Random(seed)
    net = random_feedforward(seed, n_servers=5, n_flows=8,
                             max_utilization=0.6)
    store = saved(tmp_path, ANALYZERS[name](), net)
    engine = IncrementalEngine(ANALYZERS[name](), store=store)
    base = rebuilt(net)
    assert engine.load_sweep(base)
    assert engine.stats.queries == 0
    current = base
    for k in range(4):
        flows = list(current.flows.values())
        if k % 2 and len(flows) > 1:
            current = current.without_flow(rng.choice(flows).name)
        else:
            path = rng.choice(flows).path
            current = current.with_flow(Flow(
                f"n{k}", TokenBucket(rng.uniform(0.1, 1.0), 0.002),
                path[rng.randrange(len(path)):]))
        warm = engine.analyze(current)
        cold = ANALYZERS[name]().analyze(current)
        assert reports_identical(warm, cold)
    store.close()


@pytest.mark.parametrize("name", sorted(ANALYZERS))
def test_first_query_after_load_steps_only_its_cone(tmp_path, name):
    # two independent tandems: 1 -> 2 -> 3 and 4 -> 5 -> 6
    servers = [ServerSpec(k) for k in range(1, 7)]
    flows = [Flow(f"a{k}", TokenBucket(1.0, 0.05), (1, 2, 3))
             for k in range(3)]
    flows += [Flow(f"b{k}", TokenBucket(1.0, 0.05), (4, 5, 6))
              for k in range(3)]
    net = Network(servers, flows)
    store = saved(tmp_path, ANALYZERS[name](), net)
    engine = IncrementalEngine(ANALYZERS[name](), store=store)
    assert engine.load_sweep(rebuilt(net))
    candidate = engine._memo.network.with_flow(
        Flow("new", TokenBucket(0.5, 0.01), (5, 6)))
    report = engine.analyze(candidate)
    assert reports_identical(report, ANALYZERS[name]().analyze(candidate))
    # the cone is servers 5 and 6; every other unit replays
    stats = engine.stats
    assert stats.misses + stats.hits + stats.store_hits == 2
    assert stats.fast_reuses == (3 if name == "integrated" else 4)
    store.close()


def test_load_refuses_a_record_of_another_analyzer(tmp_path):
    net = random_feedforward(3, n_servers=4, n_flows=6)
    store = saved(tmp_path, DecomposedAnalysis(), net)
    for other in (DecomposedAnalysis(capped_propagation=True),
                  IntegratedAnalysis()):
        assert not IncrementalEngine(other, store=store).load_sweep(net)
    assert not IncrementalEngine(DecomposedAnalysis(), store=store) \
        .load_sweep(net, ctx=AnalysisContext(kernel="grid"))
    assert IncrementalEngine(DecomposedAnalysis(), store=store) \
        .load_sweep(net)
    store.close()


def test_save_needs_the_memo_of_that_network(tmp_path):
    net = random_feedforward(4, n_servers=4, n_flows=6)
    with AnalysisStore(tmp_path / "s") as store:
        engine = IncrementalEngine(DecomposedAnalysis(), store=store)
        assert not engine.save_sweep(net)  # no sweep yet
        engine.analyze(net)
        assert not engine.save_sweep(rebuilt(net))  # an equal copy
        assert engine.save_sweep(net)
        assert not engine.save_sweep(net)  # first write wins
    with AnalysisStore(tmp_path / "s", read_only=True) as store:
        engine = IncrementalEngine(DecomposedAnalysis(), store=store)
        engine.analyze(net)
        assert not engine.save_sweep(net)


class TestKey:
    FP = ("decomposed", False, "exact")
    SERVERS = ((1, 1.0, "fifo"), (2, 2.0, "static_priority"),
               (3, 1.0, "fifo"))
    FLOWS = (("f", 1.0, 0.1, 2.0, (1, 2), 0),
             ("g", 0.5, 0.2, float("inf"), (2, 3), 1))

    def net(self, servers=SERVERS, flows=FLOWS):
        return Network(
            [ServerSpec(s, c, d) for s, c, d in servers],
            [Flow(n, TokenBucket(s, r, p), path, priority=q)
             for n, s, r, p, path, q in flows])

    def key(self, net, fp=FP, blocks=None):
        return incremental._sweep_key(net, fp, blocks)

    def test_every_input_that_reaches_a_step_moves_the_key(
            self, monkeypatch):
        net = self.net()
        base = self.key(net)
        s, f = self.SERVERS, self.FLOWS

        def server(**kw):  # server 1 changed
            fields = dict(zip(("id", "capacity", "discipline"), s[0]), **kw)
            return (tuple(fields.values()),) + s[1:]

        def flow(**kw):  # flow "f" changed
            fields = dict(zip(("name", "sigma", "rho", "peak", "path",
                               "priority"), f[0]), **kw)
            return (tuple(fields.values()),) + f[1:]

        variants = {
            "server id": self.net(
                servers=s[:2] + ((4, 1.0, "fifo"),),
                flows=f[:1] + (("g", 0.5, 0.2, float("inf"), (2, 4), 1),)),
            "capacity": self.net(servers=server(capacity=1.5)),
            "discipline": self.net(
                servers=server(discipline="guaranteed_rate")),
            "server order": self.net(servers=s[::-1]),
            "name": self.net(flows=flow(name="e")),
            "sigma": self.net(flows=flow(sigma=1.25)),
            "rho": self.net(flows=flow(rho=0.125)),
            "peak": self.net(flows=flow(peak=4.0)),
            "path": self.net(flows=flow(path=(1,))),
            "priority": self.net(flows=flow(priority=2)),
        }
        keys = {name: self.key(v) for name, v in variants.items()}
        assert base not in keys.values(), [
            n for n, k in keys.items() if k == base]
        assert len(set(keys.values())) == len(keys)

        for fp in (("decomposed", True, "exact"),
                   ("decomposed", False, "grid"),
                   ("integrated", True, "PairAlongPath", None, "exact")):
            assert self.key(net, fp) != base, fp
        assert self.key(net, blocks=((1, 2), (3,))) != base
        monkeypatch.setattr(incremental, "SWEEP_RECORD_VERSION", "sweep-v0")
        assert self.key(net) != base
        monkeypatch.undo()
        monkeypatch.setattr(incremental, "FAMILY_SOLVER_VERSION", -1)
        assert self.key(net) != base

    def test_deadlines_and_flow_order_do_not_move_it(self):
        net = self.net()
        reordered = Network(list(net.servers.values()),
                            [net.flow("g").with_deadline(5.0),
                             net.flow("f")])
        assert self.key(reordered) == self.key(net)
        assert self.key(rebuilt(net)) == self.key(net)

    def test_integrated_key_carries_the_partition(self):
        # equal flows added in another order: PairAlongPath pairs along
        # the first of the two longest flows it meets
        servers = [ServerSpec(k) for k in range(1, 5)]
        f = Flow("f", TokenBucket(1.0, 0.1), (1, 2))
        g = Flow("g", TokenBucket(1.0, 0.1), (3, 4))
        one, two = Network(servers, [f, g]), Network(servers, [g, f])
        engine = IncrementalEngine(IntegratedAnalysis(PairAlongPath()),
                                   store=None)
        assert (IntegratedAnalysis().analyze(one).meta["partition"]
                != IntegratedAnalysis().analyze(two).meta["partition"])
        fp = engine._fingerprint(AnalysisContext(kernel="exact"))
        assert engine._sweep_key(one, fp) != engine._sweep_key(two, fp)
