"""Planning from edit records agrees with comparing every flow.

The engine reads what changed between its last network and the queried
one from the networks' edit records (:attr:`Network.last_edit`) when one
derives from the other or both from one parent, and compares every flow
otherwise.  Over random edit chains — admits, releases, flow and server
replacements, and admission candidates that are analyzed but never
committed — the flows it finds, and the dirty cone they give, must equal
the full comparison's, and every report must equal a cold analysis.
"""

import gc
import random
import weakref

from hypothesis import given, settings, strategies as st

from repro.analysis.decomposed import DecomposedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine, affected_cone, reports_identical
from repro.engine.incremental import changed_flows, full_compare
from repro.errors import InstabilityError
from repro.network.flow import Flow
from repro.network.generators import random_feedforward, random_multicomponent
from repro.network.topology import ServerSpec


def light_flow(rng, net, name):
    """A low-rate flow on an existing flow's path (or a suffix of it)."""
    path = rng.choice(list(net.flows.values())).path
    path = path[rng.randrange(len(path)):]
    return Flow(name, TokenBucket(rng.uniform(0.0, 2.0), 0.001), path)


def edit(rng, net, op, tag):
    """One random edit of *net* (never overloads a server); a new flow
    is named after *tag*."""
    flows = list(net.flows.values())
    if op == "with" or len(flows) < 2:
        return net.with_flow(light_flow(rng, net, f"n{tag}"))
    if op == "without":
        return net.without_flow(rng.choice(flows).name)
    if op == "replace_flow":
        old = rng.choice(flows)
        if rng.random() < 0.5:  # a new burst, same path
            bucket = TokenBucket(old.bucket.sigma + 0.5, old.bucket.rho)
            return net.replace_flow(Flow(old.name, bucket, old.path))
        return net.replace_flow(light_flow(rng, net, old.name))
    spec = rng.choice(list(net.servers.values()))
    return net.replace_server(ServerSpec(spec.server_id,
                                         capacity=spec.capacity * 1.5,
                                         discipline=spec.discipline))


OPS = ("with", "without", "replace_flow", "replace_server", "candidate",
       "chain")


def plan_matches_full_compare(old, new):
    planned, full = changed_flows(old, new), full_compare(old, new)
    if full is None:
        assert planned is None
        return
    assert planned is not None
    assert sorted(map(id, planned)) == sorted(map(id, full))
    assert (affected_cone(old, new, planned)
            == affected_cone(old, new, full))


@st.composite
def edit_chains(draw):
    make = draw(st.sampled_from([
        lambda s: random_multicomponent(s, n_components=3,
                                        servers_per_component=3,
                                        flows_per_component=5),
        lambda s: random_feedforward(s, n_servers=6, n_flows=8,
                                     max_utilization=0.6),
    ]))
    base = make(draw(st.integers(0, 30)))
    steps = draw(st.lists(st.tuples(st.sampled_from(OPS),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=12))
    return base, steps


@settings(max_examples=60, deadline=None)
@given(edit_chains())
def test_planning_matches_full_compare_over_edit_chains(chain):
    net, steps = chain
    engine = IncrementalEngine(DecomposedAnalysis())
    cold = DecomposedAnalysis()
    last = net
    assert reports_identical(engine.analyze(net), cold.analyze(net))
    for i, (op, seed) in enumerate(steps):
        rng = random.Random(seed)
        if op == "candidate":
            # analyzed like an admission candidate, then dropped
            query = edit(rng, net, "with", i)
        elif op == "chain":
            # several edits between two queries
            query = net
            for j in range(rng.randint(2, 4)):
                query = edit(rng, query, rng.choice(OPS[:3]), f"{i}.{j}")
            net = query
        else:
            query = net = edit(rng, net, op, i)
        plan_matches_full_compare(last, query)
        try:
            want = cold.analyze(query)
        except InstabilityError:
            continue
        assert reports_identical(engine.analyze(query), want)
        last = query


def test_sibling_candidates_plan_from_their_edits():
    net = random_multicomponent(4, 4, 4, 8)
    rng = random.Random(1)
    engine = IncrementalEngine(DecomposedAnalysis())
    engine.analyze(net)
    for i in range(6):
        candidate = net.with_flow(light_flow(rng, net, f"cand{i}"))
        assert candidate.last_edit.parent == net.version
        plan_matches_full_compare(engine._memo.network, candidate)
        assert reports_identical(engine.analyze(candidate),
                                 DecomposedAnalysis().analyze(candidate))


def test_edit_record_names_flows_not_networks():
    net = random_multicomponent(2, 2, 3, 4)
    name = sorted(net.flows)[0]
    child = net.without_flow(name)
    assert child.last_edit.parent == net.version
    assert child.last_edit.dropped == (net.flows[name],)
    assert child.last_edit.added == ()
    assert net.last_edit is None
    swapped = net.replace_server(ServerSpec(0, capacity=2.0))
    assert swapped.last_edit is None


def test_edit_chain_keeps_no_ancestor_alive():
    """An edit record must not pin its parent: after 200 edits through
    an engine, the first network is garbage."""
    net = random_multicomponent(5, 4, 4, 8)
    first = weakref.ref(net)
    rng = random.Random(3)
    engine = IncrementalEngine(DecomposedAnalysis())
    engine.analyze(net)
    for i in range(200):
        if i % 2:
            net = net.without_flow(f"n{i - 1}")
        else:
            net = net.with_flow(light_flow(rng, net, f"n{i}"))
        engine.analyze(net)
    gc.collect()
    assert first() is None
