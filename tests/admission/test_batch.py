"""Parallel batch admission: serial equivalence and safe fallbacks.

The contract under test (``repro.admission.batch``): for any batch,
``admit_batch(requests, workers=N)`` produces the *same decisions* as
the serial ``admit`` loop — admitted flags, reason strings, bounds down
to ``float.hex`` — and commits the same final network.  Whenever the
planner cannot guarantee that, it must return ``None`` and the batch
must take the serial loop unchanged.
"""

import math
import os

import numpy as np
import pytest

from repro.admission import batch
from repro.admission.batch import plan_batch
from repro.admission.controller import AdmissionController
from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, Deadline, MetricsRegistry
from repro.curves.token_bucket import TokenBucket
from repro.engine import reports_identical
from repro.network.generators import random_multicomponent

N_COMPONENTS = 4
SPC = 4  # servers per component


def workload(seed: int, deadline_slack: float = math.inf):
    """A multi-component baseline; optionally tighten flow deadlines to
    ``bound * deadline_slack`` so later admissions can violate them."""
    net = random_multicomponent(seed, n_components=N_COMPONENTS,
                                servers_per_component=SPC,
                                flows_per_component=5,
                                max_utilization=0.6)
    if math.isinf(deadline_slack):
        return net
    report = DecomposedAnalysis().analyze(net)
    from repro.network import Flow, Network
    flows = [Flow(f.name, f.bucket, f.path,
                  report.delay_of(f.name) * deadline_slack, f.priority)
             for f in net.flows.values()]
    return Network(list(net.servers.values()), flows)


def make_requests(seed: int, n: int, *, deadline: float = 100.0,
                  sigma: float = 0.5, rho: float = 0.05):
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(n):
        c = int(rng.integers(0, N_COMPONENTS))
        a = int(rng.integers(0, SPC))
        b = int(rng.integers(a, SPC))
        path = tuple(range(c * SPC + a, c * SPC + b + 1))
        reqs.append(ConnectionRequest(
            f"new{i}", TokenBucket(sigma, rho, peak=1.0), path, deadline))
    return reqs


_REAL_ADMIT_GROUP = batch._admit_group


def _dying_group(payload):
    """A pool worker that dies mid-group (reaches workers through fork)."""
    os._exit(3)


def _raising_group(payload):
    """Raise in the group holding request 0; every other group runs."""
    if payload[1][0][0] == 0:
        raise RuntimeError("worker bug")
    return _REAL_ADMIT_GROUP(payload)


def decisions_equal(serial, parallel):
    if len(serial) != len(parallel):
        return False
    for s, p in zip(serial, parallel):
        if s.admitted != p.admitted or s.reason != p.reason:
            return False
        sb, pb = s.new_flow_bound, p.new_flow_bound
        if (sb is None) != (pb is None):
            return False
        if sb is not None and float(sb).hex() != float(pb).hex():
            return False
    return True


def run_both(net, requests, **kwargs):
    serial_ctrl = AdmissionController(net, DecomposedAnalysis(), **kwargs)
    par_ctrl = AdmissionController(net, DecomposedAnalysis(), **kwargs)
    ctx = AnalysisContext(metrics=MetricsRegistry())
    d_serial = serial_ctrl.admit_batch(requests, workers=1)
    d_par = par_ctrl.admit_batch(requests, workers=3, ctx=ctx)
    return d_serial, d_par, serial_ctrl, par_ctrl, ctx


class TestSerialEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_admitted_fuzz(self, seed):
        net = workload(seed)
        d_s, d_p, c_s, c_p, ctx = run_both(net, make_requests(seed, 8))
        assert decisions_equal(d_s, d_p)
        assert c_s.admitted == c_p.admitted
        assert ctx.metrics.get("parallel.batch_groups") >= 2
        assert reports_identical(
            DecomposedAnalysis().analyze(c_s.network),
            DecomposedAnalysis().analyze(c_p.network))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_rejections_fuzz(self, seed):
        # heavy requests against tight existing deadlines: a mix of
        # admissions, requested-connection and existing-connection
        # deadline rejections
        net = workload(seed, deadline_slack=1.10)
        reqs = make_requests(seed + 50, 10, deadline=2.0,
                             sigma=2.0, rho=0.1)
        d_s, d_p, c_s, c_p, _ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert c_s.admitted == c_p.admitted
        reasons = {d.reason.split(":")[0] for d in d_s}
        assert "deadline violation" in reasons  # the mix materialized

    def test_sequential_within_component(self):
        # several requests on one path: later ones must see earlier
        # admissions (worker-local commit order)
        net = workload(9, deadline_slack=1.6)
        path = tuple(range(0, SPC))
        other = tuple(range(SPC, 2 * SPC))
        reqs = [ConnectionRequest(f"s{i}", TokenBucket(1.0, 0.08, peak=1.0),
                                  path if i % 2 == 0 else other, 3.0)
                for i in range(6)]
        d_s, d_p, c_s, c_p, _ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert c_s.admitted == c_p.admitted

    def test_duplicate_name_within_batch(self):
        net = workload(2)
        reqs = make_requests(2, 6)
        clone = ConnectionRequest("new0", reqs[1].bucket, reqs[0].path,
                                  100.0)
        reqs.append(clone)  # same name, same component as new0
        d_s, d_p, c_s, c_p, _ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert "duplicate flow name" in d_p[-1].reason

    def test_duplicate_of_baseline_flow(self):
        net = workload(4)
        existing = next(iter(net.flows))
        reqs = make_requests(4, 5)
        reqs.append(ConnectionRequest(existing,
                                      TokenBucket(0.5, 0.01, peak=1.0),
                                      (0, 1), 100.0))
        d_s, d_p, *_ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert not d_p[-1].admitted
        assert "duplicate flow name" in d_p[-1].reason

    def test_unknown_server_request(self):
        net = workload(6)
        reqs = make_requests(6, 5)
        reqs.append(ConnectionRequest("ghost",
                                      TokenBucket(0.5, 0.01, peak=1.0),
                                      (0, 777), 100.0))
        d_s, d_p, *_ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert "unknown server" in d_p[-1].reason

    def test_overload_rejection(self):
        net = workload(7)
        reqs = make_requests(7, 5)
        # rho near capacity: with_flow passes, stability check trips
        reqs.append(ConnectionRequest("hog",
                                      TokenBucket(0.5, 0.97, peak=1.0),
                                      (0, 1), 100.0))
        d_s, d_p, *_ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert d_p[-1].reason.startswith("overload:")


class TestFallbacks:
    def test_single_group_returns_none(self):
        net = workload(1)
        path = tuple(range(0, SPC))
        reqs = [ConnectionRequest(f"x{i}", TokenBucket(0.5, 0.02, peak=1.0),
                                  path, 100.0) for i in range(4)]
        ctrl = AdmissionController(net, DecomposedAnalysis())
        assert plan_batch(ctrl, reqs, workers=2,
                          ctx=AnalysisContext()) is None
        # ... and admit_batch still answers correctly through the loop
        d_s, d_p, c_s, c_p, _ = run_both(net, reqs)
        assert decisions_equal(d_s, d_p)
        assert c_s.admitted == c_p.admitted

    def test_deadline_ctx_returns_none(self):
        net = workload(1)
        ctrl = AdmissionController(net, DecomposedAnalysis())
        ctx = AnalysisContext().with_deadline(Deadline(30.0, "batch"))
        assert plan_batch(ctrl, make_requests(1, 4), workers=2,
                          ctx=ctx) is None

    def test_unstable_baseline_returns_none(self):
        net = workload(1)
        from repro.network import Flow
        hog = Flow("hog", TokenBucket(0.5, 0.96, peak=1.0), (0, 1))
        unstable_ish = net.with_flow(hog)  # near/over the edge
        ctrl = AdmissionController(unstable_ish, DecomposedAnalysis())
        result = plan_batch(ctrl, make_requests(1, 4), workers=2,
                            ctx=AnalysisContext())
        # either the baseline is outright unstable (None) or it still
        # plans; both are fine — what matters is serial equivalence
        if result is None:
            return
        d_s, d_p, *_ = run_both(unstable_ish, make_requests(1, 4))
        assert decisions_equal(d_s, d_p)

    def test_baseline_deadline_violation_returns_none(self):
        net = workload(1, deadline_slack=0.5)  # every flow already late
        ctrl = AdmissionController(net, DecomposedAnalysis())
        assert plan_batch(ctrl, make_requests(1, 4), workers=2,
                          ctx=AnalysisContext()) is None

    def test_non_decomposed_primary_returns_none(self):
        from repro.core.integrated import IntegratedAnalysis
        net = workload(1)
        ctrl = AdmissionController(net, IntegratedAnalysis())
        assert plan_batch(ctrl, make_requests(1, 4), workers=2,
                          ctx=AnalysisContext()) is None

    def test_gated_off_primary_returns_none(self):
        net = workload(1)
        ctrl = AdmissionController(net, DecomposedAnalysis(),
                                   analyzer_gate=lambda a: False)
        assert plan_batch(ctrl, make_requests(1, 4), workers=2,
                          ctx=AnalysisContext()) is None


class TestEngineSeeding:
    def test_batch_seeds_engine_cache(self):
        net = workload(3)
        ctrl = AdmissionController(net, DecomposedAnalysis(),
                                   incremental=True)
        ctx = AnalysisContext(metrics=MetricsRegistry())
        reqs = make_requests(3, 8)
        decisions = ctrl.admit_batch(reqs, workers=3, ctx=ctx)
        assert ctx.metrics.get("parallel.batch_groups") >= 2
        assert any(d.admitted for d in decisions)
        # the engine answer over the committed network must still be
        # bit-identical to a cold analysis (seeded cache changes cost,
        # never bits)
        engine_report = ctrl.engine.run(ctrl.network, AnalysisContext())
        cold = DecomposedAnalysis().analyze(ctrl.network)
        assert reports_identical(engine_report, cold)

    def test_seed_cache_first_write_wins(self):
        from repro.engine import IncrementalEngine
        net = workload(3)
        engine = IncrementalEngine(DecomposedAnalysis())
        engine.analyze(net)  # warm
        # seeding a key that exists must not overwrite
        added = engine.seed_cache([(b"nonexistent-key", object(), 0.1)])
        assert added == 1
        assert engine.seed_cache([(b"nonexistent-key", object(),
                                   0.2)]) == 0


class TestWorkerFailures:
    """A group whose worker fails reruns serially with serial decisions."""

    def _run(self, net, reqs, **kwargs):
        d_s, d_p, c_s, c_p, ctx = run_both(net, reqs, **kwargs)
        assert decisions_equal(d_s, d_p)
        assert c_s.admitted == c_p.admitted
        return ctx.metrics

    def test_dead_worker_reruns_serially(self, monkeypatch):
        monkeypatch.setattr(batch, "_admit_group", _dying_group)
        metrics = self._run(workload(0), make_requests(0, 8))
        groups = metrics.get("parallel.batch_groups")
        assert groups >= 2
        assert metrics.get("parallel.group_serial_reruns") == groups

    def test_raising_worker_reruns_its_group_serially(self, monkeypatch):
        monkeypatch.setattr(batch, "_admit_group", _raising_group)
        metrics = self._run(workload(1), make_requests(1, 8))
        assert metrics.get("parallel.batch_groups") >= 2
        assert metrics.get("parallel.group_serial_reruns") == 1

    def test_worker_analysis_error_reruns_serially(self):
        # a 1 ns budget expires at the first cooperative check in every
        # worker; the serial rerun fails closed with the same reasons
        net, reqs = workload(2), make_requests(2, 8)
        d_s, d_p, c_s, c_p, ctx = run_both(net, reqs,
                                           analysis_budget=1e-9)
        assert decisions_equal(d_s, d_p)
        assert all(d.reason.startswith("analysis failed:") for d in d_p)
        groups = ctx.metrics.get("parallel.batch_groups")
        assert groups >= 2
        assert ctx.metrics.get("parallel.group_serial_reruns") == groups
        assert ctx.metrics.get("admission.analyzer_failures") == len(reqs)


class TestWorkerReuse:
    def test_repeated_key_in_a_group_is_computed_once(self, monkeypatch):
        # two requests in one component: the second request's analysis
        # steps every server the second path does not reach on the very
        # inputs the first request's analysis already stepped
        from repro.engine import parallel, subnetwork

        net = workload(4)
        comp = tuple(range(SPC))
        reqs = [ConnectionRequest("a", TokenBucket(0.5, 0.05, peak=1.0),
                                  comp[:2], 100.0),
                ConnectionRequest("b", TokenBucket(0.5, 0.05, peak=1.0),
                                  comp[2:], 100.0)]
        subnet = subnetwork(net, comp)
        lookups, computed = [], []
        key_fn, step_fn = parallel._server_key, parallel.server_step
        monkeypatch.setattr(parallel, "_server_key",
                            lambda si: lookups.append(1) or key_fn(si))
        monkeypatch.setattr(parallel, "server_step",
                            lambda si: computed.append(1) or step_fn(si))
        out = batch._admit_group((subnet, list(enumerate(reqs)), False,
                                  None, True, None))
        assert out["ok"]
        assert len(lookups) > len(computed)  # a key repeated ...
        assert len(computed) == len(out["records"])  # ... computed once

        serial = AdmissionController(subnet, DecomposedAnalysis())
        expected = []
        for i, request in enumerate(reqs):
            d = serial.admit(request)
            expected.append((i, d.admitted, d.reason,
                             float(d.new_flow_bound).hex()))
        got = [(i, admitted, reason, float(bound).hex())
               for i, admitted, reason, bound, _ in out["decisions"]]
        assert got == expected
        assert all(admitted for _, admitted, *_ in got)
