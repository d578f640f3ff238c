"""Unit tests for admission control (the paper's motivating application)."""

import math
import time

import pytest

from repro.admission.controller import AdmissionController
from repro.admission.requests import AdmissionDecision, ConnectionRequest
from repro.analysis.base import Analyzer
from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.errors import AdmissionError, AnalysisError
from repro.network.flow import Flow
from repro.network.topology import Network, ServerSpec
from repro.resilience.faults import ServerDegradation, ServerFailure


class FailingAnalyzer(Analyzer):
    """Raises on every analysis (a broken primary)."""

    name = "failing"

    def __init__(self, exc_type=AnalysisError):
        self.exc_type = exc_type
        self.calls = 0

    def analyze(self, network, *, ctx):
        self.calls += 1
        raise self.exc_type("deliberately broken")


class SlowAnalyzer(Analyzer):
    """Sleeps past any reasonable budget, checkpointing between slices."""

    name = "slow"

    def __init__(self, delay=5.0):
        self.delay = delay

    def analyze(self, network, *, ctx):
        end = time.monotonic() + self.delay
        while time.monotonic() < end:
            time.sleep(0.01)
            ctx.checkpoint("slow analysis")
        return DecomposedAnalysis().analyze(network, ctx=ctx)


TB = TokenBucket(1.0, 0.1, peak=1.0)


def empty_net(n=2):
    return Network([ServerSpec(k) for k in range(1, n + 1)], [])


def request(name, deadline=20.0, rho=0.1, path=(1, 2)):
    # no peak limit: even a lone connection has a positive delay bound
    return ConnectionRequest(name, TokenBucket(1.0, rho), path, deadline)


class TestRequests:
    def test_valid(self):
        r = request("r")
        assert r.deadline == 20.0

    def test_rejects_empty_name(self):
        with pytest.raises(AdmissionError):
            ConnectionRequest("", TB, (1,), 5.0)

    def test_rejects_infinite_deadline(self):
        with pytest.raises(AdmissionError):
            ConnectionRequest("r", TB, (1,), math.inf)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(AdmissionError):
            ConnectionRequest("r", TB, (1,), 0.0)


class TestController:
    def test_admits_feasible(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        dec = ctl.admit(request("a"))
        assert dec.admitted and "a" in ctl.network.flows
        assert math.isfinite(dec.new_flow_bound)

    def test_test_does_not_commit(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        assert ctl.test(request("a")).admitted
        assert "a" not in ctl.network.flows

    def test_rejects_tight_deadline(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        dec = ctl.admit(request("a", deadline=1e-6))
        assert not dec.admitted
        assert "deadline violation" in dec.reason

    def test_rejects_overload(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        dec = ctl.admit(request("fat", rho=1.5))
        assert not dec.admitted and "overload" in dec.reason

    def test_rejects_duplicate_name(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        ctl.admit(request("a"))
        dec = ctl.admit(request("a"))
        assert not dec.admitted and "topology" in dec.reason

    def test_rejects_unknown_server(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        dec = ctl.admit(request("a", path=(1, 99)))
        assert not dec.admitted

    def test_protects_existing_deadlines(self):
        ctl = AdmissionController(empty_net(1), DecomposedAnalysis())
        # alone, `first` has bound sigma/C = 1.0: exactly its deadline
        first = request("first", deadline=1.0, rho=0.1, path=(1,))
        assert ctl.admit(first).admitted
        # a second bursty connection would push `first` past 1.0
        second = request("second", deadline=50.0, rho=0.1, path=(1,))
        dec = ctl.admit(second)
        assert not dec.admitted
        assert "first" in dec.reason

    def test_release(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        ctl.admit(request("a"))
        ctl.release("a")
        assert "a" not in ctl.network.flows
        assert ctl.admitted == ()

    def test_release_unknown_raises(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        with pytest.raises(AdmissionError):
            ctl.release("ghost")

    def test_release_preexisting_flow_not_admitted_here(self):
        """A flow present in the network but never admitted through the
        controller must not be releasable (it is not ours to tear down)."""
        established = Flow("legacy", TokenBucket(1.0, 0.1), (1, 2))
        net = empty_net().with_flow(established)
        ctl = AdmissionController(net, DecomposedAnalysis())
        with pytest.raises(AdmissionError):
            ctl.release("legacy")
        assert "legacy" in ctl.network.flows  # untouched

    def test_admit_commits_the_analyzed_candidate(self):
        """admit reuses the decision's candidate network (no second
        with_flow reconstruction)."""
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        dec = ctl.admit(request("a"))
        assert dec.candidate_network is not None
        assert ctl.network is dec.candidate_network

    def test_decision_reports_analyzer(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        assert ctl.admit(request("a")).analyzer == "decomposed"


class TestDegradedMode:
    def test_admit_is_atomic_under_raising_analyzer(self):
        """An analyzer crash mid-test leaves controller state unchanged."""
        ctl = AdmissionController(empty_net(),
                                  FailingAnalyzer(RuntimeError))
        before = ctl.network
        with pytest.raises(RuntimeError):
            ctl.admit(request("a"))
        assert ctl.network is before
        assert ctl.admitted == ()
        assert "a" not in ctl.network.flows

    def test_analysis_error_fails_closed_without_fallback(self):
        ctl = AdmissionController(empty_net(), FailingAnalyzer())
        dec = ctl.admit(request("a"))
        assert not dec.admitted
        assert "analysis failed" in dec.reason
        assert ctl.admitted == ()

    def test_fallback_chain_answers_on_analysis_error(self):
        primary = FailingAnalyzer()
        ctl = AdmissionController(empty_net(), primary,
                                  fallbacks=[DecomposedAnalysis()])
        dec = ctl.admit(request("a"))
        assert dec.admitted
        assert dec.analyzer == "decomposed"
        assert primary.calls == 1
        assert "a" in ctl.network.flows

    def test_budget_triggers_fallback(self):
        ctl = AdmissionController(empty_net(), SlowAnalyzer(delay=5.0),
                                  fallbacks=[DecomposedAnalysis()],
                                  analysis_budget=0.1)
        start = time.monotonic()
        dec = ctl.admit(request("a"))
        assert time.monotonic() - start < 4.0  # did not sit out the sleep
        assert dec.admitted and dec.analyzer == "decomposed"

    def test_whole_chain_failing_rejects(self):
        ctl = AdmissionController(empty_net(), FailingAnalyzer(),
                                  fallbacks=[FailingAnalyzer()])
        dec = ctl.admit(request("a"))
        assert not dec.admitted
        assert "every analyzer" in dec.reason

    def test_rejects_bad_budget(self):
        with pytest.raises(AdmissionError):
            AdmissionController(empty_net(), DecomposedAnalysis(),
                                analysis_budget=0.0)

    def test_primary_analyzer_property(self):
        primary = DecomposedAnalysis()
        ctl = AdmissionController(empty_net(), primary,
                                  fallbacks=[IntegratedAnalysis()])
        assert ctl.analyzer is primary


class TestSurvivabilityReport:
    def test_reports_over_admitted_connections(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        assert ctl.admit(request("a", deadline=20.0)).admitted
        report = ctl.survivability_report([ServerDegradation(1, 0.9),
                                           ServerFailure(1)])
        assert len(report.outcomes) == 2
        statuses = {v.flow: v.status
                    for v in report.outcomes[1].verdicts}
        assert statuses["a"] == "severed"

    def test_mild_fault_keeps_admitted_deadlines(self):
        ctl = AdmissionController(empty_net(), DecomposedAnalysis())
        assert ctl.admit(request("a", deadline=1e6)).admitted
        report = ctl.survivability_report(
            [ServerDegradation(1, 0.99)])
        assert report.survives


class TestCapacityGain:
    def test_integrated_admits_at_least_as_many(self):
        """The operational payoff: a tighter analysis admits more."""
        deadline = 14.0

        def make(k):
            return request(f"c{k}", deadline=deadline, rho=0.02,
                           path=(1, 2))

        n_dec = AdmissionController(empty_net(), DecomposedAnalysis()) \
            .admissible_count(make, max_tries=60)
        n_int = AdmissionController(empty_net(), IntegratedAnalysis()) \
            .admissible_count(make, max_tries=60)
        assert n_int >= n_dec
        assert n_dec >= 1

    def test_admissible_count_stops_on_rejection(self):
        ctl = AdmissionController(empty_net(1), DecomposedAnalysis())

        def make(k):
            return request(f"c{k}", deadline=3.0, rho=0.2, path=(1,))

        n = ctl.admissible_count(make, max_tries=10)
        assert 1 <= n < 10
