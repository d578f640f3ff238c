"""Unit tests for the incremental analysis engine."""

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import (
    IncrementalEngine,
    affected_cone,
    describe_report_difference,
    reports_identical,
)
from repro.errors import AnalysisError, EngineError
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.topology import Network, ServerSpec


def tandem(n=4, capacity=10.0):
    return Network([ServerSpec(k, capacity=capacity)
                    for k in range(1, n + 1)], [])


def flow(name, path, rho=0.5, deadline=60.0):
    return Flow(name, TokenBucket(1.0, rho), tuple(path),
                deadline=deadline)


class TestEngineBasics:
    def test_query_matches_cold(self):
        net = tandem().with_flow(flow("a", [1, 2, 3]))
        cold = DecomposedAnalysis().analyze(net)
        eng = IncrementalEngine(DecomposedAnalysis())
        assert reports_identical(eng.analyze(net), cold)
        assert eng.stats.queries == 1 and eng.stats.misses > 0

    def test_repeated_query_is_memoized(self):
        net = tandem().with_flow(flow("a", [1, 2]))
        eng = IncrementalEngine(DecomposedAnalysis())
        first = eng.analyze(net)
        misses = eng.stats.misses
        assert eng.analyze(net) is first
        assert eng.stats.misses == misses  # nothing recomputed

    def test_admit_release_roundtrip_hits_cache(self):
        net = tandem().with_flow(flow("a", [1, 2, 3, 4]))
        eng = IncrementalEngine(DecomposedAnalysis())
        baseline = eng.analyze(net)
        grown = net.with_flow(flow("b", [2, 3]))
        eng.analyze(grown)
        back = eng.analyze(grown.without_flow("b"))
        assert reports_identical(back, baseline)
        assert eng.stats.hits > 0  # release returned to cached states

    def test_admit_batch_single_sweep(self):
        net = tandem().with_flow(flow("a", [1, 2]))
        eng = IncrementalEngine(DecomposedAnalysis())
        eng.analyze(net)
        queries = eng.stats.queries
        both = net.with_flow(flow("b", [2, 3])).with_flow(flow("c", [3, 4]))
        report = eng.analyze(both)
        assert eng.stats.queries == queries + 1
        assert set(report.delays) == {"a", "b", "c"}
        assert reports_identical(report, DecomposedAnalysis().analyze(both))

    def test_engine_error_is_analysis_error(self):
        assert issubclass(EngineError, AnalysisError)

    def test_no_nested_engines(self):
        inner = IncrementalEngine(DecomposedAnalysis())
        with pytest.raises(EngineError):
            IncrementalEngine(inner)


class TestFallback:
    def test_unsupported_analyzer_falls_back_cold(self):
        net = tandem().with_flow(flow("a", [1, 2]))
        eng = IncrementalEngine(ServiceCurveAnalysis())
        assert not eng.supports_incremental
        cold = ServiceCurveAnalysis().analyze(net)
        assert reports_identical(eng.analyze(net), cold)
        assert eng.stats.fallbacks == 1
        assert eng.stats.misses == 0  # nothing went through the cache

    def test_config_change_invalidates_fast_reuse(self):
        net = tandem().with_flow(flow("a", [1, 2]))
        analyzer = DecomposedAnalysis()
        eng = IncrementalEngine(analyzer)
        eng.analyze(net)
        analyzer.capped_propagation = True
        capped = eng.analyze(net)
        cold = DecomposedAnalysis(capped_propagation=True).analyze(net)
        assert reports_identical(capped, cold)


class TestIntegratedEngine:
    def test_integrated_query_matches_cold(self):
        net = random_feedforward(seed=9, n_servers=6, n_flows=8)
        cold = IntegratedAnalysis().analyze(net)
        eng = IncrementalEngine(IntegratedAnalysis())
        assert reports_identical(eng.analyze(net), cold)

    def test_integrated_release_matches_cold(self):
        net = random_feedforward(seed=9, n_servers=6, n_flows=8)
        eng = IncrementalEngine(IntegratedAnalysis())
        eng.analyze(net)
        name = sorted(net.flows)[2]
        got = eng.analyze(net.without_flow(name))
        cold = IntegratedAnalysis().analyze(net.without_flow(name))
        assert reports_identical(got, cold)


class TestDependencyGraph:
    """The dependency graph is the network's own incidence and server
    graph; :func:`affected_cone` closes a change over it."""

    def test_flows_at_and_closure(self):
        net = tandem(4).with_flow(flow("a", [1, 2])) \
                       .with_flow(flow("b", [3, 4]))
        assert [f.name for f in net.flows_at(1)] == ["a"]
        assert [f.name for f in net.flows_at(3)] == ["b"]
        assert list(net.successors(1)) == [2]
        assert list(net.successors(2)) == []
        assert affected_cone(net, net, [flow("x", [1])]) == {1, 2}

    def test_affected_cone_covers_both_snapshots(self):
        old = tandem(4).with_flow(flow("a", [1, 2]))
        moved = flow("a", [3, 4])
        new = tandem(4).with_flow(moved)
        cone = affected_cone(old, new, [old.flows["a"], moved])
        assert cone == {1, 2, 3, 4}

    def test_cone_excludes_untouched_upstream(self):
        net = tandem(4).with_flow(flow("a", [1, 2, 3, 4]))
        cone = affected_cone(net, net, [flow("x", [3])])
        assert cone == {3, 4}  # 1 and 2 stay clean

    def test_closure_follows_each_snapshot_separately(self):
        # the old graph reaches 2 first; the new one goes on to 3
        old = tandem(4).with_flow(flow("a", [1, 2]))
        new = old.with_flow(flow("b", [2, 3]))
        assert affected_cone(old, new, [flow("x", [1])]) == {1, 2, 3}
        assert affected_cone(new, old, [flow("x", [1])]) == {1, 2, 3}


class TestReportComparison:
    def test_identical_and_difference_description(self):
        net = tandem().with_flow(flow("a", [1, 2]))
        r1 = DecomposedAnalysis().analyze(net)
        r2 = DecomposedAnalysis().analyze(net)
        assert reports_identical(r1, r2)
        assert describe_report_difference(r1, r2) is None
        r3 = DecomposedAnalysis().analyze(
            net.with_flow(flow("b", [1, 2])))
        assert not reports_identical(r1, r3)
        assert "flow sets differ" in describe_report_difference(r1, r3)


class TestControllerIntegration:
    def test_incremental_controller_same_decisions(self):
        from repro.admission.controller import AdmissionController
        from repro.admission.requests import ConnectionRequest

        def make(k):
            return ConnectionRequest(
                f"c{k}", TokenBucket(1.0, 0.02, peak=1.0),
                (1, 2, 3, 4), 30.0)

        cold = AdmissionController(tandem(), DecomposedAnalysis())
        inc = AdmissionController(tandem(), DecomposedAnalysis(),
                                  incremental=True)
        assert inc.engine is not None and inc.engine_stats is not None
        n_cold = cold.admissible_count(make, max_tries=40)
        n_inc = inc.admissible_count(make, max_tries=40)
        assert n_cold == n_inc
        assert inc.engine_stats.queries > 0
        assert cold.engine is None and cold.engine_stats is None

    def test_cli_admit_incremental(self, capsys):
        from repro.cli import main

        rc = main(["admit", "--hops", "3", "--deadline", "25",
                   "--analyzer", "decomposed", "--incremental",
                   "--max", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "admitted" in out and "engine stats:" in out


class TestKernelFingerprint:
    """The thread's kernel is part of the engine's memo identity.

    The engine fingerprints queries with the thread's kernel, and
    content keys carry the kernel captured at build time — a query in
    the oracles' ``grid`` scope must never replay results computed
    under ``exact``, or the other way round.
    """

    NET = tandem().with_flow(flow("a", [1, 2, 3, 4], rho=2.0))

    def test_scope_kernel_separates_memo_entries(self):
        from repro.curves.kernels import use_kernel

        eng = IncrementalEngine(DecomposedAnalysis())
        exact = eng.analyze(self.NET)
        with use_kernel("grid"):
            grid = eng.analyze(self.NET)
        # the grid backend pads its bounds: strictly looser somewhere
        assert all(grid.delay_of(n) >= exact.delay_of(n) - 1e-12
                   for n in exact.delays)
        assert any(grid.delay_of(n) > exact.delay_of(n) + 1e-9
                   for n in exact.delays)
        # switching back must reproduce the exact run bit-identically,
        # not replay the grid one
        again = eng.analyze(self.NET)
        assert reports_identical(again, exact)

    def test_ambient_kernel_is_fingerprinted(self):
        from repro.curves.kernels import use_kernel

        eng = IncrementalEngine(DecomposedAnalysis())
        exact = eng.analyze(self.NET)
        with use_kernel("grid"):
            grid = eng.analyze(self.NET)
        assert not reports_identical(grid, exact)
        # a traced query in the same scope shares the memo identity
        from repro.context import AnalysisContext

        with use_kernel("grid"):
            again = eng.analyze(self.NET, ctx=AnalysisContext.tracing())
        assert reports_identical(again, grid)
