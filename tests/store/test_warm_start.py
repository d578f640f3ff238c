"""Warm-start integration: every store-served bound is bit-identical
to the cold analysis, across engines, pools, sweeps and services.

These are the differential fuzz tests the store's contract rests on:
a store hit replays the exact bytes the cold computation would have
produced — down to ``float.hex`` — or it does not count as a hit.
"""

import pytest

from repro.admission.controller import AdmissionController
from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis
from repro.curves.kernels import use_kernel
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine, reports_identical
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.tandem import CONNECTION0, build_tandem
from repro.network.topology import Network, ServerSpec
from repro.store import AnalysisStore


def bounds_hex(report, net):
    return {f.name: report.delay_of(f.name).hex()
            for f in net.iter_flows()}


class TestEngineWarmStart:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_warm_engine_is_bit_identical_to_cold(self, tmp_path, seed):
        net = random_feedforward(seed, n_servers=6, n_flows=10,
                                 max_utilization=0.8)
        cold = DecomposedAnalysis().analyze(net)

        # process 1: cold engine populates the store
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            first = eng.analyze(net)

        # process 2 (simulated restart): fresh engine, warm store
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            warm = eng.analyze(net)
            assert eng.stats.store_hits > 0
            assert eng.stats.misses == 0  # nothing recomputed
        assert reports_identical(first, cold)
        assert reports_identical(warm, cold)
        assert bounds_hex(warm, net) == bounds_hex(cold, net)

    def test_integrated_blocks_warm_start(self, tmp_path):
        net = build_tandem(4, 0.7, 1.0)
        cold = IntegratedAnalysis().analyze(net)
        with AnalysisStore(tmp_path / "s") as store:
            IncrementalEngine(IntegratedAnalysis(),
                              store=store).analyze(net)
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(IntegratedAnalysis(), store=store)
            warm = eng.analyze(net)
            assert eng.stats.store_hits > 0
        assert bounds_hex(warm, net) == bounds_hex(cold, net)

    def test_admissions_reuse_the_store_across_restarts(self, tmp_path):
        net = build_tandem(4, 0.5, 1.0)
        extra = Flow("extra", TokenBucket(1.0, 0.2), (1, 2, 3),
                     deadline=60.0)
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            eng.analyze(net)
            first = eng.analyze(net.with_flow(extra))
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            eng.analyze(net)
            again = eng.analyze(net.with_flow(extra))
            assert eng.stats.misses == 0
        assert reports_identical(first, again)

    def test_read_only_store_never_writes(self, tmp_path):
        net = build_tandem(3, 0.5, 1.0)
        AnalysisStore(tmp_path / "s").close()
        with AnalysisStore(tmp_path / "s", read_only=True) as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            warm = eng.analyze(net)
            assert store.stats.writes == 0
        assert reports_identical(warm, DecomposedAnalysis().analyze(net))

    def test_corrupt_store_falls_back_to_recompute(self, tmp_path):
        net = build_tandem(4, 0.6, 1.0)
        cold = DecomposedAnalysis().analyze(net)
        with AnalysisStore(tmp_path / "s") as store:
            IncrementalEngine(DecomposedAnalysis(),
                              store=store).analyze(net)
        # flip a byte in every segment payload region
        for seg in (tmp_path / "s").glob("seg-*.dat"):
            blob = bytearray(seg.read_bytes())
            for i in range(len(blob) // 2, len(blob), 97):
                blob[i] ^= 0xFF
            seg.write_bytes(bytes(blob))
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            warm = eng.analyze(net)  # never crashes, never a wrong bound
        assert bounds_hex(warm, net) == bounds_hex(cold, net)


class TestKernelTagging:
    def test_exact_and_grid_never_alias(self, tmp_path):
        net = build_tandem(3, 0.7, 1.0)
        cold_exact = DecomposedAnalysis().analyze(net)
        with use_kernel("grid"):
            cold_grid = DecomposedAnalysis().analyze(net)
        # sanity: the kernels genuinely disagree on this topology, so
        # aliasing would be observable
        assert (cold_exact.delay_of(CONNECTION0)
                != cold_grid.delay_of(CONNECTION0))

        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            eng.analyze(net)
        with AnalysisStore(tmp_path / "s") as store:
            eng = IncrementalEngine(DecomposedAnalysis(), store=store)
            with use_kernel("grid"):
                warm_grid = eng.analyze(net)
            assert eng.stats.store_hits == 0  # exact entries don't alias
            warm_exact = eng.analyze(net)
        assert (warm_grid.delay_of(CONNECTION0).hex()
                == cold_grid.delay_of(CONNECTION0).hex())
        assert (warm_exact.delay_of(CONNECTION0).hex()
                == cold_exact.delay_of(CONNECTION0).hex())


def decision_key(d):
    return (d.admitted, d.reason,
            None if d.new_flow_bound is None else d.new_flow_bound.hex())


class TestBatchPoolStore:
    def disjoint_net(self, tandems=3, hops=3):
        servers = [ServerSpec(t * hops + k) for t in range(tandems)
                   for k in range(1, hops + 1)]
        flows = [Flow(f"f{t}", TokenBucket(1.0, 0.3),
                      tuple(range(t * hops + 1, t * hops + hops + 1)),
                      deadline=60.0)
                 for t in range(tandems)]
        return Network(servers, flows)

    def requests(self, tandems=3, hops=3):
        return [ConnectionRequest(f"r{t}_{k}", TokenBucket(0.5, 0.05),
                                  tuple(range(t * hops + 1,
                                              t * hops + hops + 1)),
                                  60.0)
                for k in range(2) for t in range(tandems)]

    def test_pool_workers_populate_the_store(self, tmp_path):
        net, reqs = self.disjoint_net(), self.requests()
        serial_ctrl = AdmissionController(net, DecomposedAnalysis())
        serial = [decision_key(serial_ctrl.admit(r)) for r in reqs]

        ctx = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            ctrl = AdmissionController(net, DecomposedAnalysis(),
                                       store=store)
            cold = ctrl.admit_batch(reqs, workers=2, ctx=ctx)
            assert ctx.metrics.get("parallel.batch_groups") >= 2
            assert ctx.metrics.get("store.writes") > 0
        assert [decision_key(d) for d in cold] == serial

        ctx2 = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            ctrl = AdmissionController(net, DecomposedAnalysis(),
                                       store=store)
            warm = ctrl.admit_batch(reqs, workers=2, ctx=ctx2)
            assert ctx2.metrics.get("parallel.batch_groups") >= 2
            assert ctx2.metrics.get("store.hits") > 0
            assert ctx2.metrics.get("store.writes") == 0
        assert [decision_key(d) for d in warm] == serial


class TestServiceWarmBoot:
    def request(self, k, hops=4, rho=0.02, deadline=30.0):
        return ConnectionRequest(
            f"conn_{k}", TokenBucket(1.0, rho, peak=1.0),
            tuple(range(1, hops + 1)), deadline)

    def empty_net(self, hops=4):
        return Network([ServerSpec(k) for k in range(1, hops + 1)], [])

    def test_recovery_consults_the_store(self, tmp_path):
        from repro.service import AdmissionService, recover_service

        jdir = tmp_path / "journal"
        with AnalysisStore(tmp_path / "s") as store:
            service = AdmissionService(
                self.empty_net(), IntegratedAnalysis(),
                journal_dir=jdir, store=store)
            outcomes = [service.admit(self.request(k)) for k in range(4)]
            assert all(o.admitted for o in outcomes)
            service.close()

        # crash-recover with the warm store: bounds must re-verify
        # bit-identically (float.hex inside verify_recovery)
        ctx = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            recovered = recover_service(jdir, store=store, ctx=ctx)
            assert sorted(recovered.admitted) == [
                f"conn_{k}" for k in range(4)]
            recovered.close()
            assert ctx.metrics.get("store.hits") > 0

    def test_recovery_with_cold_store_still_verifies(self, tmp_path):
        from repro.service import AdmissionService, recover_service

        jdir = tmp_path / "journal"
        service = AdmissionService(self.empty_net(),
                                   IntegratedAnalysis(),
                                   journal_dir=jdir)
        for k in range(3):
            service.admit(self.request(k))
        service.close()
        with AnalysisStore(tmp_path / "cold") as store:
            recovered = recover_service(jdir, store=store)
            assert len(recovered.admitted) == 3
            recovered.close()

    def test_batch_admission_ships_records_to_parent(self, tmp_path):
        from repro.service import AdmissionService

        hops, tandems = 3, 2
        servers = [ServerSpec(t * hops + k) for t in range(tandems)
                   for k in range(1, hops + 1)]

        def request(k):
            base = (k % tandems) * hops
            return ConnectionRequest(
                f"conn_{k}", TokenBucket(1.0, 0.02, peak=1.0),
                tuple(range(base + 1, base + hops + 1)), 30.0)

        ctx = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            service = AdmissionService(
                Network(servers, []), DecomposedAnalysis(),
                journal_dir=tmp_path / "j1", store=store, ctx=ctx)
            serial_outcomes = [
                o.admitted for o in (service.admit(request(k))
                                     for k in range(4))]
            service.close()
            assert len(store) > 0

        ctx2 = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            service = AdmissionService(
                Network(servers, []), DecomposedAnalysis(),
                journal_dir=tmp_path / "j2", store=store, ctx=ctx2)
            outcomes = service.admit_batch([request(k) for k in range(4)],
                                           workers=2)
            service.close()
        assert [o.admitted for o in outcomes] == serial_outcomes


class TestSweepMemoization:
    GRID = dict(hops=[2, 3], loads=[0.3, 0.6], sigma=1.0)

    def run(self, store, parallel=False, ctx=None):
        from repro.eval.parallel import evaluate_grid

        return evaluate_grid(
            ["integrated", "decomposed"], self.GRID["hops"],
            self.GRID["loads"], sigma=self.GRID["sigma"],
            parallel=parallel, store=store,
            ctx=ctx if ctx is not None else AnalysisContext(
                metrics=MetricsRegistry()))

    def test_serial_sweep_memoizes_across_runs(self, tmp_path):
        cold = self.run(None)
        with AnalysisStore(tmp_path / "s") as store:
            first = self.run(store)
        ctx = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            warm = self.run(store, ctx=ctx)
            assert ctx.metrics.get("store.writes") == 0
        for c, f, w in zip(cold, first, warm):
            assert (c.analyzer, c.n_hops, c.load) == \
                   (w.analyzer, w.n_hops, w.load)
            assert c.delay.hex() == f.delay.hex() == w.delay.hex()

    def test_parallel_sweep_reuses_serial_entries(self, tmp_path):
        cold = self.run(None)
        with AnalysisStore(tmp_path / "s") as store:
            self.run(store)  # serial warm-up
        ctx = AnalysisContext(metrics=MetricsRegistry())
        with AnalysisStore(tmp_path / "s") as store:
            warm = self.run(store, parallel=True, ctx=ctx)
            assert ctx.metrics.get("store.writes") == 0
        for c, w in zip(cold, warm):
            assert c.delay.hex() == w.delay.hex()
