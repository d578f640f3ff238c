"""The plumbing both process pools share (``repro.engine.parallel``).

Induced subnetworks, store-backed worker interceptors and the parent's
single seed write.  The pools themselves are tested end to end in
``tests/admission/test_batch.py``, ``tests/eval/test_parallel.py`` and
``tests/store/test_warm_start.py``.
"""

import pytest

from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.propagation import build_server_input, server_step
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis, evaluate_block
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine, reports_identical, subnetwork
from repro.engine.parallel import store_interceptors, write_seeds
from repro.errors import EngineError, StoreError
from repro.network import Flow, Network, ServerSpec
from repro.store import AnalysisStore


def two_component_net() -> Network:
    bucket = TokenBucket(1.0, 0.2, peak=1.0)
    servers = [ServerSpec(k) for k in range(4)]
    flows = [Flow("left", bucket, (0, 1)),
             Flow("right", bucket, (2, 3))]
    return Network(servers, flows)


def metered() -> AnalysisContext:
    return AnalysisContext(metrics=MetricsRegistry())


def fresh_records(net: Network) -> list:
    """Seed records for every server step of a cold analysis of *net*."""
    records: dict = {}
    step, block = store_interceptors(None, records)
    DecomposedAnalysis().analyze(
        net, ctx=AnalysisContext().with_interceptors(step=step,
                                                     block=block))
    return list(records.values())


class TestSubnetwork:
    def test_induced_subnet_keeps_flows(self):
        net = two_component_net()
        sub = subnetwork(net, (0, 1))
        assert list(sub.servers) == [0, 1]
        assert list(sub.flows) == ["left"]

    def test_boundary_crossing_flow_rejected(self):
        net = two_component_net()
        with pytest.raises(EngineError, match="crosses the component"):
            subnetwork(net, (0,))  # "left" has a hop outside


class TestStoreInterceptors:
    def test_misses_are_collected_then_served(self, tmp_path):
        net = two_component_net()
        cold = DecomposedAnalysis().analyze(net)
        records = fresh_records(net)
        assert len(records) == len(net.servers)
        with AnalysisStore(tmp_path / "s") as store:
            store.seed(records)

        metrics = MetricsRegistry()
        again: dict = {}
        with AnalysisStore(tmp_path / "s", read_only=True) as store:
            step, _ = store_interceptors(store, again, metrics)
            warm = DecomposedAnalysis().analyze(
                net, ctx=AnalysisContext().with_interceptors(step=step))
        assert metrics.get("store.hits") == len(net.servers)
        assert metrics.get("store.misses") == 0
        assert again == {}
        assert reports_identical(warm, cold)


    def test_interceptors_build_their_input_on_demand(self):
        net = two_component_net()
        records: dict = {}
        step, block = store_interceptors(None, records)
        curve_at = {(f.name, f.path[0]): f.bucket.constraint_curve()
                    for f in net.iter_flows()}
        built: list = []

        def build_step():
            built.append("step")
            return build_server_input(net, 0, curve_at, False)

        def build_block():
            built.append("block")
            return IntegratedAnalysis().build_block_input(
                net, "singleton", (0,), curve_at)

        out = step(0, build_step)
        assert out == server_step(build_step())
        outcome = block("singleton", (0,), build_block)
        assert outcome == evaluate_block(build_block())
        # workers keep no previous sweep: every call builds its input
        assert built == ["step", "step", "block", "block"]
        assert len(records) == 2


class _RaisingStore:
    read_only = False

    def __init__(self, exc: Exception) -> None:
        self.exc = exc

    def seed(self, records):
        raise self.exc


class TestWriteSeeds:
    def test_writable_store_counts_new_entries(self, tmp_path):
        records = fresh_records(two_component_net())
        ctx = metered()
        with AnalysisStore(tmp_path / "s") as store:
            write_seeds(records, ctx, store=store)
            write_seeds(records, ctx, store=store)  # first write wins
            assert len(store) == len(records)
        assert ctx.metrics.get("store.writes") == len(records)

    def test_read_only_store_is_not_written(self, tmp_path):
        records = fresh_records(two_component_net())
        ctx = metered()
        with AnalysisStore(tmp_path / "s", read_only=True) as store:
            write_seeds(records, ctx, store=store)
            assert len(store) == 0
        assert ctx.metrics.get("store.writes") == 0
        assert ctx.metrics.get("store.write_errors") == 0

    @pytest.mark.parametrize("exc", [StoreError("disk says no"),
                                     OSError("disk full")])
    def test_failing_store_is_counted_not_raised(self, exc):
        ctx = metered()
        write_seeds(fresh_records(two_component_net()), ctx,
                    store=_RaisingStore(exc))
        assert ctx.metrics.get("store.write_errors") == 1
        assert ctx.metrics.get("store.writes") == 0

    def test_engine_takes_the_records(self):
        net = two_component_net()
        engine = IncrementalEngine(DecomposedAnalysis())
        write_seeds(fresh_records(net), metered(),
                    store=_RaisingStore(OSError("unused")), engine=engine)
        engine.analyze(net)
        assert engine.stats.misses == 0
