"""Recovery hands the engine that verified the primary to the service.

``recover_service`` with a store verifies the journaled primary's
bounds behind an incremental engine.  That engine's memo then holds
the verified network, so the resumed service's first query costs only
what changed since: its first admission steps the request's cone and
replays every other server, and a ``close()`` right after recovery
replays the whole network.  The counters below pin that through the
engine's own accounting.
"""

import shutil

import pytest

import repro.engine.incremental as incremental
from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.network.topology import Network, ServerSpec
from repro.service import AdmissionService, recover_service
from repro.store import AnalysisStore

#: three independent two-server tandems: 1 -> 2, 3 -> 4, 5 -> 6
SERVERS = 6
TANDEMS = ((1, 2), (3, 4), (5, 6))


def request(name, path, rho=0.03):
    return ConnectionRequest(name, TokenBucket(1.0, rho), path, 1e3)


def crashed(tmp_path, analyzer, *, end_with_release=False):
    """A journaled, store-backed history abandoned without close()."""
    journal, store_dir = tmp_path / "j", tmp_path / "s"
    store = AnalysisStore(store_dir)
    svc = AdmissionService(
        Network([ServerSpec(k) for k in range(1, SERVERS + 1)], []),
        analyzer, journal_dir=journal, store=store)
    for k in range(6):
        assert svc.admit(request(f"h{k}", TANDEMS[k % 3])).admitted
    if end_with_release:
        svc.release("h1")  # tandem 3 -> 4
    svc.journal.close()
    store.close()
    return journal, store_dir


class Counters:
    """Engine counters of one call, read from its metrics registry."""

    def __init__(self, monkeypatch):
        self.keys = 0
        key = incremental._server_key

        def counted(si):
            self.keys += 1
            return key(si)

        monkeypatch.setattr(incremental, "_server_key", counted)

    def measure(self, fn):
        reg = MetricsRegistry()
        self.keys = 0
        out = fn(AnalysisContext(metrics=reg))
        self.values = reg.as_dict()
        return out

    def __getitem__(self, name):
        return self.values.get(name, 0.0)


@pytest.fixture
def counters(monkeypatch):
    return Counters(monkeypatch)


class TestHandOff:
    def test_first_admit_steps_only_its_cone(self, tmp_path, counters):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store)
            engine = svc.controller.engine
            assert engine.stats.queries > 0  # the verifying engine
            dec = counters.measure(lambda ctx: svc.admit(
                request("new", (1, 2)), ctx=ctx))
            assert dec.admitted
            # servers 3-6 replay; only the cone {1, 2} is keyed, and
            # only the cone reads the store
            assert counters["engine.fast_reuses"] == 4
            assert counters.keys == 2
            assert counters["store.hits"] + counters["store.misses"] == 2
            svc.close()

    def test_cone_includes_releases_after_the_last_check(self, tmp_path,
                                                          counters):
        # the journal's last record releases a flow of tandem 3 -> 4;
        # verification last analyzed the network before that release
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis(),
                                     end_with_release=True)
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store)
            counters.measure(lambda ctx: svc.admit(
                request("new", (1, 2)), ctx=ctx))
            assert counters["engine.fast_reuses"] == 2  # servers 5, 6
            assert counters.keys == 4
            svc.close()

    def test_close_after_recovery_replays(self, tmp_path, counters,
                                          monkeypatch):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        with AnalysisStore(store_dir) as store:
            reg = MetricsRegistry()
            svc = recover_service(journal, store=store,
                                  ctx=AnalysisContext(metrics=reg))
            before = reg.as_dict()
            gets = []
            get = store.get
            monkeypatch.setattr(store, "get",
                                lambda key: gets.append(key) or get(key))
            counters.keys = 0
            svc.close()
            after = reg.as_dict()
            assert gets == [] and counters.keys == 0
            for name in ("engine.misses", "engine.hits", "store.hits",
                         "store.misses"):
                assert after.get(name, 0) == before.get(name, 0), name
            assert after["engine.memo_replays"] == (
                before.get("engine.memo_replays", 0) + 1)

    def test_integrated_primary_is_handed_too(self, tmp_path, counters):
        journal, store_dir = crashed(tmp_path, IntegratedAnalysis())
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store)
            assert svc.controller.engine.stats.queries > 0
            counters.measure(lambda ctx: svc.admit(
                request("new", (1, 2)), ctx=ctx))
            # every block of servers 3-6 replays
            assert counters["engine.fast_reuses"] == 4
            svc.close()

    def test_decisions_equal_a_fresh_engine(self, tmp_path):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis(),
                                     end_with_release=True)
        bounds = []
        for override in (None, DecomposedAnalysis()):
            target = tmp_path / f"copy-{len(bounds)}"
            shutil.copytree(journal, target / "j")
            shutil.copytree(store_dir, target / "s")
            with AnalysisStore(target / "s") as store:
                svc = recover_service(target / "j", store=store,
                                      analyzer=override)
                decisions = [svc.admit(request(f"n{k}", path))
                             for k, path in enumerate(TANDEMS)]
                svc.close()
            bounds.append([(d.admitted, d.bound.hex()) for d in decisions])
        assert bounds[0] == bounds[1]


class TestFreshEngine:
    @pytest.mark.parametrize("kwargs", [
        {"analyzer": DecomposedAnalysis()},
        {"verify": False},
    ], ids=["analyzer-override", "no-verify"])
    def test_gets_a_fresh_engine(self, tmp_path, kwargs):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store, **kwargs)
            assert svc.controller.engine.stats.queries == 0
            svc.close()

    def test_non_incremental_service_gets_no_engine(self, tmp_path):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store, incremental=False)
            assert svc.controller.engine is None
            assert svc.controller.chain[0].name == "decomposed"
            svc.close()

    def test_without_store_verification_stays_cold(self, tmp_path):
        journal, _ = crashed(tmp_path, DecomposedAnalysis())
        svc = recover_service(journal)
        assert svc.controller.engine.stats.queries == 0
        svc.close()
