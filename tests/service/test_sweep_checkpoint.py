"""Checkpointed sweeps: recovery starts from the snapshot's sweep.

A store-backed service writes its engine's sweep of the snapshot
network to the store as one record at every checkpoint.  Recovery
seeds each verifying engine from that record, so the first journaled
admission it checks costs only its cone.  The counters below pin that
through the engine's own accounting; the fallbacks (no record, a
corrupt one, one of another version, a journal with no admission
after its snapshot) must take the full sweep and decide the same.
"""

import io
import pickle
import shutil

import pytest

import repro.engine.incremental as incremental
from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.cli import main
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.engine import IncrementalEngine
from repro.errors import RecoveryError
from repro.network.topology import Network, ServerSpec
from repro.service import (
    AdmissionService,
    recover_service,
    recover_state,
    verify_recovery,
)
from repro.service.journal import Journal
from repro.store import AnalysisStore

#: three independent two-server tandems: 1 -> 2, 3 -> 4, 5 -> 6
TANDEMS = ((1, 2), (3, 4), (5, 6))
ANALYZERS = {"decomposed": DecomposedAnalysis, "integrated":
             IntegratedAnalysis}


def request(name, path, rho=0.03):
    return ConnectionRequest(name, TokenBucket(1.0, rho), path, 1e3)


def crashed(tmp_path, analyzer, *, tail=(("t0", (3, 4)),),
            save_sweep=True):
    """Six admissions, a checkpoint, then *tail* admissions; the
    process dies without closing.  Returns (journal dir, store dir)."""
    journal, store_dir = tmp_path / "j", tmp_path / "s"
    with pytest.MonkeyPatch.context() as mp, \
            AnalysisStore(store_dir) as store:
        if not save_sweep:
            mp.setattr(IncrementalEngine, "save_sweep",
                       lambda self, network, ctx=None: False)
        svc = AdmissionService(
            Network([ServerSpec(k) for k in range(1, 7)], []), analyzer,
            journal_dir=journal, store=store)
        for k in range(6):
            assert svc.admit(request(f"h{k}", TANDEMS[k % 3])).admitted
        svc.checkpoint()
        for name, path in tail:
            assert svc.admit(request(name, path)).admitted
        svc.journal.close()
    return journal, store_dir


def sweep_key(store, analyzer, network):
    engine = IncrementalEngine(analyzer, store=store)
    return engine._sweep_key(
        network, engine._fingerprint(AnalysisContext(kernel="exact")))


class Reads:
    """Store reads, content keys and engine counters of one call."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.keys = 0
        for name in ("_server_key", "_block_key"):
            key = getattr(incremental, name)

            def counted(payload, key=key):
                self.keys += 1
                return key(payload)

            monkeypatch.setattr(incremental, name, counted)

    def measure(self, store, fn):
        gets = []
        get = store.get
        self.monkeypatch.setattr(store, "get",
                                 lambda key: gets.append(key) or get(key))
        reg = MetricsRegistry()
        self.keys = 0
        out = fn(AnalysisContext(metrics=reg))
        self.gets = len(gets)
        self.values = reg.as_dict()
        return out

    def __getitem__(self, name):
        return self.values.get(name, 0.0)


@pytest.fixture
def reads(monkeypatch):
    return Reads(monkeypatch)


class TestFirstQueryCostsItsCone:
    @pytest.mark.parametrize("name", ["decomposed", "integrated"])
    def test_reads_and_keys_only_the_cone(self, tmp_path, reads, name):
        journal, store_dir = crashed(tmp_path, ANALYZERS[name]())
        with AnalysisStore(store_dir) as store:
            report = reads.measure(store, lambda ctx: verify_recovery(
                journal, store=store, ctx=ctx))
            assert report.ok and report.checked == 1
            assert reads["engine.sweep_loads"] == 1
            # the tail's one admission reaches servers 3 and 4: two
            # sweep units are keyed and read, plus the record itself;
            # the units of servers 1, 2, 5 and 6 replay from the record
            assert reads.keys == 2
            assert reads.gets == 2 + 1
            assert reads["engine.fast_reuses"] == (
                4 if name == "decomposed" else 3)  # (1, 2) is one block

    def test_without_the_record_the_query_keys_every_server(
            self, tmp_path, reads):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis(),
                                     save_sweep=False)
        with AnalysisStore(store_dir) as store:
            report = reads.measure(store, lambda ctx: verify_recovery(
                journal, store=store, ctx=ctx))
            assert report.ok
            assert reads["engine.sweep_loads"] == 0
            assert reads.keys == 6
            assert reads.gets == 6 + 1  # every server, and the probe

    def test_snapshot_only_journal_runs_the_full_sweep(self, tmp_path,
                                                       reads):
        # no admission after the snapshot: its bounds must not be
        # checked against the record that produced them
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis(),
                                     tail=())
        with AnalysisStore(store_dir) as store:
            report = reads.measure(store, lambda ctx: verify_recovery(
                journal, store=store, ctx=ctx))
            assert report.ok and report.checked == 6
            assert reads["engine.sweep_loads"] == 0
            assert reads.keys == 6 and reads.gets == 6

    def test_verification_without_a_store_stays_cold(self, tmp_path,
                                                     monkeypatch):
        journal, _ = crashed(tmp_path, DecomposedAnalysis())
        loads = []
        monkeypatch.setattr(IncrementalEngine, "load_sweep",
                            lambda *a, **k: loads.append(a))
        report = verify_recovery(journal)
        assert report.ok and loads == []
        assert all(not isinstance(a, IncrementalEngine)
                   for a in report.analyzers.values())


def flip_one_byte(store_dir, key):
    with AnalysisStore(store_dir) as store:
        ref = store._entries[key]
    with open(store_dir / ref.segment, "r+b") as fh:
        fh.seek(ref.offset + ref.length // 2)
        byte = fh.read(1)
        fh.seek(-1, 1)
        fh.write(bytes([byte[0] ^ 0xFF]))


def forge_other_version(store_dir, network):
    """Put a record of another layout version under the current key."""
    engine = IncrementalEngine(DecomposedAnalysis())
    report = engine.analyze(network)
    memo = engine._memo
    with AnalysisStore(store_dir) as store:
        key = sweep_key(store, DecomposedAnalysis(), network)
        assert key not in store
        assert store.put(key, ("sweep-v0", "decomposed", memo.outcomes,
                               report), 0.0)


class TestFallbacks:
    PROBES = (("n0", (1, 2)), ("n1", (3, 4)), ("n2", (5, 6)))

    def decisions(self, journal, store_dir, *, expect_load):
        reg = MetricsRegistry()
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store,
                                  ctx=AnalysisContext(metrics=reg))
            assert reg.as_dict().get("engine.sweep_loads", 0) == (
                1 if expect_load else 0)
            out = []
            for name, path in self.PROBES:
                d = svc.admit(request(name, path))
                out.append((d.admitted, d.bound.hex()))
            svc.close()
        return out

    def test_missing_corrupt_and_other_version_decide_alike(
            self, tmp_path):
        runs = {}
        intact_j, intact_s = crashed(tmp_path / "intact",
                                     DecomposedAnalysis())
        runs["intact"] = self.decisions(intact_j, intact_s,
                                        expect_load=True)

        for variant in ("missing", "corrupt", "other-version"):
            journal, store_dir = crashed(
                tmp_path / variant, DecomposedAnalysis(),
                save_sweep=variant == "corrupt")
            base = recover_state(journal).base_network
            if variant == "corrupt":
                with AnalysisStore(store_dir) as store:
                    key = sweep_key(store, DecomposedAnalysis(), base)
                flip_one_byte(store_dir, key)
            elif variant == "other-version":
                forge_other_version(store_dir, base)
            runs[variant] = self.decisions(journal, store_dir,
                                           expect_load=False)
        assert runs["missing"] == runs["corrupt"] == runs["other-version"]
        assert runs["missing"] == runs["intact"]

    def test_tampered_bound_raises_with_the_record_present(self,
                                                           tmp_path):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        path = journal / "journal.jsonl"
        lines = path.read_text().splitlines()
        assert '"t0"' in lines[-1]
        real = recover_state(journal).records[-1]["bound_hex"]
        fake = (float.fromhex(real) * 0.5).hex()
        path.write_text("\n".join(lines[:-1] + [
            lines[-1].replace(real, fake)]) + "\n")
        with AnalysisStore(store_dir) as store:
            with pytest.raises(RecoveryError, match="seq"):
                recover_service(journal, store=store)


class TestRecordFormat:
    #: what sweep records may reference: classes that per-server and
    #: per-block store entries and reports already used before sweep
    #: records existed, so code that predates them can still unpickle
    #: every entry (``repro store verify``)
    KNOWN = {
        ("repro.analysis.propagation", "ServerStep"),
        ("repro.servers.base", "LocalAnalysis"),
        ("repro.curves.piecewise", "PiecewiseLinearCurve"),
        ("repro.analysis.base", "DelayReport"),
        ("repro.analysis.base", "FlowDelay"),
        ("repro.core.integrated", "BlockOutcome"),
    }

    @pytest.mark.parametrize("name", ["decomposed", "integrated"])
    def test_record_references_only_known_classes(self, tmp_path, name):
        journal, store_dir = crashed(tmp_path, ANALYZERS[name]())
        base = recover_state(journal).base_network
        with AnalysisStore(store_dir) as store:
            key = sweep_key(store, ANALYZERS[name](), base)
            ref = store._entries[key]
        payload = (store_dir / ref.segment).read_bytes()[
            ref.offset:ref.offset + ref.length]
        seen = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, cls):
                seen.add((module, cls))
                return super().find_class(module, cls)

        value, _ = Recording(io.BytesIO(payload)).load()
        assert value[0] == incremental.SWEEP_RECORD_VERSION
        assert {m for m in seen if m[0].startswith("repro")} <= self.KNOWN
        assert {m[0] for m in seen} <= {m[0] for m in self.KNOWN} | {
            "builtins", "copyreg"}

    def test_store_verify_is_clean(self, tmp_path):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        with AnalysisStore(store_dir) as store:
            assert store.verify().ok
        assert main(["store", "verify", str(store_dir)]) == 0


class TestJournalReadOnce:
    @staticmethod
    def scenarios():
        def base_only(d):
            Journal(d).write_base(Network([ServerSpec(1)], []),
                                  analyzer="decomposed", kernel="exact")

        def history(d, *, checkpoint=False, tail=2, torn=False):
            svc = AdmissionService(
                Network([ServerSpec(k) for k in (1, 2)], []),
                DecomposedAnalysis(), journal_dir=d)
            for k in range(3):
                svc.admit(request(f"h{k}", (1, 2)))
            svc.release("h0")
            if checkpoint:
                svc.checkpoint()
            for k in range(tail):
                svc.admit(request(f"t{k}", (1, 2)))
            svc.journal.close()
            if torn:
                with open(d / "journal.jsonl", "a") as fh:
                    fh.write('{"op": "admit", "seq": 9')

        return {
            "base-only": base_only,
            "base-and-records": history,
            "snapshot-only": lambda d: history(d, checkpoint=True, tail=0),
            "snapshot-and-tail": lambda d: history(d, checkpoint=True),
            "torn-tail": lambda d: history(d, torn=True),
        }

    def test_sequence_continues_exactly_as_a_reread(self, tmp_path):
        for name, make in self.scenarios().items():
            d = tmp_path / name / "a"
            make(d)
            shutil.copytree(d, tmp_path / name / "b")
            reread = Journal(tmp_path / name / "b", resume=True).last_seq
            svc = recover_service(d, incremental=False)
            assert svc.journal.last_seq == reread, name
            svc.release("h1", missing_ok=True)
            svc.close()


class TestServiceStartsOnTheVerifiedNetwork:
    @pytest.mark.parametrize("name", ["decomposed", "integrated"])
    def test_first_admit_plans_from_edit_records(self, tmp_path, name):
        journal, store_dir = crashed(tmp_path, ANALYZERS[name]())
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store)

            def refuse(old, new):
                raise AssertionError("full_compare on the first admit")

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(incremental, "full_compare", refuse)
                assert svc.admit(request("new", (5, 6))).admitted
            svc.close()

    def test_service_network_equals_the_replayed_one(self, tmp_path):
        journal, store_dir = crashed(tmp_path, DecomposedAnalysis())
        state = recover_state(journal)
        with AnalysisStore(store_dir) as store:
            svc = recover_service(journal, store=store)
            assert dict(svc.network.flows) == dict(state.network.flows)
            assert svc.admitted == state.admitted
            svc.close()
