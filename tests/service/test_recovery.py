"""Crash-recovery tests: replay, bit-identical verification, resume.

The central acceptance drill: kill a journaled service mid-stream
(simulated by abandoning it without close — exactly what SIGKILL
leaves behind, including a possibly-truncated final line), then prove
``recover_state``/``verify_recovery`` reconstruct the admitted set
exactly with bit-identical re-analyzed bounds.
"""

import json

import pytest

from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.errors import RecoveryError
from repro.network.topology import Network, ServerSpec
from repro.service import (
    AdmissionService,
    ConservativeAnalysis,
    recover_service,
    recover_state,
    verify_recovery,
)
from repro.service.recovery import resolve_analyzer


def empty_net(n=2):
    return Network([ServerSpec(k) for k in range(1, n + 1)], [])


def request(name, deadline=60.0, rho=0.04, path=(1, 2)):
    return ConnectionRequest(name, TokenBucket(1.0, rho), path, deadline)


def crashed_service(journal_dir, *, n_admit=4, releases=(),
                    snapshot_every=1000, analyzer=None):
    """Run admissions and abandon the service without closing it."""
    svc = AdmissionService(
        empty_net(), analyzer or IntegratedAnalysis(),
        journal_dir=journal_dir, incremental=False,
        snapshot_every=snapshot_every)
    for k in range(n_admit):
        dec = svc.admit(request(f"c{k}"))
        assert dec.admitted
    for name in releases:
        svc.release(name)
    # no close(): the process dies here.  Only the journal survives.
    admitted = svc.admitted
    svc.journal.close()  # release the fd; the file is already fsync'd
    return admitted


class TestResolveAnalyzer:
    def test_known_names(self):
        assert resolve_analyzer("integrated").name == "integrated"
        assert resolve_analyzer("decomposed").name == "decomposed"
        assert isinstance(resolve_analyzer("conservative"),
                          ConservativeAnalysis)

    def test_engine_names_resolve_cold(self):
        assert resolve_analyzer("incremental+integrated").name == \
            "integrated"

    def test_unknown_raises(self):
        with pytest.raises(RecoveryError):
            resolve_analyzer("nonsense")


class TestStructuralReplay:
    def test_exact_admitted_set_after_kill(self, tmp_path):
        d = tmp_path / "j"
        admitted = crashed_service(d, n_admit=5, releases=("c1", "c3"))
        state = recover_state(d)
        assert state.admitted == admitted == ("c0", "c2", "c4")
        assert set(state.network.flows) == {"c0", "c2", "c4"}
        assert state.analyzer_name == "integrated"
        assert state.replayed == 7  # 5 admits + 2 releases
        assert state.corrupt_lines == 0

    def test_truncated_final_line_is_dropped(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=3)
        path = d / "journal.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        # crash mid-append: the last admit was never acknowledged
        path.write_text("".join(lines[:-1]) + lines[-1][:25])
        state = recover_state(d)
        assert state.admitted == ("c0", "c1")
        assert state.corrupt_lines == 1

    def test_replay_from_snapshot_plus_tail(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=5, releases=("c0",),
                        snapshot_every=4)
        state = recover_state(d)
        assert state.admitted == ("c1", "c2", "c3", "c4")
        assert state.snapshot_seq > 0
        assert state.last_seq > state.snapshot_seq

    def test_double_release_replays_idempotently(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=2, releases=("c0",))
        # hand-forge a duplicate release record (crash between journal
        # write and in-memory apply can legitimately journal twice)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        dup = dict(records[-1])
        assert dup["op"] == "release"
        dup["seq"] = records[-1]["seq"] + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dup) + "\n")
        state = recover_state(d)
        assert state.admitted == ("c1",)
        assert state.skipped == 1

    def test_duplicate_admit_replays_idempotently(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=2)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        dup = dict(records[-1])
        assert dup["op"] == "admit"
        dup["seq"] = records[-1]["seq"] + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dup) + "\n")
        state = recover_state(d)
        assert state.admitted == ("c0", "c1")
        assert state.skipped == 1

    def test_empty_journal_raises(self, tmp_path):
        d = tmp_path / "j"
        d.mkdir()
        (d / "journal.jsonl").write_text("")
        with pytest.raises(RecoveryError):
            recover_state(d)


class TestBitIdenticalVerification:
    def test_clean_journal_verifies(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=4, releases=("c2",))
        report = verify_recovery(d)
        assert report.ok
        assert report.checked == 4  # every journaled admit re-analyzed

    def test_verifies_across_snapshot_rotation(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=6, snapshot_every=4)
        report = verify_recovery(d)
        assert report.ok
        # rotated-away admits are vouched for by the snapshot bounds;
        # the post-rotation tail is re-analyzed step by step
        assert report.checked >= 2

    def test_snapshot_bounds_checked_when_newest(self, tmp_path):
        d = tmp_path / "j"
        svc = AdmissionService(
            empty_net(), IntegratedAnalysis(), journal_dir=d,
            incremental=False)
        svc.admit(request("a"))
        svc.admit(request("b"))
        svc.close()  # final checkpoint: snapshot is the newest state
        report = verify_recovery(d)
        assert report.ok
        assert set(report.final_bounds) == {"a", "b"}

    def test_tampered_bound_is_detected(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=2)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        for rec in records:
            if rec["op"] == "admit" and rec["request"]["name"] == "c1":
                rec["bound_hex"] = float(rec["bound"] * 2.0).hex()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = verify_recovery(d)
        assert not report.ok
        assert len(report.mismatches) == 1
        assert "c1" in report.mismatches[0]
        assert "MISMATCH" in report.render()

    def test_different_analyzers_verify_with_their_own(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=2, analyzer=DecomposedAnalysis())
        records = [json.loads(line) for line in
                   (d / "journal.jsonl").read_text().splitlines()]
        admits = [r for r in records if r["op"] == "admit"]
        assert all(r["verify_analyzer"] == "decomposed" for r in admits)
        assert verify_recovery(d).ok


def count_journal_loads(monkeypatch) -> list:
    """Count ``load_journal`` calls made through the recovery module and
    through the journal module (a resumed ``Journal``)."""
    import repro.service.journal as journal
    import repro.service.recovery as recovery

    calls: list = []
    for module in (recovery, journal):
        original = module.load_journal

        def counting(directory, original=original):
            calls.append(directory)
            return original(directory)

        monkeypatch.setattr(module, "load_journal", counting)
    return calls


def snapshot_newest(d):
    """A journal whose snapshot (with per-flow bounds) is the newest."""
    svc = AdmissionService(empty_net(), IntegratedAnalysis(), journal_dir=d,
                           incremental=False)
    svc.admit(request("a"))
    svc.admit(request("b"))
    svc.close()


class TestVerifyFromState:
    """``verify_recovery`` given a replayed state checks what it checks
    given the directory, without reading the journal again."""

    @pytest.mark.parametrize("fixture", [
        lambda d: crashed_service(d, n_admit=4, releases=("c2",)),
        lambda d: crashed_service(d, n_admit=6, snapshot_every=4),
        lambda d: crashed_service(d, n_admit=3,
                                  analyzer=DecomposedAnalysis()),
        snapshot_newest,
    ], ids=["base-record", "rotated", "decomposed", "snapshot-newest"])
    def test_state_and_directory_reports_equal(self, tmp_path, fixture):
        d = tmp_path / "j"
        fixture(d)
        by_dir = verify_recovery(d)
        by_state = verify_recovery(recover_state(d))
        assert by_dir.ok and by_dir.checked > 0
        assert by_state == by_dir

    def test_state_reads_no_journal(self, tmp_path, monkeypatch):
        d = tmp_path / "j"
        crashed_service(d, n_admit=3)
        state = recover_state(d)
        calls = count_journal_loads(monkeypatch)
        assert verify_recovery(state).ok
        assert calls == []

    def test_tampered_journal_bound_fails_from_state(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=2)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        for rec in records:
            if rec["op"] == "admit" and rec["request"]["name"] == "c1":
                rec["bound_hex"] = float(rec["bound"] * 2.0).hex()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = verify_recovery(recover_state(d))
        assert not report.ok
        assert len(report.mismatches) == 1 and "c1" in report.mismatches[0]

    def test_tampered_snapshot_bound_fails_from_state(self, tmp_path):
        d = tmp_path / "j"
        snapshot_newest(d)
        path = d / "snapshot.json"
        snap = json.loads(path.read_text())
        snap["bounds_hex"]["b"] = (12345.5).hex()
        path.write_text(json.dumps(snap))
        report = verify_recovery(recover_state(d))
        assert not report.ok
        assert len(report.mismatches) == 1
        assert "snapshot flow 'b'" in report.mismatches[0]


class TestRecoverService:
    def test_journal_parsed_once(self, tmp_path, monkeypatch):
        d = tmp_path / "j"
        crashed_service(d, n_admit=3)
        calls = count_journal_loads(monkeypatch)
        svc = recover_service(d, incremental=False)
        assert len(calls) == 1
        assert svc.admitted == ("c0", "c1", "c2")
        svc.close()

    def test_resumed_service_continues_sequence(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=3)
        svc = recover_service(d)
        assert svc.admitted == ("c0", "c1", "c2")
        dec = svc.admit(request("c3"))
        assert dec.admitted
        assert dec.seq == 5  # base(1) + 3 admits, resumed at 5
        svc.close()
        # the whole history — old and new process — still verifies
        assert verify_recovery(d).ok

    def test_recover_service_refuses_tampered_journal(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=1)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[-1]["bound_hex"] = (12345.5).hex()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(RecoveryError):
            recover_service(d)

    def test_verify_false_skips_the_check(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=1)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[-1]["bound_hex"] = (12345.5).hex()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        svc = recover_service(d, verify=False)
        assert svc.admitted == ("c0",)
        svc.close()

    def test_analyzer_override(self, tmp_path):
        d = tmp_path / "j"
        crashed_service(d, n_admit=1)
        svc = recover_service(d, analyzer=DecomposedAnalysis(),
                              incremental=False)
        assert svc.controller.chain[0].name == "decomposed"
        svc.close()

    def test_kill_resume_kill_resume(self, tmp_path):
        """Two crash/recover cycles keep history consistent."""
        d = tmp_path / "j"
        crashed_service(d, n_admit=2)
        svc = recover_service(d, incremental=False)
        svc.admit(request("c2"))
        svc.journal.close()  # second crash, again without close()
        svc2 = recover_service(d, incremental=False)
        assert svc2.admitted == ("c0", "c1", "c2")
        assert verify_recovery(d).ok
        svc2.close()


class TestRetiredAutoKernel:
    """Journals recorded under the retired ``auto`` kernel recover as exact."""

    @staticmethod
    def auto_journal(d):
        crashed_service(d, n_admit=3)
        path = d / "journal.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records[0]["op"] == "base"
        assert records[0]["kernel"] == "exact"
        records[0]["kernel"] = "auto"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_recovers_verifies_and_resumes_under_exact(self, tmp_path):
        d = tmp_path / "j"
        self.auto_journal(d)
        state = recover_state(d)
        assert state.kernel == "exact"
        assert state.admitted == ("c0", "c1", "c2")
        report = verify_recovery(d)
        assert report.ok and report.checked == 3
        svc = recover_service(d, incremental=False)
        assert svc.admit(request("c3")).admitted
        svc.close()  # final snapshot records the resumed kernel
        snapshot = json.loads((d / "snapshot.json").read_text())
        assert snapshot["kernel"] == "exact"
        assert verify_recovery(d).ok

    def test_auto_snapshot_maps_to_exact(self, tmp_path):
        d = tmp_path / "j"
        self.auto_journal(d)
        recover_service(d, incremental=False).close()
        path = d / "snapshot.json"
        snapshot = json.loads(path.read_text())
        snapshot["kernel"] = "auto"
        path.write_text(json.dumps(snapshot))
        assert recover_state(d).kernel == "exact"
        assert verify_recovery(d).ok

    def test_repro_recover_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        d = tmp_path / "j"
        self.auto_journal(d)
        assert main(["recover", "--journal", str(d)]) == 0
        out = capsys.readouterr().out
        assert "kernel exact" in out
        assert "all bit-identical" in out
