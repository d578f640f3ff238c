"""Durable service under parallel batch admission + kernel recording.

Two properties meet here:

* ``AdmissionService.admit_batch`` keeps the write-ahead contract —
  every admission journaled (fsync'd) before its commit, in request
  order — while the admission *tests* run on a process pool; after a
  batch, recovery must verify bit-identically.
* The journal records the curve kernel its bounds were produced under;
  recovery refuses to verify or resume a journal recorded under the
  oracles' ``grid`` scope, since production verifies only ``exact``.
"""

import json

import pytest

from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.curves.kernels import use_kernel
from repro.curves.token_bucket import TokenBucket
from repro.errors import RecoveryError
from repro.network.generators import random_multicomponent
from repro.service import AdmissionService, load_journal
from repro.service.recovery import (
    recover_service,
    recover_state,
    verify_recovery,
)

N_COMPONENTS = 3
SPC = 3


def workload(seed=0):
    return random_multicomponent(seed, n_components=N_COMPONENTS,
                                 servers_per_component=SPC,
                                 flows_per_component=4,
                                 max_utilization=0.6)


def make_requests(n):
    reqs = []
    for i in range(n):
        c = i % N_COMPONENTS
        path = tuple(range(c * SPC, c * SPC + 2))
        reqs.append(ConnectionRequest(
            f"req{i}", TokenBucket(0.5, 0.03, peak=1.0), path, 100.0))
    return reqs


class TestServiceBatch:
    def test_batch_matches_serial_service(self, tmp_path):
        reqs = make_requests(6)
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path / "serial") as svc:
            serial = [svc.admit(r) for r in reqs]
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path / "par") as svc:
            batched = svc.admit_batch(reqs, workers=3)
        assert len(batched) == len(serial) == 6
        for s, p in zip(serial, batched):
            assert s.decision.admitted == p.decision.admitted
            assert s.decision.reason == p.decision.reason
            sb, pb = s.decision.new_flow_bound, p.decision.new_flow_bound
            if sb is not None:
                assert float(sb).hex() == float(pb).hex()

    def test_batch_counts_like_serial_service(self, tmp_path):
        # admissions, a deadline rejection and a pre-screened topology
        # rejection: every admission.* and service.* counter agrees
        bucket = TokenBucket(0.5, 0.03, peak=1.0)
        reqs = make_requests(6) + [
            ConnectionRequest("tight", bucket, (0, 1), 0.01),
            ConnectionRequest("ghost", bucket, (0, 99), 100.0)]
        counters = {}
        for mode in ("serial", "batch"):
            ctx = AnalysisContext(metrics=MetricsRegistry())
            with AdmissionService(workload(), DecomposedAnalysis(),
                                  journal_dir=tmp_path / mode,
                                  ctx=ctx) as svc:
                if mode == "serial":
                    for r in reqs:
                        svc.admit(r)
                else:
                    svc.admit_batch(reqs, workers=3)
            counters[mode] = {
                k: v for k, v in ctx.metrics.as_dict().items()
                if k.startswith(("admission.", "service."))
                and not k.startswith("service.latency.")}
            if mode == "batch":
                assert ctx.metrics.get("parallel.batch_groups") >= 2
        assert counters["serial"]["service.rejected"] == 2
        assert counters["batch"] == counters["serial"]

    def test_batch_journals_every_admission_in_order(self, tmp_path):
        reqs = make_requests(6)
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            out = svc.admit_batch(reqs, workers=3)
            # read the live journal before close() rotates it into the
            # shutdown snapshot
            _, records, corrupt = load_journal(tmp_path)
        admitted = [d for d in out if d.decision.admitted]
        assert admitted  # the workload admits at least some
        assert corrupt == 0
        admits = [r for r in records if r["op"] == "admit"]
        assert [r["request"]["name"] for r in admits] == \
            [reqs[i].name for i, d in enumerate(out)
             if d.decision.admitted]
        seqs = [d.seq for d in out if d.seq is not None]
        assert seqs == sorted(seqs)  # journal order = request order

    def test_batch_then_recovery_verifies(self, tmp_path):
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            svc.admit_batch(make_requests(6), workers=3)
            admitted = svc.admitted
        report = verify_recovery(tmp_path)
        assert report.ok, report.mismatches
        state = recover_state(tmp_path)
        assert state.admitted == admitted

    def test_workers_one_equals_serial_loop(self, tmp_path):
        reqs = make_requests(4)
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            out = svc.admit_batch(reqs, workers=1)
        assert len(out) == 4


class TestKernelPinning:
    @staticmethod
    def grid_journal(d):
        """A journal written by a service inside the ``grid`` scope."""
        with use_kernel("grid"):
            with AdmissionService(workload(), DecomposedAnalysis(),
                                  journal_dir=d) as svc:
                svc.admit(make_requests(1)[0])

    def test_fresh_journal_records_kernel(self, tmp_path):
        with use_kernel("grid"):
            with AdmissionService(workload(), DecomposedAnalysis(),
                                  journal_dir=tmp_path) as svc:
                svc.admit(make_requests(1)[0])
                _, records, _ = load_journal(tmp_path)
        base = records[0]
        assert base["op"] == "base"
        assert base["kernel"] == "grid"
        assert recover_state(tmp_path).kernel == "grid"

    def test_default_kernel_recorded_not_blank(self, tmp_path):
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            svc.admit(make_requests(1)[0])
        assert recover_state(tmp_path).kernel == "exact"

    def test_snapshot_carries_kernel(self, tmp_path):
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path,
                              snapshot_every=1) as svc:
            svc.admit(make_requests(1)[0])
        snapshot, _, _ = load_journal(tmp_path)
        assert snapshot is not None and snapshot["kernel"] == "exact"
        assert recover_state(tmp_path).kernel == "exact"

    def test_verify_under_wrong_kernel_refused(self, tmp_path):
        self.grid_journal(tmp_path / "grid")
        with pytest.raises(RecoveryError, match="recorded under curve "
                                                "kernel 'grid'.*only "
                                                "under 'exact'"):
            verify_recovery(tmp_path / "grid")

    def test_verify_uses_journaled_kernel_by_default(self, tmp_path):
        # a journal is recorded, and verified, under exact: the only
        # production kernel (a grid journal is refused, above)
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            svc.admit_batch(make_requests(4), workers=2)
        assert recover_state(tmp_path).kernel == "exact"
        report = verify_recovery(tmp_path)
        assert report.ok, report.mismatches

    def test_resume_under_wrong_kernel_refused(self, tmp_path):
        self.grid_journal(tmp_path)
        for verify in (True, False):
            # unverified too: the resumed service would append exact
            # bounds to a grid journal
            with pytest.raises(RecoveryError,
                               match="curve kernel 'grid'"):
                recover_service(tmp_path, analyzer=DecomposedAnalysis(),
                                verify=verify)

    def test_resumed_service_pinned_to_journaled_kernel(self, tmp_path):
        reqs = make_requests(4)
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            svc.admit(reqs[0])
        svc2 = recover_service(tmp_path, analyzer=DecomposedAnalysis())
        try:
            svc2.admit(reqs[1])
        finally:
            svc2.close()
        # the resumed service's records (now rotated into the shutdown
        # snapshot) stay under the journaled exact kernel
        assert recover_state(tmp_path).kernel == "exact"
        assert verify_recovery(tmp_path).ok

    def test_legacy_journal_without_kernel_tolerated(self, tmp_path):
        with AdmissionService(workload(), DecomposedAnalysis(),
                              journal_dir=tmp_path) as svc:
            svc.admit(make_requests(1)[0])
        # strip the kernel fields (journal lines and snapshot alike),
        # simulating a journal from before kernel recording
        jpath = tmp_path / "journal.jsonl"
        lines = []
        for ln in jpath.read_text().splitlines():
            rec = json.loads(ln)
            rec.pop("kernel", None)
            lines.append(json.dumps(rec, sort_keys=True))
        jpath.write_text("".join(line + "\n" for line in lines))
        spath = tmp_path / "snapshot.json"
        if spath.exists():
            snap = json.loads(spath.read_text())
            snap.pop("kernel", None)
            spath.write_text(json.dumps(snap, sort_keys=True))
        state = recover_state(tmp_path)
        assert state.kernel == ""
        # legacy journals verify and resume as exact
        assert verify_recovery(tmp_path).ok
        svc2 = recover_service(tmp_path, analyzer=DecomposedAnalysis())
        svc2.close()
