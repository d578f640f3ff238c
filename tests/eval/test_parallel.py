"""Unit tests for the fault-tolerant process-parallel sweep evaluator."""

import json
import math

import pytest

from repro.eval.parallel import SweepPoint, evaluate_grid


class TestEvaluateGrid:
    def test_serial_grid_order_and_values(self):
        pts = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                            parallel=False)
        assert [p.load for p in pts] == [0.3, 0.6]
        assert pts[0].delay < pts[1].delay

    def test_parallel_matches_serial(self):
        kwargs = dict(analyzers=["decomposed", "integrated"],
                      hops=[2, 3], loads=[0.4, 0.8])
        serial = evaluate_grid(parallel=False, **kwargs)
        par = evaluate_grid(parallel=True, max_workers=2, **kwargs)
        assert len(par) == len(serial) == 8
        for a, b in zip(serial, par):
            assert a.analyzer == b.analyzer
            assert a.delay == pytest.approx(b.delay, rel=1e-9)

    def test_single_task_stays_in_process(self):
        pts = evaluate_grid(["decomposed"], [2], [0.5])
        assert len(pts) == 1 and isinstance(pts[0], SweepPoint)

    def test_unknown_analyzer_raises(self):
        with pytest.raises(ValueError):
            evaluate_grid(["quantum"], [2], [0.5], parallel=False)

    def test_unknown_analyzer_raises_before_pool_start(self):
        with pytest.raises(ValueError):
            evaluate_grid(["quantum"], [2], [0.4, 0.5], parallel=True)

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1}, {"backoff": -0.1}, {"timeout": 0.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            evaluate_grid(["decomposed"], [2], [0.5], **kwargs)


class TestFaultTolerance:
    """Crash isolation: a failing point is recorded, never fatal.

    Faults are injected into workers through the REPRO_SWEEP_FAULT
    environment variable (inherited across fork), targeting the task
    whose load matches the selector.
    """

    def test_crashing_worker_recorded_not_raised(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "crash@0.8")
        points = evaluate_grid(["decomposed"], [2], [0.4, 0.8],
                               max_workers=2, timeout=3.0,
                               retries=0, backoff=0.05)
        by_load = {p.load: p for p in points}
        assert by_load[0.4].ok
        assert not by_load[0.8].ok
        assert math.isnan(by_load[0.8].delay)
        assert "no result" in by_load[0.8].error

    def test_hanging_worker_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "hang@0.8")
        points = evaluate_grid(["decomposed"], [2], [0.4, 0.8, 0.6],
                               max_workers=2, timeout=2.0,
                               retries=0, backoff=0.05)
        by_load = {p.load: p for p in points}
        assert by_load[0.4].ok and by_load[0.6].ok  # siblings salvaged
        assert not by_load[0.8].ok

    def test_raising_worker_retried_then_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@0.8")
        points = evaluate_grid(["decomposed"], [2], [0.4, 0.8],
                               max_workers=2, timeout=10.0,
                               retries=2, backoff=0.01)
        by_load = {p.load: p for p in points}
        assert by_load[0.4].ok
        assert not by_load[0.8].ok
        assert "injected fault" in by_load[0.8].error
        assert by_load[0.8].attempts == 3  # 1 try + 2 retries

    def test_serial_mode_records_errors_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@")
        points = evaluate_grid(["decomposed"], [2], [0.5],
                               parallel=False, retries=1, backoff=0.01)
        assert len(points) == 1
        assert not points[0].ok and points[0].attempts == 2

    def test_sweep_point_ok_property(self):
        good = SweepPoint("decomposed", 2, 0.5, 1.0, 3.0)
        bad = SweepPoint("decomposed", 2, 0.5, 1.0, math.nan,
                         error="boom")
        assert good.ok and not bad.ok


class TestCheckpointResume:
    def test_checkpoint_streams_points(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        points = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                               parallel=False, checkpoint=ck)
        records = [json.loads(line)
                   for line in ck.read_text().splitlines()]
        assert len(records) == 2
        assert {r["load"] for r in records} == {0.3, 0.6}
        assert all(r["error"] is None for r in records)
        assert records[0]["delay"] == pytest.approx(points[0].delay)

    def test_resume_runs_only_missing_points(self, monkeypatch,
                                             tmp_path):
        ck = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@0.8")
        first = evaluate_grid(["decomposed"], [2], [0.3, 0.8, 0.6],
                              max_workers=2, timeout=10.0, retries=0,
                              backoff=0.01, checkpoint=ck)
        assert sum(not p.ok for p in first) == 1
        lines_before = len(ck.read_text().splitlines())
        assert lines_before == 3  # every point recorded, error included

        monkeypatch.delenv("REPRO_SWEEP_FAULT")
        second = evaluate_grid(["decomposed"], [2], [0.3, 0.8, 0.6],
                               max_workers=2, timeout=10.0,
                               checkpoint=ck, resume=True)
        assert all(p.ok for p in second)
        # the re-evaluated point replaced its error record in place:
        # one record per task, never an error-then-success duplicate
        records = [json.loads(line)
                   for line in ck.read_text().splitlines()]
        assert len(records) == lines_before
        assert all(r["error"] is None for r in records)
        assert [p.load for p in second] == [0.3, 0.8, 0.6]

    def test_resume_with_complete_checkpoint_runs_nothing(self,
                                                          tmp_path):
        ck = tmp_path / "sweep.jsonl"
        first = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                              parallel=False, checkpoint=ck)
        lines = len(ck.read_text().splitlines())
        second = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                               parallel=False, checkpoint=ck,
                               resume=True)
        assert len(ck.read_text().splitlines()) == lines  # no new work
        for a, b in zip(first, second):
            assert a.delay == pytest.approx(b.delay)

    def test_fresh_run_truncates_stale_checkpoint(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        ck.write_text("not json\n")
        evaluate_grid(["decomposed"], [2], [0.5, 0.7], parallel=False,
                      checkpoint=ck)
        records = [json.loads(line)
                   for line in ck.read_text().splitlines()]
        assert len(records) == 2

    def test_corrupt_lines_skipped_on_resume(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        ck.write_text('{"broken": \n')
        points = evaluate_grid(["decomposed"], [2], [0.5],
                               parallel=False, checkpoint=ck,
                               resume=True)
        assert points[0].ok


class TestAtomicCheckpoint:
    """The checkpoint file is replaced atomically on every write."""

    def _point(self, load=0.5):
        return SweepPoint("decomposed", 2, load, 1.0, 3.0)

    def test_writes_go_through_os_replace(self, monkeypatch, tmp_path):
        from repro.eval import parallel as mod

        replaced = []
        real = mod.os.replace
        monkeypatch.setattr(
            mod.os, "replace",
            lambda src, dst: (replaced.append((str(src), str(dst))),
                              real(src, dst))[1])
        ck = tmp_path / "sweep.jsonl"
        cp = mod._Checkpointer(ck, resume=False)
        cp.write(self._point(0.3))
        cp.write(self._point(0.6))
        cp.close()
        # one replace for the initial truncation, one per point
        assert len(replaced) == 3
        assert all(src == str(ck) + ".tmp" and dst == str(ck)
                   for src, dst in replaced)
        assert not (tmp_path / "sweep.jsonl.tmp").exists()
        assert len(ck.read_text().splitlines()) == 2

    def test_failed_write_preserves_previous_snapshot(
            self, monkeypatch, tmp_path):
        from repro.eval import parallel as mod

        ck = tmp_path / "sweep.jsonl"
        cp = mod._Checkpointer(ck, resume=False)
        cp.write(self._point(0.3))
        before = ck.read_text()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(mod.os, "replace", boom)
        with pytest.raises(OSError):
            cp.write(self._point(0.6))
        # the visible checkpoint is still the complete previous snapshot
        assert ck.read_text() == before
        assert json.loads(before.splitlines()[0])["load"] == 0.3

    def test_resume_appends_to_existing_lines(self, tmp_path):
        from repro.eval import parallel as mod

        ck = tmp_path / "sweep.jsonl"
        cp = mod._Checkpointer(ck, resume=False)
        cp.write(self._point(0.3))
        cp.close()
        cp2 = mod._Checkpointer(ck, resume=True)
        cp2.write(self._point(0.6))
        cp2.close()
        loads = [json.loads(ln)["load"]
                 for ln in ck.read_text().splitlines()]
        assert loads == [0.3, 0.6]

    def test_crash_replay_dedupes_duplicate_records(self, tmp_path):
        """Regression: a killed run could leave the same task recorded
        twice (success, then a re-queued attempt after resume); every
        crash/resume cycle appended yet another duplicate.  Resuming
        now rewrites the file with one record per task,
        last-write-wins, corrupt lines dropped."""
        import math as _math

        from repro.eval import parallel as mod

        ck = tmp_path / "sweep.jsonl"
        stale = mod._point_to_record(
            SweepPoint("decomposed", 2, 0.5, 1.0, 1.0))
        fresh = mod._point_to_record(
            SweepPoint("decomposed", 2, 0.5, 1.0, 2.0))
        other = mod._point_to_record(
            SweepPoint("decomposed", 3, 0.5, 1.0, 9.0))
        ck.write_text(json.dumps(stale) + "\n"
                      + '{"broken": \n'           # crash mid-write
                      + json.dumps(fresh) + "\n"  # duplicate of stale
                      + json.dumps(other) + "\n")

        cp = mod._Checkpointer(ck, resume=True)
        records = [json.loads(ln)
                   for ln in ck.read_text().splitlines()]
        assert len(records) == 2  # deduped at load, before any write
        by_hops = {r["n_hops"]: r for r in records}
        assert by_hops[2]["delay"] == 2.0  # last write won
        assert by_hops[3]["delay"] == 9.0

        cp.write(SweepPoint("decomposed", 2, 0.5, 1.0, 3.0))
        cp.close()
        records = [json.loads(ln)
                   for ln in ck.read_text().splitlines()]
        assert len(records) == 2  # still one record per task
        assert {r["n_hops"]: r["delay"]
                for r in records}[2] == 3.0
        assert not _math.isnan(records[0]["delay"])

    def test_load_checkpoint_error_evicts_earlier_success(
            self, tmp_path):
        from repro.eval import parallel as mod

        ck = tmp_path / "sweep.jsonl"
        good = mod._point_to_record(
            SweepPoint("decomposed", 2, 0.5, 1.0, 1.0))
        bad = mod._point_to_record(
            SweepPoint("decomposed", 2, 0.5, 1.0, math.nan,
                       error="boom"))
        ck.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        # the later error supersedes the success: resume must re-run it
        # (kernel "" here matches the rows, so eviction is what empties
        # the result, not a kernel mismatch)
        assert mod._load_checkpoint(ck, "") == {}


class TestKernelRecording:
    """Satellite: every checkpoint row records its curve kernel, and
    resume re-runs rows recorded under a different kernel — a sweep
    must never mix grid-sampled and exact bounds."""

    def test_points_carry_current_kernel(self):
        from repro.curves.kernels import current_kernel

        pts = evaluate_grid(["decomposed"], [2], [0.5], parallel=False)
        assert pts[0].kernel == current_kernel()

    def test_checkpoint_rows_carry_kernel(self, tmp_path):
        from repro.curves.kernels import use_kernel

        ck = tmp_path / "sweep.jsonl"
        with use_kernel("grid"):
            evaluate_grid(["decomposed"], [2], [0.4], parallel=False,
                          checkpoint=ck)
        rec = json.loads(ck.read_text().splitlines()[0])
        assert rec["kernel"] == "grid"

    def test_resume_same_kernel_skips_completed(self, monkeypatch,
                                                tmp_path):
        ck = tmp_path / "sweep.jsonl"
        evaluate_grid(["decomposed"], [2], [0.3, 0.6], parallel=False,
                      checkpoint=ck)
        # any re-evaluated point would be poisoned into an error
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@")
        again = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                              parallel=False, retries=0, backoff=0.01,
                              checkpoint=ck, resume=True)
        assert all(p.ok for p in again)

    def test_resume_across_kernels_reruns_everything(self, tmp_path):
        from repro.curves.kernels import use_kernel

        ck = tmp_path / "sweep.jsonl"
        with use_kernel("grid"):
            first = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                                  parallel=False, checkpoint=ck)
        assert all(p.kernel == "grid" for p in first)
        with use_kernel("exact"):
            second = evaluate_grid(["decomposed"], [2], [0.3, 0.6],
                                   parallel=False, checkpoint=ck,
                                   resume=True)
        assert all(p.kernel == "exact" for p in second)
        rows = [json.loads(ln) for ln in ck.read_text().splitlines()]
        assert len(rows) == 2  # still one row per point
        assert all(r["kernel"] == "exact" for r in rows)

    def test_legacy_rows_without_kernel_rerun(self, tmp_path):
        from repro.eval import parallel as mod

        ck = tmp_path / "sweep.jsonl"
        evaluate_grid(["decomposed"], [2], [0.5], parallel=False,
                      checkpoint=ck)
        rec = json.loads(ck.read_text().splitlines()[0])
        del rec["kernel"]  # simulate a pre-kernel-recording checkpoint
        ck.write_text(json.dumps(rec) + "\n")
        assert mod._load_checkpoint(ck, "exact") == {}
        resumed = evaluate_grid(["decomposed"], [2], [0.5],
                                parallel=False, checkpoint=ck,
                                resume=True)
        assert resumed[0].ok and resumed[0].kernel != ""


class TestSweepKernelSelection:
    """The kernel a sweep is asked for reaches every point: through
    ``ctx.kernel``, and into pool workers that were spawned rather
    than forked (and so never saw the driver's ambient selection)."""

    @staticmethod
    def _cold(load, kernel):
        from repro.analysis.decomposed import DecomposedAnalysis
        from repro.context import AnalysisContext
        from repro.network.tandem import CONNECTION0, build_tandem

        report = DecomposedAnalysis().analyze(
            build_tandem(4, load, 1.0), ctx=AnalysisContext(kernel=kernel))
        return report.delay_of(CONNECTION0)

    def test_ctx_kernel_selects_the_kernel(self):
        from repro.context import AnalysisContext

        pts = evaluate_grid(["decomposed"], [4], [0.5], parallel=False,
                            ctx=AnalysisContext(kernel="grid"))
        assert pts[0].kernel == "grid"
        assert pts[0].delay.hex() == self._cold(0.5, "grid").hex()
        # the kernels disagree here, so honouring ctx.kernel is visible
        assert pts[0].delay != self._cold(0.5, "exact")

    def test_spawned_workers_use_the_sweep_kernel(self, monkeypatch):
        import multiprocessing

        from repro.curves.kernels import use_kernel
        from repro.eval import parallel as mod

        monkeypatch.setattr(mod.multiprocessing, "Pool",
                            multiprocessing.get_context("spawn").Pool)
        with use_kernel("grid"):
            pts = evaluate_grid(["decomposed"], [4], [0.4, 0.5],
                                max_workers=2, timeout=120.0)
        assert [p.kernel for p in pts] == ["grid", "grid"]
        assert [p.delay.hex() for p in pts] == [
            self._cold(u, "grid").hex() for u in (0.4, 0.5)]


class TestExactlyOneRowPerPoint:
    """Satellite: the timeout/retry/poison machinery must leave exactly
    one checkpoint row per grid point, and a failure *of recording
    itself* must abort the sweep, not masquerade as task failures."""

    def _rows_per_task(self, ck):
        counts = {}
        for ln in ck.read_text().splitlines():
            rec = json.loads(ln)
            key = (rec["analyzer"], rec["n_hops"], rec["load"])
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_hang_with_retries_single_row(self, monkeypatch, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "hang@0.8")
        points = evaluate_grid(["decomposed"], [2], [0.4, 0.8, 0.6],
                               max_workers=2, timeout=1.5, retries=1,
                               backoff=0.01, checkpoint=ck)
        assert len(points) == 3
        counts = self._rows_per_task(ck)
        assert set(counts.values()) == {1}
        assert len(counts) == 3

    def test_raise_with_retries_single_row(self, monkeypatch, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "raise@0.8")
        evaluate_grid(["decomposed"], [2], [0.4, 0.8],
                      max_workers=2, timeout=10.0, retries=2,
                      backoff=0.01, checkpoint=ck)
        assert set(self._rows_per_task(ck).values()) == {1}

    def test_crash_single_row(self, monkeypatch, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "crash@0.8")
        evaluate_grid(["decomposed"], [2], [0.4, 0.8, 0.6],
                      max_workers=2, timeout=2.0, retries=1,
                      backoff=0.01, checkpoint=ck)
        counts = self._rows_per_task(ck)
        assert set(counts.values()) == {1}
        assert len(counts) == 3

    def test_expired_sweep_deadline_aborts_cleanly(self, tmp_path):
        import time as _time

        from repro.context import AnalysisContext, Deadline
        from repro.errors import AnalysisError

        ck = tmp_path / "sweep.jsonl"
        deadline = Deadline(0.005, "sweep budget")
        _time.sleep(0.02)  # expire before the first point lands
        ctx = AnalysisContext().with_deadline(deadline)
        # the expiry must ABORT the sweep — under the old behavior it
        # was caught by the task-isolation boundary and every point got
        # re-recorded as a bogus error row
        with pytest.raises(AnalysisError):
            evaluate_grid(["decomposed"], [2], [0.3, 0.6, 0.9],
                          parallel=False, retries=0, backoff=0.01,
                          checkpoint=ck, ctx=ctx)
        rows = [json.loads(ln) for ln in ck.read_text().splitlines()]
        assert len(rows) <= 1  # at most the first completed point
        assert all(r["error"] is None for r in rows)

    def test_grid_length_matches_results(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FAULT", "hang@0.8")
        points = evaluate_grid(["decomposed"], [2, 3], [0.4, 0.8],
                               max_workers=2, timeout=1.5, retries=0,
                               backoff=0.01)
        assert len(points) == 4
        assert sum(not p.ok for p in points) == 2  # both hung loads
