"""CLI tests for ``repro serve`` and ``repro recover``."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_serve_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--journal", "j"])
        assert args.count == 100 and args.snapshot_every == 64
        assert not args.resume

    def test_recover_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover"])


class TestServeRecover:
    def test_serve_then_recover_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "j")
        rc = main(["serve", "--journal", journal, "--count", "4",
                   "--hops", "2", "--deadline", "60", "--rho", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "admitted conn_0" in out and "[normal]" in out
        assert "served 4 admission(s)" in out

        rc = main(["recover", "--journal", journal, "--show-bounds"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 admitted connection(s)" in out
        assert "conn_3" in out
        assert "all bit-identical" in out

    def test_recover_parses_the_journal_once(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.service.recovery as recovery

        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "3",
                     "--hops", "2", "--deadline", "60",
                     "--rho", "0.02"]) == 0
        loads: list = []
        original = recovery.load_journal
        monkeypatch.setattr(recovery, "load_journal",
                            lambda d: loads.append(d) or original(d))
        assert main(["recover", "--journal", journal]) == 0
        assert "all bit-identical" in capsys.readouterr().out
        assert len(loads) == 1

    def test_serve_resume_continues(self, tmp_path, capsys):
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "2",
                     "--hops", "2", "--deadline", "60",
                     "--rho", "0.02"]) == 0
        capsys.readouterr()
        rc = main(["serve", "--journal", journal, "--resume",
                   "--count", "2", "--hops", "2", "--deadline", "60",
                   "--rho", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered 2 connection(s)" in out
        assert "admitted conn_2" in out and "admitted conn_3" in out

    def test_serve_refuses_dirty_journal_without_resume(self, tmp_path,
                                                        capsys):
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "1",
                     "--hops", "2", "--deadline", "60",
                     "--rho", "0.02"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="journal state"):
            main(["serve", "--journal", journal, "--count", "1",
                  "--hops", "2", "--deadline", "60", "--rho", "0.02"])

    def test_serve_stops_at_first_rejection(self, tmp_path, capsys):
        journal = str(tmp_path / "j")
        # rho large enough that the second connection overloads
        rc = main(["serve", "--journal", journal, "--count", "10",
                   "--hops", "2", "--deadline", "60", "--rho", "0.6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rejected" in out and "1 rejection(s)" in out

    def test_recover_missing_journal_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="recover:"):
            main(["recover", "--journal", str(tmp_path / "nope")])

    def test_recover_no_verify_skips_reanalysis(self, tmp_path, capsys):
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "2",
                     "--hops", "2", "--deadline", "60",
                     "--rho", "0.02"]) == 0
        capsys.readouterr()
        assert main(["recover", "--journal", journal,
                     "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "re-verified" not in out


class TestParallelServe:
    def test_parser_parallel_defaults(self):
        args = build_parser().parse_args(["serve", "--journal", "j"])
        assert args.tandems == 1 and args.workers == 1
        assert args.batch == 16 and args.kernel is None

    def test_rejects_bad_worker_counts(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--journal", str(tmp_path / "j"),
                  "--workers", "0"])
        with pytest.raises(SystemExit, match="--tandems"):
            main(["serve", "--journal", str(tmp_path / "j"),
                  "--tandems", "0"])

    def test_multi_tandem_parallel_serve_round_trip(self, tmp_path,
                                                    capsys):
        journal = str(tmp_path / "j")
        rc = main(["serve", "--journal", journal, "--count", "8",
                   "--hops", "2", "--tandems", "2", "--workers", "2",
                   "--batch", "4", "--deadline", "60", "--rho", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "admitted conn_0" in out and "admitted conn_7" in out
        assert "served 8 admission(s)" in out

        rc = main(["recover", "--journal", journal])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 admitted connection(s)" in out
        assert "all bit-identical" in out

    def test_batch_prints_every_outcome(self, tmp_path, capsys):
        journal = str(tmp_path / "j")
        # rho 0.6: the second connection on each tandem overloads, so a
        # batch mixes admissions and rejections — every outcome must be
        # reported before the loop stops
        rc = main(["serve", "--journal", journal, "--count", "8",
                   "--hops", "2", "--tandems", "2", "--workers", "2",
                   "--batch", "4", "--deadline", "60", "--rho", "0.6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "admitted conn_0" in out and "admitted conn_1" in out
        assert "rejected conn_2" in out and "rejected conn_3" in out


class TestServeKernelPinning:
    def test_recover_reports_journal_kernel(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "exact")
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "2",
                     "--hops", "2", "--deadline", "60", "--rho", "0.02",
                     "--kernel", "grid"]) == 0
        capsys.readouterr()
        assert main(["recover", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "kernel grid" in out
        assert "all bit-identical" in out

    def test_recover_wrong_kernel_refused(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "exact")
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "2",
                     "--hops", "2", "--deadline", "60", "--rho", "0.02",
                     "--kernel", "grid"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="recorded under curve "
                                             "kernel 'grid'"):
            main(["recover", "--journal", journal, "--kernel", "exact"])
        # the matching expectation passes
        assert main(["recover", "--journal", journal,
                     "--kernel", "grid"]) == 0

    def test_serve_resume_wrong_kernel_refused(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CURVE_KERNEL", "exact")
        journal = str(tmp_path / "j")
        assert main(["serve", "--journal", journal, "--count", "2",
                     "--hops", "2", "--deadline", "60", "--rho", "0.02",
                     "--kernel", "grid"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="serve:.*kernel"):
            main(["serve", "--journal", journal, "--resume",
                  "--count", "1", "--hops", "2", "--deadline", "60",
                  "--rho", "0.02", "--kernel", "exact"])
