"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.hops == 4 and args.load == 0.8

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "FIG9"])

    def test_retired_auto_kernel_rejected(self, capsys):
        # --kernel itself is gone: production runs only the exact kernel
        for argv in (["admit"], ["sweep"], ["serve", "--journal", "j"],
                     ["loadtest"], ["recover", "--journal", "j"],
                     ["validate"]):
            for kernel in ("auto", "exact", "grid"):
                with pytest.raises(SystemExit) as ei:
                    main(argv + ["--kernel", kernel])
                assert ei.value.code == 2
                assert "unrecognized arguments: --kernel" in \
                    capsys.readouterr().err


class TestImports:
    def test_service_and_cli_leave_scipy_unloaded(self):
        # scipy is imported by the one θ-family refinement that uses
        # it, so starting the service or the CLI does not pay for it
        import subprocess
        import sys

        code = ("import sys, repro.service, repro.cli; "
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestAnalyze:
    def test_all_analyzers(self, capsys):
        assert main(["analyze", "--hops", "2", "--load", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "integrated" in out and "decomposed" in out
        assert "conn0" in out

    def test_single_analyzer_all_flows(self, capsys):
        rc = main(["analyze", "--hops", "2", "--load", "0.5",
                   "--analyzer", "integrated", "--all-flows"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "short_1" in out and "long_2" in out

    def test_unknown_analyzer(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--analyzer", "quantum"])


class TestFigures:
    def test_single_quick_figure(self, capsys):
        assert main(["figures", "--quick", "--figure", "FIG5"]) == 0
        out = capsys.readouterr().out
        assert "FIG5" in out and "relative improvement" in out
        assert "FIG4" not in out


class TestSimulate:
    def test_simulate_reports_soundness(self, capsys):
        rc = main(["simulate", "--hops", "2", "--load", "0.6",
                   "--horizon", "30", "--packet", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "soundness: OK" in out


class TestAdmit:
    def test_admit_counts(self, capsys):
        rc = main(["admit", "--hops", "2", "--deadline", "20",
                   "--rho", "0.05", "--analyzer", "decomposed",
                   "--max", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "admitted" in out


class TestExport:
    def test_writes_files(self, tmp_path, capsys):
        rc = main(["export", "--quick", "--out", str(tmp_path / "res")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG4.csv" in out and "FIG6.json" in out
        assert (tmp_path / "res" / "FIG5.csv").exists()


class TestChart:
    def test_renders_chart(self, capsys):
        rc = main(["chart", "--figure", "FIG5", "--quick", "--log"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG5" in out and "U=0.20" in out


class TestResilience:
    def test_default_drill_survives_mild_slack(self, capsys):
        rc = main(["resilience", "--hops", "2", "--load", "0.5",
                   "--slack", "3.0"])
        out = capsys.readouterr().out
        assert "survivability" in out
        assert rc == 0 and "SURVIVES" in out

    def test_failure_scenario_degrades(self, capsys):
        rc = main(["resilience", "--hops", "2", "--load", "0.5",
                   "--fail", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "severed" in out and "server 1 failed" in out

    def test_explicit_scenarios_parsed(self, capsys):
        rc = main(["resilience", "--hops", "2", "--load", "0.5",
                   "--slack", "5.0", "--degrade", "2=0.95",
                   "--inflate", "conn0=1.1", "--inflate", "all=1.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "server 2 at 95% capacity" in out
        assert "burst x1.1 on conn0" in out
        assert "burst x1.05 on all sources" in out

    def test_bad_degrade_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--degrade", "2"])

    def test_bad_factor_rejected(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--degrade", "2=fast"])


class TestSweep:
    def test_serial_sweep_table(self, capsys):
        rc = main(["sweep", "--serial", "--analyzers", "decomposed",
                   "--hops", "2", "--loads", "0.3,0.6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2/2 points ok" in out

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(["sweep", "--serial", "--analyzers", "decomposed",
                     "--hops", "2", "--loads", "0.4",
                     "--checkpoint", ck]) == 0
        assert main(["sweep", "--serial", "--analyzers", "decomposed",
                     "--hops", "2", "--loads", "0.4",
                     "--checkpoint", ck, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "1/1 points ok" in out

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--resume"])


class TestValidate:
    def test_quick_run_is_clean(self, capsys):
        rc = main(["validate", "--seeds", "2", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validated 2 seed(s): 0 violation(s)" in out
        assert "all oracles held" in out

    def test_budget_expiry_reports_partial(self, capsys):
        rc = main(["validate", "--seeds", "5", "--quick",
                   "--budget", "1e-9"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TIMED OUT" in out

    def test_trace_written(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        rc = main(["validate", "--seeds", "1", "--quick",
                   "--trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["meta"]["command"] == "validate"
        assert doc["counters"]["validate.seeds"] == 1

    def test_replay_round_trip(self, tmp_path, capsys):
        from repro.network.generators import random_feedforward
        from repro.network.serialization import network_to_dict
        from repro.validate import ReproCase, save_case

        case = ReproCase(
            oracle="ordering", seed=4,
            violation={"flow": "f0", "detail": "x",
                       "observed": 2.0, "allowed": 1.0},
            network=network_to_dict(
                random_feedforward(4, n_servers=2, n_flows=2)))
        path = save_case(case, tmp_path / "case.json")
        rc = main(["validate", "--replay", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no longer reproduces" in out
