"""Harness tests at tiny sizes: metric emission and the output checks.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload is shrunk through its class attributes so a full
untraced or traced run takes a few seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from probe import REF_S, SpeedProbe  # noqa: E402
from repro.admission.requests import AdmissionDecision  # noqa: E402
from repro.analysis.base import DelayReport, FlowDelay  # noqa: E402
from repro.curves.token_bucket import TokenBucket  # noqa: E402
from repro.service import ServiceDecision  # noqa: E402
from workloads import (  # noqa: E402
    AdmissionChurn,
    ConnectionRequest,
    Outcome,
    PaperTandem,
    RestartBurst,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(PaperTandem, "hops", (2, 3))
    monkeypatch.setattr(PaperTandem, "loads", (0.5,))
    monkeypatch.setattr(AdmissionChurn, "tandems", 2)
    monkeypatch.setattr(AdmissionChurn, "hops", 3)
    monkeypatch.setattr(AdmissionChurn, "sample_prob", 1.0)
    monkeypatch.setattr(RestartBurst, "components", 2)
    monkeypatch.setattr(RestartBurst, "flows_per_component", 6)
    monkeypatch.setattr(RestartBurst, "history_ops", 12)
    monkeypatch.setattr(RestartBurst, "snapshot_every", 8)
    monkeypatch.setattr(RestartBurst, "burst", 4)
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setup_reps", 1)


def _result(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _expected(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload,
                                               trace, section):
    code, result = _result(capsys, "--workload", workload, "--seed", "3",
                           "--seconds", "0.5", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _expected(section)
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])


def test_benchmark_file_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m[0] for m in run.END_TO_END] == [
        m["name"] for m in BENCHMARK["end_to_end"]]


def test_same_seed_same_decision_digest(tiny, tmp_path):
    digests = []
    for name in ("a", "b"):
        churn = AdmissionChurn(5, tmp_path / name)
        churn.setup()
        try:
            digests.append(churn.run(1.0).digest)
        finally:
            churn.close()
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "paper-tandem", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------

def _probe(took: list[float]) -> SpeedProbe:
    probe = SpeedProbe()
    probe.at = [float(i) for i in range(len(took))]
    probe.took = list(took)
    return probe


def test_probe_scales_by_the_nearest_probes():
    assert SpeedProbe().factor() == 1.0
    probe = _probe([REF_S] * 10 + [2 * REF_S] * 10)
    assert probe.factor(0.0) == 1.0
    assert probe.factor(19.0) == 0.5
    assert probe.factor() == pytest.approx(2 / 3)  # median of all twenty


def test_scaled_outcome_divides_by_host_slowness():
    out = Outcome(probe=_probe([2 * REF_S] * 3))
    out.sample("op", 0.4)
    out.served(0.3)
    scaled = out.scaled()
    assert scaled.samples["op"] == [pytest.approx(0.2)]
    assert scaled.busy == [pytest.approx(0.15)]
    assert out.samples["op"] == [0.4]  # the raw outcome is kept


def test_probe_never_takes_a_due_ops_time():
    probe = SpeedProbe()
    probe.tick(budget_s=0.0)
    assert probe.took == []
    probe.tick()
    probe.tick()  # within the interval of the first
    assert len(probe.took) == 1


# ----------------------------------------------------------------------
# every output check fires on a perturbed bound or mismatched decision
# ----------------------------------------------------------------------

def _perturb(report: DelayReport, flow: str, factor: float) -> DelayReport:
    delays = dict(report.delays)
    delays[flow] = FlowDelay(flow, report.delay_of(flow) * factor)
    return DelayReport(report.algorithm, delays, report.meta)


@pytest.fixture
def tandem(tiny, tmp_path):
    bench = PaperTandem(1, tmp_path)
    bench.setup()
    key = min(bench.nets)
    net = bench.nets[key]
    reports = tuple(cls().analyze(net) for cls in (
        workloads.DecomposedAnalysis, workloads.ServiceCurveAnalysis,
        workloads.IntegratedAnalysis))
    return bench, key, net, reports


def test_paper_tandem_checks_pass_on_true_bounds(tandem):
    bench, key, net, reports = tandem
    first: dict = {}
    assert bench.check(key, net, reports, first) is None
    assert bench.check(key, net, reports, first) is None


@pytest.mark.parametrize("index, flow, factor, words", [
    (0, "conn0", 1.0 + 1e-6, "closed form"),
    (1, "conn0", 1.0 - 1e-6, "closed form"),
    (2, "short_1", 1.5, "exceeds decomposed"),
    (2, "conn0", math.inf, "non-finite"),
])
def test_paper_tandem_check_fires(tandem, index, flow, factor, words):
    bench, key, net, reports = tandem
    bad = list(reports)
    bad[index] = _perturb(reports[index], flow, factor)
    assert words in bench.check(key, net, tuple(bad), {})


def test_paper_tandem_bit_identity_check_fires(tandem):
    bench, key, net, reports = tandem
    first: dict = {}
    bench.check(key, net, reports, first)
    nudged = list(reports)
    bound = reports[2].delay_of("conn0")
    nudged[2] = _perturb(reports[2], "conn0",
                         math.nextafter(bound, 0.0) / bound)
    assert "first pass" in bench.check(key, net, tuple(nudged), first)


def test_soundness_check_fires_on_a_shrunk_bound(tandem, monkeypatch):
    from repro.validate import oracles

    class Shrunk(workloads.DecomposedAnalysis):
        def analyze(self, network, **kwargs):
            report = super().analyze(network, **kwargs)
            for flow in network.flows:
                report = _perturb(report, flow, 0.1)
            return report

    monkeypatch.setattr(oracles, "default_analyzers",
                        lambda: {"shrunk": Shrunk()})
    bench = tandem[0]
    out = Outcome()
    bench.final_checks(out)
    assert out.failed == 1 and "soundness" in out.problems[0]


def _decision(admitted: bool, bound: float, level: str = "normal",
              reason: str = "all deadlines met") -> ServiceDecision:
    return ServiceDecision(AdmissionDecision(admitted, reason, bound,
                                             "incremental+decomposed"), level)


@pytest.mark.parametrize("decision, words", [
    (_decision(True, 5.0, level="degraded"), "degradation"),
    (_decision(True, math.inf), "non-finite"),
    (_decision(True, 11.0), "deadline"),
    (_decision(False, math.inf, reason="analysis failed: boom"), "rejected"),
])
def test_admission_check_fires(decision, words):
    request = ConnectionRequest("r1", TokenBucket(1.0, 0.01, 1.0), [1], 10.0)
    assert AdmissionChurn.check(request, _decision(True, 9.0)) is None
    assert words in AdmissionChurn.check(request, decision)


def test_churn_final_checks_fire(tiny, tmp_path):
    churn = AdmissionChurn(2, tmp_path / "churn")
    churn.setup()
    try:
        out = churn.run(1.0)
        churn.final_checks(out)
        assert out.failed == 0 and churn.samples
        before, request, bound = churn.samples[0]
        churn.samples[0] = (before, request, math.nextafter(bound, math.inf))
        journal = churn.workdir / "journal" / "journal.jsonl"
        records = [json.loads(line) for line in
                   journal.read_text().splitlines()]
        admit = next(r for r in records if r["op"] == "admit")
        admit["bound_hex"] = (2.0 * float.fromhex(admit["bound_hex"])).hex()
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = Outcome()
        churn.final_checks(out)
    finally:
        churn.close()
    assert out.failed == 2
    assert "cold re-analysis" in out.problems[0]
    assert "re-verification" in out.problems[1]


def test_restart_burst_checks_fire(tiny, tmp_path):
    burst = RestartBurst(4, tmp_path / "restart")
    burst.setup()
    out = burst.run(0.1)
    burst.final_checks(out)
    assert out.failed == 0
    admitted, reason, bound, level = burst.first[0]
    burst.first[0] = (admitted, reason, (1.5 * float.fromhex(bound)).hex(),
                      level)
    burst.final_checks(out)
    assert out.failed == 1 and "serial admit loop" in out.problems[0]

    journal = burst.workdir / "journal" / "journal.jsonl"
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    admit = next(r for r in records if r["op"] == "admit")
    admit["bound_hex"] = (2.0 * float.fromhex(admit["bound_hex"])).hex()
    journal.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = burst.run(0.1)
    assert out.failed == out.attempted
    assert "RecoveryError" in out.problems[0]
