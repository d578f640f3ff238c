"""A fixed admission trace must replay bit for bit.

``admission_trace.jsonl`` is one canonical ``repro loadtest`` churn
trace: admits and releases through the journaled service, Decomposed
primary behind the incremental engine, every decision's outcome,
degradation tag, answering analyzer and ``float.hex`` bound recorded.
Replaying it through a fresh service must reproduce every event.

Re-record only for a change that moves admission decisions on purpose
(and say why in CHANGES.md)::

    PYTHONPATH=src python -m repro loadtest --workload churn --seed 5 \\
        --rate 20 --duration 6 --hold 2 --deadline 25 \\
        --analyzer decomposed --hops 4 --paths random \\
        --record tests/golden/admission_trace.jsonl --out ''
"""

from collections import Counter
from pathlib import Path

from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.loadgen import load_trace, replay
from repro.network.topology import Network, ServerSpec
from repro.service import AdmissionService

TRACE = Path(__file__).with_name("admission_trace.jsonl")


def test_trace_covers_admits_rejects_and_releases():
    header, events = load_trace(TRACE)
    driver = header["driver"]
    assert (driver["analyzer"], driver["incremental"], driver["hops"],
            driver["tandems"]) == ("decomposed", True, 4, 1)
    assert header["workload"]["kind"] == "churn"
    mix = Counter((e["op"], e["outcome"]) for e in events)
    assert len(events) >= 200
    assert mix["admit", "admitted"] and mix["admit", "rejected"]
    assert mix["release", "released"] and mix["release", "skipped"]


def test_trace_replays_bit_exactly(tmp_path):
    header, events = load_trace(TRACE)
    hops = header["driver"]["hops"]
    empty = Network([ServerSpec(k) for k in range(1, hops + 1)], [])
    service = AdmissionService(
        empty, DecomposedAnalysis(), journal_dir=tmp_path,
        incremental=True, ctx=AnalysisContext(metrics=MetricsRegistry()))
    with service:
        report = replay((header, events), service)
    assert report.events == len(events)
    assert report.ok, report.render()
