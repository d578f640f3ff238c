"""BENCH-STORE — warm-process re-admission via the persistent store.

Measures what :class:`repro.store.AnalysisStore` buys **across
processes**: the incremental engine's in-memory cache dies with its
process, so a service restart (or a re-run of the same sweep) pays the
full cold analysis again — unless a store carries the per-server
results over.  Workload: the same 32-server / 256-flow random
feed-forward network as BENCH-INC; one process populates the store,
then a simulated fresh process (new engine, reopened store) replays
the full analysis plus release/re-admit cycles against the cold
analyzer.

Every warm bound is compared against the cold bound of the same
network via ``float.hex`` — a single differing bit fails the run.

A second row times the first two admissions after a crash, on a
network of disjoint random components (the restart shape perfbench's
``restart-burst`` uses), where an admission's cone is one component: a
journaled, store-backed service admits a short history and dies;
each repetition recovers a fresh copy with
:func:`~repro.service.recover_service` and admits two probe requests,
alternating which goes first, so the two medians compare the same
requests.  Recovery hands the service the engine that verified the
journal, so the first admission should cost about what the second
does (``recovery_first_second_ratio``; the baseline's ceiling is 2).
The history ends with an admission: releases journaled after the last
admission leave their cone to the first query, because no analysis has
seen the network without them yet.  Both admissions' bounds are
checked against the cold analysis like every other bound.

A third row recovers after a checkpoint: the service admits a
history, checkpoints (which writes its sweep of the snapshot network
to the store as one record), admits one more request and dies.
Recovery seeds verification from that record, so the first (here the
only) verification query keys and reads only its cone: the row counts
the store reads recovery makes and gates them at the cone's servers
plus the one record (``checkpoint_recovery_excess_reads`` at most 1),
a count that does not depend on the host.  Recovery's median latency
is reported beside it.

Runs two ways:

* ``python benchmarks/bench_store.py`` — standalone, writes
  ``BENCH_store.json`` to the working directory and exits non-zero on
  any identity mismatch, a warm-process cold-compute, or (full size
  only) re-admission speedup < 5x.  Set ``REPRO_BENCH_QUICK=1`` for
  the reduced CI configuration (smaller network, identity checked, no
  speedup gate).
* ``pytest benchmarks/bench_store.py`` — the same run as a test.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.engine import IncrementalEngine, affected_cone
from repro.errors import RecoveryError
from repro.network.generators import random_feedforward, random_multicomponent
from repro.service import AdmissionService, recover_service
from repro.store import AnalysisStore

SEED = 2026
FULL = {"n_servers": 32, "n_flows": 256, "n_cycles": 8}
QUICK = {"n_servers": 12, "n_flows": 48, "n_cycles": 3}
SPEEDUP_FLOOR = 5.0  # acceptance: warm re-admission >= 5x cold (full)
#: the recovery row's network (random_multicomponent) and repetitions
RECOVERY = {
    "quick": {"n_components": 6, "servers_per_component": 4,
              "flows_per_component": 16, "history": 6, "reps": 8},
    "full": {"n_components": 8, "servers_per_component": 4,
             "flows_per_component": 32, "history": 12, "reps": 16},
}


def _workload(n_servers: int, n_flows: int):
    return random_feedforward(seed=SEED, n_servers=n_servers,
                              n_flows=n_flows, max_utilization=0.8)


def _hex_bounds(report, net) -> dict:
    return {f.name: report.delay_of(f.name).hex()
            for f in net.iter_flows()}


def _diff(tag: str, warm, cold, net) -> list[str]:
    w, c = _hex_bounds(warm, net), _hex_bounds(cold, net)
    return [f"{tag} {name}: warm {w[name]} != cold {c[name]}"
            for name in c if w.get(name) != c[name]]


def run_bench(store_dir: str, quick: bool = False) -> dict:
    """Cold vs populate vs warm-process comparison; returns the record."""
    cfg = QUICK if quick else FULL
    net = _workload(cfg["n_servers"], cfg["n_flows"])
    cold = DecomposedAnalysis()
    picks = random.Random(7).sample(sorted(net.flows), cfg["n_cycles"])

    # ---- cold baseline: no engine, no store --------------------------
    t0 = time.perf_counter()
    cold_report = cold.analyze(net)
    cold_full_s = time.perf_counter() - t0
    cold_cycles = []
    t_cold_admit = 0.0
    for name in picks:
        c_rel = cold.analyze(net.without_flow(name))
        t0b = time.perf_counter()
        c_adm = cold.analyze(net)
        t_cold_admit += time.perf_counter() - t0b
        cold_cycles.append((name, c_rel, c_adm))

    # ---- process 1: engine populates the store -----------------------
    t0 = time.perf_counter()
    with AnalysisStore(store_dir) as store:
        eng = IncrementalEngine(DecomposedAnalysis(), store=store)
        eng.analyze(net)
        current = net
        for name in picks:
            current = current.without_flow(name)
            eng.analyze(current)
            current = current.with_flow(net.flows[name])
            eng.analyze(current)
        entries = len(store)
    populate_s = time.perf_counter() - t0

    # ---- process 2 (simulated restart): fresh engine, warm store -----
    mismatches: list[str] = []
    t_warm_admit = 0.0
    with AnalysisStore(store_dir) as store:
        eng = IncrementalEngine(DecomposedAnalysis(), store=store)
        t0 = time.perf_counter()
        warm_report = eng.analyze(net)
        warm_full_s = time.perf_counter() - t0
        mismatches += _diff("full", warm_report, cold_report, net)
        current = net
        for name, c_rel, c_adm in cold_cycles:
            current = current.without_flow(name)
            w_rel = eng.analyze(current)
            t0b = time.perf_counter()
            current = current.with_flow(net.flows[name])
            w_adm = eng.analyze(current)
            t_warm_admit += time.perf_counter() - t0b
            mismatches += _diff(f"release {name}", w_rel, c_rel,
                                net.without_flow(name))
            mismatches += _diff(f"admit {name}", w_adm, c_adm, net)
        stats = eng.stats.as_dict()
        store_stats = store.stats.as_dict()

    n = cfg["n_cycles"]
    per_cold = t_cold_admit / n
    per_warm = t_warm_admit / n
    return {
        "benchmark": "store_warm_start",
        "quick": quick,
        "config": {**cfg, "seed": SEED, "analyzer": "decomposed"},
        "store_entries": entries,
        "cold_full_analysis_s": cold_full_s,
        "populate_s": populate_s,
        "warm_full_analysis_s": warm_full_s,
        "full_analysis_speedup": (cold_full_s / warm_full_s
                                  if warm_full_s else None),
        "cold_per_readmission_s": per_cold,
        "warm_per_readmission_s": per_warm,
        "readmit_speedup": per_cold / per_warm if per_warm else None,
        "warm_cold_computes": stats["misses"],
        "engine_stats": stats,
        "store_stats": store_stats,
        "bit_identical": not mismatches,
        "mismatches": mismatches[:20],
    }


def _request(flow) -> ConnectionRequest:
    """*flow* as an admission request; its deadline admits any bound."""
    return ConnectionRequest(flow.name, flow.bucket, flow.path, 1e9)


def run_recovery(work_dir: str, quick: bool = False) -> dict:
    """First vs second admission after ``recover_service``."""
    cfg = RECOVERY["quick" if quick else "full"]
    net = random_multicomponent(SEED, cfg["n_components"],
                                cfg["servers_per_component"],
                                cfg["flows_per_component"])
    picks = random.Random(11).sample(sorted(net.flows), cfg["history"] + 2)
    history, probes = picks[:-2], picks[-2:]
    base = net
    for name in picks:
        base = base.without_flow(name)
    work = Path(work_dir)

    # the crashed process: admits the history, then dies unclosed
    with AnalysisStore(work / "store") as store:
        svc = AdmissionService(base, DecomposedAnalysis(),
                               journal_dir=work / "journal", store=store)
        for name in history:
            assert svc.admit(_request(net.flows[name])).admitted
        svc.journal.close()
    recovered = base
    for name in history:
        recovered = recovered.with_flow(svc.network.flows[name])

    first: list[float] = []
    second: list[float] = []
    mismatches: list[str] = []
    cold = DecomposedAnalysis()
    for rep in range(cfg["reps"]):
        copy = work / f"rep-{rep}"
        shutil.copytree(work / "journal", copy / "journal")
        shutil.copytree(work / "store", copy / "store")
        order = probes if rep % 2 == 0 else probes[::-1]
        expected = recovered
        with AnalysisStore(copy / "store") as store:
            svc = recover_service(copy / "journal", store=store)
            for times, name in zip((first, second), order):
                t0 = time.perf_counter()
                decision = svc.admit(_request(net.flows[name]))
                times.append(time.perf_counter() - t0)
                expected = expected.with_flow(svc.network.flows[name])
                want = cold.analyze(expected).delay_of(name).hex()
                if (not decision.admitted
                        or decision.bound.hex() != want):
                    mismatches.append(
                        f"recovery rep {rep} {name}: admitted "
                        f"{decision.admitted}, bound "
                        f"{decision.bound.hex()} != cold {want}")
            svc.close()
        shutil.rmtree(copy)

    first_s, second_s = statistics.median(first), statistics.median(second)
    return {
        "recovery_config": {k: v for k, v in cfg.items() if k != "reps"},
        "recovery_reps": len(first),
        "recovery_first_admit_s": first_s,
        "recovery_second_admit_s": second_s,
        "recovery_first_second_ratio": first_s / second_s,
        "recovery_mismatches": mismatches[:20],
    }


def run_checkpointed_recovery(work_dir: str, quick: bool = False) -> dict:
    """Store reads and latency of a recovery after a checkpoint."""
    cfg = RECOVERY["quick" if quick else "full"]
    net = random_multicomponent(SEED, cfg["n_components"],
                                cfg["servers_per_component"],
                                cfg["flows_per_component"])
    picks = random.Random(13).sample(sorted(net.flows), cfg["history"] + 1)
    history, tail = picks[:-1], picks[-1]
    base = net
    for name in picks:
        base = base.without_flow(name)
    work = Path(work_dir)

    # the crashed process: a history, a checkpoint, one more admission
    with AnalysisStore(work / "store") as store:
        svc = AdmissionService(base, DecomposedAnalysis(),
                               journal_dir=work / "journal", store=store)
        for name in history:
            assert svc.admit(_request(net.flows[name])).admitted
        svc.checkpoint()
        snapshot = svc.network
        assert svc.admit(_request(net.flows[tail])).admitted
        candidate = svc.network
        svc.journal.close()
    cone = affected_cone(snapshot, candidate, [net.flows[tail]])
    active = candidate.active_servers()
    cone_servers = sum(sid in active for sid in cone)

    times: list[float] = []
    reads: list[int] = []
    mismatches: list[str] = []
    for rep in range(cfg["reps"]):
        copy = work / f"ckpt-{rep}"
        shutil.copytree(work / "journal", copy / "journal")
        shutil.copytree(work / "store", copy / "store")
        with AnalysisStore(copy / "store") as store:
            gets = store.stats.hits + store.stats.misses
            t0 = time.perf_counter()
            try:
                svc = recover_service(copy / "journal", store=store)
            except RecoveryError as exc:  # a bound did not re-verify
                mismatches.append(f"checkpoint rep {rep}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            reads.append(store.stats.hits + store.stats.misses - gets)
            svc.close()
        shutil.rmtree(copy)

    worst = max(reads, default=0)
    return {
        "checkpoint_recovery_reps": len(times),
        "checkpoint_recovery_s": (statistics.median(times)
                                  if times else math.nan),
        "checkpoint_recovery_store_reads": worst,
        "checkpoint_recovery_cone_servers": cone_servers,
        "checkpoint_recovery_excess_reads": worst - cone_servers,
        "checkpoint_recovery_mismatches": mismatches[:20],
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_store_warm_start_bit_identical(tmp_path):
    result = run_bench(str(tmp_path / "store"), quick=True)
    assert result["bit_identical"], result["mismatches"]
    assert result["warm_cold_computes"] == 0  # everything store-served
    assert result["readmit_speedup"] is not None
    assert result["readmit_speedup"] > 1.0


def test_admissions_after_recovery_bit_identical(tmp_path):
    result = run_recovery(str(tmp_path), quick=True)
    assert result["recovery_mismatches"] == []
    assert result["recovery_reps"] == RECOVERY["quick"]["reps"]


def test_recovery_after_a_checkpoint_reads_its_cone(tmp_path):
    result = run_checkpointed_recovery(str(tmp_path), quick=True)
    assert result["checkpoint_recovery_mismatches"] == []
    assert result["checkpoint_recovery_reps"] == RECOVERY["quick"]["reps"]
    assert result["checkpoint_recovery_excess_reads"] <= 1


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------

def main() -> int:
    try:  # package import (pytest / repo root) or script-dir import
        from benchmarks._artifacts import bench_quick, write_artifact
    except ImportError:
        from _artifacts import bench_quick, write_artifact

    quick = bench_quick()
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as d:
        result = run_bench(d, quick=quick)
    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as d:
        result.update(run_recovery(d, quick=quick))
    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as d:
        result.update(run_checkpointed_recovery(d, quick=quick))

    out = write_artifact("store", result)
    size = "quick" if quick else "full"
    print(f"BENCH-STORE ({size}): cold {result['cold_per_readmission_s']:.4f}s"
          f" vs warm-process {result['warm_per_readmission_s']:.4f}s per"
          f" re-admission — {result['readmit_speedup']:.2f}x, full analysis"
          f" {result['full_analysis_speedup']:.2f}x,"
          f" {result['store_entries']} store entr(ies),"
          f" {result['warm_cold_computes']} warm cold-compute(s) -> {out}")
    print(f"BENCH-STORE recovery: first admission "
          f"{result['recovery_first_admit_s'] * 1e3:.2f} ms, second "
          f"{result['recovery_second_admit_s'] * 1e3:.2f} ms (median of "
          f"{result['recovery_reps']}) — "
          f"{result['recovery_first_second_ratio']:.2f}x")
    print(f"BENCH-STORE recovery after a checkpoint: "
          f"{result['checkpoint_recovery_s'] * 1e3:.2f} ms (median of "
          f"{result['checkpoint_recovery_reps']}), "
          f"{result['checkpoint_recovery_store_reads']} store read(s) for "
          f"a cone of {result['checkpoint_recovery_cone_servers']} "
          f"server(s)")

    rc = 0
    for m in (result["mismatches"] + result["recovery_mismatches"]
              + result["checkpoint_recovery_mismatches"]):
        print(f"MISMATCH: {m}", file=sys.stderr)
        rc = 1
    if result["warm_cold_computes"]:
        print(f"FAIL: warm process recomputed "
              f"{result['warm_cold_computes']} step(s) cold",
              file=sys.stderr)
        rc = 1
    if not quick and result["readmit_speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: warm re-admission speedup "
              f"{result['readmit_speedup']:.2f}x < "
              f"{SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
