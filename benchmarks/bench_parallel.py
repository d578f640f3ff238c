"""BENCH-PAR — parallel cone-partitioned batch admission vs serial.

Measures what the process-pool executor buys on the batch admission
workload: a 32-server / 256-flow network of 8 disjoint feed-forward
components (the dependency cones), and a batch of connection requests
spread across the cones.  The batch is admitted twice — serial
(``workers=1``) and parallel (``workers=4``) — and the runs must agree
*bit-identically*: same admitted set, same reasons, same bounds down to
``float.hex``, and equal ``admission.requests`` / ``admitted`` /
``rejected`` counters.  A single differing decision fails the run.

Runs two ways:

* ``python benchmarks/bench_parallel.py`` — standalone, writes
  ``BENCH_parallel.json`` to the working directory and exits non-zero
  on any mismatch (or, full size only, on batch speedup < 1.5x when
  the host has >= 4 CPUs).  Set ``REPRO_BENCH_QUICK=1`` for the
  reduced CI configuration (smaller network, identity checked, no
  speedup gate).
* ``pytest benchmarks/bench_parallel.py`` — the identity gate as a
  test.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.admission.controller import AdmissionController
from repro.admission.requests import ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.curves.token_bucket import TokenBucket
from repro.engine import reports_identical
from repro.engine.incremental import describe_report_difference
from repro.network.generators import random_multicomponent

SEED = 2026
FULL = {"n_components": 8, "servers_per_component": 4,
        "flows_per_component": 32, "n_requests": 16, "workers": 4}
QUICK = {"n_components": 4, "servers_per_component": 3,
         "flows_per_component": 8, "n_requests": 8, "workers": 2}
SPEEDUP_FLOOR = 1.5  # acceptance: 4-worker batch >= 1.5x serial (full)
#: Decision counters the serial and parallel runs must agree on.
COUNTERS = ("admission.requests", "admission.admitted",
            "admission.rejected")


def _workload(cfg: dict):
    return random_multicomponent(
        SEED, n_components=cfg["n_components"],
        servers_per_component=cfg["servers_per_component"],
        flows_per_component=cfg["flows_per_component"],
        max_utilization=0.7)


def _requests(cfg: dict) -> list[ConnectionRequest]:
    """Round-robin the batch across components, random sub-paths."""
    rng = np.random.default_rng(SEED + 1)
    spc = cfg["servers_per_component"]
    reqs = []
    for i in range(cfg["n_requests"]):
        c = i % cfg["n_components"]
        a = int(rng.integers(0, spc))
        b = int(rng.integers(a, spc))
        path = tuple(range(c * spc + a, c * spc + b + 1))
        reqs.append(ConnectionRequest(
            f"req{i}", TokenBucket(0.5, 0.02, peak=1.0), path, 200.0))
    return reqs


def _decision_diffs(serial, parallel) -> list[str]:
    diffs = []
    for i, (s, p) in enumerate(zip(serial, parallel)):
        if s.admitted != p.admitted or s.reason != p.reason:
            diffs.append(f"request {i}: serial ({s.admitted}, {s.reason!r})"
                         f" vs parallel ({p.admitted}, {p.reason!r})")
        sb, pb = s.new_flow_bound, p.new_flow_bound
        if (sb is None) != (pb is None) or (
                sb is not None and float(sb).hex() != float(pb).hex()):
            diffs.append(f"request {i}: bound {sb!r} vs {pb!r}")
    return diffs


def run_bench(quick: bool = False) -> dict:
    """Serial-vs-parallel batch admission; returns the result record."""
    cfg = QUICK if quick else FULL
    net = _workload(cfg)
    reqs = _requests(cfg)
    mismatches: list[str] = []

    # -- batch admission: workers=1 vs workers=N -----------------------
    def admit_all(workers: int):
        ctrl = AdmissionController(net, DecomposedAnalysis())
        ctx = AnalysisContext(metrics=MetricsRegistry())
        t0 = time.perf_counter()
        decisions = ctrl.admit_batch(reqs, workers=workers, ctx=ctx)
        return decisions, time.perf_counter() - t0, ctrl, ctx

    d_serial, batch_serial_s, ctrl_s, ctx_s = admit_all(1)
    d_par, batch_parallel_s, ctrl_p, ctx_p = admit_all(cfg["workers"])
    mismatches += _decision_diffs(d_serial, d_par)
    if ctrl_s.admitted != ctrl_p.admitted:
        mismatches.append(f"admitted sets differ: {ctrl_s.admitted} vs "
                          f"{ctrl_p.admitted}")
    for name in COUNTERS:
        serial_n = ctx_s.metrics.get(name)
        parallel_n = ctx_p.metrics.get(name)
        if serial_n != parallel_n:
            mismatches.append(f"counter {name}: serial {serial_n:g} vs "
                              f"parallel {parallel_n:g}")
    groups = ctx_p.metrics.get("parallel.batch_groups")
    if not groups:
        mismatches.append("batch: parallel plan did not engage "
                          "(parallel.batch_groups == 0)")

    # committed state must analyze identically too
    final_s = DecomposedAnalysis().analyze(ctrl_s.network)
    final_p = DecomposedAnalysis().analyze(ctrl_p.network)
    if not reports_identical(final_s, final_p):
        mismatches.append("post-batch networks: " + str(
            describe_report_difference(final_s, final_p)))

    return {
        "benchmark": "parallel_batch_admission",
        "quick": quick,
        "config": {**cfg, "seed": SEED, "analyzer": "decomposed"},
        "cpu_count": os.cpu_count(),
        "batch_serial_s": batch_serial_s,
        "batch_parallel_s": batch_parallel_s,
        "batch_speedup": (batch_serial_s / batch_parallel_s
                          if batch_parallel_s else None),
        "batch_groups": groups,
        "admitted": list(ctrl_p.admitted),
        "n_admitted": sum(1 for d in d_par if d.admitted),
        "n_rejected": sum(1 for d in d_par if not d.admitted),
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_parallel_batch_bit_identical():
    result = run_bench(quick=True)
    assert result["bit_identical"], result["mismatches"]
    assert result["batch_groups"] >= 2


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------

def main() -> int:
    try:  # package import (pytest / repo root) or script-dir import
        from benchmarks._artifacts import bench_quick, write_artifact
    except ImportError:
        from _artifacts import bench_quick, write_artifact

    quick = bench_quick()
    result = run_bench(quick=quick)

    out = write_artifact("parallel", result)
    size = "quick" if quick else "full"
    print(f"BENCH-PAR ({size}): batch serial {result['batch_serial_s']:.3f}s"
          f" vs {result['config']['workers']} workers"
          f" {result['batch_parallel_s']:.3f}s —"
          f" {result['batch_speedup']:.2f}x over {result['batch_groups']:g}"
          f" cones -> {out}")

    for m in result["mismatches"]:
        print(f"MISMATCH: {m}", file=sys.stderr)
    if result["mismatches"]:
        return 1
    cpus = os.cpu_count() or 1
    if not quick and cpus >= 4 and result["batch_speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: batch speedup {result['batch_speedup']:.2f}x < "
              f"{SPEEDUP_FLOOR:g}x floor on {cpus} CPUs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
