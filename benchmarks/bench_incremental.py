"""BENCH-INC — incremental engine vs cold admission throughput.

Measures what the engine buys on the admission-control workload the
paper motivates (§1): repeated delay analyses of networks differing by
one flow.  Workload: a 32-server / 256-flow random feed-forward
network; each cycle releases one established flow and re-admits it,
timing the two analyses engine-backed vs cold.

Every engine report is compared against the cold report of the same
network — a single non-bit-identical bound fails the run.

A second part times how a one-flow query scales with network size.  On
``random_multicomponent(23, nc, 4, 32)`` each of 80 queries re-admits
a flow the previous (untimed) query released; growing ``nc`` adds
components but leaves the dirty cone the same size, so a query that
costs O(change) takes the same time at every ``nc``.  The median per
size is recorded, and ``scaling_ratio`` is the largest size's median
over the smallest's.

Runs two ways:

* ``python benchmarks/bench_incremental.py`` — standalone, writes
  ``BENCH_incremental.json`` to the working directory and exits
  non-zero on mismatch (or, full size only, on speedup < 5x or a
  ``scaling_ratio`` for nc = 64 over nc = 8 above 1.5).  Set
  ``REPRO_BENCH_QUICK=1`` for the reduced CI configuration (smaller
  network, identity checked, nc in {8, 16}, no speedup or scaling
  gate).
* ``pytest benchmarks/bench_incremental.py`` — the same run as a test.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from repro.analysis.decomposed import DecomposedAnalysis
from repro.core.integrated import IntegratedAnalysis
from repro.engine import (
    IncrementalEngine,
    describe_report_difference,
    reports_identical,
)
from repro.network.generators import random_feedforward, random_multicomponent

SEED = 2026
FULL = {"n_servers": 32, "n_flows": 256, "n_cycles": 8}
QUICK = {"n_servers": 12, "n_flows": 48, "n_cycles": 3}
SPEEDUP_FLOOR = 5.0  # acceptance: engine >= 5x cold on the full config
SCALING_SIZES = {"full": (8, 16, 32, 64), "quick": (8, 16)}
SCALING_QUERIES = 80
SCALING_CEILING = 1.5  # full size: nc=64 query within 1.5x of nc=8


def _workload(n_servers: int, n_flows: int):
    return random_feedforward(seed=SEED, n_servers=n_servers,
                              n_flows=n_flows, max_utilization=0.8)


def run_bench(quick: bool = False) -> dict:
    """Run the cold-vs-engine comparison; returns the result record."""
    cfg = QUICK if quick else FULL
    net = _workload(cfg["n_servers"], cfg["n_flows"])
    cold = DecomposedAnalysis()
    engine = IncrementalEngine(DecomposedAnalysis())

    t0 = time.perf_counter()
    warm_report = engine.analyze(net)
    warm_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_report = cold.analyze(net)
    cold_full_s = time.perf_counter() - t0
    mismatches: list[str] = []
    if not reports_identical(warm_report, cold_report):
        mismatches.append("warmup: "
                          + str(describe_report_difference(warm_report,
                                                           cold_report)))

    picks = random.Random(7).sample(sorted(net.flows), cfg["n_cycles"])
    t_rel = {"engine": 0.0, "cold": 0.0}
    t_adm = {"engine": 0.0, "cold": 0.0}
    # the engine-side network; each edit is timed with its analysis
    current = net
    for name in picks:
        flow = net.flows[name]
        t0 = time.perf_counter()
        current = current.without_flow(name)
        r_rel = engine.analyze(current)
        t_rel["engine"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        current = current.with_flow(flow)
        r_adm = engine.analyze(current)
        t_adm["engine"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        c_rel = cold.analyze(net.without_flow(name))
        t_rel["cold"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        c_adm = cold.analyze(net)
        t_adm["cold"] += time.perf_counter() - t0
        for tag, r, c in (("release", r_rel, c_rel),
                          ("admit", r_adm, c_adm)):
            if not reports_identical(r, c):
                mismatches.append(
                    f"{tag} {name}: "
                    + str(describe_report_difference(r, c)))

    n = cfg["n_cycles"]
    per_cold = (t_rel["cold"] + t_adm["cold"]) / (2 * n)
    per_engine = (t_rel["engine"] + t_adm["engine"]) / (2 * n)
    readmit_speedup = (t_adm["cold"] / t_adm["engine"]
                       if t_adm["engine"] else None)
    return {
        "benchmark": "incremental_admission",
        "quick": quick,
        "config": {**cfg, "seed": SEED, "analyzer": "decomposed"},
        "cold_full_analysis_s": cold_full_s,
        "engine_warmup_s": warm_s,
        "cold_per_admission_test_s": per_cold,
        "engine_per_admission_test_s": per_engine,
        "cold_tests_per_s": 1.0 / per_cold if per_cold else None,
        "engine_tests_per_s": 1.0 / per_engine if per_engine else None,
        "speedup": per_cold / per_engine if per_engine else None,
        "release_speedup": (t_rel["cold"] / t_rel["engine"]
                            if t_rel["engine"] else None),
        "readmit_speedup": readmit_speedup,
        "cache_hit_rate": engine.stats.hit_rate,
        "engine_stats": engine.stats.as_dict(),
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }


def scaling_bench(sizes, queries: int = SCALING_QUERIES) -> dict:
    """Median one-flow query time per component count *nc*.

    Each query re-admits a random flow into the network the previous,
    untimed query released it from; the candidate network is built
    before the clock starts, so only ``engine.analyze`` is timed.  The
    sizes take turns query by query, so a slow spell of the host
    lands on every size alike.  Every report is checked against the
    cold one.
    """
    runs = []
    for nc in sizes:
        net = random_multicomponent(23, nc, 4, 32)
        engine = IncrementalEngine(DecomposedAnalysis())
        engine.analyze(net)
        runs.append((nc, net, DecomposedAnalysis().analyze(net), engine,
                     random.Random(5), sorted(net.flows), []))
    mismatches: list[str] = []
    for _ in range(queries):
        for nc, net, cold, engine, rng, names, times in runs:
            name = rng.choice(names)
            released = net.without_flow(name)
            engine.analyze(released)
            candidate = released.with_flow(net.flows[name])
            t0 = time.perf_counter()
            report = engine.analyze(candidate)
            times.append(time.perf_counter() - t0)
            if not reports_identical(report, cold):
                mismatches.append(
                    f"scaling nc={nc} readmit {name}: "
                    + str(describe_report_difference(report, cold)))
    median_ms = {str(run[0]): 1e3 * statistics.median(run[-1])
                 for run in runs}
    return {
        "network": "random_multicomponent(23, nc, 4, 32)",
        "queries": queries,
        "median_query_ms": median_ms,
        "scaling_ratio": (median_ms[str(sizes[-1])]
                          / median_ms[str(sizes[0])]),
        "mismatches": mismatches,
    }


def integrated_identity_check(ops: int = 6) -> list[str]:
    """Differential admit/release identity for Algorithm Integrated.

    Run at reduced size (Theorem 1 blocks are much heavier than
    decomposition steps); any difference string returned is a failure.
    """
    net = _workload(QUICK["n_servers"], QUICK["n_flows"])
    cold = IntegratedAnalysis()
    engine = IncrementalEngine(IntegratedAnalysis())
    mismatches: list[str] = []
    picks = random.Random(11).sample(sorted(net.flows), ops // 2)
    current = net
    for name in picks:
        released = current.without_flow(name)
        current = released.with_flow(net.flows[name])
        pairs = [
            (engine.analyze(released), cold.analyze(net.without_flow(name))),
            (engine.analyze(current), cold.analyze(net)),
        ]
        for r, c in pairs:
            if not reports_identical(r, c):
                mismatches.append(
                    f"integrated {name}: "
                    + str(describe_report_difference(r, c)))
    return mismatches


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_incremental_bit_identical_and_faster():
    result = run_bench(quick=True)
    assert result["bit_identical"], result["mismatches"]
    assert result["speedup"] is not None and result["speedup"] > 1.0


def test_incremental_integrated_identity():
    assert integrated_identity_check() == []


def test_one_flow_query_scaling_is_bit_identical():
    result = scaling_bench(SCALING_SIZES["quick"], queries=6)
    assert result["mismatches"] == []
    assert set(result["median_query_ms"]) == {"8", "16"}


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
    result["integrated_mismatches"] = integrated_identity_check()
    scaling = scaling_bench(SCALING_SIZES["quick" if quick else "full"])
    result["one_flow_query"] = scaling
    result["scaling_ratio"] = scaling["scaling_ratio"]

    out = write_artifact("incremental", result)
    size = "quick" if quick else "full"
    print(f"BENCH-INC ({size}): cold {result['cold_per_admission_test_s']:.4f}s"
          f" vs engine {result['engine_per_admission_test_s']:.4f}s per"
          f" admission test — overall {result['speedup']:.2f}x,"
          f" re-admission {result['readmit_speedup']:.2f}x, cache"
          f" hit rate {result['cache_hit_rate']:.1%} -> {out}")
    sizes = ", ".join(f"nc={nc} {ms:.3f} ms"
                      for nc, ms in scaling["median_query_ms"].items())
    print(f"BENCH-INC one-flow query (median of {scaling['queries']}):"
          f" {sizes} — scaling ratio {scaling['scaling_ratio']:.2f}")

    failures = (list(result["mismatches"]) + result["integrated_mismatches"]
                + scaling["mismatches"])
    for m in failures:
        print(f"MISMATCH: {m}", file=sys.stderr)
    status = 1 if failures else 0
    if not quick and result["readmit_speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: re-admission speedup "
              f"{result['readmit_speedup']:.2f}x < "
              f"{SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        status = 1
    if not quick and scaling["scaling_ratio"] > SCALING_CEILING:
        print(f"FAIL: one-flow query at nc=64 takes "
              f"{scaling['scaling_ratio']:.2f}x its nc=8 time > "
              f"{SCALING_CEILING:g}x ceiling", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
