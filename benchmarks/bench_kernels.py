"""BENCH-KERNELS — exact vs grid curve-kernel comparison.

Two legs, both driven through the public
:mod:`repro.curves.operations` dispatch so the numbers include the
façade overhead a real analysis pays:

* a **mixed-convexity convolution microbench** — the workload that
  used to force the sampled-grid fallback.  The exact kernel's
  decompose-convolve-envelope path must beat the grid backend's
  O(n²) sampled inf by at least ``MIN_SPEEDUP``x wall-clock;
* a **tandem sweep tightness leg** — every analyzer bound on the
  paper's tandem sweep computed under both kernels.  The exact bound
  must be <= the grid bound at every point (the grid backend pads for
  soundness, so losing to it means a kernel regression), and the
  artifact records the tightness gap the exact kernel buys.

Runs two ways:

* ``python benchmarks/bench_kernels.py`` — standalone, writes the
  root-level ``BENCH_kernels.json`` (via ``_artifacts``) and exits
  non-zero on a gate failure.  ``REPRO_BENCH_QUICK=1`` selects the
  reduced CI configuration.
* ``pytest benchmarks/bench_kernels.py`` — the quick run as a test.
"""

from __future__ import annotations

import sys
import time

from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.context import AnalysisContext
from repro.core.integrated import IntegratedAnalysis
from repro.curves.kernels import use_kernel
from repro.curves.operations import convolve, deconvolve
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.eval.workloads import default_sweep, quick_sweep
from repro.network.tandem import CONNECTION0, build_tandem

#: The exact kernel must beat the grid backend by this factor on the
#: mixed-convexity convolution microbench (observed: >100x).
MIN_SPEEDUP = 2.0

ANALYZERS = {
    "integrated": IntegratedAnalysis,
    "decomposed": DecomposedAnalysis,
    "service_curve": ServiceCurveAnalysis,
}


def _mixed_pairs(n: int) -> list[tuple[PiecewiseLinearCurve,
                                       PiecewiseLinearCurve]]:
    """Deterministic mixed-convexity (f, g) operand pairs.

    ``rate_latency ∧ affine`` is convex near 0 and concave beyond —
    neither closed form applies, so the exact kernel takes its general
    decomposition path and the grid backend samples.
    """
    pairs = []
    for i in range(n):
        burst = 1.0 + 0.37 * i
        rho = 0.1 + 0.05 * (i % 7)
        rate = rho + 0.5 + 0.11 * (i % 5)
        latency = 0.3 + 0.21 * (i % 4)
        mixed = PiecewiseLinearCurve.rate_latency(
            rate, latency).minimum(PiecewiseLinearCurve.affine(burst, rho))
        srv = PiecewiseLinearCurve.rate_latency(rate + 0.7,
                                               1.0 + 0.13 * (i % 3))
        pairs.append((mixed.simplified(), srv))
    return pairs


def _time_kernel(kernel: str, pairs, repeats: int) -> float:
    """Wall-clock seconds for *repeats* passes of ⊗ over *pairs*."""
    with use_kernel(kernel):
        t0 = time.perf_counter()
        for _ in range(repeats):
            for f, g in pairs:
                convolve(f, g)
        return time.perf_counter() - t0


def _microbench(quick: bool) -> dict:
    n_pairs, repeats = (4, 2) if quick else (8, 5)
    pairs = _mixed_pairs(n_pairs)
    # warm-up (numpy allocator, branch caches), then measure
    _time_kernel("exact", pairs, 1)
    _time_kernel("grid", pairs, 1)
    t_exact = _time_kernel("exact", pairs, repeats)
    t_grid = _time_kernel("grid", pairs, repeats)
    ops = n_pairs * repeats
    return {
        "operation": "convolve[mixed-convexity]",
        "ops": ops,
        "exact_s": t_exact,
        "grid_s": t_grid,
        "exact_us_per_op": 1e6 * t_exact / ops,
        "grid_us_per_op": 1e6 * t_grid / ops,
        "speedup": t_grid / max(t_exact, 1e-12),
    }


def _deconv_agreement(quick: bool) -> dict:
    """Exact ⊘ vs padded grid ⊘ on the microbench operands (no gate:
    covered by the ``exact_grid`` validation oracle — recorded here so
    the artifact shows the pad the grid backend pays)."""
    pairs = _mixed_pairs(2 if quick else 4)
    worst_pad = 0.0
    for _, srv in pairs:
        arr = PiecewiseLinearCurve.affine(2.0, 0.2)
        exact = deconvolve(arr, srv, kernel="exact")
        grid = deconvolve(arr, srv, kernel="grid")
        worst_pad = max(worst_pad, float(grid(0.0) - exact(0.0)))
    return {"operation": "deconvolve", "worst_burst_pad": worst_pad}


def _sweep_tightness(quick: bool) -> list[dict]:
    sweep = quick_sweep() if quick else default_sweep(hops=(2, 4, 6, 8))
    rows = []
    for name, cls in ANALYZERS.items():
        analyzer = cls()
        for hops in sweep.hops:
            for load in sweep.loads:
                net = build_tandem(hops, float(load), sweep.sigma)
                bounds = {}
                for kernel in ("exact", "grid"):
                    ctx = AnalysisContext(kernel=kernel)
                    report = analyzer.analyze(net, ctx=ctx)
                    bounds[kernel] = report.delay_of(CONNECTION0)
                rows.append({
                    "analyzer": name,
                    "hops": hops,
                    "load": float(load),
                    "exact": bounds["exact"],
                    "grid": bounds["grid"],
                    "gap": bounds["grid"] - bounds["exact"],
                })
    return rows


def run_bench(quick: bool) -> dict:
    failures: list[str] = []

    micro = _microbench(quick)
    if micro["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"microbench: exact only {micro['speedup']:.2f}x faster "
            f"than grid (gate: >= {MIN_SPEEDUP:g}x)")

    rows = _sweep_tightness(quick)
    for row in rows:
        if row["exact"] > row["grid"] + 1e-12:
            failures.append(
                f"tightness: exact bound {row['exact']:.9g} exceeds "
                f"grid bound {row['grid']:.9g} "
                f"({row['analyzer']}, n={row['hops']}, U={row['load']:g})")

    return {
        "quick": quick,
        "min_speedup_gate": MIN_SPEEDUP,
        "microbench": micro,
        "deconvolve": _deconv_agreement(quick),
        "sweep": rows,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------

def test_kernels_bench_quick():
    result = run_bench(quick=True)
    assert result["failures"] == []
    assert result["microbench"]["speedup"] >= MIN_SPEEDUP
    assert all(row["gap"] >= -1e-12 for row in result["sweep"])


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
    out = write_artifact("kernels", result)
    micro = result["microbench"]
    worst = max(result["sweep"], key=lambda r: r["gap"])
    size = "quick" if quick else "full"
    print(f"BENCH-KERNELS ({size}): mixed ⊗ exact "
          f"{micro['exact_us_per_op']:.0f}us vs grid "
          f"{micro['grid_us_per_op']:.0f}us per op "
          f"({micro['speedup']:.1f}x); {len(result['sweep'])} sweep "
          f"points, worst grid-vs-exact gap {worst['gap']:.4g} "
          f"({worst['analyzer']}, n={worst['hops']}, "
          f"U={worst['load']:g}) -> {out}")
    for failure in result["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
