"""Repository benchmark: three seeded workloads against the public API.

Run from the repository root::

    python3 perfbench/run.py --workload paper-tandem --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that splits the wall-clock across the ``repro``
layers (``perfbench/spans.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

from time import perf_counter

T_PROCESS = perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: Share of ``--seconds`` the traced run spends on its untraced
#: calibration run (the base of ``trace.overhead_frac``).
CALIBRATION_SHARE = 0.35
#: Host-speed probes taken before each set-up repetition and after the
#: last; ``setup_s`` is scaled by their median.
SETUP_PROBES = 3
#: Per-layer self times plus idle time must account for the traced
#: wall-clock within this share.
ATTRIBUTION_TOLERANCE = 0.02

#: End-to-end metrics printed in the final JSON line, all workloads.
#: ``op`` is each workload's primary op, the first of its ``timed_ops``.
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("rate_per_s", "1/s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("paper-tandem", "admission-churn", "restart-burst")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing(samples: list[float], q: float) -> dict:
    """Median and tail of *samples* (seconds) in ms, with counts."""
    if not samples:
        return {"p50": math.nan, "tail": math.nan, "n": 0, "beyond": 0}
    tail = percentile(samples, q)
    return {"p50": 1e3 * percentile(samples, 50), "tail": 1e3 * tail,
            "n": len(samples), "beyond": sum(x > tail for x in samples)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def git_sha(root: Path) -> str:
    """HEAD of the checkout read from ``.git``; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: Path) -> str:
    """Digest of every ``src/repro`` source file (works outside git)."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload, seed: int, digest: str) -> dict:
    import numpy
    from repro.curves.kernels import current_kernel
    return {"workload": workload.name, "seed": seed,
            "git_sha": git_sha(ROOT), "src_digest": src_digest(ROOT),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "curve_kernel": current_kernel(), "params": workload.params(),
            "decision_digest": digest}


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def _row(label: str, value: float, unit: str, samples="", beyond="",
         raw="") -> str:
    raw = f"{raw:>12.4f}" if raw != "" else ""
    return (f"{label:<22}{value:>14.4f}  {unit:<6}{samples:>8}{beyond:>8}"
            f"{raw}")


def untraced(cls, seed: int, seconds: float, workdir: Path,
             import_s: float) -> tuple[dict, object, list[str]]:
    from probe import REF_S, SpeedProbe
    from workloads import settle_heap
    workload = cls(seed, workdir)
    setup_probe = SpeedProbe(interval_s=0.0)
    reps = []
    for _ in range(cls.setup_reps):
        workload.close()  # the previous repetition's service, untimed
        for _ in range(SETUP_PROBES):
            setup_probe.tick()
        t0 = perf_counter()
        workload.setup()
        reps.append(perf_counter() - t0)
    for _ in range(SETUP_PROBES):
        setup_probe.tick()
    settle_heap()
    try:
        raw = workload.run(seconds)
        workload.final_checks(raw)
    finally:
        workload.close()
    out = raw.scaled()
    raw_metrics = {"setup_s": import_s + statistics.median(reps)}
    metrics = {"setup_s": raw_metrics["setup_s"] * setup_probe.factor()}
    took = out.probe.took or [math.nan]
    lines = [f"host probe: median {1e3 * statistics.median(took):.4f} ms "
             f"over {len(out.probe.took)} probes (range "
             f"{1e3 * min(took):.4f}-{1e3 * max(took):.4f} ms); timings "
             f"are scaled to a {1e3 * REF_S:g} ms probe, raw wall-clock "
             "in the last column",
             f"{'metric':<22}{'value':>14}  {'unit':<6}{'samples':>8}"
             f"{'beyond':>8}{'raw':>12}",
             _row("setup_s", metrics["setup_s"], "s", len(reps),
                  raw=raw_metrics["setup_s"])]
    medians_printed = set()
    for name, q in cls.timed_ops:
        t = timing(out.samples.get(name, []), q)
        r = timing(raw.samples.get(name, []), q)
        if name not in medians_printed:
            medians_printed.add(name)
            lines.append(_row(f"{name}_p50_ms", t["p50"], "ms", t["n"],
                              raw=r["p50"]))
        lines.append(_row(f"{name}_p{q}_ms", t["tail"], "ms", t["n"],
                          t["beyond"], r["tail"]))
        metrics.setdefault("op_p50_ms", t["p50"])
        metrics.setdefault("op_tail_ms", t["tail"])
    metrics["rate_per_s"] = workload.rate(out) if out.busy else math.nan
    metrics["peak_rss_mb"] = peak_rss_mb()
    lines += [_row(cls.rate_name, metrics["rate_per_s"], "1/s",
                   len(out.busy),
                   raw=workload.rate(raw) if raw.busy else math.nan),
              _row("failed_frac", out.failed / max(out.attempted, 1),
                   "ratio", out.attempted),
              _row("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1)]
    if "admitted_frac" in out.values:
        lines.append(_row("admitted_frac", out.values["admitted_frac"],
                          "ratio"))
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            out, lines)


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(rec, counters: dict, out, cal) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    from spans import LAYERS, WORKER_SECONDS

    c, s, v = rec.calls, rec.incl_s, rec.values

    def g(counter: str) -> float:
        return counters.get(counter, 0.0)

    wall = out.values["wall_s"]
    idle = s.get("harness.idle", 0.0)
    busy_wall = wall - idle
    m: dict[str, tuple[float, str]] = {}

    def put(key: str, value: float, unit: str) -> None:
        m[key] = (float(value), unit)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    put("curves.eval_calls", c["curves.eval"], "count")
    put("curves.pseudo_inverse_calls", c["curves.pseudo_inverse"], "count")
    put("curves.minplus_calls",
        g("curve.convolve") + g("curve.deconvolve"), "count")
    put("curves.deviation_calls", g("curve.hdev") + g("curve.vdev"),
        "count")
    put("core.blocks", c["core.block"], "count")
    put("core.theorem1_calls", c["core.theorem1"], "count")
    put("core.theorem1_s", s["core.theorem1"], "s")
    put("core.family_calls", c["core.family"], "count")
    put("core.family_s", s["core.family"], "s")
    put("core.family_objective_evals", c["core.family_objective"], "count")
    put("core.family_win_frac", out.values.get("family_win_frac", 0.0),
        "ratio")
    put("analysis.server_steps", g("analysis.server_steps"), "count")
    put("servers.fifo_local_calls", c["servers.fifo_local"], "count")
    hits, fast = g("engine.hits"), g("engine.fast_reuses")
    store_hits, misses = g("store.hits"), g("engine.misses")
    put("engine.queries", g("engine.queries"), "count")
    put("engine.hits", hits, "count")
    put("engine.misses", misses, "count")
    put("engine.fast_reuses", fast, "count")
    put("engine.invalidations", g("engine.invalidations"), "count")
    put("engine.reuse_frac", frac(hits + fast + store_hits,
                                  hits + fast + store_hits + misses), "ratio")
    put("engine.key_calls", c["engine.key"], "count")
    put("engine.key_s", s["engine.key"], "s")
    put("store.gets", c["store.get"], "count")
    put("store.get_s", s["store.get"], "s")
    put("store.hit_frac", frac(v["store.get_hits"], c["store.get"]), "ratio")
    put("store.puts", c["store.put"], "count")
    put("store.put_s", s["store.put"], "s")
    put("store.seed_calls", c["store.seed"], "count")
    put("store.seed_s", s["store.seed"], "s")
    put("store.bytes_written", sum(st.stats.bytes_written
                                   for st in rec.written_stores.values()),
        "bytes")
    worker_s = g(WORKER_SECONDS)
    put("admission.tests", c["admission.test"], "count")
    put("admission.commit_s", s["admission.commit"], "s")
    put("admission.admitted_frac", frac(g("admission.admitted"),
                                        g("admission.requests")), "ratio")
    put("admission.batch_plan_s", s["admission.batch_plan"], "s")
    put("admission.batch_groups", g("parallel.batch_groups"), "count")
    put("admission.batch_serial_reruns",
        g("parallel.group_serial_reruns"), "count")
    put("admission.batch_worker_s", worker_s, "s")
    put("admission.pool_efficiency",
        frac(worker_s, v["admission.pool_capacity_s"]), "ratio")
    levels = {k: val for k, val in counters.items()
              if k.startswith("service.degradation.")}
    put("service.ops", g("service.requests") + g("service.released"),
        "count")
    put("service.degraded_frac",
        1.0 - frac(levels.get("service.degradation.normal", 0),
                   sum(levels.values())) if levels else 0.0, "ratio")
    put("service.journal_appends", c["service.journal_append"], "count")
    put("service.journal_append_s", s["service.journal_append"], "s")
    put("service.fsyncs", c["service.fsync"], "count")
    put("service.fsync_s", s["service.fsync"], "s")
    put("service.snapshot_s", s["service.snapshot"], "s")
    put("service.recover_replay_s", s["service.recover_replay"], "s")
    put("service.recover_verify_s", s["service.recover_verify"], "s")
    put("service.verified_bounds", v["service.verified_bounds"], "count")
    put("network.edit_calls", c["network.edit"], "count")
    late = out.samples.get("generator_late", [])
    put("harness.generator_late_p99_ms",
        1e3 * percentile(late, 99) if late else 0.0, "ms")
    put("harness.idle_s", idle, "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", rec.self_s[layer], "s")
        put(f"{layer}.share", frac(rec.self_s[layer], busy_wall), "ratio")
        # the harness loop span also covers the idle pacing time
        inclusive = rec.layer_s[layer] - (idle if layer == "harness" else 0.0)
        put(f"{layer}.inclusive_share", frac(inclusive, busy_wall), "ratio")
    k = min(len(out.busy), len(cal.busy))
    put("trace.overhead_frac",
        sum(out.busy[:k]) / sum(cal.busy[:k]) - 1.0 if k else 0.0, "ratio")
    put("trace.wall_s", wall, "s")
    put("trace.attributed_frac",
        frac(sum(rec.self_s.values()), wall), "ratio")
    put("trace.spans_dropped", rec.dropped, "count")
    return m


def stress_matrix(name: str, m: dict) -> list[str]:
    """Which layers each workload may reach; failures as descriptions."""
    val = {k: v for k, (v, _) in m.items()}
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"stress matrix ({name}): {what}")

    attributed = val["trace.attributed_frac"]
    expect(abs(attributed - 1.0) <= ATTRIBUTION_TOLERANCE,
           f"layer self times + idle cover {attributed:.4f} of the traced "
           f"wall, outside 1 +- {ATTRIBUTION_TOLERANCE}")
    if name == "paper-tandem":
        expect(val["core.blocks"] > 0, "core.blocks = 0")
        for key in ("engine.queries", "store.gets", "service.journal_appends",
                    "admission.batch_groups"):
            expect(val[key] == 0, f"{key} = {val[key]:g}, expected 0")
        expect(val["core.inclusive_share"] > 0.5,
               f"core.inclusive_share = {val['core.inclusive_share']:.3f}, "
               "expected most of the wall")
        expect(val["core.share"] + val["curves.share"] > 0.9,
               "core and curves self time below 90% of the wall")
    else:
        expect(val["core.blocks"] == 0,
               f"core.blocks = {val['core.blocks']:g}, expected 0")
    if name == "restart-burst":
        expect(val["admission.batch_groups"] > 0, "admission.batch_groups = 0")
        expect(val["admission.batch_worker_s"] > 0,
               "admission.batch_worker_s = 0")
        expect(val["store.hit_frac"] > 0, "no store hits")
    else:
        expect(val["admission.batch_groups"] == 0,
               f"admission.batch_groups = {val['admission.batch_groups']:g}")
        expect(val["store.hit_frac"] == 0,
               f"store hits outside restart-burst "
               f"(hit_frac {val['store.hit_frac']:g})")
    return problems


def traced(cls, seed: int, seconds: float, workdir: Path):
    from repro.context import AnalysisContext, MetricsRegistry
    from spans import LAYERS, Recorder, install
    from workloads import settle_heap

    calibration = cls(seed, workdir / "calibration")
    calibration.setup()
    settle_heap()
    try:
        cal = calibration.run(seconds * CALIBRATION_SHARE)
    finally:
        calibration.close()
        gc.unfreeze()

    registry = MetricsRegistry()
    ctx = AnalysisContext(metrics=registry)
    workload = cls(seed, workdir / "traced")
    workload.setup(ctx)
    settle_heap()
    rec = Recorder()
    uninstall = install(rec)
    try:
        rec.enabled = True
        out = workload.run(seconds, ctx, rec)
    finally:
        rec.enabled = False
        uninstall()
    try:
        workload.final_checks(out)
    finally:
        workload.close()
    m = layer_metrics(rec, registry.as_dict(), out, cal)
    for problem in stress_matrix(cls.name, m):
        out.fail(problem)
    trace_path = OUT_DIR / f"{cls.name}-seed{seed}-spans.json"
    trace_path.write_text(json.dumps(
        {"workload": cls.name, "seed": seed, **rec.export(),
         "counters": registry.as_dict()}))
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}{'inclusive':>11}"]
    for layer in LAYERS:
        lines.append(f"{layer:<12}{m[f'{layer}.self_s'][0]:>10.4f}"
                     f"{m[f'{layer}.share'][0]:>8.1%}"
                     f"{m[f'{layer}.inclusive_share'][0]:>11.1%}")
    lines.append(f"{'idle':<12}{m['harness.idle_s'][0]:>10.4f}")
    lines.append(f"traced wall {m['trace.wall_s'][0]:.4f} s, attributed "
                 f"{m['trace.attributed_frac'][0]:.4f}, tracing overhead "
                 f"{m['trace.overhead_frac'][0]:+.1%}; spans in {trace_path}")
    lines += [f"{k:<36}{val:>16.6g}  {unit}" for k, (val, unit)
              in sorted(m.items())]
    return ({k: {"value": val, "unit": unit} for k, (val, unit) in m.items()},
            out, lines)


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    import_s = perf_counter() - T_PROCESS

    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, out, lines = traced(cls, args.seed, args.seconds,
                                         workdir)
        else:
            metrics, out, lines = untraced(cls, args.seed, args.seconds,
                                           workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = out.failed == 0
    prov = provenance(cls(args.seed, workdir), args.seed, out.digest)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    print(f"checks: {'all passed' if correct else 'FAILED'} "
          f"({out.failed} of {out.attempted} ops failed)")
    for problem in out.problems:
        print(f"  FAILED {problem}")
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "provenance": prov}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
