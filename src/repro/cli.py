"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro analyze  --hops 4 --load 0.8 [--analyzer integrated] [--all-flows]
    repro figures  [--quick] [--figure FIG5]
    repro simulate --hops 4 --load 0.8 [--horizon 120] [--packet 0.05]
    repro admit    --hops 4 --deadline 30 [--rho 0.02] [--analyzer ...]
                   [--incremental] [--trace out.json] [--store DIR]
    repro resilience --hops 4 --load 0.8 [--degrade 2=0.8] [--fail 2] ...
    repro sweep    --analyzers integrated --hops 2,4 --loads 0.3,0.6
                   [--checkpoint FILE] [--resume] [--timeout S]
                   [--profile] [--store DIR]
    repro validate --seeds 20 [--quick] [--out DIR] [--budget S]
                   [--replay CASE.json] [--trace out.json]
    repro serve    --journal DIR --hops 4 --deadline 30 [--count N]
                   [--interval S] [--budget S] [--shed-latency S]
                   [--store DIR]
    repro recover  --journal DIR [--no-verify] [--show-bounds]
                   [--store DIR]
    repro store    {inspect|compact|verify} DIR [--max-bytes N]
    repro loadtest --workload flash-crowd --seed 7 --rate 40
                   --duration 10 [--closed-loop K] [--chaos]
                   [--record t.jsonl] [--replay t.jsonl]
                   [--slo "p99<0.5,lost<1"] [--out BENCH_loadtest.json]

Every subcommand operates on the paper's tandem topology; richer
topologies are a Python-API affair (see examples/custom_topology.py).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Sequence

from repro.admission.controller import AdmissionController
from repro.admission.requests import ConnectionRequest
from repro.analysis.base import Analyzer
from repro.analysis.registry import ANALYZERS
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.eval.figures import FIGURES
from repro.eval.tables import render_figure
from repro.eval.workloads import quick_sweep
from repro.loadgen.models import WORKLOADS
from repro.network.tandem import CONNECTION0, build_tandem
from repro.network.topology import Network, ServerSpec
from repro.sim.simulator import simulate_greedy

__all__ = ["main", "build_parser"]


def _make_analyzer(name: str) -> Analyzer:
    try:
        return ANALYZERS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown analyzer {name!r}; choose from "
            f"{sorted(ANALYZERS)}") from None


def _open_store(path: str | None, *, read_only: bool = False):
    """Open ``--store PATH`` writable (or read-only) for a ``with`` block.

    Without a path the block gets ``None`` (a null context).
    """
    if path is None:
        return contextlib.nullcontext()
    from repro.errors import StoreError
    from repro.store import AnalysisStore

    try:
        return AnalysisStore(path, read_only=read_only)
    except (StoreError, OSError) as exc:
        raise SystemExit(f"store: {path}: {exc}") from None


def _write_trace(ctx, path: str, **meta) -> None:
    """Write ``--trace PATH``'s JSON trace of *ctx* and say where."""
    print(f"wrote trace {ctx.write_trace(path, **meta)}")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrated end-to-end delay analysis "
                    "(Li/Bettati/Zhao, ICPP 1999)")
    sub = parser.add_subparsers(dest="command", required=True)

    def store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None, metavar="PATH",
                       help="persistent analysis store directory: "
                            "serve cached per-hop/per-block results "
                            "across runs (bit-identical to cold "
                            "analysis) and persist fresh ones — see "
                            "docs/STORE.md")

    def trace_arg(p: argparse.ArgumentParser, contents: str) -> None:
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a structured JSON trace of the run "
                            f"({contents}) to FILE")

    def tandem_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--hops", type=int, default=4,
                       help="tandem size n (default 4)")
        p.add_argument("--load", type=float, default=0.8,
                       help="network load U in (0,1) (default 0.8)")
        p.add_argument("--sigma", type=float, default=1.0,
                       help="source burst size (default 1)")

    p = sub.add_parser("analyze",
                       help="delay bounds on the paper's tandem "
                            "or a JSON-described network")
    tandem_args(p)
    p.add_argument("--network", default=None, metavar="FILE",
                   help="analyze this JSON network instead of a tandem "
                        "(see repro.network.serialization for the schema)")
    p.add_argument("--analyzer", default="all",
                   help="one of %s or 'all'" % sorted(ANALYZERS))
    p.add_argument("--all-flows", action="store_true",
                   help="print every connection, not just Connection 0")

    p = sub.add_parser("figures",
                       help="regenerate the paper's evaluation figures")
    p.add_argument("--quick", action="store_true",
                   help="small sweep for a fast look")
    p.add_argument("--figure", choices=sorted(FIGURES), default=None,
                   help="only one figure (default: all)")

    p = sub.add_parser("simulate",
                       help="greedy packet-level simulation vs bounds")
    tandem_args(p)
    p.add_argument("--horizon", type=float, default=120.0)
    p.add_argument("--packet", type=float, default=0.05)

    p = sub.add_parser("admit",
                       help="count admissible identical connections")
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--deadline", type=float, default=30.0)
    p.add_argument("--rho", type=float, default=0.02,
                   help="per-connection rate (default 0.02)")
    p.add_argument("--analyzer", default="integrated",
                   help="admission test analysis (default integrated)")
    p.add_argument("--max", type=int, default=500, dest="max_tries")
    p.add_argument("--incremental", action="store_true",
                   help="engine-backed admission: cache per-hop results "
                        "across tests (bit-identical decisions) and "
                        "print the engine's cache statistics")
    trace_arg(p, "per-request and per-server spans, curve-op "
                 "counters, engine cache stats")
    store_arg(p)

    p = sub.add_parser("export",
                       help="write figure data as CSV + JSON files")
    p.add_argument("--out", default="results",
                   help="output directory (default ./results)")
    p.add_argument("--quick", action="store_true")

    p = sub.add_parser("chart",
                       help="ASCII chart of one figure's delay panel")
    p.add_argument("--figure", choices=sorted(FIGURES), default="FIG5")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--log", action="store_true",
                   help="log-scale value axis (like the paper)")

    p = sub.add_parser("report",
                       help="regenerate the full reproduction report")
    p.add_argument("--out", default="REPORT.md")
    p.add_argument("--quick", action="store_true")

    p = sub.add_parser("resilience",
                       help="survivability of the tandem's deadline "
                            "guarantees under fault scenarios")
    tandem_args(p)
    p.add_argument("--analyzer", default="integrated",
                   help="analysis used for baseline and retests "
                        "(default integrated)")
    p.add_argument("--slack", type=float, default=1.5,
                   help="deadline = slack x healthy bound per flow "
                        "(default 1.5)")
    p.add_argument("--degrade", action="append", default=[],
                   metavar="SERVER=FACTOR",
                   help="degrade SERVER to FACTOR of its capacity "
                        "(repeatable)")
    p.add_argument("--fail", action="append", default=[],
                   metavar="SERVER",
                   help="fail SERVER outright (repeatable)")
    p.add_argument("--inflate", action="append", default=[],
                   metavar="FLOW=FACTOR",
                   help="inflate FLOW's burst by FACTOR; FLOW 'all' "
                        "hits every source (repeatable)")
    p.add_argument("--verbose", action="store_true",
                   help="print surviving flows too, not just casualties")

    p = sub.add_parser("sweep",
                       help="fault-tolerant parameter sweep with "
                            "checkpoint/resume")
    p.add_argument("--analyzers", default="integrated",
                   help="comma-separated analyzer names "
                        "(default integrated)")
    p.add_argument("--hops", default="2,4",
                   help="comma-separated tandem sizes (default 2,4)")
    p.add_argument("--loads", default="0.2,0.5,0.8",
                   help="comma-separated loads (default 0.2,0.5,0.8)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failing point (default 1)")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="stream completed points to this JSONL file")
    p.add_argument("--resume", action="store_true",
                   help="with --checkpoint: evaluate only missing or "
                        "failed points")
    p.add_argument("--serial", action="store_true",
                   help="run in-process instead of a worker pool")
    p.add_argument("--profile", action="store_true",
                   help="profile every point (wall-clock + curve-op "
                        "counters per point, kept in checkpoint "
                        "records) and print a per-point timing column")
    store_arg(p)

    p = sub.add_parser("serve",
                       help="journaled admission service: admit a "
                            "stream of identical connections with "
                            "write-ahead durability, circuit breakers "
                            "and graceful SIGTERM/SIGINT shutdown")
    p.add_argument("--journal", required=True, metavar="DIR",
                   help="write-ahead journal directory (must be fresh "
                        "unless --resume)")
    p.add_argument("--resume", action="store_true",
                   help="recover DIR's journal and continue serving "
                        "from the reconstructed state")
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--deadline", type=float, default=30.0)
    p.add_argument("--rho", type=float, default=0.02,
                   help="per-connection rate (default 0.02)")
    p.add_argument("--analyzer", default="integrated",
                   help="primary admission analysis (default integrated)")
    p.add_argument("--count", type=int, default=100,
                   help="connections to attempt (default 100)")
    p.add_argument("--interval", type=float, default=0.0, metavar="S",
                   help="sleep between admissions (throttles the "
                        "stream; default 0)")
    p.add_argument("--budget", type=float, default=None, metavar="S",
                   help="per-analyzer wall-clock budget per test")
    p.add_argument("--shed-latency", type=float, default=None,
                   metavar="S", dest="shed_latency",
                   help="latency SLO that triggers automatic load "
                        "shedding (cache, then closed-form bounds)")
    p.add_argument("--snapshot-every", type=int, default=64,
                   dest="snapshot_every", metavar="K",
                   help="journaled ops between snapshots (default 64)")
    p.add_argument("--no-incremental", action="store_true",
                   help="run the primary analyzer cold (no engine rung)")
    p.add_argument("--tandems", type=int, default=1,
                   help="serve this many disjoint tandems round-robin "
                        "(independent components parallel batches can "
                        "fan out over; default 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="admission-test process pool size; > 1 admits "
                        "in batches whose independent component groups "
                        "run concurrently (default 1 = serial)")
    p.add_argument("--batch", type=int, default=16,
                   help="requests per admit_batch when --workers > 1 "
                        "(default 16)")
    store_arg(p)

    p = sub.add_parser("loadtest",
                       help="SLO-gated load test of the admission "
                            "service: seeded workload, canonical "
                            "trace record/replay, optional chaos "
                            "kill/recover")
    p.add_argument("--workload", default="poisson",
                   choices=sorted(WORKLOADS),
                   help="arrival process (default poisson)")
    p.add_argument("--seed", type=int, default=7,
                   help="workload seed (default 7)")
    p.add_argument("--rate", type=float, default=40.0,
                   help="average offered load in req/s (default 40)")
    p.add_argument("--duration", type=float, default=10.0, metavar="S",
                   help="virtual horizon in seconds (default 10)")
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--tandems", type=int, default=1, metavar="T",
                   help="disjoint tandems of --hops servers; requests "
                        "round-robin across them (independent "
                        "components give --workers concurrency to "
                        "exploit; default 1)")
    p.add_argument("--deadline", type=float, default=30.0)
    p.add_argument("--rho", type=float, default=0.02,
                   help="per-connection rate (default 0.02)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--hold", type=float, default=None, metavar="S",
                   dest="hold_s",
                   help="mean connection lifetime: admits spawn "
                        "releases (churn); default none (churn "
                        "workload: 10/rate)")
    p.add_argument("--paths", choices=("full", "random"),
                   default="full",
                   help="request paths: the full tandem or random "
                        "contiguous sub-paths (default full)")
    p.add_argument("--analyzer", default="integrated",
                   help="primary admission analysis (default "
                        "integrated)")
    p.add_argument("--no-incremental", action="store_true",
                   help="run the primary analyzer cold (no engine "
                        "rung)")
    p.add_argument("--budget", type=float, default=None, metavar="S",
                   help="per-analyzer wall-clock budget per test")
    p.add_argument("--shed-latency", type=float, default=None,
                   metavar="S", dest="shed_latency",
                   help="latency SLO for automatic shedding (makes "
                        "outcomes timing-dependent: traces recorded "
                        "with it are not byte-stable)")
    p.add_argument("--closed-loop", type=int, default=None, metavar="K",
                   dest="closed_loop",
                   help="closed-loop saturation probe with K logical "
                        "clients instead of the open-loop schedule")
    p.add_argument("--requests", type=int, default=None, metavar="N",
                   help="closed loop: total requests (default "
                        "rate x duration)")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="closed loop: admit each round of in-flight "
                        "requests as one parallel batch on W pool "
                        "workers (decisions stay bit-identical to "
                        "the serial round-robin; default 1)")
    p.add_argument("--pace", action="store_true",
                   help="open loop: sleep to the virtual schedule "
                        "(real-time run) instead of as-fast-as-"
                        "possible")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="journal directory (default: fresh temp dir, "
                        "removed after the run)")
    p.add_argument("--chaos", action="store_true",
                   help="SIGKILL-equivalent mid-run: abandon the "
                        "service, recover from the journal, verify "
                        "zero lost committed admissions")
    p.add_argument("--chaos-at", action="append", type=int, default=[],
                   metavar="N", dest="chaos_at",
                   help="chaos kill before event N (repeatable; "
                        "default with --chaos: the run midpoint)")
    p.add_argument("--chaos-verify", action="store_true",
                   dest="chaos_verify",
                   help="bit-identical bound re-verification on every "
                        "chaos recovery (slower)")
    p.add_argument("--record", default=None, metavar="FILE",
                   help="record the canonical JSONL trace to FILE")
    p.add_argument("--record-latency", action="store_true",
                   dest="record_latency",
                   help="include wall-clock latency/lag per trace "
                        "record (trace is then not byte-stable)")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-execute a recorded trace and diff every "
                        "decision instead of generating load")
    p.add_argument("--slo", default=None, metavar="SPEC",
                   help="gate the run, e.g. "
                        "'p99<0.5,reject<0.2,lost<1' "
                        "(see docs/LOADTEST.md)")
    p.add_argument("--out", default="BENCH_loadtest.json",
                   metavar="FILE",
                   help="machine-readable result artifact (default "
                        "BENCH_loadtest.json; '' disables)")

    p = sub.add_parser("recover",
                       help="crash recovery: replay a journal "
                            "directory and re-verify its bounds")
    p.add_argument("--journal", required=True, metavar="DIR")
    p.add_argument("--no-verify", action="store_true",
                   help="structural replay only; skip the bit-identical "
                        "bound re-verification")
    p.add_argument("--show-bounds", action="store_true",
                   help="print the recovered per-flow delay bounds")
    store_arg(p)

    p = sub.add_parser("store",
                       help="inspect, compact or verify a persistent "
                            "analysis store directory")
    p.add_argument("action", choices=("inspect", "compact", "verify"),
                   help="inspect: layout + stats; compact: rewrite "
                        "live entries (LRU-capped); verify: full "
                        "checksum scan")
    p.add_argument("path", metavar="DIR",
                   help="store directory (as passed to --store)")
    p.add_argument("--max-bytes", type=int, default=None,
                   dest="max_bytes", metavar="N",
                   help="compact: cap live payload bytes, evicting "
                        "least-recently-used entries beyond N")

    p = sub.add_parser("validate",
                       help="differential validation: fuzz the bounds "
                            "against the simulator and the sampled "
                            "kernels")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of random topologies to fuzz "
                        "(default 20)")
    p.add_argument("--quick", action="store_true",
                   help="small topologies, short simulations and a "
                        "reduced kernel workload (CI smoke mode)")
    p.add_argument("--horizon", type=float, default=80.0,
                   help="simulation horizon per topology (default 80)")
    p.add_argument("--packet", type=float, default=0.05,
                   help="simulated packet size (default 0.05)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write shrunk JSON repro cases for any "
                        "violations into DIR")
    p.add_argument("--budget", type=float, default=None, metavar="S",
                   help="cooperative wall-clock budget in seconds; on "
                        "expiry a partial report is printed")
    p.add_argument("--no-shrink", action="store_true",
                   help="record violating topologies as found, "
                        "without minimizing them")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="replay one saved repro case instead of "
                        "fuzzing")
    trace_arg(p, "per-seed spans, validate.* counters")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    if args.network:
        from repro.network.serialization import load_network

        net = load_network(args.network)
        print(f"network: {args.network} ({len(net.servers)} servers, "
              f"{len(net.flows)} flows)")
        flows = [f.name for f in net.iter_flows()]
    else:
        net = build_tandem(args.hops, args.load, args.sigma)
        print(f"tandem: n={args.hops}, U={args.load}, "
              f"sigma={args.sigma}")
        flows = ([f.name for f in net.iter_flows()] if args.all_flows
                 else [CONNECTION0])
    names = (sorted(ANALYZERS) if args.analyzer == "all"
             else [args.analyzer])
    if not net.is_feedforward:
        names = [n for n in names if n == "feedback"] or ["feedback"]
        print("(cyclic network: using the feedback analysis)")
    width = max(10, *(len(f) for f in flows))
    header = f"{'flow':>{width}}" + "".join(f"{n:>15}" for n in names)
    print(header)
    reports = {n: _make_analyzer(n).analyze(net) for n in names}
    for fname in flows:
        row = f"{fname:>{width}}"
        for n in names:
            row += f"{reports[n].delay_of(fname):15.4f}"
        print(row)
    return 0


def _cmd_figures(args) -> int:
    sweep = quick_sweep() if args.quick else None
    keys = [args.figure] if args.figure else sorted(FIGURES)
    for key in keys:
        fig = FIGURES[key](sweep) if sweep else FIGURES[key]()
        print(render_figure(fig))
    return 0


def _cmd_simulate(args) -> int:
    net = build_tandem(args.hops, args.load, args.sigma)
    bound = IntegratedAnalysis().analyze(net).delay_of(CONNECTION0)
    sim = simulate_greedy(net, horizon=args.horizon,
                          packet_size=args.packet)
    stats = sim.stats[CONNECTION0]
    print(f"simulated {sim.packets_completed} packets over "
          f"{args.horizon:g}s (greedy sources)")
    print(f"Connection 0: observed max={stats.max_delay:.4f} "
          f"mean={stats.mean_delay:.4f} p99={stats.p99_delay:.4f}")
    print(f"integrated bound: {bound:.4f}  "
          f"(observed/bound = {stats.max_delay / bound:.1%})")
    slack = args.packet * args.hops
    ok = stats.max_delay <= bound + slack
    print("soundness:", "OK" if ok else "VIOLATED")
    return 0 if ok else 1


def _cmd_admit(args) -> int:
    from repro.context import NULL_CONTEXT, AnalysisContext

    ctx = AnalysisContext.tracing() if args.trace else NULL_CONTEXT

    def make(k: int) -> ConnectionRequest:
        return ConnectionRequest(
            f"conn_{k}", TokenBucket(1.0, args.rho, peak=1.0),
            tuple(range(1, args.hops + 1)), args.deadline)

    with _open_store(args.store) as store:
        if store is not None and not args.incremental:
            # the store rides the engine's lookup ladder
            args.incremental = True
        empty = Network([ServerSpec(k) for k in range(1, args.hops + 1)],
                        [])
        controller = AdmissionController(
            empty, _make_analyzer(args.analyzer),
            incremental=args.incremental, context=ctx, store=store)
        count = controller.admissible_count(make,
                                            max_tries=args.max_tries)
    print(f"{args.analyzer}: admitted {count} identical connections "
          f"(deadline {args.deadline:g}, rho {args.rho:g}, "
          f"{args.hops} hops)")
    if controller.engine_stats is not None:
        print(controller.engine_stats.render())
    if store is not None:
        print(f"store: {store.path} ({len(store)} entries)")
    if args.trace:
        meta: dict = {"command": "admit", "analyzer": args.analyzer,
                      "hops": args.hops, "deadline": args.deadline,
                      "rho": args.rho, "admitted": count}
        if controller.engine_stats is not None:
            meta["engine"] = controller.engine_stats.as_dict()
        _write_trace(ctx, args.trace, **meta)
    return 0


def _cmd_export(args) -> int:
    from repro.eval.export import write_figure_files

    sweep = quick_sweep() if args.quick else None
    figures = [FIGURES[k](sweep) if sweep else FIGURES[k]()
               for k in sorted(FIGURES)]
    written = write_figure_files(figures, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_chart(args) -> int:
    from repro.eval.ascii_chart import render_chart

    sweep = quick_sweep() if args.quick else None
    fig = FIGURES[args.figure](sweep) if sweep else FIGURES[args.figure]()
    print(render_chart(fig.delay_series, log_y=args.log,
                       title=f"{fig.figure_id}: {fig.title} "
                             "(Connection 0 delay bound)"))
    return 0


def _cmd_report(args) -> int:
    from repro.eval.report import write_report

    path = write_report(args.out, quick=args.quick)
    print(f"wrote {path}")
    return 0


def _server_id(token: str):
    """Tandem server ids are ints; fall back to the raw string."""
    return int(token) if token.lstrip("-").isdigit() else token


def _split_kv(spec: str, what: str) -> tuple[str, float]:
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise SystemExit(f"--{what} expects NAME=FACTOR, got {spec!r}")
    try:
        return name, float(value)
    except ValueError:
        raise SystemExit(
            f"--{what} {spec!r}: {value!r} is not a number") from None


def _cmd_resilience(args) -> int:
    from repro.resilience import (
        BurstInflation,
        ServerDegradation,
        ServerFailure,
        render_survivability,
        survivability,
    )

    net = build_tandem(args.hops, args.load, args.sigma)
    analyzer = _make_analyzer(args.analyzer)
    baseline = analyzer.analyze(net)
    deadlined = Network(
        net.servers.values(),
        [f.with_deadline(args.slack * baseline.delay_of(f.name))
         for f in net.iter_flows()])

    scenarios = []
    for spec in args.degrade:
        sid, factor = _split_kv(spec, "degrade")
        scenarios.append(ServerDegradation(_server_id(sid), factor))
    for spec in args.fail:
        scenarios.append(ServerFailure(_server_id(spec)))
    for spec in args.inflate:
        name, factor = _split_kv(spec, "inflate")
        scenarios.append(BurstInflation(
            factor, None if name == "all" else [name]))
    if not scenarios:
        # default drill: degrade each server to 90%, one at a time
        scenarios = [ServerDegradation(sid, 0.9)
                     for sid in sorted(net.servers)]

    print(f"tandem: n={args.hops}, U={args.load}, sigma={args.sigma}, "
          f"deadlines at {args.slack:g}x healthy bounds")
    report = survivability(deadlined, scenarios, analyzer)
    print(render_survivability(report, verbose=args.verbose))
    return 0 if report.survives else 1


def _cmd_sweep(args) -> int:
    from repro.context import AnalysisContext, MetricsRegistry
    from repro.eval.parallel import evaluate_grid

    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    analyzers = [a for a in args.analyzers.split(",") if a]
    hops = [int(h) for h in args.hops.split(",") if h]
    loads = [float(u) for u in args.loads.split(",") if u]

    # live progress sourced from the sweep's metrics registry
    ctx = AnalysisContext(metrics=MetricsRegistry())
    start = time.perf_counter()

    def progress(done: int, total: int, errors: int) -> None:
        m = ctx.metrics
        done = int(m.get("sweep.done"))
        total = int(m.get("sweep.total"))
        errors = int(m.get("sweep.errors"))
        elapsed = time.perf_counter() - start
        eta = elapsed / done * (total - done) if done else 0.0
        print(f"\r{done}/{total} points, {errors} errors, "
              f"ETA {eta:.0f}s ", end="", file=sys.stderr, flush=True)

    with _open_store(args.store) as store:
        points = evaluate_grid(
            analyzers, hops, loads, sigma=args.sigma,
            parallel=not args.serial, timeout=args.timeout,
            retries=args.retries, checkpoint=args.checkpoint,
            resume=args.resume, ctx=ctx, profile=args.profile,
            progress=progress, store=store)
    print(file=sys.stderr)
    timing = f" {'time':>8} " if args.profile else "  "
    print(f"{'analyzer':>15} {'hops':>5} {'load':>6} "
          f"{'delay':>10}{timing} status")
    failed = 0
    for p in points:
        timing = f" {p.elapsed_s:>7.3f}s " if args.profile else "  "
        if p.ok:
            print(f"{p.analyzer:>15} {p.n_hops:>5} {p.load:>6.2f} "
                  f"{p.delay:>10.4f}{timing}ok")
        else:
            failed += 1
            print(f"{p.analyzer:>15} {p.n_hops:>5} {p.load:>6.2f} "
                  f"{'-':>10}{timing}ERROR: {p.error}")
    print(f"{len(points) - failed}/{len(points)} points ok"
          + (f", {failed} failed" if failed else ""))
    if store is not None:
        m = ctx.metrics
        print(f"store: {store.path} ({len(store)} entries, "
              f"{int(m.get('store.writes'))} new)")
    return 0 if failed == 0 else 1


def _start_service(args, store):
    """The service ``repro serve`` drives: resumed, or on fresh tandems."""
    from repro.service import AdmissionService, recover_service

    if args.resume:
        service = recover_service(
            args.journal,
            analyzer=_make_analyzer(args.analyzer),
            analysis_budget=args.budget,
            incremental=not args.no_incremental,
            snapshot_every=args.snapshot_every,
            shed_latency_s=args.shed_latency,
            store=store)
        print(f"recovered {len(service.admitted)} connection(s) "
              f"from {args.journal}"
              + (f" (store: {store.path})"
                 if store is not None else ""))
        return service
    # --tandems T disjoint lines of --hops servers; requests
    # round-robin across them (independent components, so
    # --workers > 1 has concurrency to exploit)
    empty = Network(
        [ServerSpec(t * args.hops + k)
         for t in range(args.tandems)
         for k in range(1, args.hops + 1)], [])
    return AdmissionService(
        empty, _make_analyzer(args.analyzer),
        journal_dir=args.journal,
        analysis_budget=args.budget,
        incremental=not args.no_incremental,
        snapshot_every=args.snapshot_every,
        shed_latency_s=args.shed_latency,
        store=store)


def _cmd_serve(args) -> int:
    from repro.errors import JournalError, RecoveryError

    if args.tandems < 1:
        raise SystemExit("serve: --tandems must be >= 1")
    if args.workers < 1:
        raise SystemExit("serve: --workers must be >= 1")

    def make(k: int) -> ConnectionRequest:
        base = (k % args.tandems) * args.hops
        return ConnectionRequest(
            f"conn_{k}", TokenBucket(1.0, args.rho, peak=1.0),
            tuple(range(base + 1, base + args.hops + 1)), args.deadline)

    def show(k: int, outcome) -> bool:
        if outcome.admitted:
            print(f"seq {outcome.seq}: admitted conn_{k} "
                  f"bound={outcome.bound:.4f} "
                  f"[{outcome.degradation}]")
            return True
        print(f"rejected conn_{k} [{outcome.degradation}]: "
              f"{outcome.reason}")
        return False

    with _open_store(args.store) as store:
        try:
            service = _start_service(args, store)
        except (JournalError, RecoveryError) as exc:
            raise SystemExit(f"serve: {exc}") from None
        admitted = rejected = 0
        start = len(service.admitted)
        batch = max(1, args.batch) if args.workers > 1 else 1
        with service.graceful_shutdown():
            k = start
            while k < start + args.count:
                if service.shutdown_requested:
                    print("shutdown requested: checkpointing and "
                          "exiting", file=sys.stderr)
                    break
                ks = list(range(k, min(k + batch, start + args.count)))
                if batch > 1:
                    outcomes = service.admit_batch(
                        [make(i) for i in ks], workers=args.workers)
                else:
                    outcomes = [service.admit(make(ks[0]))]
                stop = False
                for i, outcome in zip(ks, outcomes):
                    if show(i, outcome):
                        admitted += 1
                    else:
                        rejected += 1
                        stop = True
                if stop:
                    break
                k += len(ks)
                if args.interval > 0:
                    time.sleep(args.interval)
    lat = service.latency_quantiles()
    print(f"served {admitted} admission(s), {rejected} rejection(s); "
          f"journal at {args.journal} "
          f"(breakers: {service.breaker_states()})")
    if lat["count"]:
        print(f"decision latency: p50 {lat['p50'] * 1e3:.2f}ms  "
              f"p95 {lat['p95'] * 1e3:.2f}ms  "
              f"p99 {lat['p99'] * 1e3:.2f}ms  "
              f"max {lat['max'] * 1e3:.2f}ms "
              f"({int(lat['count'])} decision(s))")
    return 0


def _cmd_loadtest(args) -> int:
    import json as _json
    import shutil
    import tempfile

    from repro.context import AnalysisContext, MetricsRegistry
    from repro.errors import (
        JournalError,
        LoadGenError,
        RecoveryError,
        ServiceError,
    )
    from repro.loadgen import (
        ChaosPlan,
        RequestTemplate,
        TraceWriter,
        load_trace,
        make_workload,
        parse_slo,
        replay,
        run_closed_loop,
        run_open_loop,
        summarize,
    )
    from repro.service import AdmissionService, recover_service
    from repro.utils.durable import atomic_write_text

    try:
        slo = parse_slo(args.slo) if args.slo else None
    except LoadGenError as exc:
        raise SystemExit(f"loadtest: {exc}") from None

    ctx = AnalysisContext(metrics=MetricsRegistry())
    tmp_journal = args.journal is None
    journal_dir = (tempfile.mkdtemp(prefix="repro-loadtest-")
                   if tmp_journal else args.journal)
    incremental = not args.no_incremental

    def build_service(hops: int, analyzer_name: str,
                      tandems: int = 1) -> AdmissionService:
        empty = Network([ServerSpec(t * hops + k)
                         for t in range(tandems)
                         for k in range(1, hops + 1)], [])
        return AdmissionService(
            empty, _make_analyzer(analyzer_name),
            journal_dir=journal_dir,
            analysis_budget=args.budget,
            incremental=incremental,
            shed_latency_s=args.shed_latency,
            ctx=ctx)

    try:
        # ---------------- replay mode --------------------------------
        if args.replay:
            try:
                header, events = load_trace(args.replay)
            except LoadGenError as exc:
                raise SystemExit(f"loadtest: {exc}") from None
            drv = header.get("driver", {})
            service = build_service(int(drv.get("hops", args.hops)),
                                    str(drv.get("analyzer",
                                                args.analyzer)),
                                    int(drv.get("tandems", 1)))
            with service:
                report = replay((header, events), service)
            print(f"replayed {args.replay} "
                  f"(workload {header.get('workload', {}).get('kind')}, "
                  f"seed {header.get('workload', {}).get('seed')})")
            print(report.render())
            return 0 if report.ok else 1

        # ---------------- generate mode ------------------------------
        if args.tandems < 1:
            raise SystemExit("loadtest: --tandems must be >= 1")
        template = RequestTemplate(
            n_servers=args.hops, deadline=args.deadline,
            sigma=args.sigma, rho=args.rho, paths=args.paths,
            tandems=args.tandems)
        try:
            workload = make_workload(
                args.workload, args.seed, args.rate,
                template=template, hold_s=args.hold_s)
        except LoadGenError as exc:
            raise SystemExit(f"loadtest: {exc}") from None

        closed = args.closed_loop is not None
        if args.workers < 1:
            raise SystemExit("loadtest: --workers must be >= 1")
        if args.workers > 1 and not closed:
            raise SystemExit("loadtest: --workers requires "
                             "--closed-loop (the open-loop schedule "
                             "is defined per event)")
        if closed:
            n = (args.requests if args.requests is not None
                 else max(1, int(args.rate * args.duration)))
            schedule = workload.requests(n)
            n_events = len(schedule)
        else:
            schedule = workload.schedule(args.duration)
            n_events = len(schedule)

        chaos = None
        if args.chaos or args.chaos_at:
            kill_at = args.chaos_at or [max(1, n_events // 2)]

            def recover() -> AdmissionService:
                return recover_service(
                    journal_dir, verify=args.chaos_verify, ctx=ctx,
                    analysis_budget=args.budget,
                    incremental=incremental,
                    shed_latency_s=args.shed_latency)

            chaos = ChaosPlan(kill_at=kill_at, recover=recover)

        driver_desc = {
            "mode": "closed" if closed else "open",
            "hops": args.hops,
            "tandems": args.tandems,
            "analyzer": args.analyzer,
            "incremental": incremental,
            "pace": bool(args.pace),
            "duration_s": args.duration,
            "rate": args.rate,
            "clients": args.closed_loop or 0,
            "workers": args.workers,
            "chaos_at": list(chaos.kill_at) if chaos else [],
        }

        writer = None
        if args.record:
            writer = TraceWriter(args.record,
                                 include_latency=args.record_latency)
            writer.write_header(workload=workload.describe(),
                                driver=driver_desc)
            if args.shed_latency is not None and not args.record_latency:
                print("note: --shed-latency makes decisions timing-"
                      "dependent; the recorded trace may not be "
                      "byte-stable", file=sys.stderr)

        service = build_service(args.hops, args.analyzer, args.tandems)
        try:
            if closed:
                result = run_closed_loop(
                    service, schedule, clients=args.closed_loop,
                    workers=args.workers, writer=writer, chaos=chaos)
            else:
                result = run_open_loop(
                    service, schedule, duration_s=args.duration,
                    offered_rate=args.rate, pace=args.pace,
                    writer=writer, chaos=chaos)
        except (JournalError, RecoveryError, ServiceError) as exc:
            raise SystemExit(f"loadtest: {exc}") from None
        finally:
            if writer is not None:
                writer.close()
        result.service.close()

        report = summarize(result, metrics=ctx.metrics,
                           workload=workload.describe())
        print(report.render())
        if args.record:
            print(f"wrote trace {args.record} "
                  f"({writer.events} event(s))")

        slo_result = slo.evaluate(report) if slo is not None else None
        if slo_result is not None:
            print(slo_result.render())

        if args.out:
            payload = {
                "benchmark": "loadtest",
                "driver": driver_desc,
                "report": report.as_dict(),
                "slo": (None if slo is None else {
                    "spec": args.slo, **slo_result.as_dict()}),
            }
            atomic_write_text(
                args.out,
                _json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.out}")

        if result.chaos_lost:
            print(f"CHAOS FAILURE: lost committed admission(s): "
                  f"{list(result.chaos_lost)}", file=sys.stderr)
            return 1
        return 0 if slo_result is None or slo_result.ok else 1
    finally:
        if tmp_journal:
            shutil.rmtree(journal_dir, ignore_errors=True)


def _cmd_recover(args) -> int:
    from repro.errors import JournalError, RecoveryError
    from repro.service import recover_state, verify_recovery

    try:
        state = recover_state(args.journal)
    except (JournalError, RecoveryError) as exc:
        raise SystemExit(f"recover: {exc}") from None
    print(f"recovered {args.journal}: {len(state.admitted)} admitted "
          f"connection(s), last seq {state.last_seq} "
          f"(snapshot seq {state.snapshot_seq}, "
          f"{state.replayed} replayed, {state.skipped} idempotent "
          f"skip(s), {state.corrupt_lines} corrupt line(s), "
          f"kernel {state.kernel or 'unrecorded'})")
    for name in state.admitted:
        print(f"  {name}")
    if args.no_verify:
        return 0
    with _open_store(args.store) as store:
        try:
            report = verify_recovery(state, store=store)
        except RecoveryError as exc:
            raise SystemExit(f"recover: {exc}") from None
    print(report.render())
    if args.show_bounds and report.final_bounds:
        for name, bound in sorted(report.final_bounds.items()):
            print(f"  {name}: {bound:.6f}")
    return 0 if report.ok else 1


def _cmd_store(args) -> int:
    read_only = args.action in ("inspect", "verify")
    with _open_store(args.path, read_only=read_only) as store:
        if args.action == "inspect":
            info = store.describe()
            cap = info["max_bytes"]
            print(f"store: {info['path']}")
            print(f"  format:   v{info['format']} ({info['schema']}; "
                  f"reads {', '.join(info['reads'])})")
            print(f"  entries:  {info['entries']}")
            print(f"  live:     {info['live_bytes']} payload byte(s)"
                  + (f" (cap {cap})" if cap is not None else ""))
            print(f"  on disk:  {info['disk_bytes']} byte(s) in "
                  f"{info['segments']} segment(s)")
            stats = info["stats"]
            print(f"  scan:     {stats['corrupt']} corrupt frame(s) "
                  f"dropped at open")
            return 0
        if args.action == "compact":
            report = store.compact(max_bytes=args.max_bytes)
            print(report.render())
            return 0
        report = store.verify()
        print(report.render())
        return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    from repro.context import AnalysisContext, Deadline, MetricsRegistry
    from repro.context.tracing import Tracer
    from repro.validate import load_case, replay, run_validation

    deadline = (Deadline(args.budget, "validation run")
                if args.budget else None)
    ctx = AnalysisContext(deadline=deadline,
                          metrics=MetricsRegistry(),
                          tracer=Tracer() if args.trace else None)

    if args.replay:
        case = load_case(args.replay)
        violations = replay(case, ctx=ctx)
        print(f"replayed {args.replay} "
              f"(oracle={case.oracle}, seed={case.seed})")
        for v in violations:
            print(f"  VIOLATION flow={v.flow}: {v.detail}")
        print("still reproduces" if violations
              else "no longer reproduces")
        if args.trace:
            _write_trace(ctx, args.trace, command="validate",
                         replay=args.replay)
        return 1 if violations else 0

    report = run_validation(
        args.seeds, quick=args.quick, horizon=args.horizon,
        packet_size=args.packet, out_dir=args.out,
        shrink=not args.no_shrink, ctx=ctx)
    print(report.render())
    if args.out and report.cases:
        print(f"wrote {len(report.cases)} repro case(s) to {args.out}")
    if args.trace:
        _write_trace(ctx, args.trace, command="validate",
                     seeds=len(report.seeds), violations=len(report.cases))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "figures": _cmd_figures,
        "simulate": _cmd_simulate,
        "admit": _cmd_admit,
        "export": _cmd_export,
        "chart": _cmd_chart,
        "report": _cmd_report,
        "resilience": _cmd_resilience,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
        "loadtest": _cmd_loadtest,
        "store": _cmd_store,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
