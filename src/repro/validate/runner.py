"""The seeded fuzz driver behind ``repro validate``.

:func:`run_validation` draws one random feed-forward topology per seed
(:func:`topology_for_seed`), runs the three oracles from
:mod:`repro.validate.oracles` on it, shrinks every violating network to
a minimal failing example (:mod:`repro.validate.shrink`), and packages
each violation as a replayable :class:`~repro.validate.repro_case.ReproCase`
(optionally written to ``--out DIR`` as JSON).

The whole run is driven through one :class:`~repro.context.AnalysisContext`:
a deadline on it bounds the run cooperatively (a partial
:class:`ValidationReport` with ``timed_out=True`` is returned instead of
raising), and all ``validate.*`` counters land in its metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.base import Analyzer
from repro.context import AnalysisContext, MetricsRegistry, NULL_CONTEXT
from repro.errors import AnalysisTimeoutError
from repro.network.generators import random_feedforward, with_burst
from repro.network.serialization import network_to_dict
from repro.network.topology import Network
from repro.validate.oracles import (
    Violation,
    check_exact_grid,
    check_kernels,
    check_monotonicity,
    check_ordering,
    check_soundness,
)
from repro.validate.repro_case import ReproCase, save_case
from repro.validate.shrink import shrink_network

__all__ = ["ValidationReport", "run_validation", "topology_for_seed"]


def topology_for_seed(seed: int, *, quick: bool = False) -> Network:
    """The random feed-forward topology fuzzed for *seed*.

    Topology shape parameters (server count, flow count, utilization
    budget) are themselves drawn from the seed so the fuzz population
    covers sparse 2-server / 2-flow networks up to dense 6-server /
    9-flow ones.  About one seed in four zeroes the burst of every
    other flow (name order), so through aggregates that start at zero
    are fuzzed too.  ``quick`` caps the size for smoke runs.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    hi_servers, hi_flows = (4, 5) if quick else (7, 10)
    n_servers = int(rng.integers(2, hi_servers))
    n_flows = int(rng.integers(2, hi_flows))
    max_util = float(rng.uniform(0.4, 0.9))
    net = random_feedforward(seed, n_servers=n_servers,
                             n_flows=n_flows,
                             max_utilization=max_util)
    if rng.random() < 0.25:
        net = with_burst(net, [f.name for f in net.iter_flows()][::2], 0.0)
    return net


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one :func:`run_validation` run."""

    seeds: tuple[int, ...]
    cases: tuple[ReproCase, ...]
    counters: dict = field(default_factory=dict)
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """True when every oracle held on every completed seed."""
        return not self.cases and not self.timed_out

    def render(self) -> str:
        """Human-readable summary (the CLI's output)."""
        lines = [f"validated {len(self.seeds)} seed(s): "
                 f"{len(self.cases)} violation(s)"]
        for name in ("soundness", "ordering", "monotonicity", "kernel",
                     "exact_grid"):
            n = self.counters.get(f"validate.{name}_checks", 0)
            if n:
                lines.append(f"  {name:<14} {int(n):>6} checks")
        for case in self.cases:
            v = case.violation
            lines.append(
                f"  VIOLATION [{case.oracle}] seed={case.seed} "
                f"flow={v.get('flow')}: {v.get('detail')}")
        if self.timed_out:
            lines.append("  TIMED OUT — report covers completed "
                         "seeds only")
        if self.ok:
            lines.append("  all oracles held")
        return "\n".join(lines)


def _shrink_predicate(oracle: str, flow: str | None, target: str | None,
                      params: dict, ctx: AnalysisContext):
    """True iff *flow* still violates *oracle* on a candidate network."""

    def holds(net: Network) -> bool:
        if oracle == "soundness":
            tgt = target if target in net.flows else None
            found = check_soundness(
                net, tgt, horizon=params["horizon"],
                packet_size=params["packet_size"], ctx=ctx)
        elif oracle == "ordering":
            found = check_ordering(net, ctx=ctx)
        else:
            found = check_monotonicity(
                net, burst_factor=params["burst_factor"],
                rate_factor=params["rate_factor"], ctx=ctx)
        return any(v.flow == flow for v in found)

    return holds


def _case_for(seed: int, net: Network, violation: Violation,
              target: str | None, params: dict, *, shrink: bool,
              ctx: AnalysisContext) -> ReproCase:
    """Shrink *net* around *violation* and package the repro case."""
    minimal = net
    if shrink:
        protect = {v for v in (violation.flow, target) if v is not None}
        minimal = shrink_network(
            net,
            _shrink_predicate(violation.oracle, violation.flow,
                              target, params, ctx),
            protect=protect, max_steps=60, ctx=ctx)
    return ReproCase(oracle=violation.oracle, seed=seed,
                     violation=violation.as_dict(), params=dict(params),
                     network=network_to_dict(minimal))


def run_validation(seeds: int | Iterable[int], *,
                   quick: bool = False,
                   horizon: float = 80.0,
                   packet_size: float = 0.05,
                   burst_factor: float = 2.0,
                   rate_factor: float = 1.25,
                   kernel_trials: int | None = None,
                   kernel_resolution: int | None = None,
                   analyzers: Mapping[str, Analyzer] | None = None,
                   out_dir: str | Path | None = None,
                   shrink: bool = True,
                   ctx: AnalysisContext = NULL_CONTEXT,
                   ) -> ValidationReport:
    """Fuzz the bounds over *seeds* random topologies.

    *seeds* may be a count (meaning ``range(seeds)``) or an explicit
    iterable of seed values.  ``quick`` shrinks topology sizes, the
    simulation horizon and the kernel workload for CI smoke runs.
    Repro cases for any violations are returned on the report and, when
    *out_dir* is given, written there as ``case_<oracle>_<seed>.json``.
    """
    seed_list = list(range(seeds)) if isinstance(seeds, int) else \
        list(seeds)
    if quick:
        horizon = min(horizon, 40.0)
    if kernel_trials is None:
        kernel_trials = 2 if quick else 4
    if kernel_resolution is None:
        kernel_resolution = 512 if quick else 1024
    if ctx.metrics is None:
        ctx = AnalysisContext(deadline=ctx.deadline, tracer=ctx.tracer,
                              metrics=MetricsRegistry())
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    done: list[int] = []
    cases: list[ReproCase] = []
    timed_out = False
    try:
        for seed in seed_list:
            ctx.checkpoint(f"validate seed {seed}")
            with ctx.span("validate.seed", seed=seed):
                net = topology_for_seed(seed, quick=quick)
                target = max(net.flows.values(),
                             key=lambda f: f.n_hops).name
                sound_params = {"target": target, "horizon": horizon,
                                "packet_size": packet_size}
                mono_params = {"burst_factor": burst_factor,
                               "rate_factor": rate_factor}
                found: list[tuple[Violation, dict]] = []
                found += [(v, sound_params) for v in check_soundness(
                    net, target, horizon=horizon,
                    packet_size=packet_size, analyzers=analyzers,
                    ctx=ctx)]
                found += [(v, {}) for v in check_ordering(
                    net, analyzers=analyzers, ctx=ctx)]
                found += [(v, mono_params) for v in check_monotonicity(
                    net, burst_factor=burst_factor,
                    rate_factor=rate_factor, analyzers=analyzers,
                    ctx=ctx)]
                for violation, params in found:
                    ctx.count("validate.violations")
                    cases.append(_case_for(
                        seed, net, violation, target, params,
                        shrink=shrink, ctx=ctx))

                kernel_params = {"trials": kernel_trials,
                                 "resolution": kernel_resolution}
                for violation in check_kernels(
                        seed, trials=kernel_trials,
                        resolution=kernel_resolution, ctx=ctx):
                    ctx.count("validate.violations")
                    cases.append(ReproCase(
                        oracle="kernel", seed=seed,
                        violation=violation.as_dict(),
                        params=dict(kernel_params)))
                for violation in check_exact_grid(
                        seed, trials=kernel_trials,
                        resolution=kernel_resolution, ctx=ctx):
                    ctx.count("validate.violations")
                    cases.append(ReproCase(
                        oracle="exact_grid", seed=seed,
                        violation=violation.as_dict(),
                        params=dict(kernel_params)))
            done.append(seed)
            ctx.count("validate.seeds")
    except AnalysisTimeoutError:
        timed_out = True

    if out_path is not None:
        for i, case in enumerate(cases):
            save_case(case, out_path /
                      f"case_{case.oracle}_{case.seed}_{i}.json")
    counters = ctx.metrics.as_dict() if ctx.metrics is not None else {}
    return ValidationReport(seeds=tuple(done), cases=tuple(cases),
                            counters=counters, timed_out=timed_out)
