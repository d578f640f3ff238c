"""The three differential oracles.

Each oracle is a pure check ``inputs -> list[Violation]``: it never
raises on a failed property (callers decide whether to shrink, record
or abort) and it threads an :class:`~repro.context.AnalysisContext`
through every analysis it runs, so fuzz runs are deadline-bounded and
metered under the ``validate.*`` counter namespace.

Soundness tolerances
--------------------
The fluid analyses bound the delay of *fluid* traffic; the packetized
simulator completes a packet at a hop only once its **last bit** has
been served, which adds up to one packet transmission time
(``packet_size / capacity``) per hop.  :func:`packetization_slack`
computes that documented slack term exactly; observed delays must stay
within ``bound + slack`` (plus a float-comparison epsilon).

Kernel tolerances
-----------------
The sampled kernels evaluate on a uniform grid of spacing ``dt``.  For
operands with Lipschitz constant ``L`` the sampled result can deviate
from the exact one by ``O(dt * L)``; the per-check tolerances below are
that scale with a safety factor of 2 (validated empirically far above
the observed worst cases — see ``docs/VALIDATION.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.analysis.base import Analyzer
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.core.integrated import IntegratedAnalysis
from repro.curves.kernels import use_kernel
from repro.curves.piecewise import PiecewiseLinearCurve
from repro.curves.token_bucket import TokenBucket
from repro.network.flow import Flow
from repro.network.generators import with_burst
from repro.network.topology import Network
from repro.resilience.faults import BurstInflation
from repro.utils.grid import make_grid

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Violation",
    "default_analyzers",
    "packetization_slack",
    "packetizable",
    "check_soundness",
    "check_ordering",
    "check_monotonicity",
    "check_kernels",
    "check_exact_grid",
]

#: Float-comparison epsilon added on top of every analytic tolerance.
EPS_ABS = 1e-9
#: Relative slack for bound-vs-bound comparisons (ordering and
#: monotonicity compare two sampled-kernel results against each other).
EPS_REL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One failed oracle property.

    ``observed > allowed`` always holds for a recorded violation;
    ``margin`` is the (positive) excess.
    """

    oracle: str
    flow: str | None
    detail: str
    observed: float
    allowed: float

    @property
    def margin(self) -> float:
        """How far past the allowed value the observation landed."""
        return self.observed - self.allowed

    def as_dict(self) -> dict:
        """JSON-ready representation (repro-case payload)."""
        return {
            "oracle": self.oracle,
            "flow": self.flow,
            "detail": self.detail,
            "observed": self.observed,
            "allowed": self.allowed,
            "margin": self.margin,
        }


def default_analyzers() -> dict[str, Analyzer]:
    """The analyzer pair every oracle compares by default."""
    return {
        "integrated": IntegratedAnalysis(),
        "decomposed": DecomposedAnalysis(),
    }


def packetization_slack(network: Network, flow: Flow,
                        packet_size: float) -> float:
    """The documented per-hop packetization slack of *flow*.

    One packet transmission time (``packet_size / capacity``) per
    traversed server: the fluid bound covers the last bit's fluid
    delay, and packetized service releases a packet only when that last
    bit has been served at every hop.
    """
    return sum(packet_size / network.server(sid).capacity
               for sid in flow.path)


def packetizable(network: Network, packet_size: float) -> Network:
    """*network* with every burst raised to at least one packet.

    A packetized source cannot emit a packet from a bucket shallower
    than the packet, so the simulator's stream for such a flow (a
    zero-burst one) conforms only to a one-packet bucket.  That is the
    network whose bounds a simulation can check.
    """
    return with_burst(network, [f.name for f in network.iter_flows()
                                if f.bucket.sigma < packet_size],
                      packet_size)


# ----------------------------------------------------------------------
# oracle 1: soundness (simulation vs bounds)
# ----------------------------------------------------------------------


def check_soundness(network: Network, target: str | None = None, *,
                    horizon: float = 80.0, packet_size: float = 0.05,
                    analyzers: Mapping[str, Analyzer] | None = None,
                    ctx: AnalysisContext = NULL_CONTEXT,
                    ) -> list[Violation]:
    """Observed adversarial-simulation delays must stay below bounds.

    The adversarial stagger attacks *target* (default: the flow with
    the most hops), but soundness is asserted for **every** flow with
    completed packets — a bound must hold under any arrival pattern,
    adversarial toward this flow or not.  Bursts below one packet are
    simulated and bounded as one packet (:func:`packetizable`).
    """
    from repro.sim.adversary import simulate_adversarial

    analyzers = dict(analyzers) if analyzers is not None \
        else default_analyzers()
    if target is None:
        target = _longest_flow(network)
    network = packetizable(network, packet_size)
    reports = {name: a.run(network, ctx)
               for name, a in analyzers.items()}
    ctx.checkpoint("soundness simulation")
    with ctx.timed("validate.sim"):
        sim = simulate_adversarial(network, target, horizon=horizon,
                                   packet_size=packet_size)
    violations = []
    for name, report in reports.items():
        for flow in network.iter_flows():
            stats = sim.stats.get(flow.name)
            if stats is None or stats.count == 0:
                continue
            slack = packetization_slack(network, flow, packet_size)
            allowed = report.delay_of(flow.name) + slack + EPS_ABS
            ctx.count("validate.soundness_checks")
            if stats.max_delay > allowed:
                violations.append(Violation(
                    "soundness", flow.name,
                    f"simulated delay {stats.max_delay:.6g} exceeds "
                    f"{name} bound {report.delay_of(flow.name):.6g} + "
                    f"packetization slack {slack:.6g} "
                    f"(target={target!r}, horizon={horizon:g}, "
                    f"packet={packet_size:g})",
                    stats.max_delay, allowed))
    return violations


# ----------------------------------------------------------------------
# oracle 2: ordering and monotonicity
# ----------------------------------------------------------------------


def check_ordering(network: Network, *,
                   analyzers: Mapping[str, Analyzer] | None = None,
                   ctx: AnalysisContext = NULL_CONTEXT,
                   ) -> list[Violation]:
    """``Integrated <= Decomposed`` per flow on feed-forward networks.

    The paper's central claim: the integrated bound never loses to the
    decomposition.  Uses the "integrated" and "decomposed" entries of
    *analyzers* (both must be present).
    """
    analyzers = dict(analyzers) if analyzers is not None \
        else default_analyzers()
    integrated = analyzers["integrated"].run(network, ctx)
    decomposed = analyzers["decomposed"].run(network, ctx)
    violations = []
    for flow in network.iter_flows():
        d_int = integrated.delay_of(flow.name)
        d_dec = decomposed.delay_of(flow.name)
        allowed = d_dec * (1.0 + EPS_REL) + EPS_ABS
        ctx.count("validate.ordering_checks")
        if d_int > allowed:
            violations.append(Violation(
                "ordering", flow.name,
                f"integrated bound {d_int:.6g} exceeds decomposed "
                f"bound {d_dec:.6g}", d_int, allowed))
    return violations


def _inflate_rates(network: Network, factor: float) -> Network | None:
    """Every source rate scaled by *factor*, or None when that would
    push any server to (or past) saturation — the inflated comparison
    point must itself be a stable network."""
    if factor * network.max_utilization() >= 0.999:
        return None
    result = network
    for flow in network.iter_flows():
        b = flow.bucket
        peak = b.peak if math.isinf(b.peak) else max(b.peak,
                                                     b.rho * factor)
        result = result.replace_flow(Flow(
            flow.name, TokenBucket(b.sigma, b.rho * factor, peak),
            flow.path, deadline=flow.deadline, priority=flow.priority))
    return result


def check_monotonicity(network: Network, *,
                       burst_factor: float = 2.0,
                       rate_factor: float = 1.25,
                       analyzers: Mapping[str, Analyzer] | None = None,
                       ctx: AnalysisContext = NULL_CONTEXT,
                       ) -> list[Violation]:
    """Bounds must not decrease under burst or utilization inflation.

    Two inflations are applied: every source's burst scaled by
    *burst_factor*, and every source's rate scaled by *rate_factor*
    (skipped when it would destabilize a server).  For each analyzer
    and flow, the inflated bound must be at least the baseline bound
    (up to the bound-vs-bound comparison slack).

    Always evaluated on the exact kernel: monotonicity is a property
    of the analytic bounds, and the grid backend's resolution-derived
    soundness pads shrink with its rate-aware horizon — inflating the
    rates can shrink the pad faster than the true bound grows, so the
    padded bound is *not* monotone in the inputs (see docs/KERNELS.md).
    The grid backend itself is covered by the kernel and exact-vs-grid
    differential oracles.
    """
    analyzers = dict(analyzers) if analyzers is not None \
        else default_analyzers()
    violations = []
    with use_kernel("exact"):
        base = {name: a.run(network, ctx)
                for name, a in analyzers.items()}
        inflations: list[tuple[str, Network]] = [
            (f"burst x{burst_factor:g}",
             BurstInflation(burst_factor).apply(network)),
        ]
        inflated_rates = _inflate_rates(network, rate_factor)
        if inflated_rates is not None:
            inflations.append((f"rate x{rate_factor:g}", inflated_rates))

        for label, inflated in inflations:
            for name, analyzer in analyzers.items():
                report = analyzer.run(inflated, ctx)
                for flow in network.iter_flows():
                    before = base[name].delay_of(flow.name)
                    after = report.delay_of(flow.name)
                    floor = before * (1.0 - EPS_REL) - EPS_ABS
                    ctx.count("validate.monotonicity_checks")
                    if after < floor:
                        violations.append(Violation(
                            "monotonicity", flow.name,
                            f"{name} bound dropped from {before:.6g} to "
                            f"{after:.6g} under {label}",
                            # monotonicity is a lower-bound property; keep
                            # the violation's observed > allowed convention
                            # by negating both sides
                            -after, -floor))
    return violations


# ----------------------------------------------------------------------
# oracle 3: exact-vs-sampled kernel differential
# ----------------------------------------------------------------------


def _random_concave(rng: np.random.Generator) -> PiecewiseLinearCurve:
    """A random arrival curve (peak-limited token bucket)."""
    sigma = float(rng.uniform(0.2, 3.0))
    rho = float(rng.uniform(0.05, 0.6))
    peak = float(rng.uniform(max(rho * 1.5, 0.7), 2.0))
    return TokenBucket(sigma, rho, peak).constraint_curve()


def _random_convex(rng: np.random.Generator,
                   min_rate: float) -> PiecewiseLinearCurve:
    """A random service curve (rate-latency above *min_rate*)."""
    rate = float(rng.uniform(max(min_rate + 0.1, 0.3), 2.0))
    latency = float(rng.uniform(0.0, 4.0))
    return PiecewiseLinearCurve.rate_latency(rate, latency)


def _lipschitz(c: PiecewiseLinearCurve) -> float:
    import numpy as np

    return float(np.max(np.abs(c.slopes())))


def _characteristic(c: PiecewiseLinearCurve) -> float:
    t = float(c.x[-1])
    if c.final_slope > 0:
        t += max(float(c.y[-1]), 0.0) / c.final_slope
    return t


def check_kernels(seed: int, *, trials: int = 8,
                  resolution: int = 1024,
                  ctx: AnalysisContext = NULL_CONTEXT,
                  ) -> list[Violation]:
    """Exact curve kernels vs the sampled grid kernels.

    For *trials* random (concave arrival, concave arrival, convex
    service) triples, compares

    * exact concave ``convolve`` against :func:`numeric.grid_convolve`,
    * exact convex ``convolve`` against the sampled kernel,
    * exact ``horizontal_deviation`` against :func:`numeric.grid_hdev`,
    * exact ``vertical_deviation`` against :func:`numeric.grid_vdev`,

    each within its resolution-derived tolerance (module docstring).
    """
    import numpy as np

    from repro.curves import numeric

    rng = np.random.default_rng(seed)
    violations = []

    def record(op: str, exact: float, sampled: float, tol: float,
               what: str) -> None:
        ctx.count("validate.kernel_checks")
        err = abs(exact - sampled)
        if err > tol:
            violations.append(Violation(
                "kernel", None,
                f"{op}: exact {exact:.9g} vs sampled {sampled:.9g} "
                f"({what}, seed={seed})", err, tol))

    for trial in range(trials):
        ctx.checkpoint(f"kernel differential trial {trial}")
        arr = _random_concave(rng)
        arr2 = _random_concave(rng)
        srv = _random_convex(rng, min_rate=arr.final_slope)
        srv2 = _random_convex(rng, min_rate=0.0)
        horizon = max(1.0, 4.0 * max(_characteristic(arr),
                                     _characteristic(arr2),
                                     _characteristic(srv),
                                     _characteristic(srv2)))
        grid = make_grid(horizon, resolution)
        dt = grid.dt
        l_arr, l_arr2 = _lipschitz(arr), _lipschitz(arr2)
        l_srv, l_srv2 = _lipschitz(srv), _lipschitz(srv2)
        probe = grid.times[:: max(1, resolution // 64)]

        # concave (x) concave convolution
        exact_cc = arr.convolve(arr2)
        sampled_cc = numeric.to_curve(
            numeric.grid_convolve(numeric.sample(arr, grid),
                                  numeric.sample(arr2, grid)), grid)
        tol = 2.0 * dt * (1.0 + l_arr + l_arr2)
        err = float(np.max(np.abs(exact_cc.sample(probe)
                                  - sampled_cc.sample(probe))))
        record("convolve[concave]", 0.0, err, tol,
               f"trial {trial}, max abs gap on grid")

        # convex (x) convex convolution
        exact_vv = srv.convolve(srv2)
        sampled_vv = numeric.to_curve(
            numeric.grid_convolve(numeric.sample(srv, grid),
                                  numeric.sample(srv2, grid)), grid)
        tol = 2.0 * dt * (1.0 + l_srv + l_srv2)
        err = float(np.max(np.abs(exact_vv.sample(probe)
                                  - sampled_vv.sample(probe))))
        record("convolve[convex]", 0.0, err, tol,
               f"trial {trial}, max abs gap on grid")

        # horizontal deviation (delay bound)
        exact_h = arr.horizontal_deviation(srv)
        sampled_h = numeric.grid_hdev(numeric.sample(arr, grid),
                                      numeric.sample(srv, grid), grid)
        tol = 2.0 * dt * (1.0 + l_arr / max(srv.final_slope, 1e-9))
        record("hdev", exact_h, sampled_h, tol, f"trial {trial}")

        # vertical deviation (backlog bound)
        exact_v = arr.vertical_deviation(srv)
        sampled_v = numeric.grid_vdev(numeric.sample(arr, grid),
                                      numeric.sample(srv, grid))
        tol = 2.0 * dt * (l_arr + l_srv)
        record("vdev", exact_v, sampled_v, tol, f"trial {trial}")
    return violations


def _random_mixed(rng: np.random.Generator) -> PiecewiseLinearCurve:
    """A random mixed-convexity curve: convex near 0, concave beyond.

    ``rate_latency ∧ token-bucket`` with the latency ramp steeper than
    the bucket's sustained rate is neither convex nor concave, so the
    exact kernel must take its general decomposition path (no closed
    form applies).
    """
    concave = _random_concave(rng)
    rate = float(rng.uniform(concave.final_slope + 0.2, 3.0))
    latency = float(rng.uniform(0.2, 2.0))
    return PiecewiseLinearCurve.rate_latency(rate, latency).minimum(
        concave).simplified()


def check_exact_grid(seed: int, *, trials: int = 6,
                     resolution: int = 1024,
                     ctx: AnalysisContext = NULL_CONTEXT,
                     ) -> list[Violation]:
    """Differential oracle over the *operations façade*: exact vs grid.

    Where :func:`check_kernels` compares the raw numeric kernels
    against closed forms, this oracle drives the public
    :mod:`repro.curves.operations` dispatch — the exact kernel's
    general (mixed-convexity) paths against the padded grid backend —
    and asserts the *soundness ordering* the analyses rely on:

    * **convolution**: the grid inf ranges over fewer split points, so
      at every grid time ``exact ⊗ <= grid ⊗ + eps``; and the grid
      result must stay within the documented ``2·dt·(1 + Lf + Lg)``
      error envelope of the exact one.
    * **deconvolution**: the padded grid sup must dominate the exact
      sup on the kept window, within ``2·dt·(Lf + Lg)`` of it.
    * **hdev / vdev**: the grid backend's padded deviations must
      dominate the exact ones, within twice their pad.

    A violation in either direction means a kernel (or a pad) is wrong.
    """
    import numpy as np

    from repro.curves.exact import exact_convolve, exact_deconvolve
    from repro.curves.operations import _auto_grid
    from repro.curves.operations import convolve as op_convolve
    from repro.curves.operations import deconvolve as op_deconvolve
    from repro.curves.operations import hdev, vdev

    rng = np.random.default_rng(seed)
    violations: list[Violation] = []
    n_probe = max(8, resolution // 16)

    def record(op: str, gap: float, tol: float, what: str) -> None:
        ctx.count("validate.exact_grid_checks")
        if gap > tol:
            violations.append(Violation(
                "exact_grid", None,
                f"{op}: {what} (seed={seed})", gap, tol))

    for trial in range(trials):
        ctx.checkpoint(f"exact/grid differential trial {trial}")
        mixed = _random_mixed(rng)
        arr = _random_concave(rng)
        srv = _random_convex(rng, min_rate=max(mixed.final_slope,
                                               arr.final_slope))
        l_m, l_a, l_s = (_lipschitz(c) for c in (mixed, arr, srv))

        # -- convolution: exact general path vs sampled grid ----------
        # Probe at grid points: between them the reconstructed grid
        # curve interpolates linearly and may legitimately dip below
        # the exact curve by O(dt*L) in concave regions.
        grid = _auto_grid(mixed, srv)   # the grid backend's own grid
        probe = grid.times[:: max(1, grid.n // n_probe)]
        probe = probe[probe <= 0.5 * grid.horizon]
        c_exact = exact_convolve(mixed, srv)
        with use_kernel("grid"):
            c_grid = op_convolve(mixed, srv)
        ve, vg = c_exact.sample(probe), c_grid.sample(probe)
        tol = 2.0 * grid.dt * (1.0 + l_m + l_s)
        record("convolve", float(np.max(ve - vg)), EPS_ABS,
               f"trial {trial}: exact exceeds grid inf")
        record("convolve", float(np.max(vg - ve)), tol + EPS_ABS,
               f"trial {trial}: grid outside error envelope")

        # -- deconvolution: exact sup vs padded grid sup --------------
        grid = _auto_grid(arr, srv)
        probe = grid.times[:: max(1, grid.n // n_probe)]
        probe = probe[probe <= 0.5 * grid.horizon]
        d_exact = exact_deconvolve(arr, srv)
        with use_kernel("grid"):
            d_grid = op_deconvolve(arr, srv)
        ve, vg = d_exact.sample(probe), d_grid.sample(probe)
        tol = 2.0 * grid.dt * (l_a + l_s)
        record("deconvolve", float(np.max(ve - vg)), EPS_ABS,
               f"trial {trial}: padded grid sup below exact sup")
        record("deconvolve", float(np.max(vg - ve)), tol + EPS_ABS,
               f"trial {trial}: grid outside error envelope")

        # -- deviations: padded grid must dominate exact --------------
        h_exact, v_exact = hdev(arr, srv), vdev(arr, srv)
        with use_kernel("grid"):
            h_grid, v_grid = hdev(arr, srv), vdev(arr, srv)
        grid = _auto_grid(arr, srv)
        h_pad = 2.0 * grid.dt * (1.0 + l_a / max(srv.final_slope, 1e-9))
        v_pad = 2.0 * grid.dt * (l_a + l_s)
        record("hdev", h_exact - h_grid, EPS_ABS,
               f"trial {trial}: grid hdev below exact")
        record("hdev", h_grid - h_exact, 2.0 * h_pad + EPS_ABS,
               f"trial {trial}: grid hdev outside envelope")
        record("vdev", v_exact - v_grid, EPS_ABS,
               f"trial {trial}: grid vdev below exact")
        record("vdev", v_grid - v_exact, 2.0 * v_pad + EPS_ABS,
               f"trial {trial}: grid vdev outside envelope")
    return violations


def _longest_flow(network: Network) -> str:
    return max(network.flows.values(), key=lambda f: f.n_hops).name
