"""The benchmark's three seeded workloads and their output checks.

Each workload builds its inputs from the seed alone, drives the public
``repro`` API with its own loop and checks the program's answers
outside the timed region.  ``setup`` may run several times (the harness
reports the median); ``run`` measures for a given number of seconds and
returns an :class:`Outcome`.

* ``paper-tandem`` -- the paper's evaluation: cold Decomposed, Service
  Curve and Integrated bounds of the Figure-3 tandems.  All of its time
  is in ``core`` and ``curves``; it never reaches the engine, store,
  journal or pool.
* ``admission-churn`` -- independent users: a paced open loop of admits
  (Poisson arrivals) and releases (exponential holding times) into a
  journaled, store-backed ``AdmissionService`` with a Decomposed
  primary.  Its work is in ``engine``, ``analysis``, ``servers``,
  ``curves``, journal appends and store writes; ``core`` is never
  called.
* ``restart-burst`` -- a restart after an outage: warm recovery from a
  journal and store, then the burst of requests that queued meanwhile
  through ``admit_batch(workers=2)``.  The same store and journal as
  ``admission-churn``, read instead of written, plus the batch planner
  and the process pool.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
import random
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import repro.service as service_api
from repro.analysis.closed_forms import decomposed_delay, service_curve_delay
from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.context import NULL_CONTEXT
from repro.core.integrated import IntegratedAnalysis
from repro.admission.requests import ConnectionRequest
from repro.curves.token_bucket import TokenBucket
from repro.network.flow import Flow
from repro.network.generators import random_multicomponent
from repro.network.tandem import CONNECTION0, build_tandem
from repro.network.topology import Network, ServerSpec
from repro.store import AnalysisStore
from repro.validate.oracles import EPS_ABS, EPS_REL, check_soundness
from probe import SpeedProbe
from spans import NULL_RECORDER

#: Relative error allowed against the tandem closed forms.
CLOSED_FORM_RTOL = 1e-9
#: Failed-check descriptions kept per run (the count is always exact).
MAX_PROBLEMS = 20


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: named latency samples in seconds, in op order
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: per-op service time in seconds, in op order (trace calibration)
    busy: list[float] = field(default_factory=list)
    #: when each sample (and each busy time) was recorded
    stamps: dict[str, list[float]] = field(default_factory=dict)
    busy_at: list[float] = field(default_factory=list)
    #: host-speed probes taken between the ops
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    #: workload-specific scalars (bound counts, rates, lateness ...)
    values: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)
        self.stamps.setdefault(name, []).append(perf_counter())

    def served(self, seconds: float) -> None:
        self.busy.append(seconds)
        self.busy_at.append(perf_counter())

    def scaled(self) -> Outcome:
        """This outcome with every time scaled to the reference host by
        the probes taken around it (see ``probe.py``)."""
        factor = self.probe.factor
        return replace(
            self,
            samples={name: [x * factor(t) for x, t in
                            zip(xs, self.stamps[name])]
                     for name, xs in self.samples.items()},
            busy=[x * factor(t) for x, t in zip(self.busy, self.busy_at)])


def _hex(x: float) -> str:
    return float(x).hex()


def settle_heap() -> None:
    """Collect garbage and freeze what survives set-up.

    A full collection scans every live object, so without this its
    pause would grow with the harness's own heap (inputs, networks,
    imported modules) rather than with what the measured ops allocate.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# paper-tandem
# ----------------------------------------------------------------------

class PaperTandem:
    """Cold analyses of the paper's Figure-3 tandems, one op per network.

    A run measures whole passes over the nine networks (seeded order)
    until ``seconds`` have elapsed, so every network appears equally
    often in the percentiles.
    """

    name = "paper-tandem"
    #: (sample name, tail percentile); the first is the gated op
    timed_ops = (("analysis", 90),)
    rate_name = "bounds_per_s"
    setup_reps = 5
    hops = (4, 8, 16)
    loads = (0.5, 0.7, 0.9)
    soundness_case = (4, 0.7)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def params(self) -> dict:
        return {"hops": list(self.hops), "loads": list(self.loads),
                "analyzers": ["decomposed", "service_curve", "integrated"],
                "soundness_case": list(self.soundness_case)}

    def setup(self, ctx=NULL_CONTEXT) -> None:
        self.nets = {(n, u): build_tandem(n, u)
                     for n in self.hops for u in self.loads}
        self.closed = {key: (decomposed_delay(*key),
                             service_curve_delay(*key))
                       for key in self.nets}

    def run(self, seconds: float, ctx=NULL_CONTEXT, rec=None) -> Outcome:
        rec = rec or NULL_RECORDER
        out = Outcome()
        first: dict[tuple, tuple[str, ...]] = {}
        wins = pairs = bounds = 0
        start = perf_counter()
        with rec.span("harness", "harness.loop"):
            while True:
                order = sorted(self.nets)
                self.rng.shuffle(order)
                for key in order:
                    net = self.nets[key]
                    gc.collect()  # no op pays for its predecessors' garbage
                    out.probe.tick()
                    rec.op = out.attempted
                    with rec.span("harness", "harness.op"):
                        t0 = perf_counter()
                        reports = (
                            DecomposedAnalysis().analyze(net, ctx=ctx),
                            ServiceCurveAnalysis().analyze(net, ctx=ctx),
                            IntegratedAnalysis().analyze(net, ctx=ctx))
                        t1 = perf_counter()
                    out.attempted += 1
                    out.sample("analysis", t1 - t0)
                    out.served(t1 - t0)
                    bounds += sum(len(r.delays) for r in reports)
                    kernel_wins = reports[2].meta["kernel_wins"].values()
                    pairs += len(kernel_wins)
                    wins += sum(k in ("family", "tie") for k in kernel_wins)
                    problem = self.check(key, net, reports, first)
                    if problem:
                        out.fail(problem)
                if perf_counter() - start >= seconds:
                    break
        out.values["wall_s"] = perf_counter() - start
        out.values["bounds"] = bounds
        out.values["family_win_frac"] = wins / pairs if pairs else 0.0
        out.digest = hashlib.sha256(repr(sorted(first.items()))
                                    .encode()).hexdigest()
        return out

    def check(self, key: tuple, net: Network, reports,
              first: dict) -> str | None:
        """Output checks of one op; a description of the first failure."""
        dec, sc, integ = reports
        for report in reports:
            for name, fd in report.delays.items():
                if not math.isfinite(fd.total):
                    return (f"{key} {report.algorithm}: non-finite bound "
                            f"for {name}")
        for report, want in zip((dec, sc), self.closed[key]):
            got = report.delay_of(CONNECTION0)
            if abs(got - want) > CLOSED_FORM_RTOL * abs(want):
                return (f"{key} {report.algorithm}: connection 0 bound "
                        f"{got!r} != closed form {want!r}")
        for name in net.flows:
            d_int, d_dec = integ.delay_of(name), dec.delay_of(name)
            if d_int > d_dec * (1.0 + EPS_REL) + EPS_ABS:
                return (f"{key}: integrated bound {d_int!r} of {name} "
                        f"exceeds decomposed {d_dec!r}")
        hexes = tuple(_hex(r.delay_of(name)) for r in reports
                      for name in sorted(net.flows))
        if first.setdefault(key, hexes) != hexes:
            return f"{key}: bounds differ from the first pass"
        return None

    @staticmethod
    def rate(out: Outcome) -> float:
        """Flow bounds produced per second of timed wall."""
        return out.values["bounds"] / sum(out.samples["analysis"])

    def final_checks(self, out: Outcome) -> None:
        """Once per run: adversarial simulation stays below the bounds."""
        violations = check_soundness(build_tandem(*self.soundness_case))
        if violations:
            out.fail(f"soundness {self.soundness_case}: "
                     f"{violations[0].detail}")

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# admission-churn
# ----------------------------------------------------------------------

def _tandems(count: int, hops: int, load: float) -> Network:
    """*count* disjoint Figure-3 tandems; tandem c uses servers c*hops+1.."""
    servers: list[ServerSpec] = []
    flows: list[Flow] = []
    for c in range(count):
        net = build_tandem(hops, load)
        servers += [ServerSpec(c * hops + int(s.server_id), s.capacity,
                               s.discipline) for s in net.servers.values()]
        flows += [Flow(f"t{c}_{f.name}", f.bucket,
                       tuple(c * hops + int(k) for k in f.path))
                  for f in net.flows.values()]
    return Network(servers, flows)


class AdmissionChurn:
    """Paced open loop of admits and releases into AdmissionService.

    The schedule depends on the seed only: admits arrive as a Poisson
    process at ``admit_rate`` per second, each admitted connection is
    released after an exponential holding time, and ops are applied in
    due-time order.  Every op is timed from the instant it was due.
    """

    name = "admission-churn"
    # p99 (about 6 of ~570 samples beyond it) swings by a third from
    # run to run on a 2-vCPU VM, so the gated tail is p90; p99 is printed
    timed_ops = (("decision", 90), ("decision", 99))
    rate_name = "service_rate_per_s"
    setup_reps = 5
    tandems = 4
    hops = 8
    base_load = 0.5
    admit_rate = 10.0    # admit requests per second
    hold_mean_s = 1.0
    rho = 0.02           # mean request rate, jittered by +-50%
    sigma = 1.0
    #: deadline per hop, drawn uniformly: the low end rejects some
    #: requests on their deadline, which is a correct answer
    deadline_per_hop = (12.0, 40.0)
    sample_prob = 0.04   # share of decisions re-analyzed cold
    max_samples = 25
    #: a run that falls this far behind its schedule stops early
    hard_limit_s = 120.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.service = self.store = None

    def params(self) -> dict:
        return {"tandems": self.tandems, "hops": self.hops,
                "base_load": self.base_load,
                "admit_rate_per_s": self.admit_rate,
                "hold_mean_s": self.hold_mean_s, "rho": self.rho,
                "rho_jitter": 0.5, "deadline_per_hop":
                list(self.deadline_per_hop), "primary": "decomposed",
                "incremental": True, "journal_fsync": True,
                "store": "starts empty"}

    def setup(self, ctx=NULL_CONTEXT) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.store = AnalysisStore(self.workdir / "store")
        self.service = service_api.AdmissionService(
            _tandems(self.tandems, self.hops, self.base_load),
            DecomposedAnalysis(), journal_dir=self.workdir / "journal",
            store=self.store, ctx=ctx)

    def schedule(self, seconds: float) -> list[tuple]:
        """Admit events ``(due, seq, "admit", request, hold)`` before
        *seconds*, drawn from the seed alone."""
        rng = random.Random(self.seed)
        events = []
        due = rng.expovariate(self.admit_rate)
        k = 0
        while due < seconds:
            c = rng.randrange(self.tandems)
            a = rng.randrange(self.hops)
            b = rng.randrange(a, self.hops)
            path = [c * self.hops + 1 + h for h in range(a, b + 1)]
            rho = self.rho * rng.uniform(0.5, 1.5)
            deadline = len(path) * rng.uniform(*self.deadline_per_hop)
            request = ConnectionRequest(
                f"r{k}", TokenBucket(self.sigma, rho, 1.0), path, deadline)
            hold = rng.expovariate(1.0 / self.hold_mean_s)
            events.append((due, k, "admit", request, hold))
            k += 1
            due += rng.expovariate(self.admit_rate)
        return events

    def run(self, seconds: float, ctx=NULL_CONTEXT, rec=None) -> Outcome:
        rec = rec or NULL_RECORDER
        svc = self.service
        out = Outcome()
        heap = self.schedule(seconds)
        heapq.heapify(heap)
        seq = len(heap)
        sampler = random.Random(self.seed + 1)
        self.samples: list[tuple] = []
        digest = hashlib.sha256()
        admits = admitted = 0
        start = perf_counter()
        with rec.span("harness", "harness.loop"):
            while heap and heap[0][0] < seconds:
                due, _, kind, payload, hold = heapq.heappop(heap)
                due_at = start + due
                if perf_counter() - start > self.hard_limit_s:
                    unanswered = 1 + sum(e[0] < seconds for e in heap)
                    out.attempted += unanswered
                    out.fail(f"run fell {perf_counter() - due_at:.1f}s "
                             f"behind schedule; {unanswered} ops unanswered",
                             unanswered)
                    break
                out.probe.tick(budget_s=due_at - perf_counter())
                if perf_counter() < due_at:
                    # spin rather than sleep: on a shared host a sleeping
                    # vCPU wakes late and slow, which the ops would pay
                    with rec.span("idle", "harness.idle"):
                        while perf_counter() < due_at:
                            pass
                rec.op = out.attempted
                before = svc.network
                t0 = perf_counter()
                try:
                    with rec.span("harness", "harness.op"):
                        if kind == "admit":
                            decision = svc.admit(payload)
                        else:
                            svc.release(payload)
                except Exception as exc:  # an op that raises is a failure
                    out.attempted += 1
                    out.fail(f"{kind} {getattr(payload, 'name', payload)}: "
                             f"{type(exc).__name__}: {exc}")
                    continue
                t1 = perf_counter()
                out.attempted += 1
                out.sample("decision", t1 - due_at)
                out.served(t1 - t0)
                out.sample("generator_late", max(0.0, t0 - due_at))
                if kind == "release":
                    digest.update(f"R {payload}\n".encode())
                    continue
                admits += 1
                admitted += decision.admitted
                problem = self.check(payload, decision)
                if problem:
                    out.fail(problem)
                digest.update(f"A {payload.name} {decision.admitted} "
                              f"{_hex(decision.bound)}\n".encode())
                if decision.admitted:
                    heapq.heappush(heap, (due + hold, seq, "release",
                                          payload.name, 0.0))
                    seq += 1
                if (len(self.samples) < self.max_samples
                        and sampler.random() < self.sample_prob
                        and math.isfinite(decision.bound)):
                    self.samples.append((before, payload, decision.bound))
        out.values["wall_s"] = perf_counter() - start
        out.values["admitted_frac"] = admitted / admits if admits else 0.0
        out.digest = digest.hexdigest()
        return out

    @staticmethod
    def rate(out: Outcome) -> float:
        """Ops completed per busy second."""
        return len(out.busy) / sum(out.busy)

    @staticmethod
    def check(request: ConnectionRequest, decision) -> str | None:
        if decision.degradation != service_api.DEGRADATION_NORMAL:
            return (f"{request.name}: answered at degradation "
                    f"{decision.degradation!r}")
        if decision.admitted:
            if not math.isfinite(decision.bound):
                return f"{request.name}: admitted with a non-finite bound"
            if decision.bound > request.deadline:
                return (f"{request.name}: admitted bound {decision.bound!r} "
                        f"> deadline {request.deadline!r}")
        elif not decision.reason.startswith(("deadline violation",
                                             "overload")):
            return f"{request.name}: rejected: {decision.reason}"
        return None

    def final_checks(self, out: Outcome) -> None:
        """Sampled cold re-analysis and journal re-verification."""
        for before, request, bound in self.samples:
            flow = Flow(request.name, request.bucket, request.path,
                        deadline=request.deadline)
            cold = DecomposedAnalysis().analyze(before.with_flow(flow))
            if _hex(cold.delay_of(request.name)) != _hex(bound):
                out.fail(f"{request.name}: decision bound {bound!r} != "
                         f"cold re-analysis "
                         f"{cold.delay_of(request.name)!r}")
        report = service_api.verify_recovery(self.workdir / "journal")
        if not report.ok:
            out.fail("journal re-verification: " + report.render())

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.store.close()
            self.service = self.store = None


# ----------------------------------------------------------------------
# restart-burst
# ----------------------------------------------------------------------

class RestartBurst:
    """Warm recovery after an outage, then the queued burst in parallel.

    Set-up runs a Decomposed service over ``random_multicomponent``
    through a journaled history of admits and releases (one periodic
    snapshot lands on the way), then abandons it without a final
    checkpoint.  Each iteration recovers a fresh copy of that
    journal and store and admits the burst with ``admit_batch``.
    """

    name = "restart-burst"
    # p80 is the highest tail with ten samples beyond it in a run of
    # ~50-80 iterations; p90 (5-8 beyond) is printed
    timed_ops = (("recovery", 80), ("recovery", 90), ("burst_drain", 90))
    rate_name = "burst_rate_per_s"
    setup_reps = 3
    components = 8
    servers_per_component = 4
    flows_per_component = 32
    history_ops = 72     # journaled admits and releases, 2:1
    snapshot_every = 64  # the service default
    burst = 16
    workers = 2
    rho = 0.004          # mean request rate, jittered by +-50%
    deadline = 1e3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def params(self) -> dict:
        return {"components": self.components,
                "servers_per_component": self.servers_per_component,
                "flows_per_component": self.flows_per_component,
                "history_ops": self.history_ops,
                "snapshot_every": self.snapshot_every, "burst": self.burst,
                "workers": self.workers, "rho": self.rho,
                "primary": "decomposed", "store": "warm"}

    def _request(self, rng: random.Random, name: str,
                 component: int) -> ConnectionRequest:
        width = self.servers_per_component
        a = rng.randrange(width)
        b = rng.randrange(a, width)
        return ConnectionRequest(
            name, TokenBucket(rng.uniform(0.2, 1.0),
                              self.rho * rng.uniform(0.5, 1.5), 1.0),
            [component * width + k for k in range(a, b + 1)],
            self.deadline)

    def setup(self, ctx=NULL_CONTEXT) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        rng = random.Random(self.seed)
        net = random_multicomponent(
            self.seed, self.components, self.servers_per_component,
            self.flows_per_component)
        store = AnalysisStore(self.workdir / "store")
        svc = service_api.AdmissionService(
            net, DecomposedAnalysis(), journal_dir=self.workdir / "journal",
            store=store, snapshot_every=self.snapshot_every)
        live: list[str] = []
        for i in range(self.history_ops):
            if i % 3 == 2 and live:
                svc.release(live.pop(0))
                continue
            request = self._request(rng, f"h{i}", i % self.components)
            if svc.admit(request).admitted:
                live.append(request.name)
        # the outage: no final checkpoint, the journal tail stays
        svc.journal.close()
        store.close()
        self.requests = [self._request(rng, f"q{i}", i % self.components)
                         for i in range(self.burst)]

    def _fresh_copy(self, name: str) -> tuple[Path, AnalysisStore]:
        target = self.workdir / name
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(self.workdir / "journal", target / "journal")
        shutil.copytree(self.workdir / "store", target / "store")
        return target, AnalysisStore(target / "store")

    @staticmethod
    def _key(decisions) -> list[tuple]:
        return [(d.admitted, d.reason, _hex(d.bound), d.degradation)
                for d in decisions]

    def run(self, seconds: float, ctx=NULL_CONTEXT, rec=None) -> Outcome:
        rec = rec or NULL_RECORDER
        out = Outcome()
        self.first = None
        admitted = decided = iteration = 0
        start = perf_counter()
        with rec.span("harness", "harness.loop"):
            while out.attempted == 0 or perf_counter() - start < seconds:
                target, store = self._fresh_copy("iteration")
                gc.collect()  # no iteration pays for its predecessors' garbage
                out.probe.tick()
                rec.op = iteration
                iteration += 1
                out.attempted += 1 + self.burst
                svc = None
                try:
                    with rec.span("harness", "harness.op"):
                        t0 = perf_counter()
                        svc = service_api.recover_service(
                            target / "journal", store=store, verify=True,
                            ctx=ctx)
                        t1 = perf_counter()
                        decisions = svc.admit_batch(
                            self.requests, workers=self.workers, ctx=ctx)
                        t2 = perf_counter()
                except Exception as exc:  # recovery or drain raised
                    out.fail(f"iteration {rec.op}: {type(exc).__name__}: "
                             f"{exc}", 1 + self.burst)
                    continue
                finally:
                    if svc is not None:
                        svc.close()
                    store.close()
                out.sample("recovery", t1 - t0)
                out.sample("burst_drain", t2 - t1)
                out.served(t2 - t0)
                decided += len(decisions)
                admitted += sum(d.admitted for d in decisions)
                key = self._key(decisions)
                if self.first is None:
                    self.first = key
                for request, d in zip(self.requests, decisions):
                    if d.degradation != service_api.DEGRADATION_NORMAL:
                        out.fail(f"{request.name}: answered at degradation "
                                 f"{d.degradation!r}")
                    elif d.admitted and not math.isfinite(d.bound):
                        out.fail(f"{request.name}: admitted with a "
                                 "non-finite bound")
                if len(decisions) != self.burst or key != self.first:
                    out.fail("burst decisions differ from the first "
                             "iteration", self.burst)
        out.values["wall_s"] = perf_counter() - start
        out.values["decided"] = decided
        out.values["admitted_frac"] = admitted / decided if decided else 0.0
        out.digest = hashlib.sha256(repr(self.first).encode()).hexdigest()
        return out

    @staticmethod
    def rate(out: Outcome) -> float:
        """Burst requests decided per second of drain."""
        return out.values["decided"] / sum(out.samples["burst_drain"])

    def final_checks(self, out: Outcome) -> None:
        """Once per run: the batch equals a serial admit loop, bit for bit."""
        target, store = self._fresh_copy("serial")
        try:
            svc = service_api.recover_service(target / "journal",
                                              store=store, verify=True)
            serial = self._key([svc.admit(r) for r in self.requests])
            svc.close()
        finally:
            store.close()
        if self.first is not None and serial != self.first:
            first_diff = next(i for i, (a, b) in
                              enumerate(zip(serial, self.first)) if a != b)
            out.fail(f"burst decision {first_diff} differs from the serial "
                     f"admit loop: {self.first[first_diff]} != "
                     f"{serial[first_diff]}")

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperTandem, AdmissionChurn, RestartBurst)}
