"""Admission control for bounded-delay services (paper §1 motivation).

The number of deadline-guaranteed connections a network can carry is
determined by the *tightness* of the delay analysis the admission test
uses: a looser analysis rejects connections the network could in fact
serve.  :class:`AdmissionController` makes the analysis pluggable so the
evaluation can quantify exactly that effect (more connections admitted
under Algorithm Integrated than under Algorithm Decomposed for the same
network — the operational payoff of the paper).

The controller is hardened for online operation:

* **Degraded mode** — an optional fallback analyzer chain (typically
  integrated → decomposed) answers requests when the primary analysis
  raises :class:`~repro.errors.AnalysisError` or exceeds a wall-clock
  budget; admission keeps working, just with looser bounds.
* **Fail closed** — when every analyzer in the chain fails, the request
  is rejected rather than admitted blind.
* **Transactional admit** — controller state mutates only after a
  complete, positive decision; an analyzer raising mid-test leaves the
  network and admitted set untouched.
* **Incremental mode** — ``incremental=True`` wraps the primary
  analyzer in an :class:`~repro.engine.IncrementalEngine`, so
  consecutive admission tests reuse every per-server / per-block result
  the new request does not touch.  Decisions are bit-identical to cold
  analysis; the cold analyzer stays in the fallback chain, so an engine
  failure degrades instead of rejecting.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from repro.admission.requests import AdmissionDecision, ConnectionRequest
from repro.analysis.base import Analyzer, DelayReport
from repro.context import NULL_CONTEXT, AnalysisContext, Deadline
from repro.errors import (
    AdmissionError,
    AnalysisError,
    InstabilityError,
    TopologyError,
)
from repro.engine import EngineStats, IncrementalEngine
from repro.network.flow import Flow
from repro.network.topology import Network
from repro.resilience.faults import FaultScenario
from repro.resilience.survivability import (
    SurvivabilityReport,
    survivability,
)

__all__ = ["AdmissionController"]


class AdmissionController:
    """Online admission control driven by a delay analyzer.

    Parameters
    ----------
    network:
        Initial network (servers and already-established flows).
    analyzer:
        The end-to-end delay analysis used for admission tests.
    fallbacks:
        Analyzers tried, in order, when the one before them raises
        :class:`~repro.errors.AnalysisError` (including a blown
        budget).  Typically cheaper/looser analyses.
    analysis_budget:
        Optional wall-clock budget in seconds applied to *each*
        analyzer attempt; a blown budget triggers the next fallback.
        Enforced cooperatively: every attempt runs under a fresh
        :class:`~repro.context.Deadline` checked at server-step / block
        boundaries, so enforcement works on any thread with no signal
        handlers and no leaked workers.
    context:
        Default :class:`~repro.context.AnalysisContext` for every
        admission test (tracing, metrics); per-call ``ctx=`` arguments
        override it.  Budget deadlines are swapped into derived copies,
        never into this object.
    incremental:
        Wrap *analyzer* in an :class:`~repro.engine.IncrementalEngine`
        so consecutive admission tests reuse unaffected intermediate
        results.  The unwrapped analyzer is kept right behind the
        engine in the fallback chain; transactional semantics are
        unchanged (the engine is stateless here — the controller still
        owns the network).
    store:
        Optional persistent :class:`~repro.store.AnalysisStore`.  With
        ``incremental=True`` it becomes the engine's second cache tier
        (results survive restarts); with or without an engine, batch
        admission workers probe it read-only and ship fresh entries
        back for one serialized parent write.  When *analyzer* is
        already an engine carrying its own store, that store wins.
    analyzer_gate:
        Optional ``gate(analyzer) -> bool`` consulted before every
        analyzer attempt; a False verdict skips the analyzer (recorded
        as a chain failure) without running it.  The admission service
        wires circuit breakers and load-shedding floors through this
        hook.
    analyzer_listener:
        Optional ``listener(analyzer, exc_or_None)`` called after every
        *attempted* analyzer (skipped ones excluded) with the
        :class:`~repro.errors.AnalysisError` it raised, ``None`` on
        success, or — for exceptions that escape the chain entirely
        (analyzer bugs, ``KeyboardInterrupt``) — the escaping exception
        just before it propagates.  This is the feedback edge circuit
        breakers learn from; without the escape notification a breaker
        probe slot would leak on any non-analysis exception.
    """

    def __init__(self, network: Network, analyzer: Analyzer, *,
                 fallbacks: Sequence[Analyzer] = (),
                 analysis_budget: float | None = None,
                 context: AnalysisContext | None = None,
                 incremental: bool = False,
                 analyzer_gate: Callable[[Analyzer], bool] | None = None,
                 analyzer_listener: Callable[
                     [Analyzer, BaseException | None], None] | None = None,
                 store=None) -> None:
        if analysis_budget is not None and not analysis_budget > 0:
            raise AdmissionError(
                f"analysis_budget must be > 0, got {analysis_budget}")
        self._network = network
        self._engine: IncrementalEngine | None = None
        self._store = store
        if incremental:
            if isinstance(analyzer, IncrementalEngine):
                self._engine = analyzer
                analyzer = self._engine.analyzer
            else:
                self._engine = IncrementalEngine(analyzer, store=store)
            self._analyzers = (self._engine, analyzer, *fallbacks)
        else:
            self._analyzers = (analyzer, *fallbacks)
        self._budget = analysis_budget
        self._context = context if context is not None else NULL_CONTEXT
        self._gate = analyzer_gate
        self._listener = analyzer_listener
        self._admitted: list[str] = []

    @classmethod
    def from_state(cls, network: Network, admitted: Iterable[str],
                   analyzer: Analyzer, **kwargs) -> "AdmissionController":
        """Rebuild a controller from recovered state.

        *network* must already contain every flow named in *admitted*
        (crash recovery replays the journal into the network first);
        unknown names raise :class:`~repro.errors.AdmissionError`.
        """
        controller = cls(network, analyzer, **kwargs)
        names = list(admitted)
        for name in names:
            try:
                network.flow(name)
            except TopologyError:
                raise AdmissionError(
                    f"recovered admitted set names flow {name!r} which "
                    "is not in the recovered network", flow=name) from None
        if len(set(names)) != len(names):
            raise AdmissionError(
                "recovered admitted set contains duplicate names")
        controller._admitted = names
        return controller

    # ------------------------------------------------------------------

    @property
    def network(self) -> Network:
        """The current network including every admitted connection."""
        return self._network

    @property
    def analyzer(self) -> Analyzer:
        """The primary analyzer (head of the fallback chain)."""
        return self._analyzers[0]

    @property
    def chain(self) -> tuple[Analyzer, ...]:
        """Every analyzer in the chain, in attempt order."""
        return self._analyzers

    @property
    def admitted(self) -> tuple[str, ...]:
        """Names of connections admitted through this controller."""
        return tuple(self._admitted)

    @property
    def engine(self) -> IncrementalEngine | None:
        """The incremental engine, when ``incremental=True``."""
        return self._engine

    @property
    def engine_stats(self) -> EngineStats | None:
        """Engine counters (hits/misses/saved time), or None."""
        return self._engine.stats if self._engine is not None else None

    @property
    def store(self):
        """The persistent analysis store in effect, when any.

        The engine's store when an engine carries one (it may predate
        this controller), else the ``store=`` this controller was
        constructed with.
        """
        if self._engine is not None and self._engine.store is not None:
            return self._engine.store
        return self._store

    @property
    def context(self) -> AnalysisContext:
        """Default execution context for admission tests."""
        return self._context

    # ------------------------------------------------------------------

    @staticmethod
    def _flow_from_request(request: ConnectionRequest) -> Flow:
        """The flow a request would establish (single source of truth)."""
        return Flow(request.name, request.bucket, request.path,
                    deadline=request.deadline, priority=request.priority)

    def _attempt(self, analyzer: Analyzer, candidate: Network,
                 ctx: AnalysisContext) -> DelayReport:
        """One analyzer attempt under the configured budget.

        A fresh cooperative :class:`~repro.context.Deadline` per
        attempt (fallbacks get a full budget each).
        """
        if self._budget is None:
            return analyzer.run(candidate, ctx)
        deadline = Deadline(self._budget,
                            f"{analyzer.name} admission test")
        return analyzer.run(candidate, ctx.with_deadline(deadline))

    def _analyze(self, candidate: Network,
                 ctx: AnalysisContext) -> tuple[DelayReport, str]:
        """Run the analyzer chain; return (report, analyzer name).

        Raises :class:`~repro.errors.AnalysisError` only when every
        analyzer in the chain failed.
        """
        failures: list[str] = []
        for analyzer in self._analyzers:
            if self._gate is not None and not self._gate(analyzer):
                ctx.count("admission.analyzer_skipped")
                failures.append(f"{analyzer.name}: skipped (gated off)")
                continue
            try:
                with ctx.span("admission_test", analyzer=analyzer.name):
                    report = self._attempt(analyzer, candidate, ctx)
            except AnalysisError as exc:
                ctx.count("admission.analyzer_failures")
                failures.append(f"{analyzer.name}: {exc}")
                if self._listener is not None:
                    self._listener(analyzer, exc)
            except BaseException as exc:
                # Anything else (analyzer bug, KeyboardInterrupt)
                # aborts the chain, but the listener must still hear
                # the attempt ended or a breaker's half-open probe
                # slot leaks and the rung stays gated off forever.
                if self._listener is not None:
                    self._listener(analyzer, exc)
                raise
            else:
                if self._listener is not None:
                    self._listener(analyzer, None)
                return report, analyzer.name
        raise AnalysisError(
            "every analyzer in the admission chain failed ("
            + "; ".join(failures) + ")")

    def test(self, request: ConnectionRequest, *,
             ctx: AnalysisContext | None = None) -> AdmissionDecision:
        """Evaluate a request without committing it.

        The connection is admitted iff, with it added, every flow in the
        network (existing and new) still meets its deadline according to
        the configured analyzer (or the first fallback that answers).
        When every analyzer fails, the request is rejected (fail
        closed) with the accumulated failure reasons.

        *ctx* overrides the controller's default context for this test.
        """
        if ctx is None:
            ctx = self._context
        with ctx.span("admission_request", request=request.name):
            decision = self._test(request, ctx)
            ctx.annotate(admitted=decision.admitted,
                         reason=decision.reason)
        self._count(decision, ctx)
        return decision

    @staticmethod
    def _count(decision: AdmissionDecision, ctx: AnalysisContext) -> None:
        """Count one decided request (shared with planned batches)."""
        ctx.count("admission.requests")
        ctx.count("admission.admitted" if decision.admitted
                  else "admission.rejected")

    def _test(self, request: ConnectionRequest,
              ctx: AnalysisContext) -> AdmissionDecision:
        flow = self._flow_from_request(request)
        try:
            candidate = self._network.with_flow(flow)
        except TopologyError as exc:
            return AdmissionDecision(False, f"topology: {exc}")
        try:
            candidate.check_stability()
        except InstabilityError as exc:
            return AdmissionDecision(False, f"overload: {exc}")

        try:
            report, used = self._analyze(candidate, ctx)
        except AnalysisError as exc:
            return AdmissionDecision(False, f"analysis failed: {exc}")

        new_bound = report.delay_of(request.name)
        for f in candidate.flows.values():
            bound = report.delay_of(f.name)
            if bound > f.deadline:
                who = ("requested connection" if f.name == request.name
                       else f"existing connection {f.name!r}")
                return AdmissionDecision(
                    False,
                    f"deadline violation: {who} bound {bound:.4g} > "
                    f"deadline {f.deadline:.4g}",
                    new_flow_bound=new_bound, analyzer=used)
        return AdmissionDecision(True, "all deadlines met",
                                 new_flow_bound=new_bound, analyzer=used,
                                 candidate_network=candidate)

    def admit(self, request: ConnectionRequest, *,
              ctx: AnalysisContext | None = None) -> AdmissionDecision:
        """Test a request and, on success, add the connection.

        The commit is transactional: state changes only after a
        complete, positive decision, and the network committed is the
        very candidate the decision analyzed.  An analyzer raising
        mid-test (any exception the chain does not absorb) propagates
        with the controller state unchanged.
        """
        decision = self.test(request, ctx=ctx)
        if decision.admitted:
            self.commit(request, decision)
        return decision

    def admit_batch(self, requests: Iterable[ConnectionRequest], *,
                    workers: int = 1,
                    ctx: AnalysisContext | None = None,
                    ) -> list[AdmissionDecision]:
        """Admit a batch of requests; returns one decision per request.

        Semantically identical to calling :meth:`admit` on each request
        in order — same decisions, same reason strings, same
        bit-identical bounds, same commit order.  With ``workers > 1``
        and a decomposed-family primary analyzer, independent component
        groups of the batch are evaluated concurrently on a process
        pool (:mod:`repro.admission.batch`); whenever the parallel
        planner cannot guarantee serial equivalence it falls back to
        the serial loop, so the flag is always safe.
        """
        requests = list(requests)
        if ctx is None:
            ctx = self._context
        planned = None
        if workers > 1 and len(requests) > 1:
            from repro.admission.batch import plan_batch
            planned = plan_batch(self, requests, workers=workers, ctx=ctx)
        if planned is None:
            return [self.admit(r, ctx=ctx) for r in requests]
        decisions: list[AdmissionDecision] = []
        for request, (kind, decision) in zip(requests, planned):
            if kind == "serial":
                decision = self.admit(request, ctx=ctx)
            else:
                self._count(decision, ctx)
                if decision.admitted:
                    self.commit(request, decision)
            decisions.append(decision)
        return decisions

    def commit(self, request: ConnectionRequest,
               decision: AdmissionDecision) -> None:
        """Apply a positive decision produced by :meth:`test`.

        Split out of :meth:`admit` so write-ahead services can persist
        the decision durably *between* the test and the state mutation;
        committing a rejected decision raises
        :class:`~repro.errors.AdmissionError`.
        """
        if not decision.admitted:
            raise AdmissionError(
                f"cannot commit rejected decision for {request.name!r}: "
                f"{decision.reason}", flow=request.name)
        if request.name in self._admitted:
            raise AdmissionError(
                f"connection {request.name!r} is already admitted",
                flow=request.name)
        candidate = decision.candidate_network
        if candidate is None:  # decision built by hand: recompute
            candidate = self._network.with_flow(
                self._flow_from_request(request))
        self._network = candidate
        self._admitted.append(request.name)

    def release(self, name: str) -> None:
        """Tear down a previously admitted connection.

        Raises a typed :class:`~repro.errors.AdmissionError` carrying
        the unknown ``flow`` name when *name* was never admitted (or
        was already released) — never a bare :class:`KeyError` —
        so callers like journal replay can treat a double-release
        structurally (idempotent skip) instead of crashing.
        """
        if name not in self._admitted:
            raise AdmissionError(
                f"connection {name!r} was not admitted by this controller",
                flow=name)
        self._network = self._network.without_flow(name)
        self._admitted.remove(name)

    def admissible_count(self, make_request, max_tries: int = 1000, *,
                         ctx: AnalysisContext | None = None) -> int:
        """Admit identical connections until one is rejected.

        Parameters
        ----------
        make_request:
            Callable ``index -> ConnectionRequest`` generating the k-th
            candidate.
        max_tries:
            Safety bound on the loop.
        ctx:
            Context override applied to every admission test.

        Returns
        -------
        int
            Number of connections admitted before the first rejection.
        """
        count = 0
        for k in range(max_tries):
            req = make_request(k)
            if not math.isfinite(req.deadline):
                raise AdmissionError("requests need finite deadlines")
            if not self.admit(req, ctx=ctx).admitted:
                break
            count += 1
        return count

    # ------------------------------------------------------------------

    def survivability_report(
            self, scenarios: Iterable[FaultScenario], *,
            analyzer: Analyzer | None = None,
            reroute: bool = True,
            ctx: AnalysisContext | None = None) -> SurvivabilityReport:
        """Which admitted guarantees survive the given fault scenarios?

        Runs :func:`repro.resilience.survivability` over the current
        network (established plus admitted connections) with the
        controller's primary analyzer unless *analyzer* overrides it.
        """
        return survivability(self._network, scenarios,
                             analyzer or self.analyzer, reroute=reroute,
                             ctx=ctx if ctx is not None else self._context)
