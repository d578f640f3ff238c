"""The durable admission service: controller + journal + breakers.

:class:`AdmissionService` wraps an
:class:`~repro.admission.AdmissionController` for long-lived operation:

**Write-ahead durability.**  Every positive admission is journaled and
fsync'd *before* the in-memory commit, every release likewise; periodic
snapshots bound replay time.  A SIGKILL at any instant loses at most
the decision currently being answered — never an acknowledged one.

**Circuit breakers.**  Each analyzer rung gets a
:class:`~repro.resilience.CircuitBreaker`; consecutive
:class:`~repro.errors.AnalysisTimeoutError`/analysis failures open it
and the chain stops paying for that rung until its cooldown probe
succeeds.  Breaker counters land in the service's
:class:`~repro.context.MetricsRegistry` (``breaker.<name>.*``).

**Graceful degradation.**  The chain ends in the conservative
closed-form analyzer, which cannot hang; under explicit or latency-
triggered overload the service *sheds load* by gating the chain down to
the incremental engine's cache (shed level 1; without an engine the
primary rung is kept, as there is no cache to serve from) and then to
the conservative bounds alone (shed level 2).  Every decision carries a
``degradation`` tag — ``normal``, ``cached``, ``degraded`` (a looser
fallback analyzer answered), ``closed_form``, or ``unavailable``
(failed closed) — so operators can audit exactly which admissions were
made under duress.

**Graceful shutdown.**  :meth:`close` checkpoints and flushes;
:meth:`graceful_shutdown` arms SIGTERM/SIGINT to do the same (the
``repro serve`` loop runs inside it).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from repro.admission.controller import AdmissionController
from repro.admission.requests import AdmissionDecision, ConnectionRequest
from repro.analysis.base import Analyzer
from repro.context import NULL_CONTEXT, AnalysisContext, QuantileReservoir
from repro.curves.kernels import current_kernel
from repro.errors import (
    AdmissionError,
    ServiceError,
)
from repro.network.topology import Network
from repro.resilience.breaker import CircuitBreaker
from repro.service.degrade import ConservativeAnalysis
from repro.service.journal import Journal

__all__ = [
    "AdmissionService",
    "ServiceDecision",
    "DEGRADATION_NORMAL",
    "DEGRADATION_CACHED",
    "DEGRADATION_DEGRADED",
    "DEGRADATION_CLOSED_FORM",
    "DEGRADATION_UNAVAILABLE",
]

DEGRADATION_NORMAL = "normal"
DEGRADATION_CACHED = "cached"
DEGRADATION_DEGRADED = "degraded"
DEGRADATION_CLOSED_FORM = "closed_form"
DEGRADATION_UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class ServiceDecision:
    """An :class:`AdmissionDecision` plus its service-level context.

    Attributes
    ----------
    decision:
        The controller's decision (reason, bound, candidate network).
    degradation:
        Which degradation level answered (see module docstring).
    seq:
        Journal sequence number of the decision's record; ``None`` for
        rejections (only state *changes* are journaled).
    """

    decision: AdmissionDecision
    degradation: str
    seq: int | None = None

    @property
    def admitted(self) -> bool:
        return self.decision.admitted

    @property
    def reason(self) -> str:
        return self.decision.reason

    @property
    def analyzer(self) -> str:
        return self.decision.analyzer

    @property
    def bound(self) -> float:
        return self.decision.new_flow_bound


class AdmissionService:
    """Durable, degradation-aware admission service.

    Parameters
    ----------
    network:
        Initial network (or the recovered one when ``resume=True``).
    analyzer:
        Primary delay analysis.
    journal_dir:
        Directory for the write-ahead journal; must be fresh unless
        *resume* is set (see :class:`~repro.service.journal.Journal`).
    resume:
        Continue an existing journal instead of starting one — used by
        :func:`~repro.service.recovery.recover_service`.
    admitted:
        Names of already-admitted connections (recovery seeding).
    fallbacks:
        Extra analyzers between the primary and the conservative rung;
        decisions they answer are tagged ``degraded``.
    conservative:
        Append the closed-form :class:`ConservativeAnalysis` as the
        final, breaker-less rung (default True).
    incremental:
        Run the primary behind an incremental engine (default True) —
        both the steady-state fast path and shed level 1's cache.
    analysis_budget:
        Per-attempt wall-clock budget (seconds) forwarded to the
        controller; blown budgets feed the breakers.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker tuning shared by every protected rung.
    snapshot_every:
        Journaled operations between automatic snapshots.
    shed_latency_s:
        Optional latency SLO driving *automatic* load shedding: an
        exponentially-weighted decision latency above it raises the
        shed level (above ``4x`` it jumps to closed-form-only), and
        recovery below half of it clears the automatic shed.
    store:
        Optional persistent :class:`~repro.store.AnalysisStore`
        forwarded to the controller: the incremental engine probes it
        on memory misses and persists fresh results, so a restarted
        service warm-boots from prior runs' analyses instead of
        recomputing them.  The service flushes it on :meth:`close` but
        never closes it — the handle belongs to the caller.
    ctx:
        Execution context; breaker and ``service.*`` counters land in
        its metrics registry.
    clock:
        Monotonic time source for the breakers (injectable in tests).

    Recovery passes the replayed journal's last sequence number as the
    internal ``_resume_seq`` keyword (see
    :class:`~repro.service.journal.Journal`).
    """

    def __init__(self, network: Network, analyzer: Analyzer, *,
                 journal_dir: str | Path,
                 resume: bool = False,
                 admitted: Iterable[str] = (),
                 fallbacks: Sequence[Analyzer] = (),
                 conservative: bool = True,
                 incremental: bool = True,
                 analysis_budget: float | None = None,
                 breaker_threshold: int = 3,
                 breaker_reset_s: float = 30.0,
                 snapshot_every: int = 64,
                 shed_latency_s: float | None = None,
                 kernel: str | None = None,
                 store=None,
                 ctx: AnalysisContext = NULL_CONTEXT,
                 clock: Callable[[], float] = time.monotonic,
                 _resume_seq: int | None = None) -> None:
        if snapshot_every < 1:
            raise ServiceError(
                f"snapshot_every must be >= 1, got {snapshot_every}")
        if shed_latency_s is not None and not shed_latency_s > 0:
            raise ServiceError(
                f"shed_latency_s must be > 0, got {shed_latency_s}")
        if kernel is not None and getattr(ctx, "kernel", None) is None:
            # pin every analysis this service runs to the named kernel
            ctx = (ctx.with_kernel(kernel)
                   if isinstance(ctx, AnalysisContext)
                   else AnalysisContext(kernel=kernel))
        self._ctx = ctx
        self._clock = clock
        self._snapshot_every = int(snapshot_every)
        self._shed_latency = shed_latency_s
        self._manual_shed = 0
        self._auto_shed = 0
        self._latency_ewma: float | None = None
        self._latency_reservoir = QuantileReservoir()
        self._ops_since_snapshot = 0
        self._closed = False
        self._shutdown_requested = False

        self._conservative = ConservativeAnalysis() if conservative else None
        chain_fallbacks = list(fallbacks)
        if self._conservative is not None:
            chain_fallbacks.append(self._conservative)

        self._store = store
        controller_kwargs = dict(
            fallbacks=tuple(chain_fallbacks),
            analysis_budget=analysis_budget,
            context=ctx,
            incremental=incremental,
            analyzer_gate=self._gate,
            analyzer_listener=self._listen,
            store=store,
        )
        admitted = list(admitted)
        if admitted:
            self._controller = AdmissionController.from_state(
                network, admitted, analyzer, **controller_kwargs)
        else:
            self._controller = AdmissionController(
                network, analyzer, **controller_kwargs)

        chain = self._controller.chain
        self._engine = self._controller.engine
        # degradation level each rung answers at, and the cold analyzer
        # name recovery should re-verify its bounds with
        self._levels: dict[str, str] = {}
        self._verify_names: dict[str, str] = {}
        primary_rungs = 2 if self._engine is not None else 1
        for i, a in enumerate(chain):
            if a is self._conservative:
                self._levels[a.name] = DEGRADATION_CLOSED_FORM
                self._verify_names[a.name] = a.name
            elif i < primary_rungs:
                self._levels[a.name] = DEGRADATION_NORMAL
                self._verify_names[a.name] = (
                    self._engine.analyzer.name
                    if a is self._engine else a.name)
            else:
                self._levels[a.name] = DEGRADATION_DEGRADED
                self._verify_names[a.name] = a.name
        #: cold-equivalent name of the primary (journal base/snapshots)
        self._primary_name = self._verify_names[chain[0].name]
        #: the rung shed level 1 keeps: the engine's cache when there
        #: is one, otherwise the primary itself (a non-incremental
        #: service has no cache to answer from, and gating the primary
        #: too would silently turn level 1 into level 2)
        self._shed1_rung = (self._engine if self._engine is not None
                            else chain[0])

        self._breakers: dict[int, CircuitBreaker] = {}
        for a in chain:
            if a is self._conservative:
                continue  # pure arithmetic: cannot hang, never tripped
            self._breakers[id(a)] = CircuitBreaker(
                a.name, failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset_s, clock=clock,
                metrics=ctx.metrics)

        #: effective curve kernel for the service's lifetime; recorded
        #: in the journal so recovery re-verifies under the same
        #: arithmetic (ctx selection wins over the ambient default)
        self._kernel = kernel or (ctx.kernel if ctx.kernel is not None
                                  else current_kernel())
        self._journal = Journal(journal_dir, resume=resume,
                                _last_seq=_resume_seq)
        if not resume:
            self._journal.write_base(self._controller.network,
                                     analyzer=self._primary_name,
                                     kernel=self._kernel)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def controller(self) -> AdmissionController:
        return self._controller

    @property
    def network(self) -> Network:
        return self._controller.network

    @property
    def admitted(self) -> tuple[str, ...]:
        return self._controller.admitted

    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def store(self):
        """The persistent analysis store in effect, when any."""
        return self._controller.store

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def shutdown_requested(self) -> bool:
        """Set by the :meth:`graceful_shutdown` signal handlers."""
        return self._shutdown_requested

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        """Live breakers keyed by analyzer name."""
        return {b.name: b for b in self._breakers.values()}

    def breaker_states(self) -> dict[str, str]:
        return {name: b.state for name, b in self.breakers.items()}

    @property
    def shed_level(self) -> int:
        """Effective load-shedding level (0 = none, 1 = cache, 2 = CF)."""
        return max(self._manual_shed, self._auto_shed)

    def set_shed_level(self, level: int) -> None:
        """Operator override for load shedding (0, 1 or 2).

        Level 1 keeps only the cache rung — the incremental engine
        when the service runs one, otherwise the primary analyzer
        itself (``incremental=False`` has no cache to fall back on).
        Level 2 keeps only the conservative closed-form rung.
        """
        if level not in (0, 1, 2):
            raise ServiceError(f"shed level must be 0, 1 or 2, got {level}")
        self._manual_shed = level
        self._gauge_shed()

    # ------------------------------------------------------------------
    # chain hooks (wired into the controller)
    # ------------------------------------------------------------------

    def _gate(self, analyzer: Analyzer) -> bool:
        if analyzer is self._conservative:
            return True  # the rung of last resort is never gated
        shed = self.shed_level
        if shed >= 2:
            return False
        if shed >= 1 and analyzer is not self._shed1_rung:
            return False
        breaker = self._breakers.get(id(analyzer))
        return breaker.allow() if breaker is not None else True

    def _listen(self, analyzer: Analyzer,
                exc: BaseException | None) -> None:
        breaker = self._breakers.get(id(analyzer))
        if breaker is None:
            return
        if exc is None:
            breaker.record_success()
        elif isinstance(exc, Exception):
            breaker.record_failure()
        else:
            # KeyboardInterrupt/SystemExit say nothing about the
            # analyzer's health — just free any in-flight probe slot.
            breaker.release_probe()

    # ------------------------------------------------------------------
    # degradation bookkeeping
    # ------------------------------------------------------------------

    def _level_of(self, decision: AdmissionDecision) -> str:
        if not decision.analyzer:
            return DEGRADATION_UNAVAILABLE
        level = self._levels.get(decision.analyzer, DEGRADATION_DEGRADED)
        if (level == DEGRADATION_NORMAL and self.shed_level >= 1
                and self._engine is not None
                and decision.analyzer == self._engine.name):
            return DEGRADATION_CACHED
        return level

    def _gauge_shed(self) -> None:
        if self._ctx.metrics is not None:
            self._ctx.metrics.set("service.shed_level",
                                  float(self.shed_level))

    def latency_quantiles(self) -> dict[str, float]:
        """Exact decision-latency percentiles over the service's life.

        Returns ``{count, mean, p50, p95, p99, max}`` in seconds from
        the streaming reservoir (exact until the reservoir's capacity,
        seeded-uniform after) and publishes each as a
        ``service.latency.<stat>`` gauge in the metrics registry.  The
        EWMA that drives shedding reacts faster but hides the tail;
        this is the honest view the shutdown summary and the load
        harness report.
        """
        return self._latency_reservoir.gauge_into(
            self._ctx.metrics, "service.latency")

    def _note_latency(self, elapsed: float) -> None:
        self._latency_reservoir.observe(elapsed)
        ewma = self._latency_ewma
        self._latency_ewma = (elapsed if ewma is None
                              else 0.7 * ewma + 0.3 * elapsed)
        if self._shed_latency is None:
            return
        if self._latency_ewma > 4.0 * self._shed_latency:
            self._auto_shed = 2
        elif self._latency_ewma > self._shed_latency:
            self._auto_shed = max(self._auto_shed, 1)
        elif self._latency_ewma < 0.5 * self._shed_latency:
            self._auto_shed = 0
        self._gauge_shed()

    # ------------------------------------------------------------------
    # the serving surface
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    def test(self, request: ConnectionRequest, *,
             ctx: AnalysisContext | None = None) -> ServiceDecision:
        """Evaluate a request without committing or journaling it."""
        self._require_open()
        c = ctx if ctx is not None else self._ctx
        t0 = perf_counter()
        decision = self._controller.test(request, ctx=c)
        self._note_latency(perf_counter() - t0)
        level = self._level_of(decision)
        self._ctx.count(f"service.degradation.{level}")
        return ServiceDecision(decision, level)

    def admit(self, request: ConnectionRequest, *,
              ctx: AnalysisContext | None = None) -> ServiceDecision:
        """Test, journal (durably), then commit a connection request.

        Write-ahead ordering: the fsync'd journal record precedes the
        in-memory commit, so a crash at any point either loses the
        decision entirely (never acknowledged) or leaves it replayable.
        """
        self._require_open()
        c = ctx if ctx is not None else self._ctx
        t0 = perf_counter()
        decision = self._controller.test(request, ctx=c)
        return self._settle(request, decision, perf_counter() - t0)

    def _settle(self, request: ConnectionRequest,
                decision: AdmissionDecision,
                elapsed: float) -> ServiceDecision:
        """Take a decision in hand to a :class:`ServiceDecision`.

        Notes its latency, picks its degradation level and counts it;
        an admission is journaled (fsync'd) before it is committed.
        """
        self._note_latency(elapsed)
        level = self._level_of(decision)
        self._ctx.count("service.requests")
        self._ctx.count(f"service.degradation.{level}")
        if not decision.admitted:
            self._ctx.count("service.rejected")
            return ServiceDecision(decision, level)
        seq = self._journal.write_admit(
            request, decision.new_flow_bound,
            analyzer=decision.analyzer,
            verify_analyzer=self._verify_names.get(decision.analyzer),
            degradation=level)
        self._controller.commit(request, decision)
        self._ctx.count("service.admitted")
        self._ops_since_snapshot += 1
        self._maybe_snapshot()
        return ServiceDecision(decision, level, seq)

    def admit_batch(self, requests: Iterable[ConnectionRequest], *,
                    workers: int = 1,
                    ctx: AnalysisContext | None = None,
                    ) -> list[ServiceDecision]:
        """Admit a batch; semantically ``[self.admit(r) for r in ...]``.

        With ``workers > 1`` the admission *tests* of independent
        component groups run concurrently (see
        :mod:`repro.admission.batch`); the durable side is untouched —
        journal records and in-memory commits happen here, serially, in
        request order, each record fsync'd *before* its commit, so the
        write-ahead crash contract and replay idempotency are exactly
        those of per-request :meth:`admit`.  Decisions are bit-identical
        to the serial loop; whenever the planner cannot guarantee that
        (degraded chain, non-decomposed primary, pathological batch)
        requests fall back to :meth:`admit` individually.

        Latency accounting: the batch's wall time is spread evenly over
        its requests for the shedding EWMA and the reservoir.
        """
        requests = list(requests)
        self._require_open()
        c = ctx if ctx is not None else self._ctx
        planned = None
        if workers > 1 and len(requests) > 1:
            from repro.admission.batch import plan_batch
            t0 = perf_counter()
            planned = plan_batch(self._controller, requests,
                                 workers=workers, ctx=c)
            if planned is not None:
                per_request = (perf_counter() - t0) / len(requests)
        if planned is None:
            return [self.admit(r, ctx=c) for r in requests]
        out: list[ServiceDecision] = []
        for request, (kind, decision) in zip(requests, planned):
            if kind == "serial":
                out.append(self.admit(request, ctx=c))
            else:
                self._controller._count(decision, c)
                out.append(self._settle(request, decision, per_request))
        return out

    def release(self, name: str, *, missing_ok: bool = False,
                ) -> int | None:
        """Journal and apply a release; returns the journal seq.

        With ``missing_ok`` a release of an unknown/already-released
        connection is a no-op returning ``None`` (mirrors the
        idempotent replay semantics); otherwise it raises the typed
        :class:`~repro.errors.AdmissionError`.
        """
        self._require_open()
        if name not in self._controller.admitted:
            if missing_ok:
                return None
            raise AdmissionError(
                f"connection {name!r} was not admitted by this service",
                flow=name)
        seq = self._journal.write_release(name)
        self._controller.release(name)
        self._ctx.count("service.released")
        self._ops_since_snapshot += 1
        self._maybe_snapshot()
        return seq

    # ------------------------------------------------------------------
    # snapshots & shutdown
    # ------------------------------------------------------------------

    def _current_bounds(self) -> dict[str, float] | None:
        """Per-flow bounds from the primary rung, or None when down.

        Best effort: snapshot bounds are advisory (recovery re-derives
        them), so *any* primary failure — including analyzer bugs —
        degrades to a bound-less snapshot rather than failing a
        checkpoint or the graceful-shutdown path.
        """
        if not self.network.flows:
            return {}
        chain = self._controller.chain
        try:
            report = chain[0].run(self.network, self._ctx)
            return {f.name: report.delay_of(f.name)
                    for f in self.network.iter_flows()}
        except Exception:
            return None

    def _maybe_snapshot(self) -> None:
        if self._ops_since_snapshot >= self._snapshot_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Force a snapshot + journal rotation now.

        With a store, the engine's sweep of the snapshot network lands
        in it first as one record, from which recovery's first query
        starts (:meth:`~repro.engine.IncrementalEngine.save_sweep`).
        """
        self._require_open()
        bounds = self._current_bounds()
        if bounds is not None and self._engine is not None:
            self._engine.save_sweep(self.network, ctx=self._ctx)
        self._journal.snapshot(
            self.network, list(self._controller.admitted),
            analyzer=self._primary_name, bounds=bounds,
            kernel=self._kernel)
        self._ops_since_snapshot = 0
        self._ctx.count("service.snapshots")

    def close(self) -> None:
        """Graceful shutdown: final checkpoint, flush, close journal.

        Idempotent; after closing every serving method raises
        :class:`~repro.errors.ServiceError`.
        """
        if self._closed:
            return
        try:
            if not self._journal.closed:
                self.checkpoint()
        finally:
            store = self.store
            if (store is not None and not store.closed
                    and not store.read_only):
                try:
                    store.flush()
                except Exception:
                    pass  # persistence is best-effort, shutdown is not
            self._journal.close()
            self._closed = True
            self._ctx.count("service.shutdowns")
            if self._latency_reservoir.count:
                self.latency_quantiles()  # final service.latency.* gauges

    def __enter__(self) -> "AdmissionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def graceful_shutdown(self,
                          signals: Sequence[int] = (signal.SIGTERM,
                                                    signal.SIGINT),
                          ) -> Iterator["AdmissionService"]:
        """Arm SIGTERM/SIGINT for graceful shutdown around a serve loop.

        The handler only sets :attr:`shutdown_requested` — the serve
        loop is expected to poll it between admissions, so the journal
        is never interrupted mid-fsync.  On exit (normal, signalled or
        raising) the previous handlers are restored and :meth:`close`
        runs (final checkpoint + flush).  Off the main thread, where
        signal handlers cannot be installed, the context degrades to
        just the close-on-exit guarantee.
        """
        previous: dict[int, object] = {}

        def _handler(signum, frame) -> None:
            self._shutdown_requested = True

        try:
            for sig in signals:
                try:
                    previous[sig] = signal.signal(sig, _handler)
                except ValueError:  # not on the main thread
                    break
            yield self
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)
            self.close()
