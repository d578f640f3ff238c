"""The incremental engine: dependency-tracked memoization of delay
analyses.

:class:`IncrementalEngine` wraps an :class:`~repro.analysis.base.
Analyzer` and serves repeated analyses of *evolving* networks — the
admission-control workload, where consecutive networks differ by a
handful of flows.  Four mechanisms cooperate:

1. **Edit records**: a network derived by a flow edit records the
   parent's version and the flows added and dropped
   (:attr:`~repro.network.topology.Network.last_edit`).  When the
   queried network and the last one are parent and child or siblings
   (two admission candidates), the changed flows are read off those
   records; otherwise every flow is compared, identity first
   (:func:`changed_flows`).
2. **Dependency graph** (:mod:`repro.engine.depgraph`): the network's
   own flow and server-graph indexes say which servers each changed
   flow touches and what is downstream of them.  Changing flows dirties
   exactly the affected cone.
3. **Fast reuse**: per-server / per-block results from the previous
   sweep are replayed verbatim for every block outside the cone — no
   input construction, no hashing, no computation.  An untraced
   Decomposed sweep takes all of them at once from a
   :class:`~repro.analysis.propagation.SweepReplay`: a replayed server
   is not visited and costs no per-flow work, and the report keeps the
   previous report's per-flow result for every flow that visits no
   cone server, so the query costs the change and its cone plus C-level
   copies of the previous per-server and per-flow maps.  Under a tracer
   the sweep replays server by server instead, so every replay keeps
   its span.
4. **Content-addressed cache**: blocks inside the cone are keyed by a
   stable digest of their *exact* inputs (specs, flow roles, IEEE-754
   bits of every curve); a hit — e.g. releasing a flow back to a
   previously seen state — replays the stored result.  Because a key
   covers every input bit, the cache never needs invalidating for
   correctness; it is unbounded (intermediate results are a few curve
   arrays each).

Because every reused result was originally produced by the very same
pure per-block function the cold analyzer runs
(:func:`repro.analysis.propagation.server_step`,
:func:`repro.core.integrated.evaluate_block`), engine reports are
**bit-identical** to cold reports (:func:`reports_identical`).  When the
wrapped analyzer is not one the engine understands — or the network is
not feed-forward — the engine transparently falls back to a cold full
analysis (counted in :class:`~repro.engine.stats.EngineStats.
fallbacks`), so it is a safe drop-in anywhere an analyzer is accepted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from repro.analysis.base import Analyzer, DelayReport
from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.propagation import (
    ServerInput,
    ServerStep,
    SweepReplay,
    server_step,
)
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.core.integrated import (
    BlockInput,
    IntegratedAnalysis,
    evaluate_block,
)
from repro.core.fifo_family import SOLVER_VERSION as FAMILY_SOLVER_VERSION
from repro.curves.kernels import current_kernel
from repro.engine.depgraph import affected_cone
from repro.engine.stats import EngineStats
from repro.errors import EngineError, StoreError, TopologyError
from repro.network.flow import Flow
from repro.network.topology import Network
from repro.servers.base import LocalAnalysis
from repro.store import AnalysisStore
from repro.utils.hashing import encode_flow, encode_source, stable_digest

__all__ = [
    "IncrementalEngine",
    "reports_identical",
    "describe_report_difference",
]

ServerId = Hashable

#: Sweep-unit record: the result object plus its original compute time
#: (what a reuse saves).
_Record = tuple[object, float]
_cost = itemgetter(1)


def _server_key(si: ServerInput) -> bytes:
    """Content digest of one decomposition step's exact inputs.

    The curve kernel is part of the key: a step evaluated on the grid
    backend must never replay as an exact result (or vice versa).  Each
    curve is fed as its :meth:`~repro.curves.piecewise.
    PiecewiseLinearCurve.key_part`, the bytes its ``x``, ``y`` and
    ``final_slope`` encode to, packed without building the arrays.
    """
    parts: list[object] = ["step", si.capacity, si.discipline, si.capped,
                           si.kernel]
    for fa in si.flows:
        parts.append(encode_flow(fa.name, fa.has_next, fa.priority, fa.rho))
        parts.append(fa.curve.key_part())
    return stable_digest(*parts)


def _block_key(bi: BlockInput) -> bytes:
    """Content digest of one integrated block's exact inputs.

    Includes the curve kernel, like :func:`_server_key`, and the
    θ-family solver version.
    """
    parts: list[object] = ["block", bi.kind, bi.capacities,
                           bi.disciplines, bi.use_family_kernel,
                           bi.kernel, FAMILY_SOLVER_VERSION]
    for fa in bi.flows:
        parts.append(encode_flow(fa.name, fa.has_next, fa.priority, fa.rho,
                                 role=fa.role))
        parts.append(fa.curve.key_part())
    return stable_digest(*parts)


#: Version of the sweep record's key and layout: bump it when either
#: changes, so a record of another layout is never read as this one.
SWEEP_RECORD_VERSION = "sweep-v1"


def _sweep_key(network: Network, fingerprint: tuple,
               blocks: tuple | None) -> bytes:
    """Content digest of everything that reaches a step of a complete
    sweep over *network*.

    Covers the server ids, capacities and disciplines in network order,
    each flow's name, bucket, path and priority in name order, the
    engine *fingerprint* (analyzer, its flags and the curve kernel),
    the θ-family solver version and the record version.  *blocks* is
    the Integrated partition: which flow a :class:`~repro.core.
    partition.PairAlongPath` pairs along can depend on the order flows
    were added in, which the flow fields do not show.  Built from those
    fields alone, without any curve.
    """
    parts: list[object] = ["sweep", SWEEP_RECORD_VERSION, fingerprint,
                           FAMILY_SOLVER_VERSION, network.allow_cycles,
                           blocks, len(network.servers)]
    for sid, spec in network.servers.items():
        parts += (sid, spec.capacity, spec.discipline)
    parts.append(len(network.flows))
    for f in network.iter_flows():
        b = f.bucket
        parts.append(encode_source(f.name, b.sigma, b.rho, b.peak,
                                   f.priority, f.path))
    return stable_digest(*parts)


def reports_identical(a: DelayReport, b: DelayReport) -> bool:
    """True when two reports are exactly equal — algorithm, every
    flow's bound and contribution breakdown, and all metadata.

    Floats are compared with ``==`` (no tolerance): the engine's
    contract is bit-identity, not approximation.
    """
    return (a.algorithm == b.algorithm
            and dict(a.delays) == dict(b.delays)
            and dict(a.meta) == dict(b.meta))


def describe_report_difference(a: DelayReport,
                               b: DelayReport) -> str | None:
    """Human-readable description of the first divergence, or None."""
    if a.algorithm != b.algorithm:
        return f"algorithm {a.algorithm!r} != {b.algorithm!r}"
    if set(a.delays) != set(b.delays):
        odd = sorted(set(a.delays) ^ set(b.delays))
        return f"flow sets differ: {odd}"
    for name in sorted(a.delays):
        fa, fb = a.delays[name], b.delays[name]
        if fa.total != fb.total:
            return (f"flow {name!r}: total {fa.total!r} != {fb.total!r}")
        if fa.contributions != fb.contributions:
            return (f"flow {name!r}: contributions differ: "
                    f"{fa.contributions} != {fb.contributions}")
    if dict(a.meta) != dict(b.meta):
        keys = {k for k in set(a.meta) | set(b.meta)
                if a.meta.get(k) != b.meta.get(k)}
        return f"meta differs on keys {sorted(map(str, keys))}"
    return None


@dataclass
class _SweepMemo:
    """Everything remembered from the engine's last incremental sweep.

    *steps* and *local* hold each server's step and local analysis
    (Decomposed only), the form a
    :class:`~repro.analysis.propagation.SweepReplay` hands back to the
    next sweep.  *report* is None while the sweep runs.
    """

    network: Network
    fingerprint: tuple
    outcomes: dict[tuple, _Record] = field(default_factory=dict)
    steps: dict[ServerId, ServerStep] = field(default_factory=dict)
    local: dict[ServerId, LocalAnalysis] = field(default_factory=dict)
    report: DelayReport | None = None


def _changed_between(old_flows: Mapping[str, Flow],
                     new_flows: Mapping[str, Flow],
                     names: Iterable[str]) -> list[Flow]:
    """Both versions of every named flow that differs between two flow
    maps (a flow present in one map only counts as differing)."""
    changed: list[Flow] = []
    for name in names:
        a, b = old_flows.get(name), new_flows.get(name)
        if a is b or (a is not None and a == b):
            continue
        if a is not None:
            changed.append(a)
        if b is not None:
            changed.append(b)
    return changed


def changed_flows(old: Network, new: Network) -> list[Flow] | None:
    """The flows that differ between two networks, or None when their
    servers do (nothing is then structurally comparable).

    A replaced flow contributes both versions.  When one network was
    derived from the other by a flow edit, or both from one parent
    (siblings, like two admission candidates), only the flows those
    edits touched are compared
    (:attr:`~repro.network.topology.Network.last_edit`).  Otherwise
    every flow is compared, identity first (:func:`full_compare`).
    """
    edit, prior = new.last_edit, old.last_edit
    if edit is not None and edit.parent == old.version:
        touched = (edit,)  # new is old plus one edit
    elif prior is not None and prior.parent == new.version:
        touched = (prior,)  # old is new plus one edit
    elif (edit is not None and prior is not None
          and edit.parent == prior.parent):
        touched = (edit, prior)  # siblings
    else:
        return full_compare(old, new)
    names = {f.name for e in touched for f in e.added + e.dropped}
    return _changed_between(old.flows, new.flows, names)


def full_compare(old: Network, new: Network) -> list[Flow] | None:
    """:func:`changed_flows` by comparing every flow of both networks."""
    if old.allow_cycles != new.allow_cycles or old.servers != new.servers:
        return None
    old_flows, new_flows = old.flows, new.flows
    changed = [f for name, f in old_flows.items()
               if (g := new_flows.get(name)) is not f and g != f]
    changed += [f for name, f in new_flows.items()
                if (g := old_flows.get(name)) is not f and g != f]
    return changed


class _StepMemo:
    """The engine's step interceptor for one Decomposed sweep.

    Runs each server step it is handed through the engine's
    reuse → cache → compute ladder and records it in the sweep's memo.
    Its :attr:`replay`, when set, lets
    :func:`~repro.analysis.propagation.propagate` keep every server
    outside the cone from the previous sweep without calling it.
    """

    __slots__ = ("engine", "cone", "reusable", "memo", "replay", "ctx")

    def __init__(self, engine: "IncrementalEngine",
                 cone: set[ServerId] | None,
                 reusable: dict[tuple, _Record], memo: _SweepMemo,
                 replay: SweepReplay | None,
                 ctx: AnalysisContext) -> None:
        self.engine = engine
        self.cone = cone
        self.reusable = reusable
        self.memo = memo
        self.replay = replay
        self.ctx = ctx

    def __call__(self, sid: ServerId, build) -> ServerStep:
        in_cone = self.cone is None or sid in self.cone
        step = self.memo.steps[sid] = self.engine._lookup(
            ("server", sid), in_cone, self.reusable, self.memo.outcomes,
            _server_key, server_step, build, self.ctx)
        self.memo.local[sid] = step.local
        return step


class IncrementalEngine(Analyzer):
    """Analyzer wrapper that memoizes per-hop / per-block results.

    Parameters
    ----------
    analyzer:
        The wrapped analysis.  :class:`~repro.analysis.decomposed.
        DecomposedAnalysis` and :class:`~repro.core.integrated.
        IntegratedAnalysis` run incrementally; anything else falls back
        to cold full analysis on every query.
    store:
        Optional :class:`~repro.store.AnalysisStore` second cache tier:
        a memory miss probes the store before computing cold, and
        freshly computed results are persisted (when the store is
        writable), so bounds survive process restarts.  Store entries
        carry the same content keys (kernel included) as the in-memory
        cache, so a store hit is bit-identical to the cold computation
        by construction; disk trouble degrades to a miss, never an
        error on the analysis path.
    """

    def __init__(self, analyzer: Analyzer, *,
                 store: AnalysisStore | None = None) -> None:
        if isinstance(analyzer, IncrementalEngine):
            raise EngineError("cannot wrap an IncrementalEngine in "
                              "another IncrementalEngine")
        self._analyzer = analyzer
        if isinstance(analyzer, DecomposedAnalysis):
            self._mode = "decomposed"
        elif isinstance(analyzer, IntegratedAnalysis):
            self._mode = "integrated"
        else:
            self._mode = None
        self.name = f"incremental+{analyzer.name}"
        self.stats = EngineStats()
        self._cache: dict[bytes, _Record] = {}
        self._memo: _SweepMemo | None = None
        self._store = store

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def analyzer(self) -> Analyzer:
        """The wrapped (cold) analyzer."""
        return self._analyzer

    @property
    def store(self) -> AnalysisStore | None:
        """The persistent second cache tier, when attached."""
        return self._store

    @property
    def supports_incremental(self) -> bool:
        """False when every query cold-falls-back (unknown analyzer)."""
        return self._mode is not None

    def _fingerprint(self) -> tuple:
        """The wrapped analyzer's current configuration.

        Changing configuration between queries invalidates fast reuse
        (the memoized sweep was produced under different settings);
        the content cache is safe regardless because the relevant flags
        are part of every key.  The thread's curve kernel is part of
        the configuration: a query inside the oracles' ``grid`` scope
        must not replay an exact sweep verbatim (or vice versa).
        """
        kernel = current_kernel()
        if self._mode == "decomposed":
            return ("decomposed", self._analyzer.capped_propagation,
                    kernel)
        strategy = self._analyzer.strategy
        return ("integrated", self._analyzer.use_family_kernel,
                type(strategy).__qualname__,
                getattr(strategy, "flow_name", None),
                kernel)

    # ------------------------------------------------------------------
    # core analysis
    # ------------------------------------------------------------------

    def analyze(self, network: Network, *,
                ctx: AnalysisContext = NULL_CONTEXT) -> DelayReport:
        """Bounds for *network*, reusing whatever the last analysis of
        a similar network already established.

        Falls back to a cold full analysis (same return value, no
        caching) for unsupported analyzers and non-feed-forward
        networks.  Results are always bit-identical to
        ``self.analyzer.analyze(network)``.

        *ctx* flows into the wrapped analyzer (deadline checks and
        spans at every sweep unit); the engine installs its memoizing
        interceptors on a derived context, and mirrors its cache
        counters (``engine.hits`` …) into the context's registry so
        traces carry the cache behavior of the very query they time.
        """
        self.stats.queries += 1
        ctx.count("engine.queries")
        if self._mode is None or not network.is_feedforward:
            self.stats.fallbacks += 1
            ctx.count("engine.fallbacks")
            return self._analyzer.run(network, ctx)

        memo = self._memo
        fingerprint = self._fingerprint()
        if (memo is not None and memo.fingerprint == fingerprint
                and memo.network.version == network.version):
            ctx.count("engine.memo_replays")
            return memo.report

        cone, reusable, changed = self._plan(memo, network, fingerprint)
        if cone is not None and not cone and reusable:
            # nothing changed at all: the previous report stands
            ctx.count("engine.memo_replays")
            return memo.report
        n_dirty = len(cone) if cone is not None else 0
        self.stats.invalidations += n_dirty
        ctx.count("engine.invalidations", n_dirty)
        ctx.annotate(dirty_cone=n_dirty,
                     full_rebuild=cone is None)

        sweep = _SweepMemo(network, fingerprint)
        if self._mode == "decomposed":
            replay = None
            if cone is not None and ctx.tracer is None:
                replay = self._replay(memo, sweep, cone, changed, ctx)
            sweep_ctx = ctx.with_interceptors(step=_StepMemo(
                self, cone, reusable, sweep, replay, ctx))
        else:
            sweep_ctx = ctx.with_interceptors(block=self._make_block_step(
                cone, reusable, sweep.outcomes, ctx))
        sweep.report = self._analyzer.analyze(network, ctx=sweep_ctx)
        self._memo = sweep
        return sweep.report

    def _plan(self, memo: _SweepMemo | None, network: Network,
              fingerprint: tuple,
              ) -> tuple[set[ServerId] | None, dict[tuple, _Record],
                         list[Flow]]:
        """The invalidation pass: (dirty cone, reusable sweep units,
        changed flows).

        A ``None`` cone means "everything dirty, nothing structurally
        comparable" (first query, changed analyzer config, changed
        server set, an Integrated partition that moved); fast reuse is
        disabled and only the content cache applies.
        """
        if memo is None or memo.fingerprint != fingerprint:
            return None, {}, []
        changed = changed_flows(memo.network, network)
        if changed is None:
            return None, {}, []
        if not changed:
            return set(), memo.outcomes, changed
        if self._mode == "integrated" and self._partition_moved(memo,
                                                                network):
            return None, {}, []
        cone = affected_cone(memo.network, network, changed)
        return cone, memo.outcomes, changed

    def _partition_moved(self, memo: _SweepMemo, network: Network) -> bool:
        """True when *network* partitions into other blocks than the
        memo's sweep did.

        A flow edit can move the pairing far from the flows it touched
        (:class:`~repro.core.partition.PairAlongPath` pairs along the
        longest flow), and a block downstream of a re-paired one then
        receives other input curves although it lies outside the cone.
        """
        try:
            blocks = self._blocks(network)
        except (ValueError, TopologyError):
            return True  # the analysis itself reports the problem
        return blocks != memo.report.meta.get("partition")

    def _blocks(self, network: Network) -> tuple | None:
        """The Integrated partition's blocks of *network*; None for
        Decomposed, which has no partition."""
        if self._mode != "integrated":
            return None
        return self._analyzer.strategy.partition(network).blocks

    def _replay(self, memo: _SweepMemo, sweep: _SweepMemo,
                cone: set[ServerId], changed: list[Flow],
                ctx: AnalysisContext) -> SweepReplay:
        """Hand every server outside *cone* its previous step at once.

        Seeds *sweep* with the previous sweep's entries for those
        servers (the cone's are added as the sweep steps them) and
        counts them as fast reuses.
        """
        outcomes = sweep.outcomes = memo.outcomes.copy()
        steps = sweep.steps = memo.steps.copy()
        local = sweep.local = memo.local.copy()
        for sid in cone:
            outcomes.pop(("server", sid), None)
            steps.pop(sid, None)
            local.pop(sid, None)
        n = len(outcomes)
        self.stats.fast_reuses += n
        self.stats.saved_s += sum(map(_cost, outcomes.values()))
        ctx.count("engine.fast_reuses", n)
        flows = sweep.network.flows
        dropped = tuple({f.name for f in changed if f.name not in flows})
        return SweepReplay(memo.steps, memo.local, frozenset(cone),
                           memo.report, dropped)

    # ------------------------------------------------------------------
    # sweep hooks
    # ------------------------------------------------------------------

    def _lookup(self, unit: tuple, in_cone: bool,
                reusable: dict[tuple, _Record],
                outcomes: dict[tuple, _Record], key_fn, compute_fn,
                build, ctx: AnalysisContext):
        """Shared reuse → cache → compute ladder for one sweep unit.

        Runs *inside* the span the context opened for this unit, so the
        cache verdict is annotated onto the unit's own span.  *build*
        makes the unit's input; a fast reuse never calls it.
        """
        if not in_cone:
            rec = reusable.get(unit)
            if rec is not None:
                outcomes[unit] = rec
                self.stats.fast_reuses += 1
                self.stats.saved_s += rec[1]
                ctx.count("engine.fast_reuses")
                ctx.annotate(cache="fast_reuse")
                return rec[0]
        payload = build()
        key = key_fn(payload)
        rec = self._cache.get(key)
        if rec is not None:
            self.stats.hits += 1
            self.stats.saved_s += rec[1]
            ctx.count("engine.hits")
            ctx.annotate(cache="hit")
            outcomes[unit] = rec
            return rec[0]
        if self._store is not None:
            stored = self._store.get(key)
            if stored is not None:
                self.stats.store_hits += 1
                self.stats.saved_s += stored.compute_time
                ctx.count("store.hits")
                ctx.annotate(cache="store_hit")
                rec = (stored.value, stored.compute_time)
                self._cache[key] = rec
                outcomes[unit] = rec
                return stored.value
            self.stats.store_misses += 1
            ctx.count("store.misses")
        t0 = time.perf_counter()
        value = compute_fn(payload)
        dt = time.perf_counter() - t0
        self.stats.misses += 1
        self.stats.spent_s += dt
        ctx.count("engine.misses")
        ctx.count("engine.spent_s", dt)
        ctx.annotate(cache="miss")
        rec = (value, dt)
        self._cache[key] = rec
        self._persist(key, value, dt, ctx)
        outcomes[unit] = rec
        return value

    def _persist(self, key: bytes, value: object, dt: float,
                 ctx: AnalysisContext) -> bool:
        """Best-effort store write, True when written; never fails the
        analysis path.

        Read-only stores (pool workers) skip silently — their fresh
        entries travel back to the parent as seed records instead.
        Disk trouble (full, permissions, closed store) is counted and
        swallowed: persistence is an optimization, correctness never
        depends on it.
        """
        if self._store is None or self._store.read_only:
            return False
        try:
            if self._store.put(key, value, dt):
                ctx.count("store.writes")
                return True
        except (StoreError, OSError):
            ctx.count("store.write_errors")
        return False

    def _make_block_step(self, cone, reusable, outcomes,
                         ctx: AnalysisContext):
        def block_step(kind: str, block: tuple, build):
            in_cone = cone is None or any(s in cone for s in block)
            return self._lookup((kind, block), in_cone, reusable,
                                outcomes, _block_key, evaluate_block, build,
                                ctx)
        return block_step

    # ------------------------------------------------------------------
    # cross-process seeding
    # ------------------------------------------------------------------

    def seed_cache(self, records: Iterable[tuple[bytes, object, float]],
                   ) -> int:
        """Preload content-addressed results computed elsewhere.

        The parallel batch-admission path feeds each worker's
        per-server step results back here, so the very next engine
        query over the committed network replays them as cache hits
        instead of recomputing the whole sweep.  Records are
        ``(content key, result, original compute seconds)`` exactly as
        the engine itself stores them; already-present keys are left
        untouched (first write wins — all writers produced the value
        from the same pure function on the same inputs).  Returns the
        number of entries actually added.
        """
        added = 0
        for key, value, dt in records:
            if key not in self._cache:
                self._cache[key] = (value, dt)
                added += 1
            self._persist(key, value, dt, NULL_CONTEXT)
        return added

    # ------------------------------------------------------------------
    # checkpointed sweeps
    # ------------------------------------------------------------------

    def _sweep_key(self, network: Network,
                   fingerprint: tuple) -> bytes | None:
        """:func:`_sweep_key` of *network*, or None when it has none (a
        server id the key cannot encode, a network with no partition)."""
        try:
            return _sweep_key(network, fingerprint, self._blocks(network))
        except (TypeError, ValueError, TopologyError):
            return None

    def save_sweep(self, network: Network, *,
                   ctx: AnalysisContext = NULL_CONTEXT) -> bool:
        """Persist the memo's complete sweep of *network* as one store
        record; True when written.

        The record holds every sweep unit's result with its compute
        time, and the report: what :meth:`load_sweep` needs to make a
        later query over an equal network cost only its change.  Writes
        nothing unless the memo is a sweep of *network* itself and the
        store is writable; like every store write it is best effort.
        """
        memo = self._memo
        if (self._store is None or self._store.read_only or memo is None
                or memo.network.version != network.version):
            return False
        key = self._sweep_key(network, memo.fingerprint)
        if key is None:
            return False
        value = (SWEEP_RECORD_VERSION, self._mode, memo.outcomes,
                 memo.report)
        return self._persist(key, value,
                             sum(map(_cost, memo.outcomes.values())), ctx)

    def load_sweep(self, network: Network, *,
                   ctx: AnalysisContext = NULL_CONTEXT) -> bool:
        """Seed the memo with the stored sweep of *network*; True when
        seeded.

        The next query over a network derived from *network* by a flow
        edit then plans from the edit records and steps only its cone,
        as if this engine had analyzed *network* itself.  A missing,
        unreadable or other-version record leaves the engine as it was.
        The record's key covers everything that reaches a step
        (:func:`_sweep_key`), so a seeded memo replays exactly what a
        sweep of *network* would compute.
        """
        if (self._store is None or self._mode is None
                or not network.is_feedforward):
            return False
        fingerprint = self._fingerprint()
        key = self._sweep_key(network, fingerprint)
        stored = None if key is None else self._store.get(key)
        if stored is None:
            return False
        record = stored.value
        if (type(record) is not tuple or len(record) != 4
                or record[:2] != (SWEEP_RECORD_VERSION, self._mode)
                or type(record[2]) is not dict
                or not isinstance(record[3], DelayReport)):
            return False
        memo = _SweepMemo(network, fingerprint, record[2],
                          report=record[3])
        if self._mode == "decomposed":
            memo.steps = {unit[1]: rec[0]
                          for unit, rec in memo.outcomes.items()}
            memo.local = {sid: step.local
                          for sid, step in memo.steps.items()}
        self._memo = memo
        ctx.count("engine.sweep_loads")
        return True
