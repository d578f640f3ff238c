"""Crash recovery: replay snapshot + journal into an identical service.

Recovery is two separable steps:

1. :func:`recover_state` — pure structural replay.  Start from the
   snapshot (or the journal's ``base`` record), apply every ``admit``
   and ``release`` in sequence order.  Replay is **idempotent**: an
   admit whose flow already exists and a release whose flow is already
   gone are counted as skips, not errors — both legitimately occur when
   a crash lands between a snapshot and the journal rotation, or when a
   double-release was journaled.
2. :func:`verify_recovery` — differential re-verification of that
   replay (or of a journal directory, replayed first).  Every
   replayed admission's bound is *re-analyzed* on the reconstructed
   candidate network with the analyzer that originally answered (cold
   equivalent for engine answers) and compared **bit-identically**
   (``float.hex``) against the journaled value; the final network is
   additionally checked against the snapshot's per-flow bounds when the
   snapshot is the newest state.  Any mismatch means the journal and
   the code disagree about history — the recovered controller must not
   be trusted to re-admit traffic.

``repro recover`` drives both and :func:`recover_service` rebuilds a
live :class:`~repro.service.AdmissionService` that continues journaling
where the dead process stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.admission.controller import AdmissionController
from repro.admission.requests import ConnectionRequest
from repro.analysis.base import Analyzer
from repro.analysis.registry import ANALYZERS
from repro.context import NULL_CONTEXT, AnalysisContext
from repro.engine import IncrementalEngine
from repro.errors import AnalysisError, JournalError, RecoveryError
from repro.network.serialization import network_from_dict
from repro.network.topology import Network
from repro.service.degrade import ConservativeAnalysis
from repro.service.journal import load_journal, request_from_record

__all__ = [
    "RecoveredState",
    "RecoveryReport",
    "recover_state",
    "recover_service",
    "verify_recovery",
    "resolve_analyzer",
]


def _cold_name(name: str) -> str:
    """The analyzer name an engine answer verifies under."""
    return name.removeprefix("incremental+")


def resolve_analyzer(name: str) -> Analyzer:
    """Build the analyzer a journal record names.

    Engine answers are journaled with their cold-equivalent name
    (``incremental+integrated`` verifies as ``integrated`` — the engine
    is bit-identical to its wrapped analyzer by construction), and the
    degraded rung's ``conservative`` resolves to
    :class:`~repro.service.degrade.ConservativeAnalysis`.
    """
    name = _cold_name(name)
    if name == "conservative":
        return ConservativeAnalysis()
    try:
        return ANALYZERS[name]()
    except KeyError:
        raise RecoveryError(
            f"journal names unknown analyzer {name!r}") from None


@dataclass(frozen=True)
class RecoveredState:
    """Result of a structural journal replay."""

    network: Network
    admitted: tuple[str, ...]
    analyzer_name: str
    kernel: str  #: curve kernel the journal was recorded under ("" = legacy)
    last_seq: int
    snapshot_seq: int  #: 0 when no snapshot existed
    replayed: int      #: records applied
    skipped: int       #: idempotent skips (duplicate admit / release)
    corrupt_lines: int
    #: the records replayed on top of :attr:`base_network`, in order
    records: tuple[dict, ...] = field(repr=False)
    #: the network replay started from (snapshot's, else base record's)
    base_network: Network = field(repr=False)
    #: the parsed snapshot, None when the journal had none
    snapshot: dict | None = field(default=None, repr=False)


def _apply(network: Network, admitted: list[str], rec: dict,
           ) -> tuple[Network, ConnectionRequest | None]:
    """Apply one journal record to *network* and *admitted* (in place).

    Returns the network after the record and, for an admit that added
    its flow, the admitted request.  Idempotent: an admit whose flow
    is already present and a release whose flow is gone change nothing
    but the admitted list; both return the request as None.
    """
    op = rec.get("op")
    seq = int(rec.get("seq", 0))
    if op == "base":
        # a resumed journal may re-journal nothing; a second base
        # record is meaningless mid-history
        raise RecoveryError(
            f"unexpected base record mid-journal (seq {seq})")
    if op == "admit":
        try:
            request = request_from_record(rec["request"])
        except (KeyError, JournalError) as exc:
            raise RecoveryError(
                f"unreplayable admit record (seq {seq}): {exc}") from exc
        if request.name not in admitted:
            admitted.append(request.name)
        if request.name in network.flows:
            return network, None  # idempotent: already applied
        flow = AdmissionController._flow_from_request(request)
        return network.with_flow(flow), request
    if op == "release":
        name = rec.get("flow")
        if name in admitted:
            admitted.remove(name)
        if name not in network.flows:
            return network, None  # idempotent: double release
        return network.without_flow(name), None
    raise RecoveryError(f"unknown journal op {op!r} (seq {seq})")


def recover_state(directory: str | Path) -> RecoveredState:
    """Structurally replay a journal directory (no re-analysis).

    Raises :class:`~repro.errors.RecoveryError` when the journal has
    neither snapshot nor base record, or a record is structurally
    impossible (e.g. admit onto an unknown server).
    """
    snapshot, records, corrupt = load_journal(directory)

    if snapshot is not None:
        try:
            base_network = network_from_dict(snapshot["network"])
            admitted = list(snapshot.get("admitted", []))
            analyzer_name = str(snapshot.get("analyzer", "integrated"))
            kernel = str(snapshot.get("kernel", ""))
            snapshot_seq = last_seq = int(snapshot.get("seq", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(f"malformed snapshot: {exc}") from exc
    else:
        if not records or records[0].get("op") != "base":
            raise RecoveryError(
                "journal has no snapshot and no base record; "
                "state cannot be reconstructed")
        base = records[0]
        try:
            base_network = network_from_dict(base["network"])
            last_seq = int(base.get("seq", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(f"malformed base record: {exc}") from exc
        analyzer_name = str(base.get("analyzer", "integrated"))
        kernel = str(base.get("kernel", ""))
        admitted = []
        snapshot_seq = 0
        records = records[1:]
    if kernel == "auto":
        # The retired ``auto`` kernel ran the exact algebra unless a
        # deconvolution diverged; such a bound cannot re-verify under
        # ``exact`` and surfaces as a reported mismatch, never silently.
        kernel = "exact"

    network = base_network
    replayed = skipped = 0
    for rec in records:
        last_seq = max(last_seq, int(rec.get("seq", 0)))
        after, _ = _apply(network, admitted, rec)
        if after is network:
            skipped += 1
        else:
            replayed += 1
        network = after

    return RecoveredState(
        network=network, admitted=tuple(admitted),
        analyzer_name=analyzer_name, kernel=kernel, last_seq=last_seq,
        snapshot_seq=snapshot_seq, replayed=replayed, skipped=skipped,
        corrupt_lines=corrupt, records=tuple(records),
        base_network=base_network, snapshot=snapshot)


# ----------------------------------------------------------------------
# bit-identical verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of the differential recovery verification."""

    checked: int
    mismatches: tuple[str, ...]
    final_bounds: dict[str, float]
    #: the analyzers verification ran, by cold name: an incremental
    #: engine (memo included) where a store was given
    analyzers: dict[str, Analyzer] = field(default_factory=dict,
                                           repr=False, compare=False)
    #: the network and admitted set the verification walk ended on
    network: Network | None = field(default=None, repr=False,
                                    compare=False)
    admitted: tuple[str, ...] = field(default=(), repr=False,
                                      compare=False)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [f"re-verified {self.checked} journaled bound(s): "
                 + ("all bit-identical" if self.ok
                    else f"{len(self.mismatches)} MISMATCH(ES)")]
        lines += [f"  MISMATCH {m}" for m in self.mismatches]
        return "\n".join(lines)


def verify_recovery(source: str | Path | RecoveredState, *,
                    kernel: str | None = None,
                    store=None,
                    ctx: AnalysisContext = NULL_CONTEXT) -> RecoveryReport:
    """Re-analyze every journaled admission and demand bit-identity.

    *source* is a journal directory, which is replayed with
    :func:`recover_state` first, or the :class:`RecoveredState` such a
    replay returned; given a state, the journal is not read again.
    Walks the replayed records from the state's starting network,
    re-running the recorded ``verify_analyzer`` on each reconstructed
    candidate network and comparing ``float.hex`` representations.
    Also re-checks the snapshot's per-flow bounds when no newer records
    exist.  Analysis failures during verification are reported as
    mismatches (history claims a bound existed; we cannot reproduce
    it).

    *store* (a :class:`~repro.store.AnalysisStore`) accelerates the
    replay: each verification analyzer runs behind an incremental
    engine consulting the store before re-deriving per-hop results.
    The ``float.hex`` comparison is unchanged — every bound, however
    served, is still checked bit-for-bit against the journal, so a
    stale or corrupted store can only slow verification down (miss →
    recompute), never let a wrong bound through.  Each engine first
    loads the stored sweep of the state's starting network
    (:meth:`~repro.engine.IncrementalEngine.load_sweep`), which the
    service wrote at its last checkpoint, so the first admission
    checked costs its cone instead of a pass over every server.  When
    the journal holds no admission after that network, the sweep is
    not loaded: the only bounds left to check are the snapshot's own,
    and checking them against the record that produced them would
    compare a value with its copy; a full sweep checks them instead.

    Re-analysis runs under the **journaled curve kernel**: bounds
    recorded under the grid backend cannot be reproduced bit-for-bit
    by the exact kernel (or vice versa).  Passing *kernel* asserts the
    caller's expectation — a mismatch with a kernel-recording journal
    raises :class:`~repro.errors.RecoveryError` instead of failing
    every bound comparison; journals predating kernel recording verify
    under *kernel* (or the ambient selection) as before.
    """
    if isinstance(source, RecoveredState):
        state, where = source, "the journal"
    else:
        state, where = recover_state(source), f"journal {Path(source)}"
    if kernel is not None and state.kernel and kernel != state.kernel:
        raise RecoveryError(
            f"{where} was recorded under curve kernel "
            f"{state.kernel!r}; verifying under {kernel!r} would compare "
            "bounds across kernels — rerun without --kernel or with "
            f"--kernel {state.kernel}")
    effective = state.kernel or kernel
    if effective:
        ctx = (ctx.with_kernel(effective)
               if isinstance(ctx, AnalysisContext) and ctx.kernel is None
               else ctx)
        if not isinstance(ctx, AnalysisContext):
            ctx = AnalysisContext(kernel=effective)

    analyzers: dict[str, Analyzer] = {}
    seed = None
    if store is not None and any(rec.get("op") == "admit"
                                 for rec in state.records):
        seed = state.base_network

    def analyzer_for(name: str) -> Analyzer:
        name = _cold_name(name)
        if name not in analyzers:
            resolved = resolve_analyzer(name)
            if store is not None:
                engine = IncrementalEngine(resolved, store=store)
                if engine.supports_incremental:
                    resolved = engine
                    if seed is not None:
                        engine.load_sweep(seed, ctx=ctx)
            analyzers[name] = resolved
        return analyzers[name]

    mismatches: list[str] = []
    checked = 0

    # -- step-by-step: each admit's bound on its candidate network -----
    network = state.base_network
    admitted = list(state.snapshot.get("admitted", [])
                    if state.snapshot is not None else ())
    for rec in state.records:
        network, request = _apply(network, admitted, rec)
        if request is not None:
            seq = int(rec.get("seq", 0))
            expected_hex = rec.get("bound_hex")
            verify_name = rec.get("verify_analyzer") or rec.get("analyzer")
            if expected_hex is None or verify_name is None:
                continue
            ctx.checkpoint(f"verify admit seq {seq}")
            try:
                report = analyzer_for(verify_name).run(network, ctx)
                got = report.delay_of(request.name)
            except (AnalysisError, KeyError) as exc:
                mismatches.append(
                    f"seq {seq} flow {request.name!r}: re-analysis with "
                    f"{verify_name!r} failed: {exc}")
                continue
            checked += 1
            if float(got).hex() != expected_hex:
                mismatches.append(
                    f"seq {seq} flow {request.name!r} ({verify_name}): "
                    f"journaled {float.fromhex(expected_hex)!r} != "
                    f"re-analyzed {got!r}")

    # -- snapshot bounds, when the snapshot is the newest state --------
    final_bounds: dict[str, float] = {}
    snapshot = state.snapshot
    if (snapshot is not None and snapshot.get("bounds_hex")
            and state.last_seq == state.snapshot_seq):
        verify_name = str(snapshot.get("analyzer", "integrated"))
        try:
            report = analyzer_for(verify_name).run(state.network, ctx)
        except AnalysisError as exc:
            mismatches.append(
                f"snapshot re-analysis with {verify_name!r} failed: {exc}")
        else:
            for fname, expected_hex in snapshot["bounds_hex"].items():
                try:
                    got = report.delay_of(fname)
                except KeyError:
                    mismatches.append(
                        f"snapshot flow {fname!r} missing from "
                        "re-analysis")
                    continue
                checked += 1
                final_bounds[fname] = got
                if float(got).hex() != expected_hex:
                    mismatches.append(
                        f"snapshot flow {fname!r} ({verify_name}): "
                        f"journaled {float.fromhex(expected_hex)!r} != "
                        f"re-analyzed {got!r}")

    return RecoveryReport(checked=checked, mismatches=tuple(mismatches),
                          final_bounds=final_bounds, analyzers=analyzers,
                          network=network, admitted=tuple(admitted))


def recover_service(directory: str | Path, *,
                    analyzer: Analyzer | None = None,
                    verify: bool = True,
                    kernel: str | None = None,
                    store=None,
                    ctx: AnalysisContext = NULL_CONTEXT,
                    **service_kwargs):
    """Rebuild a live :class:`~repro.service.AdmissionService`.

    Replays the journal once, optionally hands the replayed state to
    :func:`verify_recovery` (raising
    :class:`~repro.errors.RecoveryError` on any bound mismatch), and
    returns a service whose journal *resumes* the directory — sequence
    numbers continue, nothing is clobbered.

    *analyzer* overrides the journaled primary analyzer; *kernel*
    asserts the curve kernel and must match the journaled one when the
    journal records it (:class:`~repro.errors.RecoveryError`
    otherwise) — the resumed service is pinned to the journaled kernel
    so new records stay comparable with history.  *store* warm-boots
    recovery: verification consults it before re-deriving per-hop
    results (bit-identity still enforced per bound) and the resumed
    service keeps it as its persistent cache tier.  Extra keyword
    arguments are forwarded to the service constructor.

    When verification ran the journaled primary behind an incremental
    engine (a *store* was given) and neither *analyzer* nor
    ``incremental=False`` asks for another primary, the service is
    handed that engine, memo included: its first query replays the
    verified network instead of keying and reading every server again.
    When verification ran, the service starts on the network it ended
    on (equal to the replayed one, flow names and admitted set
    checked), whose edit records lead back to that memo.
    """
    from repro.service.service import AdmissionService

    state = recover_state(directory)
    if kernel is not None and state.kernel and kernel != state.kernel:
        raise RecoveryError(
            f"journal {Path(directory)} was recorded under curve kernel "
            f"{state.kernel!r}; resuming under {kernel!r} would mix "
            "bounds from two kernels in one journal — rerun without "
            f"--kernel or with --kernel {state.kernel}")
    primary = analyzer
    network = state.network
    if verify:
        report = verify_recovery(state, kernel=kernel, store=store,
                                 ctx=ctx)
        if not report.ok:
            raise RecoveryError(
                "recovered state failed bound verification:\n"
                + report.render())
        engine = report.analyzers.get(_cold_name(state.analyzer_name))
        if (primary is None and isinstance(engine, IncrementalEngine)
                and service_kwargs.get("incremental", True)):
            primary = engine  # its memo holds the verified network
        flows = report.network.flows
        if (report.admitted == state.admitted
                and flows.keys() == state.network.flows.keys()):
            # both walked the same records from the same base network
            network = report.network
    if primary is None:
        primary = resolve_analyzer(state.analyzer_name)
    return AdmissionService(
        network, primary, journal_dir=directory, resume=True,
        admitted=state.admitted, kernel=state.kernel or kernel,
        store=store, ctx=ctx, _resume_seq=state.last_seq, **service_kwargs)
