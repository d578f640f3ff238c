"""Write-ahead journal for admission decisions.

One journal directory holds two files:

``journal.jsonl``
    Append-only records, one JSON object per line, fsync'd before the
    caller proceeds (:class:`~repro.utils.durable.DurableAppender`).
    Record ops: ``base`` (the initial network, written once when a
    fresh journal is opened), ``admit`` (the journaled request plus the
    decision's bound as an exact ``float.hex`` string, the answering
    analyzer and the degradation level) and ``release``.
``snapshot.json``
    Periodic full snapshot — network, admitted set, per-flow bounds —
    written atomically (tmp + fsync + ``os.replace`` + directory
    fsync); immediately after a snapshot lands the journal is rotated
    down to records newer than it.

The write-ahead contract: an admission is journaled *before* the
in-memory controller commits it, so after a crash the journal is a
superset of the acknowledged state and replay reconstructs exactly the
decisions that were answered.  A crash mid-append leaves a truncated
final line; readers drop it (the decision was never acknowledged) and
resuming repairs it — the appender truncates the torn tail before its
first write, so the next record lands on a fresh line instead of being
concatenated onto the partial one (which would lose it).

Sequence numbers are strictly increasing across rotations, so a
recovered service keeps journaling where the dead one stopped.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.admission.requests import ConnectionRequest
from repro.errors import JournalError
from repro.network.serialization import network_from_dict, network_to_dict
from repro.network.topology import Network
from repro.utils.durable import DurableAppender, atomic_write_text, iter_jsonl

__all__ = [
    "Journal",
    "load_journal",
    "request_to_record",
    "request_from_record",
    "JOURNAL_VERSION",
]

JOURNAL_VERSION = 1

JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_FILE = "snapshot.json"


def request_to_record(request: ConnectionRequest) -> dict:
    """JSON-ready dict that round-trips a :class:`ConnectionRequest`."""
    b = request.bucket
    return {
        "name": request.name,
        "sigma": b.sigma,
        "rho": b.rho,
        "peak": None if math.isinf(b.peak) else b.peak,
        "path": list(request.path),
        "deadline": request.deadline,
        "priority": request.priority,
    }


def request_from_record(rec: dict) -> ConnectionRequest:
    """Inverse of :func:`request_to_record`."""
    from repro.curves.token_bucket import TokenBucket

    try:
        peak = rec.get("peak")
        return ConnectionRequest(
            rec["name"],
            TokenBucket(float(rec["sigma"]), float(rec["rho"]),
                        math.inf if peak is None else float(peak)),
            tuple(rec["path"]),
            float(rec["deadline"]),
            priority=int(rec.get("priority", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(
            f"malformed request record: {exc}") from exc


class Journal:
    """The service's write-ahead journal over one directory.

    Parameters
    ----------
    directory:
        Journal home; created if missing.
    resume:
        Continue an existing journal (sequence numbers pick up after
        the highest on disk).  Without it, a directory that already
        contains journal state raises :class:`JournalError` instead of
        silently clobbering the previous service's history.

    Recovery, which has just read the journal, passes the highest
    sequence number it saw as the internal ``_last_seq`` keyword, so
    a resumed journal does not parse the directory a second time.
    """

    def __init__(self, directory: str | Path, *,
                 resume: bool = False,
                 _last_seq: int | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._journal_path = self.directory / JOURNAL_FILE
        self._snapshot_path = self.directory / SNAPSHOT_FILE
        existing = (self._journal_path.exists()
                    or self._snapshot_path.exists())
        if existing and not resume:
            raise JournalError(
                f"{self.directory} already holds journal state; pass "
                "resume=True (repro recover) to continue it or choose "
                "a fresh directory")
        self._seq = 0
        if resume and existing and _last_seq is not None:
            self._seq = int(_last_seq)
        elif resume and existing:
            snapshot, records, _ = load_journal(self.directory)
            if snapshot is not None:
                self._seq = int(snapshot.get("seq", 0))
            for rec in records:
                self._seq = max(self._seq, int(rec.get("seq", 0)))
        self._appender = DurableAppender(self._journal_path)

    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently journaled record."""
        return self._seq

    @property
    def closed(self) -> bool:
        return self._appender.closed

    def _append(self, record: dict) -> int:
        self._seq += 1
        record = {"v": JOURNAL_VERSION, "seq": self._seq, **record}
        self._appender.append(json.dumps(record, sort_keys=True))
        return self._seq

    # ------------------------------------------------------------------
    # record writers
    # ------------------------------------------------------------------

    def write_base(self, network: Network, *, analyzer: str,
                   kernel: str = "") -> int:
        """Journal the service's initial network (fresh journals only).

        *kernel* records the curve kernel every journaled bound was
        produced under.  Recovery verifies only under ``exact``, so it
        refuses a journal recorded under the ``grid`` oracle scope
        rather than compare its padded bounds with exact ones.  Empty
        means "journal predates kernel recording".
        """
        return self._append({
            "op": "base",
            "network": network_to_dict(network),
            "analyzer": analyzer,
            "kernel": kernel,
        })

    def write_admit(self, request: ConnectionRequest, bound: float, *,
                    analyzer: str, verify_analyzer: str | None,
                    degradation: str) -> int:
        """Durably record an admission *before* it is committed.

        ``bound`` is stored both human-readable and as ``float.hex``
        so recovery can demand bit-identical re-analysis.
        """
        return self._append({
            "op": "admit",
            "request": request_to_record(request),
            "bound": bound,
            "bound_hex": float(bound).hex(),
            "analyzer": analyzer,
            "verify_analyzer": verify_analyzer,
            "degradation": degradation,
        })

    def write_release(self, flow: str) -> int:
        """Durably record a release before it is applied."""
        return self._append({"op": "release", "flow": flow})

    # ------------------------------------------------------------------
    # snapshot + rotation
    # ------------------------------------------------------------------

    def snapshot(self, network: Network, admitted: list[str], *,
                 analyzer: str,
                 bounds: dict[str, float] | None = None,
                 kernel: str = "") -> None:
        """Write a full-state snapshot and rotate the journal.

        The snapshot lands atomically first; only then is the journal
        truncated (atomically, via the same tmp+replace dance on a new
        empty file), so a crash between the two steps merely leaves
        already-snapshotted records in the journal — replay is
        idempotent about those.
        """
        state = {
            "v": JOURNAL_VERSION,
            "seq": self._seq,
            "network": network_to_dict(network),
            "admitted": list(admitted),
            "analyzer": analyzer,
            "kernel": kernel,
            "bounds_hex": (None if bounds is None else
                           {k: float(v).hex() for k, v in bounds.items()}),
        }
        atomic_write_text(self._snapshot_path,
                          json.dumps(state, sort_keys=True, indent=1))
        # rotate: close the live appender, atomically empty the file,
        # reopen.  Crash-safe at every point (see docstring).
        self._appender.close()
        atomic_write_text(self._journal_path, "")
        self._appender = DurableAppender(self._journal_path)

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(directory: str | Path,
                 ) -> tuple[dict | None, list[dict], int]:
    """Read ``(snapshot, records, corrupt_lines)`` from a journal dir.

    * ``snapshot`` is the parsed ``snapshot.json`` or ``None``;
    * ``records`` are the parsed journal lines (file order) *newer*
      than the snapshot's sequence number — older ones were rotated
      into the snapshot and replaying them again would be redundant;
    * ``corrupt_lines`` counts unparseable journal lines.  A corrupt
      *final* line is the expected signature of a crash mid-append and
      is silently tolerated; corruption elsewhere is reported through
      the count but still skipped (the WAL contract: a record that
      cannot be parsed was never acknowledged).

    Raises :class:`JournalError` when the directory holds no journal
    state at all, or the snapshot itself cannot be parsed (the journal
    alone cannot reconstruct state without its base/snapshot).
    """
    directory = Path(directory)
    journal_path = directory / JOURNAL_FILE
    snapshot_path = directory / SNAPSHOT_FILE
    if not journal_path.exists() and not snapshot_path.exists():
        raise JournalError(f"no journal state in {directory}")

    snapshot: dict | None = None
    if snapshot_path.exists():
        try:
            snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise JournalError(
                f"corrupt snapshot {snapshot_path}: {exc}") from exc
        if not isinstance(snapshot, dict):
            raise JournalError(f"corrupt snapshot {snapshot_path}: "
                               "not a JSON object")
    floor = int(snapshot.get("seq", 0)) if snapshot is not None else 0

    records: list[dict] = []
    corrupt = 0
    if journal_path.exists():
        for rec, ok in iter_jsonl(journal_path):
            if not ok:
                corrupt += 1
                continue
            if int(rec.get("seq", 0)) > floor:
                records.append(rec)
    return snapshot, records, corrupt
