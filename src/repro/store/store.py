"""Disk-backed, content-addressed analysis store with warm-start.

:class:`AnalysisStore` persists the incremental engine's per-server /
per-block results (:mod:`repro.engine`) across **processes**: keys are
the same blake2b content digests (:mod:`repro.utils.hashing`) the
engine's in-memory cache uses, so an entry is valid for exactly the
inputs that produced it — every bit of every curve, the discipline,
and the curve kernel are part of the key, which is why a store hit is
guaranteed to replay the cold computation bit-identically and why
exact and grid results can never alias.

Layout (one directory)::

    seg-00000001.dat   append-only segments (see repro.store.format)
    seg-00000002.dat
    index.json         atomic snapshot: entry locations in LRU order

Durability and corruption semantics:

* Segments are append-only; each ``put`` appends one CRC-framed record
  and flushes.  The **index** is advisory — it is rewritten through
  :func:`repro.utils.durable.atomic_write_text` (tmp + fsync + replace
  + dir fsync) and, when missing, stale or unreadable, the store
  rebuilds it by scanning segment frame headers.
* Every read verifies the frame CRC and unpickles defensively: a bit
  flip, torn tail or version skew turns into a **miss** (counted in
  :class:`StoreStats`), never an exception and never a wrong value.
  Callers recompute and the recomputed entry repairs the store.
* Segment headers and the index both carry the format version and the
  value schema tag; files written by an incompatible version read as
  empty (recompute), not as garbage.  New segments carry the current
  schema; segments of an older schema this code still reads
  (:data:`~repro.store.format.READ_SCHEMAS`) are served, never appended
  to, and compaction copies their entries into current segments.

The store is single-writer, many-reader: one process opens it
writable (the admission service, the sweep driver, the bench harness)
while pool workers open it ``read_only`` and ship any newly computed
entries back to the parent for one serialized write — see
``docs/STORE.md``.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

from repro.errors import StoreError
from repro.store.format import (
    FORMAT_VERSION,
    FRAME_HEADER,
    KEY_BYTES,
    READ_SCHEMAS,
    VALUE_SCHEMA,
    checksum,
    pack_frame,
    parse_segment_header,
    readable,
    scan_segment,
    segment_header,
)
from repro.utils.durable import atomic_write_text, fsync_dir, fsync_file

__all__ = [
    "AnalysisStore",
    "StoreEntry",
    "StoreStats",
    "CompactionReport",
    "VerifyReport",
]

INDEX_NAME = "index.json"
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.dat$")

#: Default segment roll size; small enough that compaction rewrites
#: stay incremental, large enough that a realistic store is a handful
#: of files.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024
#: Index snapshots are written every this many puts (and on flush/close).
DEFAULT_FLUSH_EVERY = 256


@dataclass(frozen=True)
class StoreEntry:
    """One stored result: the value plus its original compute time."""

    value: object
    compute_time: float


@dataclass
class StoreStats:
    """Operational counters of one :class:`AnalysisStore` handle."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  #: entries dropped on read (CRC/unpickle failure)
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    compactions: int = 0
    evicted: int = 0  #: entries dropped by LRU compaction

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "compactions": self.compactions,
            "evicted": self.evicted,
        }


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :meth:`AnalysisStore.compact` pass."""

    kept: int
    dropped: int
    bytes_before: int
    bytes_after: int
    segments_before: int
    segments_after: int

    def render(self) -> str:
        return (
            f"compacted: kept {self.kept} entr(ies), dropped "
            f"{self.dropped}, {self.bytes_before} -> {self.bytes_after} "
            f"segment byte(s), {self.segments_before} -> "
            f"{self.segments_after} segment file(s)"
        )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full store verification scan."""

    entries: int
    corrupt: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def render(self) -> str:
        lines = [
            f"verified {self.entries} entr(ies): "
            + ("all good" if self.ok else f"{len(self.corrupt)} CORRUPT")
        ]
        lines += [f"  CORRUPT {c}" for c in self.corrupt]
        return "\n".join(lines)


class _Ref(NamedTuple):
    """Where one entry's payload lives."""

    segment: str
    offset: int
    length: int
    crc32: int


class AnalysisStore:
    """Persistent content-addressed result store (see module docstring).

    Parameters
    ----------
    directory:
        Store directory; created (with parents) when opened writable.
        A ``read_only`` open of a missing directory is a valid empty
        store — pool workers may race the parent's first write.
    read_only:
        Never write: ``put`` raises :class:`~repro.errors.StoreError`,
        torn tails are tolerated in place instead of truncated, and the
        index file is left untouched.
    max_bytes:
        Live-payload cap enforced by compaction (LRU entries beyond it
        are dropped).  ``None`` = uncapped.  Writable stores
        auto-compact when segment bytes exceed twice the cap.
    segment_bytes / flush_every:
        Segment roll size and index-snapshot interval (tuning knobs;
        the defaults are fine for any realistic admission session).
    """

    def __init__(self, directory: str | os.PathLike, *,
                 read_only: bool = False,
                 max_bytes: int | None = None,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise StoreError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        if segment_bytes < 4096:
            raise StoreError(f"segment_bytes must be >= 4096, got {segment_bytes}")
        self._dir = Path(directory)
        self._read_only = bool(read_only)
        self.max_bytes = max_bytes
        self._segment_bytes = int(segment_bytes)
        self._flush_every = max(1, int(flush_every))
        self.stats = StoreStats()
        self._closed = False
        self._dirty = 0
        #: LRU map: oldest first; values locate the payload on disk.
        self._entries: dict[bytes, _Ref] = {}
        #: clean (scanned) byte length per live segment file.
        self._segments: dict[str, int] = {}
        self._readers: dict[str, BinaryIO] = {}
        self._writer: BinaryIO | None = None
        self._writer_name = ""

        if self._dir.exists() and not self._dir.is_dir():
            raise StoreError(f"store path {self._dir} is not a directory")
        if not self._dir.exists():
            if self._read_only:
                return  # empty store; nothing on disk to load
            self._dir.mkdir(parents=True, exist_ok=True)
        self._load()

    # ------------------------------------------------------------------
    # opening: index load with scan fallback
    # ------------------------------------------------------------------

    def _disk_segments(self) -> list[str]:
        try:
            names = os.listdir(self._dir)
        except OSError:
            return []
        return sorted(n for n in names if _SEGMENT_RE.match(n))

    def _load(self) -> None:
        """Populate the entry map: index when trustworthy, else scan."""
        indexed = self._load_index()
        for name in self._disk_segments():
            if name in self._segments:
                continue  # covered by a validated index
            self._scan_segment_file(name)
        if indexed is not None:
            # LRU order from the index; scan-found extras stay newest.
            ordered: dict[bytes, _Ref] = {}
            for key in indexed:
                if key in self._entries:
                    ordered[key] = self._entries.pop(key)
            ordered.update(self._entries)
            self._entries = ordered

    def _load_index(self) -> list[bytes] | None:
        """Load ``index.json``; returns the LRU key order, or None.

        The index is trusted only when its version tags match and every
        segment it names exists with *exactly* the recorded clean
        length — any skew (stale index, crashed compaction, foreign
        version) falls back to scanning the segments themselves.
        """
        path = self._dir / INDEX_NAME
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        try:
            if not readable(int(raw["format"]), str(raw["schema"])):
                return None
            segments = {str(k): int(v) for k, v in raw["segments"].items()}
            entries = [(bytes.fromhex(k), str(seg), int(off), int(ln), int(crc))
                       for k, seg, off, ln, crc in raw["entries"]]
        except (KeyError, TypeError, ValueError):
            return None
        for name, clean in segments.items():
            try:
                size = (self._dir / name).stat().st_size
            except OSError:
                return None
            if size != clean:
                return None  # appended or truncated since the snapshot
        order: list[bytes] = []
        for key, seg, off, ln, crc in entries:
            if seg not in segments or len(key) != KEY_BYTES:
                return None
            self._entries[key] = _Ref(seg, off, ln, crc)
            order.append(key)
        self._segments.update(segments)
        return order

    def _scan_segment_file(self, name: str) -> None:
        path = self._dir / name
        try:
            with open(path, "rb") as fh:
                frames, clean, header_ok = scan_segment(fh)
                size = fh.seek(0, 2)
        except OSError:
            return
        if not header_ok:
            # foreign format/schema: contributes nothing (recompute);
            # compaction will eventually delete it.
            self._segments[name] = 0
            return
        if clean != size and not self._read_only:
            # torn/corrupt tail: drop it before any future append.
            try:
                with open(path, "rb+") as fh:
                    fh.truncate(clean)
                    fsync_file(fh)
            except OSError:
                pass
        self._segments[name] = clean
        for ref in frames:
            self._entries[ref.key] = _Ref(name, ref.offset, ref.length,
                                          ref.crc32)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._dir

    @property
    def read_only(self) -> bool:
        return self._read_only

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def live_bytes(self) -> int:
        """Payload bytes of live (indexed) entries."""
        return sum(ref.length for ref in self._entries.values())

    @property
    def segment_bytes_on_disk(self) -> int:
        """Total size of every segment file currently on disk."""
        total = 0
        for name in self._disk_segments():
            try:
                total += (self._dir / name).stat().st_size
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[bytes]:
        return iter(list(self._entries))

    def describe(self) -> dict:
        """Inspection snapshot for the ``repro store`` CLI."""
        return {
            "path": str(self._dir),
            "format": FORMAT_VERSION,
            "schema": VALUE_SCHEMA,
            "reads": sorted(READ_SCHEMAS),
            "entries": len(self._entries),
            "segments": len(self._disk_segments()),
            "live_bytes": self.live_bytes,
            "disk_bytes": self.segment_bytes_on_disk,
            "max_bytes": self.max_bytes,
            "read_only": self._read_only,
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # the cache surface
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self._dir} is closed")

    def _reader(self, name: str) -> BinaryIO | None:
        fh = self._readers.get(name)
        if fh is None:
            try:
                fh = open(self._dir / name, "rb")
            except OSError:
                return None
            self._readers[name] = fh
        return fh

    def get(self, key: bytes) -> StoreEntry | None:
        """The stored entry for *key*, or None.

        Never raises on disk trouble: a missing segment, CRC mismatch
        or unpicklable payload drops the entry (counted in
        ``stats.corrupt``) and reads as a miss — the caller recomputes,
        and its ``put`` repairs the store.
        """
        self._require_open()
        ref = self._entries.get(key)
        if ref is None:
            self.stats.misses += 1
            return None
        payload: bytes | None = None
        fh = self._reader(ref.segment)
        if fh is not None:
            try:
                fh.seek(ref.offset)
                payload = fh.read(ref.length)
            except OSError:
                payload = None
        if (payload is None or len(payload) != ref.length
                or checksum(payload) != ref.crc32):
            self._drop_corrupt(key)
            return None
        try:
            value, compute_time = pickle.loads(payload)
            compute_time = float(compute_time)
        except Exception:  # noqa: BLE001 - any unpickle failure is corruption
            self._drop_corrupt(key)
            return None
        # refresh LRU recency: re-insert at the newest end
        self._entries.pop(key, None)
        self._entries[key] = ref
        self.stats.hits += 1
        self.stats.bytes_read += ref.length
        return StoreEntry(value, compute_time)

    def _drop_corrupt(self, key: bytes) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        self._entries.pop(key, None)

    def put(self, key: bytes, value: object, compute_time: float) -> bool:
        """Persist one computed result; returns True when written.

        First write wins: a key already present is left untouched
        (every writer derives the value from the same pure function on
        the same content-addressed inputs, so overwriting could only
        replace a value with an identical one).
        """
        self._require_open()
        if self._read_only:
            raise StoreError(f"store {self._dir} is open read-only")
        if len(key) != KEY_BYTES:
            raise StoreError(
                f"store keys are {KEY_BYTES}-byte digests, got {len(key)}")
        if key in self._entries:
            return False
        try:
            payload = pickle.dumps((value, float(compute_time)),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise StoreError(
                f"value for key {key.hex()} is not picklable: {exc}"
            ) from exc
        frame = pack_frame(key, payload)
        fh = self._ensure_writer(len(frame))
        offset = self._segments[self._writer_name] + FRAME_HEADER.size
        fh.write(frame)
        fh.flush()
        self._segments[self._writer_name] += len(frame)
        self._entries[key] = _Ref(self._writer_name, offset, len(payload),
                                  checksum(payload))
        self.stats.writes += 1
        self.stats.bytes_written += len(frame)
        self._dirty += 1
        if self._dirty >= self._flush_every:
            self.flush()
        if (self.max_bytes is not None
                and self.live_bytes > 2 * self.max_bytes):
            self.compact()
        return True

    def seed(self, records) -> int:
        """Persist ``(key, value, compute_time)`` records; returns count.

        The single serialized write point for entries computed in pool
        workers (parallel analysis, batch admission, sweeps): workers
        open the store read-only, ship fresh entries to the parent, and
        the parent lands them here in one pass.
        """
        added = 0
        for key, value, compute_time in records:
            if self.put(key, value, compute_time):
                added += 1
        return added

    # ------------------------------------------------------------------
    # writer plumbing
    # ------------------------------------------------------------------

    def _next_segment_name(self) -> str:
        highest = 0
        for name in self._disk_segments():
            match = _SEGMENT_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"seg-{highest + 1:08d}.dat"

    def _open_segment(self, name: str) -> BinaryIO:
        path = self._dir / name
        fresh = not path.exists()
        fh = open(path, "ab")
        if fresh:
            header = segment_header()
            fh.write(header)
            fh.flush()
            fsync_dir(self._dir)
            self._segments[name] = len(header)
        return fh

    def _ensure_writer(self, incoming: int) -> BinaryIO:
        if self._writer is not None:
            if (self._segments[self._writer_name] + incoming
                    <= self._segment_bytes):
                return self._writer
            self._close_writer()
        # resume the newest scanned segment when it still has room —
        # but only when its clean length matches the file exactly (a
        # foreign/headerless segment scans as clean == 0 and must never
        # be appended to: its frames would sit past unscannable bytes)
        # and its header names the schema written here (an older
        # schema's readers would load the new frames)
        name = None
        for candidate in reversed(self._disk_segments()):
            clean = self._segments.get(candidate)
            try:
                size = (self._dir / candidate).stat().st_size
            except OSError:
                break
            if (clean is not None
                    and clean == size
                    and clean >= len(segment_header())
                    and clean + incoming <= self._segment_bytes
                    and self._writes_schema(candidate)):
                name = candidate
            break  # only ever consider the newest segment
        if name is None:
            name = self._next_segment_name()
        self._writer = self._open_segment(name)
        self._writer_name = name
        self._segments.setdefault(name, len(segment_header()))
        return self._writer

    def _writes_schema(self, name: str) -> bool:
        """True when segment *name* is tagged with the written schema."""
        try:
            with open(self._dir / name, "rb") as fh:
                line = fh.readline(4096)
        except OSError:
            return False
        return parse_segment_header(line) == (FORMAT_VERSION, VALUE_SCHEMA)

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                fsync_file(self._writer)
            except OSError:
                pass
            self._writer.close()
            self._writer = None
            self._writer_name = ""

    # ------------------------------------------------------------------
    # index snapshot, compaction, verification
    # ------------------------------------------------------------------

    def _index_payload(self) -> str:
        live = {ref.segment for ref in self._entries.values()}
        if self._writer_name:
            live.add(self._writer_name)
        segments = {name: clean for name, clean in self._segments.items()
                    if name in live}
        entries = [[key.hex(), ref.segment, ref.offset, ref.length,
                    ref.crc32] for key, ref in self._entries.items()]
        return json.dumps({
            "format": FORMAT_VERSION,
            "schema": VALUE_SCHEMA,
            "segments": segments,
            "entries": entries,
        }, sort_keys=True)

    def flush(self) -> None:
        """Durably snapshot the index (and fsync the open segment)."""
        self._require_open()
        if self._read_only:
            return
        if self._writer is not None:
            try:
                fsync_file(self._writer)
            except OSError:
                pass
        atomic_write_text(self._dir / INDEX_NAME, self._index_payload())
        self._dirty = 0

    def compact(self, max_bytes: int | None = None) -> CompactionReport:
        """Rewrite live entries into fresh segments, LRU-capped.

        Drops (a) payloads of overwritten/corrupt entries, (b) segments
        from foreign format versions, and (c) the least recently used
        entries beyond ``max_bytes`` (argument, else the store's cap).
        Crash-safe: new segments are fully written and fsynced before
        the index switches over; old segments are deleted last, and a
        crash in between merely leaves reclaimable files a future open
        re-scans or a future compaction removes.
        """
        self._require_open()
        if self._read_only:
            raise StoreError(f"store {self._dir} is open read-only")
        cap = self.max_bytes if max_bytes is None else max_bytes
        bytes_before = self.segment_bytes_on_disk
        segments_before = len(self._disk_segments())

        keep: list[tuple[bytes, _Ref]] = []
        total = 0
        dropped = 0
        for key, ref in reversed(list(self._entries.items())):
            if cap is not None and total + ref.length > cap:
                dropped += 1
                continue
            total += ref.length
            keep.append((key, ref))
        keep.reverse()  # restore oldest-first LRU order

        old_segments = self._disk_segments()
        self._close_writer()

        # copy surviving payloads into fresh segments
        new_entries: dict[bytes, _Ref] = {}
        new_segments: dict[str, int] = {}
        writer: BinaryIO | None = None
        writer_name = ""
        for key, ref in keep:
            fh = self._reader(ref.segment)
            payload = None
            if fh is not None:
                try:
                    fh.seek(ref.offset)
                    payload = fh.read(ref.length)
                except OSError:
                    payload = None
            if (payload is None or len(payload) != ref.length
                    or checksum(payload) != ref.crc32):
                self.stats.corrupt += 1
                continue
            frame = pack_frame(key, payload)
            if (writer is None or new_segments[writer_name] + len(frame)
                    > self._segment_bytes):
                if writer is not None:
                    fsync_file(writer)
                    writer.close()
                writer_name = self._bump_name(new_segments, old_segments)
                writer = open(self._dir / writer_name, "ab")
                header = segment_header()
                writer.write(header)
                new_segments[writer_name] = len(header)
            offset = new_segments[writer_name] + FRAME_HEADER.size
            writer.write(frame)
            new_segments[writer_name] += len(frame)
            new_entries[key] = _Ref(writer_name, offset, len(payload),
                                    ref.crc32)
        if writer is not None:
            fsync_file(writer)
            writer.close()
        fsync_dir(self._dir)

        # switch over: index first (atomic), then delete old segments
        for fh in self._readers.values():
            fh.close()
        self._readers.clear()
        self._entries = new_entries
        self._segments = new_segments
        atomic_write_text(self._dir / INDEX_NAME, self._index_payload())
        for name in old_segments:
            if name not in new_segments:
                try:
                    os.unlink(self._dir / name)
                except OSError:
                    pass
        fsync_dir(self._dir)
        self._dirty = 0
        self.stats.compactions += 1
        self.stats.evicted += dropped
        return CompactionReport(
            kept=len(new_entries), dropped=dropped,
            bytes_before=bytes_before,
            bytes_after=self.segment_bytes_on_disk,
            segments_before=segments_before,
            segments_after=len(new_segments))

    def _bump_name(self, new_segments: dict[str, int],
                   old: list[str]) -> str:
        highest = 0
        for name in list(new_segments) + list(old):
            match = _SEGMENT_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"seg-{highest + 1:08d}.dat"

    def verify(self) -> VerifyReport:
        """Checksum and unpickle every entry; reports, never repairs."""
        self._require_open()
        corrupt: list[str] = []
        total = 0
        for key, ref in list(self._entries.items()):
            total += 1
            fh = self._reader(ref.segment)
            payload = None
            if fh is not None:
                try:
                    fh.seek(ref.offset)
                    payload = fh.read(ref.length)
                except OSError:
                    payload = None
            if (payload is None or len(payload) != ref.length
                    or checksum(payload) != ref.crc32):
                corrupt.append(f"{key.hex()} ({ref.segment}: bad checksum)")
                continue
            try:
                pickle.loads(payload)
            except Exception:  # noqa: BLE001 - any failure is corruption
                corrupt.append(f"{key.hex()} ({ref.segment}: unpicklable)")
        return VerifyReport(entries=total, corrupt=tuple(corrupt))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush the index, optionally compact over-cap, close handles."""
        if self._closed:
            return
        try:
            if not self._read_only:
                if (self.max_bytes is not None
                        and self.live_bytes > self.max_bytes):
                    self.compact()
                self.flush()
        finally:
            self._close_writer()
            for fh in self._readers.values():
                fh.close()
            self._readers.clear()
            self._closed = True

    def __enter__(self) -> "AnalysisStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AnalysisStore({str(self._dir)!r}, "
                f"entries={len(self._entries)}, "
                f"read_only={self._read_only})")
