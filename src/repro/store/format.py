"""On-disk framing for the persistent analysis store.

A store directory holds append-only **segment files** plus one JSON
**index** (see :mod:`repro.store.store`).  This module owns the byte
layout of the segments so the reader, the writer, the scanner and the
corruption tests all agree on one definition.

Segment layout::

    <header line>\n            JSON: {"format": 1, "schema": "..."}
    <frame> <frame> ...        binary, back to back

Frame layout (little endian)::

    magic      4 bytes   FRAME_MAGIC
    key        16 bytes  blake2b content digest (repro.utils.hashing)
    value_len  u32       payload byte count
    crc32      u32       zlib.crc32 of the payload
    payload    value_len bytes (pickled (value, compute_time))

Design notes:

* The **format version** and **value schema** live in every segment's
  header *and* in the index.  A reader that finds either tag it does
  not understand ignores that file entirely — version skew degrades to
  recomputation, never to misinterpreting bytes.  A reader may read
  more than one schema (:data:`READ_SCHEMAS`); it writes only
  :data:`VALUE_SCHEMA`, and appends only to segments tagged with it.
* The per-frame CRC makes a bit flip a detectable *miss* instead of a
  wrong (and, for this codebase, contract-breaking) bound.
* A crash mid-append leaves a torn final frame; the scanner detects it
  (short header, bad magic, or payload running past end of file) and
  reports the clean prefix length so the writer can truncate before
  appending again — the same torn-tail discipline as
  :func:`repro.utils.durable.repair_torn_tail`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

__all__ = [
    "FORMAT_VERSION",
    "VALUE_SCHEMA",
    "READ_SCHEMAS",
    "FRAME_MAGIC",
    "FRAME_HEADER",
    "KEY_BYTES",
    "FrameRef",
    "segment_header",
    "parse_segment_header",
    "readable",
    "pack_frame",
    "checksum",
    "scan_segment",
]

#: Bump when the byte layout below changes.
FORMAT_VERSION = 1

#: Tag describing what the payloads *are* (pickled analysis results:
#: ``ServerStep`` / ``BlockOutcome`` tuples), written into every new
#: segment.  Bump whenever those dataclasses change shape so stale
#: stores fall back to recomputation instead of feeding old pickles to
#: new code.  ``v2`` pickles each curve's breakpoints as float lists;
#: ``v1`` pickled them as float64 arrays, which code before ``v2``
#: needs.
VALUE_SCHEMA = "repro-analysis-v2"

#: Every value schema this code reads: its own, and ``v1``, whose
#: array-state curves still load (a ``v2`` segment may hold them too,
#: copied there by compaction).  A segment or index with any other tag
#: reads as empty.
READ_SCHEMAS = frozenset({"repro-analysis-v1", VALUE_SCHEMA})

FRAME_MAGIC = b"\xabRS1"
FRAME_HEADER = struct.Struct("<4s16sII")
KEY_BYTES = 16


@dataclass(frozen=True)
class FrameRef:
    """Location of one frame's payload inside a segment."""

    key: bytes
    offset: int  #: byte offset of the payload (not the frame header)
    length: int
    crc32: int


def segment_header(format_version: int = FORMAT_VERSION,
                   schema: str = VALUE_SCHEMA) -> bytes:
    """The header line a fresh segment file starts with."""
    return (json.dumps({"format": format_version, "schema": schema},
                       sort_keys=True) + "\n").encode("ascii")


def parse_segment_header(line: bytes) -> tuple[int, str] | None:
    """``(format, schema)`` from a header line, or None if unreadable."""
    try:
        rec = json.loads(line.decode("ascii"))
        return int(rec["format"]), str(rec["schema"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def readable(format_version: int, schema: str) -> bool:
    """True when this code reads a segment or index with these tags."""
    return format_version == FORMAT_VERSION and schema in READ_SCHEMAS


def checksum(payload: bytes) -> int:
    """The frame checksum of *payload* (crc32, masked to u32)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def pack_frame(key: bytes, payload: bytes) -> bytes:
    """One complete frame: header plus payload."""
    if len(key) != KEY_BYTES:
        raise ValueError(
            f"store keys are {KEY_BYTES}-byte digests, got {len(key)}")
    return FRAME_HEADER.pack(FRAME_MAGIC, key, len(payload),
                             checksum(payload)) + payload


def scan_segment(fh: BinaryIO) -> tuple[list[FrameRef], int, bool]:
    """Walk a segment file and locate every complete frame.

    Returns ``(frames, clean_length, header_ok)``.  ``clean_length`` is
    the byte count of the valid prefix — everything past it is a torn
    or corrupt tail the writer should truncate.  ``header_ok`` is False
    when the segment's header line is missing, unparseable or names a
    format/schema this code does not read (:func:`readable`); such
    segments contribute no frames (version skew reads as "empty", i.e.
    recompute).

    Payload bytes are *not* read (and CRCs not verified) here: a scan
    touches only the 28-byte frame headers, so opening a large store is
    cheap.  Checksums are verified lazily on :meth:`AnalysisStore.get`.
    """
    fh.seek(0)
    line = fh.readline(4096)
    if not line.endswith(b"\n"):
        return [], 0, False
    parsed = parse_segment_header(line)
    if parsed is None or not readable(*parsed):
        return [], 0, False
    frames: list[FrameRef] = []
    pos = len(line)
    fh.seek(0, 2)
    end = fh.tell()
    fh.seek(pos)
    while True:
        if end - pos < FRAME_HEADER.size:
            break  # clean end (pos == end) or torn header
        header = fh.read(FRAME_HEADER.size)
        magic, key, length, crc = FRAME_HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            break  # corrupt tail: stop at the last good frame
        payload_off = pos + FRAME_HEADER.size
        if end - payload_off < length:
            break  # torn payload
        frames.append(FrameRef(key, payload_off, length, crc))
        pos = payload_off + length
        fh.seek(pos)
    return frames, pos, True
