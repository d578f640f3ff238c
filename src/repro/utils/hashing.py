"""Stable content hashing for incremental-analysis cache keys.

The incremental engine (:mod:`repro.engine`) keys cached intermediate
results by the *content* of everything that determines them: server
specs, flow descriptors and exact constraint curves.  Python's builtin
``hash`` is salted per process and therefore useless for that; this
module provides a deterministic digest over the small set of value
types the engine needs.

Floats are hashed by their IEEE-754 bit pattern (``struct.pack('<d')``),
so two inputs get the same key *iff* they are bit-identical — exactly
the contract the engine needs for bit-identical cached results.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

__all__ = ["stable_digest", "digest_update", "Encoded", "encode_curve"]

# A type tag byte followed by a little-endian float64 / int64 (the
# value itself, or a length header), packed in one call.
_TAGGED_FLOAT = struct.Struct("<cd").pack
_TAGGED_INT = struct.Struct("<cq").pack
_F64 = np.dtype(np.float64)
_pack = struct.pack


class Encoded(bytes):
    """Bytes that already are the canonical encoding of some values.

    :func:`_encode` appends an instance as it is, so a caller that can
    pack the encoding more cheaply than it can build the values feeds
    the same bytes without them (:func:`encode_curve`).
    """

    __slots__ = ()


def encode_curve(xs: list, ys: list, final_slope: float) -> Encoded:
    """The encoding of ``(array(xs), array(ys), final_slope)``.

    Packed straight from the lists of Python floats a curve keeps: for
    each list ``b"a"``, its float64 byte length and its values, then
    ``b"f"`` and the slope, all little endian: the bytes the float64
    arrays (native order) and the float encode to on a little-endian
    host.  No array is built.
    """
    n = len(xs)
    return Encoded(_pack(f"<cq{n}dcq{n}dcd", b"a", 8 * n, *xs,
                         b"a", 8 * n, *ys, b"f", final_slope))


def _encode(obj, out: list) -> None:
    """Append the canonical encoding of *obj* to *out* as byte chunks.

    Dispatches on the exact type first: the engine's keys are built
    from plain floats, pre-encoded :class:`Encoded` chunks and native
    float64 arrays (both appended as they are), strings, bools and
    ints.  A subclass, or an array of another dtype or layout, is
    converted to that exact base value, which encodes to the same
    bytes.
    """
    t = type(obj)
    if t is float:
        out.append(_TAGGED_FLOAT(b"f", obj))
    elif t is Encoded:
        out.append(obj)
    elif (t is np.ndarray and obj.dtype == _F64
          and obj.flags.c_contiguous):
        out.append(_TAGGED_INT(b"a", obj.nbytes))
        out.append(obj)
    elif t is str:
        data = obj.encode("utf-8")
        out.append(_TAGGED_INT(b"s", len(data)))
        out.append(data)
    elif t is bool:
        out.append(b"b1" if obj else b"b0")
    elif t is int:
        try:
            out.append(_TAGGED_INT(b"i", obj))
        except struct.error:  # arbitrary precision: "i", then "I" + digits
            out.append(b"iI")
            out.append(str(obj).encode("ascii"))
    elif t is tuple or t is list:
        out.append(b"(")
        for item in obj:
            _encode(item, out)
        out.append(b")")
    elif obj is None:
        out.append(b"N")
    elif isinstance(obj, bytes):
        out.append(_TAGGED_INT(b"y", len(obj)))
        out.append(obj)
    elif isinstance(obj, int):
        _encode(int.__int__(obj), out)
    elif isinstance(obj, float):
        _encode(float.__float__(obj), out)
    elif isinstance(obj, str):
        _encode(str.__str__(obj), out)
    elif isinstance(obj, np.ndarray):
        _encode(np.ascontiguousarray(obj, dtype=np.float64), out)
    elif isinstance(obj, (tuple, list)):
        _encode(tuple(obj), out)
    else:
        raise TypeError(
            f"stable_digest cannot hash {type(obj).__name__!r}; "
            "convert to a supported primitive first")


def digest_update(h, obj) -> None:
    """Feed one value into a hashlib digest, canonically.

    Supported: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, numpy arrays, (nested) tuples/lists and
    :class:`Encoded` chunks, which are fed as they are.  Every value is
    prefixed with a type tag so e.g. ``1`` and ``1.0`` and ``"1"`` hash
    differently and sequences cannot collide by concatenation.  The
    whole encoding is fed to *h* in one ``update``.
    """
    out: list = []
    _encode(obj, out)
    h.update(b"".join(out))


def stable_digest(*parts: object) -> bytes:
    """A 16-byte deterministic digest of the given values.

    Deterministic across processes and Python invocations (unlike
    builtin ``hash``), collision-resistant (blake2b), and sensitive to
    every bit of every float fed in.
    """
    return digest_many(parts)


def digest_many(parts: Iterable[object]) -> bytes:
    """Like :func:`stable_digest` but over an iterable."""
    out: list = []
    for part in parts:
        _encode(part, out)
    return hashlib.blake2b(b"".join(out), digest_size=16).digest()
