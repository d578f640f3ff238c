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

__all__ = ["stable_digest", "digest_update", "Encoded", "encode_curve",
           "encode_flow", "encode_source"]

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


_INT_FLOAT = struct.Struct("<cqcd").pack
_THREE_FLOATS_INT = struct.Struct("<cdcdcdcq").pack


def _encoded(values: tuple) -> Encoded:
    """The generic encoding of each of *values*, as one chunk."""
    out: list = []
    for value in values:
        _encode(value, out)
    return Encoded(b"".join(out))


def encode_flow(name: str, has_next: bool, priority: int, rho: float, *,
                role: str | None = None) -> Encoded:
    """The encoding of ``name, role, has_next, priority, rho``.

    The values a content key records for one flow, in that order
    (*role* only when given), as one chunk: the bytes feeding them to
    :func:`stable_digest` one by one appends.  Packed in one pass when
    the name and role are exact ``str``, *has_next* a ``bool``,
    *priority* an ``int`` within int64 and *rho* a ``float``; any other
    value goes through the generic encoding.
    """
    if (type(name) is str and type(has_next) is bool
            and type(priority) is int and type(rho) is float
            and (role is None or type(role) is str)):
        data = name.encode("utf-8")
        head = _TAGGED_INT(b"s", len(data)) + data
        if role is not None:
            data = role.encode("utf-8")
            head += _TAGGED_INT(b"s", len(data)) + data
        try:
            return Encoded(head + (b"b1" if has_next else b"b0")
                           + _INT_FLOAT(b"i", priority, b"f", rho))
        except struct.error:  # priority beyond int64
            pass
    return _encoded((name, has_next, priority, rho) if role is None
                    else (name, role, has_next, priority, rho))


def encode_source(name: str, sigma: float, rho: float, peak: float,
                  priority: int, path: tuple) -> Encoded:
    """The encoding of ``name, sigma, rho, peak, priority, path``.

    A flow's fields as it enters the network, as one chunk: the bytes
    feeding them to :func:`stable_digest` one by one appends.  Packed
    in one pass when the name is an exact ``str``, the bucket values
    ``float``, and the priority and every server id on the *path* an
    ``int`` within int64; any other value goes through the generic
    encoding.
    """
    if (type(name) is str and type(sigma) is float and type(rho) is float
            and type(peak) is float and type(priority) is int
            and type(path) is tuple):
        data = name.encode("utf-8")
        try:
            out = [_TAGGED_INT(b"s", len(data)), data,
                   _THREE_FLOATS_INT(b"f", sigma, b"f", rho, b"f", peak,
                                     b"i", priority), b"("]
            for sid in path:
                if type(sid) is not int:
                    break
                out.append(_TAGGED_INT(b"i", sid))
            else:
                out.append(b")")
                return Encoded(b"".join(out))
        except struct.error:  # an int beyond int64
            pass
    return _encoded((name, sigma, rho, peak, priority, path))


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
