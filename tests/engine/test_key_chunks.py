"""Per-flow key chunks encode exactly what the generic encoder does.

``_server_key``, ``_block_key`` and the sweep key pack each flow's
scalar fields as one :class:`~repro.utils.hashing.Encoded` chunk.  The
chunk must be the bytes feeding the same values to ``stable_digest``
one by one appends, on the packed path and on the generic fallback
alike: otherwise every stored key would move.
"""

import math

from hypothesis import example, given, strategies as st

from repro.utils.hashing import (
    Encoded,
    _encode,
    encode_flow,
    encode_source,
    stable_digest,
)


def generic(*values) -> bytes:
    out: list = []
    for value in values:
        _encode(value, out)
    return b"".join(out)


names = st.text(min_size=1, max_size=6)
#: ints inside and outside int64, and bools where an int is expected
ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(),
                 st.booleans())
floats = st.floats(allow_nan=True, allow_infinity=True)
#: a float field may also arrive as an int or a bool
numbers = st.one_of(floats, st.integers(), st.booleans())
flags = st.one_of(st.booleans(), st.integers(0, 1))
paths = st.one_of(
    st.tuples(st.integers(-2**63, 2**63 - 1)),
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.booleans()),
             min_size=1, max_size=4).map(tuple))


@given(names, flags, ints, numbers, st.one_of(st.none(), names))
@example("é", True, 0, -0.0, None)
@example("h1", True, 2**63, 0.5, None)
@example("h1", 1, 0, 0.5, "through")
@example("h1", False, True, math.nan, "cross2")
def test_encode_flow_matches_the_generic_path(name, has_next, priority,
                                              rho, role):
    chunk = encode_flow(name, has_next, priority, rho, role=role)
    values = ((name, has_next, priority, rho) if role is None
              else (name, role, has_next, priority, rho))
    assert type(chunk) is Encoded
    assert chunk == generic(*values)
    assert stable_digest(chunk) == stable_digest(*values)


@given(names, numbers, numbers, numbers, ints, paths)
@example("é", 0.5, -0.0, math.inf, 0, (1, 2))
@example("f", 0.5, 0.25, math.nan, -2**63 - 1, (1,))
@example("f", 1, 0.25, 1.0, 0, (1, 2))
@example("f", 0.5, 0.25, 1.0, True, (True, 2))
@example("f", 0.5, 0.25, 1.0, 0, (2**64, 1))
def test_encode_source_matches_the_generic_path(name, sigma, rho, peak,
                                                priority, path):
    chunk = encode_source(name, sigma, rho, peak, priority, path)
    assert type(chunk) is Encoded
    assert chunk == generic(name, sigma, rho, peak, priority, path)


def test_bool_and_int_stay_distinct():
    assert encode_flow("a", True, 0, 1.0) != encode_flow("a", 1, 0, 1.0)
    assert encode_flow("a", True, 1, 1.0) != encode_flow("a", True, True,
                                                        1.0)
    assert (encode_source("a", 1.0, 0.5, 1.0, 0, (1,))
            != encode_source("a", 1, 0.5, 1.0, 0, (1,)))
