"""Differential test: the plain-float curve class against the numpy one.

:mod:`tests.curves.reference_piecewise` keeps the numpy implementation
of :class:`PiecewiseLinearCurve` that the plain-float rewrite replaced.
Every public method is called on a reference curve and on a curve of
the current class built from the same breakpoints, and the outcomes are
compared with ``float.hex`` equality: values, breakpoints, final slope,
result types, and the error type and message when one is raised.

One thing is compared by value instead of by bits: the sign of a zero
that numpy itself picks by its kernels' internal order.  A curve's
``x[0]`` is ``0.0`` or ``-0.0``; when two curves with different zeros
are merged, ``np.union1d`` keeps either one depending on how its sort
kernel orders equal keys.  ``first_crossing_below`` can return that
breakpoint.  Likewise ``vertical_deviation``'s ``np.max`` breaks a tie
between ``0.0`` and ``-0.0`` by its SIMD lane order.
"""

from __future__ import annotations

import io
import math
import pickle
import warnings

import numpy as np
from hypothesis import example, given, strategies as st

from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.utils.hashing import _encode, stable_digest
from tests.curves.reference_piecewise import PiecewiseLinearCurve as R

# -- strategies --------------------------------------------------------

SPECIAL = [0.0, -0.0, 0.5, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e-300]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
nonneg = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-12, 0.25, 1.0]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def abscissae(draw, n: int, x0: float) -> list:
    """``n`` strictly increasing x values from ``x0``, some segments of
    denormal or one-ulp width."""
    xs = [x0]
    for _ in range(n - 1):
        last = xs[-1]
        kind = draw(st.sampled_from(["wide", "wide", "denormal", "ulp"]))
        if kind == "wide":
            gap = draw(st.floats(1e-3, 50.0))
        elif kind == "denormal":
            gap = draw(st.sampled_from([5e-324, 1e-320, 2.2e-308]))
        else:
            gap = math.ulp(last)
        nxt = last + gap
        if nxt <= last:
            nxt = math.nextafter(last, math.inf)
        xs.append(nxt)
    return xs


@st.composite
def specs(draw, max_n: int = 5, x0=None, shape=None):
    """``(x, y, final_slope)`` of a valid curve.

    Shapes: ``any`` (free values, flat runs), ``monotone``
    (nondecreasing), ``concave`` (nondecreasing, falling slopes) and
    ``convex`` (0 at 0, rising slopes).
    """
    n = draw(st.integers(1, max_n))
    if x0 is None:
        x0 = draw(st.sampled_from([0.0, -0.0]))
    xs = draw(abscissae(n, x0))
    if shape is None:
        shape = draw(st.sampled_from(["any", "monotone", "concave",
                                      "convex"]))
    if shape == "any":
        ys = [draw(values)]
        for _ in range(n - 1):
            ys.append(ys[-1] if draw(st.integers(0, 3)) == 0
                      else draw(values))
        return xs, ys, draw(values)
    if shape == "monotone":
        # nondecreasing up to tolerance: a segment may fall at a slope
        # of -5e-10, so y need not be sorted
        ys = [draw(values)]
        for k in range(n - 1):
            ys.append(ys[-1] + draw(st.one_of(
                nonneg, st.just(-5e-10 * (xs[k + 1] - xs[k])))))
        return xs, ys, draw(nonneg)
    slopes = sorted(draw(st.lists(nonneg, min_size=n, max_size=n)),
                    reverse=shape == "concave")
    ys = [abs(draw(values)) if shape == "concave" else 0.0]
    for k in range(n - 1):
        ys.append(ys[-1] + slopes[k] * (xs[k + 1] - xs[k]))
    return xs, ys, slopes[-1]


@st.composite
def spec_pairs(draw):
    """Two curve specs that start at the same zero."""
    x0 = draw(st.sampled_from([0.0, -0.0]))
    return draw(specs(max_n=4, x0=x0)), draw(specs(max_n=4, x0=x0))


times = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 0.25, 1.0, 3.0, 1e6,
                     math.nan, math.inf, -math.inf]),
    st.floats(-5.0, 200.0, allow_nan=False, allow_infinity=False),
)
FORMS = ("float", "f64", "0d")


def as_form(v: float, form: str):
    if form == "float":
        return float(v)
    if form == "f64":
        return np.float64(v)
    if form == "0d":
        return np.array(v)
    return np.array([v, 2.0 * v])


scalar_args = st.tuples(times, st.sampled_from(FORMS)).map(
    lambda p: as_form(*p))


# -- comparison --------------------------------------------------------


def hexes(values, zero_sign: bool = True) -> list:
    out = [float.hex(float(v)) for v in values]
    if not zero_sign and out and float(values[0]) == 0.0:
        out[0] = "0"
    return out


def canon(v, zero_sign: bool = True):
    """A comparable description of a method's result."""
    if isinstance(v, (P, R)):
        x = v.x
        assert x.dtype == np.float64 and not x.flags.writeable
        assert v.y.dtype == np.float64 and not v.y.flags.writeable
        assert type(v.final_slope) is float
        # x[0] by value: see the module docstring
        return ("curve", hexes(x, zero_sign=False), hexes(v.y),
                float.hex(v.final_slope))
    if v is NotImplemented:
        return ("NotImplemented",)
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return ("objects", v.shape, [canon(e) for e in v.ravel()])
        return ("array", v.dtype.str, v.shape, hexes(v.ravel()))
    if isinstance(v, (bool, np.bool_)):
        return ("bool", type(v).__name__, bool(v))
    if isinstance(v, float):
        if not zero_sign and v == 0.0:
            return (type(v).__name__, "0")
        return (type(v).__name__, float.hex(v))
    if isinstance(v, (int, str)):
        return (type(v).__name__, v)
    raise AssertionError(f"no canonical form for {type(v).__name__}")


def outcome(fn, *args, zero_sign: bool = True):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return canon(fn(*args), zero_sign)
        except Exception as exc:  # noqa: BLE001 - the error is the result
            return ("raise", type(exc).__name__, str(exc))


def same(call, ref: R, new: P, *args, zero_sign: bool = True) -> None:
    """``call(curve, *args)`` agrees on the reference and the new curve."""
    expected = outcome(call, ref, *args, zero_sign=zero_sign)
    got = outcome(call, new, *args, zero_sign=zero_sign)
    assert got == expected, (call, args)


def pair(spec) -> tuple[R, P]:
    return R(*spec), P(*spec)


def method(name: str):
    return lambda c, *args: getattr(c, name)(*args)


# -- construction -------------------------------------------------------


@st.composite
def raw_inputs(draw):
    """Constructor arguments, valid or not, in the types callers pass."""
    xs, ys, fs = draw(specs())
    defect = draw(st.sampled_from([
        "none", "none", "unsorted", "nan", "inf", "x0", "length", "empty",
        "2d", "fs"]))
    xs, ys = list(xs), list(ys)
    if defect == "unsorted" and len(xs) > 1:
        k = draw(st.integers(1, len(xs) - 1))
        xs[k] = xs[k - 1] if draw(st.booleans()) else xs[k - 1] - 1.0
    elif defect in ("nan", "inf"):
        bad = math.nan if defect == "nan" else -math.inf
        target = xs if draw(st.booleans()) else ys
        target[draw(st.integers(0, len(target) - 1))] = bad
    elif defect == "x0":
        xs[0] = draw(st.sampled_from([1.0, -1e-300, 0.1, 1e16]))
    elif defect == "length":
        ys.append(0.0)
    elif defect == "empty":
        xs, ys = [], []
    elif defect == "2d":
        xs = [xs]
    elif defect == "fs":
        fs = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    container = draw(st.sampled_from(["list", "tuple", "array", "ints"]))
    if container == "tuple":
        xs, ys = tuple(xs), tuple(ys)
    elif container == "array":
        xs, ys = np.array(xs), np.array(ys)
    elif (container == "ints" and defect != "2d"
          and all(float(v).is_integer() for v in xs)):
        xs = [int(v) for v in xs]
    fs = as_form(fs, draw(st.sampled_from(FORMS)))
    return xs, ys, fs


@given(raw_inputs())
def test_construction(args):
    assert outcome(P, *args) == outcome(R, *args)


@given(st.sampled_from(["zero", "constant", "line", "affine",
                        "rate_latency", "from_breakpoints"]),
       times, times)
def test_named_constructors(name, a, b):
    if name == "zero":
        args = ()
    elif name in ("constant", "line"):
        args = (a,)
    elif name == "from_breakpoints":
        args = ([(b, 1.0), (0.0, a)], 0.5)
    else:
        args = (a, b)
    assert (outcome(getattr(P, name), *args)
            == outcome(getattr(R, name), *args))


# -- one curve ----------------------------------------------------------


@given(specs(), st.lists(times, max_size=6), scalar_args)
def test_evaluation(spec, ts, t):
    ref, new = pair(spec)
    # the breakpoints, the midpoints and a point past the end
    xs = list(spec[0])
    points = xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])] + ts
    points.append(xs[-1] + 1.0)
    for p in points:
        same(lambda c, v: c(v), ref, new, p)
    same(lambda c, v: c(v), ref, new, t)
    for arg in (np.array(points), points, np.array([]), t):
        same(lambda c, v: c(v), ref, new, arg)
        same(method("sample"), ref, new, arg)


@given(specs())
def test_queries_and_shapes(spec):
    ref, new = pair(spec)
    for name in ("slopes", "is_nondecreasing", "is_convex", "is_concave",
                 "value_at_zero", "long_term_rate", "simplified",
                 "positive_part", "__neg__", "__repr__"):
        same(method(name), ref, new)
    for eps in (0.0, 1e-3):
        for name in ("is_nondecreasing", "is_convex", "is_concave",
                     "simplified"):
            same(method(name), ref, new, eps)
    same(lambda c: c.n_breakpoints, ref, new)
    same(lambda c: c.x, ref, new)
    same(lambda c: c.y, ref, new)


@example(spec=([0.0, 1.0], [0.0, 1.0], 1.0), d=np.float64(0.5))
@example(spec=([0.0, 1.0, 2.0], [1.0, 2.0, 2.5], 0.5), d=1.0)
@given(specs(), scalar_args)
def test_shifts(spec, d):
    ref, new = pair(spec)
    same(method("shift_right"), ref, new, d)
    same(method("shift_left_x"), ref, new, d)


# y not sorted: np.searchsorted's narrowing by the previous key decides
@example(spec=([0.0, 1.0, 2.0], [0.0, 1.0, 0.9999999999], 0.5),
         vs=[0.99999999985, 0.99999999995], v=1.0)
@example(spec=([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
               [0.0, 1.0, 1.0, 0.9999999999, 1.9999999999, 1.9999999999],
               0.5),
         vs=[1.99999999985, 1.0, 0.0], v=1.0)
# a NaN target sorts after every number
@example(spec=([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 0.0),
         vs=[0.5, math.nan, 0.5], v=math.nan)
@given(specs(), st.lists(times, max_size=8), scalar_args)
def test_pseudo_inverse(spec, vs, v):
    ref, new = pair(spec)
    targets = vs + list(spec[1]) + [0.5 * (a + b)
                                    for a, b in zip(spec[1], spec[1][1:])]
    same(method("pseudo_inverse"), ref, new, v)
    for arg in (targets, np.array(targets), np.array([]), sorted(targets)):
        same(method("pseudo_inverse"), ref, new, arg)


@given(specs(), st.tuples(times, st.sampled_from(FORMS + ("1d",))))
def test_scalar_arithmetic(spec, scalar):
    ref, new = pair(spec)
    s = as_form(*scalar)
    same(lambda c, v: c + v, ref, new, s)
    same(lambda c, v: v + c, ref, new, s)
    same(lambda c, v: c - v, ref, new, s)
    same(lambda c, v: c * v, ref, new, s)
    same(lambda c, v: v * c, ref, new, s)


# -- two curves ---------------------------------------------------------


@given(spec_pairs())
def test_binary(specs2):
    (ra, na), (rb, nb) = pair(specs2[0]), pair(specs2[1])
    for a_ref, a_new, b_ref, b_new in ((ra, na, rb, nb), (rb, nb, ra, na),
                                       (ra, na, ra, na)):
        def both(call, zero_sign: bool = True):
            expected = outcome(call, a_ref, b_ref, zero_sign=zero_sign)
            got = outcome(call, a_new, b_new, zero_sign=zero_sign)
            assert got == expected, call

        both(lambda f, g: f + g)
        both(lambda f, g: f - g)
        both(lambda f, g: f == g)
        both(lambda f, g: f.minimum(g))
        both(lambda f, g: f.maximum(g))
        both(lambda f, g: f.convolve(g))
        both(lambda f, g: f.horizontal_deviation(g))
        both(lambda f, g: f.vertical_deviation(g), zero_sign=False)
        both(lambda f, g: f.first_crossing_below(g), zero_sign=False)


@given(specs(shape="monotone"), st.floats(0.01, 5.0))
def test_against_service_lines(spec, rate):
    # the per-server FIFO step's own calls: G against the line C*t
    ref, new = pair(spec)
    same(lambda c: c.horizontal_deviation(R.line(rate) if isinstance(c, R)
                                          else P.line(rate)), ref, new)
    same(lambda c: c.vertical_deviation(R.line(rate) if isinstance(c, R)
                                        else P.line(rate)), ref, new,
         zero_sign=False)
    same(lambda c: c.first_crossing_below(R.line(rate) if isinstance(c, R)
                                          else P.line(rate)), ref, new,
         zero_sign=False)


@given(specs())
def test_pickle_round_trip(spec):
    ref, new = pair(spec)
    # the state names the reference class's slots, but holds the float
    # lists, not read-only arrays: a store reads them back without
    # building arrays, and tags such pickles with their own value
    # schema (tests/store/test_schema_compat.py) because code that
    # reads only arrays cannot load them ...
    _, _, state = new.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
    _, _, ref_state = ref.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
    assert state[0] is None and ref_state[0] is None
    assert list(state[1]) == list(ref_state[1])
    xs, ys, slope = state[1]["x"], state[1]["y"], state[1]["final_slope"]
    assert type(xs) is list and type(ys) is list and type(slope) is float
    assert all(type(v) is float for v in xs + ys)
    assert hexes(xs) == hexes(ref_state[1]["x"])
    assert hexes(ys) == hexes(ref_state[1]["y"])
    assert float.hex(slope) == float.hex(ref_state[1]["final_slope"])
    # ... the array state the reference class pickles still loads ...
    old = object.__new__(P)
    old.__setstate__(ref_state)
    assert canon(old) == canon(ref)
    # ... and the list state round-trips, bit for bit
    back = pickle.loads(pickle.dumps(new, pickle.HIGHEST_PROTOCOL))
    assert canon(back) == canon(new)
    assert hexes(back.x) == hexes(new.x)
    assert canon(back(1.5)) == canon(ref(1.5))


@given(specs())
@example(([0.0], [0.0], 0.0))
@example(([-0.0, 5e-324], [1e-300, -0.0], -5e-324))
def test_key_part_is_the_array_encoding(spec):
    # the engine keys curves by key_part(); every store written before
    # keyed them by the arrays and the final slope
    curve = P(*spec)
    assert (stable_digest(curve.key_part())
            == stable_digest(curve.x, curve.y, curve.final_slope))
    parts: list = []
    _encode((curve.x, curve.y, curve.final_slope), parts)
    assert curve.key_part() == b"".join(parts)[1:-1]


# -- stores written before the rewrite -----------------------------------

# pickle.dumps((c, -c, affine(2.0, 0.125)), HIGHEST_PROTOCOL) by the numpy
# class, c = PiecewiseLinearCurve([0, 0.5, 2], [1, 1.75, 2.5], 0.25):
# the state every store entry written before the plain-float rewrite holds
NUMPY_CLASS_PICKLE = (
    b"\x80\x05\x95\xa5\x01\x00\x00\x00\x00\x00\x00\x8c\x16repro.cu"
    b"rves.piecewise\x94\x8c\x14PiecewiseLinearCurve\x94\x93\x94)"
    b"\x81\x94N}\x94(\x8c\x01x\x94\x8c\x13numpy._core.numeric\x94"
    b"\x8c\x0b_frombuffer\x94\x93\x94(C\x18\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00"
    b"\x00\x00\x00@\x94\x8c\x05numpy\x94\x8c\x05dtype\x94\x93\x94"
    b"\x8c\x02f8\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNNJ"
    b"\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94bK\x03\x85\x94"
    b"\x8c\x01C\x94t\x94R\x94\x8c\x01y\x94h\x08(C\x18\x00\x00\x00"
    b"\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xfc?\x00\x00\x00"
    b"\x00\x00\x00\x04@\x94h\x0fK\x03\x85\x94h\x13t\x94R\x94\x8c"
    b"\x0bfinal_slope\x94G?\xd0\x00\x00\x00\x00\x00\x00u\x86\x94bh"
    b"\x02)\x81\x94N}\x94(h\x05h\x15h\x16h\x08(C\x18\x00\x00\x00"
    b"\x00\x00\x00\xf0\xbf\x00\x00\x00\x00\x00\x00\xfc\xbf\x00\x00"
    b"\x00\x00\x00\x00\x04\xc0\x94h\x0fK\x03\x85\x94h\x13t\x94R"
    b"\x94h\x1bG\xbf\xd0\x00\x00\x00\x00\x00\x00u\x86\x94bh\x02)"
    b"\x81\x94N}\x94(h\x05h\x08(C\x08\x00\x00\x00\x00\x00\x00\x00"
    b"\x00\x94h\x0fK\x01\x85\x94h\x13t\x94R\x94h\x16h\x08(C\x08"
    b"\x00\x00\x00\x00\x00\x00\x00@\x94h\x0fK\x01\x85\x94h\x13t"
    b"\x94R\x94h\x1bG?\xc0\x00\x00\x00\x00\x00\x00u\x86\x94b\x87"
    b"\x94."
)


class _AsReference(pickle.Unpickler):
    """Loads the curve class of a pickle as the reference class."""

    def find_class(self, module, name):
        if (module, name) == ("repro.curves.piecewise",
                              "PiecewiseLinearCurve"):
            return R
        return super().find_class(module, name)


def test_curves_pickled_by_the_numpy_class_still_load():
    loaded = pickle.loads(NUMPY_CLASS_PICKLE)
    refs = _AsReference(io.BytesIO(NUMPY_CLASS_PICKLE)).load()
    assert [type(c) for c in loaded] == [P, P, P]
    assert [type(c) for c in refs] == [R, R, R]
    for new, ref in zip(loaded, refs):
        assert canon(new) == canon(ref)
        for t in (0.0, 0.25, 0.5, 1.0, 2.0, 7.5):
            assert canon(new(t)) == canon(ref(t))
        assert canon(new(np.array([0.3, 3.0]))) == canon(ref(np.array(
            [0.3, 3.0])))
    for (a, b), (ra, rb) in zip([(loaded[0], loaded[2]),
                                 (loaded[1], loaded[0])],
                                [(refs[0], refs[2]), (refs[1], refs[0])]):
        assert canon(a + b) == canon(ra + rb)
