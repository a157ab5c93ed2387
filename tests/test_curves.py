"""Tests for the curve geometry layer."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvespec.curves import (
    TAU,
    CircleArc,
    CornerGraph,
    Interval,
    Line,
    Polyline,
    RealInterval,
    Segment,
    UnitCircleClosed,
    _KINDS,
    curve_from_json,
    curve_to_json,
    punctured_unit_circle,
    real_line,
    unit_circle_arc,
)
from curvespec.errors import (
    ClosedCurveError,
    ConfigError,
    OffCurveError,
    ParameterDomainError,
)
from curvespec.spectral import eigenflag, spectral_decompose


def _position(curve, zs):
    """Position along the oriented curve: the key OrderMap and eigenflag sort by."""
    return curve.orientation * curve.invert_array(np.asarray(zs, dtype=complex))


# -- interval ---------------------------------------------------------------


def test_interval_defaults_and_flags():
    iv = Interval(0.0, 1.0)
    assert iv.lower_closed and iv.upper_closed
    assert Interval().lower_closed is False
    assert Interval().upper_closed is False


def test_interval_rejects_degenerate_and_closed_infinite():
    with pytest.raises(ConfigError):
        Interval(1.0, 1.0)
    with pytest.raises(ConfigError):
        Interval(2.0, 1.0)
    with pytest.raises(ConfigError):
        Interval(-math.inf, 0.0, lower_closed=True)


def test_interval_contains_respects_flags():
    iv = Interval(0.0, TAU, upper_closed=False)
    assert iv.contains(0.0)
    assert not iv.contains(TAU)
    assert not iv.contains(-1e-6)


# -- worked examples --------------------------------------------------------


def test_real_interval_eval_is_identity():
    assert real_line().eval(1.5) == 1.5 + 0j


def test_segment_midpoint_inversion():
    seg = Segment(0j, 1 + 1j)
    assert seg.invert(0.5 + 0.5j) == pytest.approx(0.5)


def test_corner_graph_eval_and_invert():
    c = CornerGraph(-1.0, 1.0)
    assert c.eval(-2.0) == -2 + 2j
    assert c.eval(2.0) == 2 + 2j
    assert c.invert(2 + 2j) == pytest.approx(2.0)
    early, late = _position(c, [-2 + 2j, 2 + 2j])
    assert early < late


def test_real_line_cmp_and_reversal():
    c = real_line()
    lo, hi = _position(c, [-1.0, 3.0])
    assert lo < hi
    lo, hi = _position(dataclasses.replace(c, orientation=-c.orientation), [-1.0, 3.0])
    assert lo > hi


def test_closed_circle_refuses_cmp():
    dec = spectral_decompose(np.diag([1.0, 1j]))
    with pytest.raises(ClosedCurveError):
        eigenflag(dec, UnitCircleClosed())


def test_polyline_elbow_inversion():
    pl = Polyline((0j, 1 + 0j, 1 + 1j))
    assert pl.invert(1 + 0.5j) == pytest.approx(1.5)
    assert pl.eval(0.25) == 0.25 + 0j


def test_punctured_circle_orders_from_the_cut():
    pc = punctured_unit_circle(math.pi / 4)
    # Just past the cut comes first, just before it comes last.
    early = np.exp(1j * (math.pi / 4 + 0.1))
    late = np.exp(1j * (math.pi / 4 - 0.1))
    assert np.diff(_position(pc, [early, late]))[0] > 0
    assert pc.invert(late) > pc.invert(early)


# -- errors -----------------------------------------------------------------


def test_off_curve_point_raises():
    with pytest.raises(OffCurveError):
        real_line().invert(1 + 1e-3j)
    with pytest.raises(OffCurveError):
        RealInterval(Interval(0.0, 1.0)).invert(2.0)


def test_eval_outside_domain_raises():
    with pytest.raises(ParameterDomainError):
        Segment(0j, 1 + 0j).eval(1.5)
    with pytest.raises(ParameterDomainError):
        punctured_unit_circle(0.0).eval(0.0)


def test_degenerate_curve_construction_rejected():
    with pytest.raises(ConfigError):
        Segment(1j, 1j)
    with pytest.raises(ConfigError):
        Line(0j, 0j)
    with pytest.raises(ConfigError):
        CornerGraph(0.5, 0.5)
    with pytest.raises(ConfigError):
        CircleArc(0j, -1.0, Interval(0, 1))
    with pytest.raises(ConfigError):
        CircleArc(0j, 1.0, Interval(0.0, 3 * TAU, upper_closed=False))


def test_polyline_rejects_self_intersection_and_foldback():
    with pytest.raises(ConfigError):
        Polyline((0j, 1 + 0j, 0.5 + 0.5j, 0.5 - 0.5j))
    with pytest.raises(ConfigError):
        Polyline((0j, 1 + 0j, 0.5 + 0j))
    with pytest.raises(ConfigError):
        Polyline((0j,))


# -- round trips ------------------------------------------------------------

ROUND_TRIP_CURVES = [
    real_line(),
    RealInterval(Interval(-2.0, 3.0)),
    Segment(0j, 1 + 1j),
    Line(1j, 2 - 1j),
    unit_circle_arc(),
    CircleArc(1 + 1j, 2.0, Interval(0.5, 2.5)),
    UnitCircleClosed(),
    Polyline((0j, 1 + 0j, 1 + 1j)),
    CornerGraph(-1.0, 1.0),
    CornerGraph(0.0, 2.5, orientation=-1, tol=1e-8),
]


@pytest.mark.parametrize("curve", ROUND_TRIP_CURVES, ids=lambda c: c.kind)
def test_json_round_trip(curve):
    assert curve_from_json(curve_to_json(curve)) == curve


def test_curve_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        curve_from_json({"kind": "klein_bottle"})
    with pytest.raises(ConfigError):
        curve_from_json({"no_kind": True})
    with pytest.raises(ConfigError):
        curve_from_json({"kind": "segment", "z0": [0, 0]})
    with pytest.raises(ConfigError, match="^segment endpoints must be distinct$"):
        curve_from_json({"kind": "segment", "z0": [1, 0], "z1": [1, 0]})


@pytest.mark.parametrize("curve,text", [
    (real_line(),
     '{"kind": "real_interval", "interval": {"lower": null, "upper": null, '
     '"lower_closed": false, "upper_closed": false}, "orientation": 1, "tol": 1e-09}'),
    (CircleArc(1 + 1j, 2.0, Interval(0.5, 2.5)),
     '{"kind": "circle_arc", "center": [1.0, 1.0], "radius": 2.0, "angles": '
     '{"lower": 0.5, "upper": 2.5, "lower_closed": true, "upper_closed": true}, '
     '"orientation": 1, "tol": 1e-09}'),
    (Polyline((0j, 1 + 0j, 1 + 1j)),
     '{"kind": "polyline", "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], '
     '"orientation": 1, "tol": 1e-09}'),
    (CornerGraph(0.0, 2.5, orientation=-1, tol=1e-8),
     '{"kind": "corner_graph", "a": 0.0, "b": 2.5, "orientation": -1, "tol": 1e-08}'),
], ids=["real_interval", "circle_arc", "polyline", "corner_graph"])
def test_json_text_is_kind_fields_orientation_tol(curve, text):
    assert json.dumps(curve_to_json(curve)) == text


# The first error of a malformed descriptor, word for word.  Interval
# fields are read first, then the others in field order; null is the
# default for interval fields alone.
@pytest.mark.parametrize("desc,message", [
    ({"kind": "real_interval", "interval": 5}, "interval must be an object, got 5"),
    ({"kind": "real_interval", "interval": {"lower": [1]}},
     "malformed curve descriptor for 'real_interval': float() argument must be "
     "a string or a real number, not 'list'"),
    ({"kind": "segment", "z0": [0, 0]},
     "curve descriptor for 'segment' missing field 'z1'"),
    ({"kind": "segment", "z0": None, "z1": [1, 1]},
     "malformed curve descriptor for 'segment': 'NoneType' object is not subscriptable"),
    ({"kind": "segment", "z0": {"0": 1}, "z1": [1, 1]},
     "curve descriptor for 'segment' missing field 0"),
    ({"kind": "line", "point": [0, 0], "direction": [1]},
     "malformed curve descriptor for 'line': list index out of range"),
    ({"kind": "circle_arc", "center": None},
     "malformed curve descriptor for 'circle_arc': 'NoneType' object is not subscriptable"),
    ({"kind": "circle_arc", "radius": None},
     "malformed curve descriptor for 'circle_arc': float() argument must be "
     "a string or a real number, not 'NoneType'"),
    ({"kind": "circle_arc", "radius": "x", "center": [0]},
     "malformed curve descriptor for 'circle_arc': list index out of range"),
    ({"kind": "circle_arc", "angles": 5, "center": "x"},
     "interval must be an object, got 5"),
    ({"kind": "circle_arc", "center": [0], "angles": {"lower": 1, "upper": 0}},
     "interval requires lower < upper, got [1.0, 0.0]"),
    ({"kind": "unit_circle", "tol": "x"},
     "malformed curve descriptor for 'unit_circle': could not convert string to float: 'x'"),
    ({"kind": "polyline"}, "curve descriptor for 'polyline' missing field 'vertices'"),
    ({"kind": "polyline", "vertices": None},
     "malformed curve descriptor for 'polyline': 'NoneType' object is not iterable"),
    ({"kind": "corner_graph", "a": 1},
     "curve descriptor for 'corner_graph' missing field 'b'"),
    ({"kind": "corner_graph", "b": [1], "tol": "y"},
     "malformed curve descriptor for 'corner_graph': could not convert string to float: 'y'"),
    # a number is a JSON number, never a string or a boolean that float() reads
    ({"kind": "circle_arc", "radius": "2.5"},
     "malformed curve descriptor for 'circle_arc': expected a JSON number, got '2.5'"),
    ({"kind": "segment", "z0": [True, False], "z1": [2, 0]},
     "malformed curve descriptor for 'segment': expected a JSON number, got True"),
    ({"kind": "real_interval", "interval": {"lower": 0, "upper": False}},
     "malformed curve descriptor for 'real_interval': expected a JSON number, got False"),
    ({"kind": "real_interval", "tol": "1e-9"},
     "malformed curve descriptor for 'real_interval': expected a JSON number, got '1e-9'"),
    ({"kind": "polyline", "vertices": [[0, 0], [1, "0"]]},
     "malformed curve descriptor for 'polyline': expected a JSON number, got '0'"),
    ({"kind": "corner_graph", "a": 1, "b": 10 ** 400},
     "malformed curve descriptor for 'corner_graph': int too large to convert to float"),
])
def test_malformed_descriptor_messages(desc, message):
    with pytest.raises(ConfigError) as info:
        curve_from_json(desc)
    assert str(info.value) == message


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, [], {}])
def test_interval_closedness_must_be_a_json_boolean(flag):
    with pytest.raises(ConfigError, match="closedness"):
        Interval.from_json({"lower": 0, "upper": 1, "lower_closed": flag})
    with pytest.raises(ConfigError, match="closedness"):
        curve_from_json({"kind": "circle_arc",
                         "angles": {"lower": 0, "upper": 1, "upper_closed": flag}})


def test_interval_closedness_json_values():
    iv = Interval.from_json({"lower": 0, "upper": 1, "lower_closed": False,
                             "upper_closed": None})
    assert iv.lower_closed is False and iv.upper_closed is True


@pytest.mark.parametrize("orientation", [-1.7, 1.0, -1.0, True, "1", 2, 0, None])
def test_orientation_must_be_the_integer_one_or_minus_one(orientation):
    with pytest.raises(ConfigError, match="orientation"):
        curve_from_json({"kind": "real_interval", "orientation": orientation})


@pytest.mark.parametrize("orientation", [-1, 1])
def test_orientation_json_values(orientation):
    curve = curve_from_json({"kind": "real_interval", "orientation": orientation})
    assert curve.orientation == orientation



# -- parametrization properties ---------------------------------------------

finite = {"allow_nan": False, "allow_infinity": False}


def _bounded_param(curve, u):
    """Map u in [0, 1] to a parameter safely inside the curve's domain."""
    dom = curve.domain or Interval(0.0, TAU)
    lo = dom.lower if math.isfinite(dom.lower) else -50.0
    hi = dom.upper if math.isfinite(dom.upper) else 50.0
    return lo + (0.01 + 0.98 * u) * (hi - lo)


KIND_STRATEGIES = {
    "real_interval": st.one_of(
        st.just(real_line()),
        st.builds(
            lambda lo, w: RealInterval(Interval(lo, lo + w)),
            st.floats(-5, 5, **finite),
            st.floats(0.5, 10, **finite),
        ),
    ),
    "segment": st.builds(
        Segment,
        st.complex_numbers(max_magnitude=10, **finite),
        st.just(3 + 2j),
    ),
    "line": st.builds(
        Line,
        st.complex_numbers(max_magnitude=10, **finite),
        st.sampled_from([1 + 0j, 1j, 2 - 1j, -1 - 1j]),
    ),
    "circle_arc": st.builds(
        lambda lo, w: CircleArc(0.5j, 1.5, Interval(lo, lo + w, upper_closed=False)),
        st.floats(-5, 5, **finite),
        st.floats(0.5, TAU, **finite),
    ),
    "unit_circle": st.just(UnitCircleClosed()),
    "polyline": st.just(Polyline((0j, 1 + 0j, 1 + 1j, 0 + 1.5j))),
    "corner_graph": st.builds(
        CornerGraph,
        st.floats(-3, 0.4, **finite),
        st.floats(0.6, 3, **finite),
    ),
}
CURVE_STRATEGY = st.one_of(*KIND_STRATEGIES.values())


def test_curve_strategy_covers_every_kind():
    assert set(KIND_STRATEGIES) == set(_KINDS)


@settings(deadline=None, max_examples=200)
@given(curve=CURVE_STRATEGY, u=st.floats(0, 1, **finite))
def test_invert_after_eval_is_identity(curve, u):
    t = _bounded_param(curve, u)
    z = curve.eval(t)
    t_back = curve.invert(z)
    scale = max(1.0, abs(t))
    assert abs(t_back - t) <= 1e-9 * scale


@settings(deadline=None, max_examples=100)
@given(
    curve=CURVE_STRATEGY,
    us=st.tuples(st.floats(0, 1, **finite), st.floats(0, 1, **finite), st.floats(0, 1, **finite)),
)
def test_cmp_is_a_total_order(curve, us):
    if curve.domain is None:
        return
    ts = sorted(_bounded_param(curve, u) for u in us)
    # Separate the parameters so that rounding cannot blur the order.
    if ts[1] - ts[0] < 1e-6 or ts[2] - ts[1] < 1e-6:
        return
    zs = [curve.eval(t) for t in ts]
    pos = _position(curve, zs)
    # Points sort along the orientation, by the order OrderMap uses.
    forward = [0, 1, 2] if curve.orientation > 0 else [2, 1, 0]
    assert list(np.argsort(pos, kind="stable")) == forward
    assert list(curve.order(zs)) == forward
    # Reversal flips the order.
    reversed_curve = dataclasses.replace(curve, orientation=-curve.orientation)
    assert list(reversed_curve.order(zs)) == forward[::-1]


@settings(deadline=None, max_examples=100)
@given(curve=CURVE_STRATEGY, u=st.floats(0, 1, **finite))
def test_cmp_equal_on_identical_points(curve, u):
    if curve.domain is None:
        return
    z = curve.eval(_bounded_param(curve, u))
    # A point and its round trip through invert and eval share a position.
    p = _position(curve, [z, curve.eval(curve.invert(z))])
    assert abs(p[0] - p[1]) <= curve.tol * max(1.0, abs(p[0]))


@settings(deadline=None, max_examples=100)
@given(
    curve=CURVE_STRATEGY,
    us=st.lists(st.floats(0, 1, **finite), min_size=1, max_size=6),
    perm_seed=st.integers(0, 2**31 - 1),
)
def test_order_is_the_stable_sort_by_position(curve, us, perm_seed):
    ts = np.array([_bounded_param(curve, u) for u in us])
    # distinct parameters, separated so that rounding cannot blur the order
    if ts.size > 1 and np.min(np.diff(np.sort(ts))) < 1e-6:
        return
    zs = curve.eval_array(ts)
    expected = np.argsort(_position(curve, zs), kind="stable")
    assert list(curve.order(zs)) == list(expected)
    # a stack sorts row by row
    stack = np.stack([zs, zs[np.random.default_rng(perm_seed).permutation(zs.size)]])
    got = curve.order(stack)
    assert got.shape == stack.shape
    for row, idx in zip(stack, got):
        assert list(idx) == list(curve.order(row))


@settings(deadline=None, max_examples=100)
@given(
    orientation=st.sampled_from([1, -1]),
    tied=st.lists(
        st.tuples(st.floats(-5e-3, 0, **finite), st.floats(-5e-3, 5e-3, **finite)),
        min_size=2,
        max_size=6,
    ),
    inside=st.lists(st.floats(0.01, 1, **finite), max_size=3),
)
def test_order_breaks_exact_ties_in_real_imag_order(orientation, tied, inside):
    # every tied point projects onto the endpoint 0 of [0, 1], within tol
    curve = RealInterval(Interval(0.0, 1.0), orientation=orientation, tol=1e-2)
    zs = np.array([complex(x, y) for x, y in tied] + [complex(x) for x in inside])
    params = [0.0] * len(tied) + inside
    expected = sorted(
        range(zs.size), key=lambda i: (orientation * params[i], zs[i].real, zs[i].imag)
    )
    assert list(curve.order(zs)) == expected


@settings(deadline=None, max_examples=100)
@given(
    curve=CURVE_STRATEGY,
    u=st.floats(0, 1, **finite),
    off=st.complex_numbers(min_magnitude=0.5, max_magnitude=5, **finite),
)
def test_order_rejects_off_curve_points(curve, u, off):
    z = curve.eval(_bounded_param(curve, u))
    assume(curve._nearest(z + off)[2][0] > curve.tol)
    with pytest.raises(OffCurveError):
        curve.order([z, z + off])
    with pytest.raises(OffCurveError):
        curve.order([[z, z], [z + off, z]])


@pytest.mark.parametrize("curve,z", [
    (CornerGraph(-1.0, 1.0), 1e308 + 1e308j),
    (CornerGraph(-1.0, 1.0), -1e308 + 1e308j),
    (Line(0j, 1 + 1j), 1e308 + 1e308j),
])
def test_an_overflowing_projection_is_not_a_distance(curve, z):
    # each point is the curve's own, but its parameter is past the largest
    # double: no nearest point, and so no distance, can be named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OffCurveError) as info:
            curve.invert(z)
    assert str(info.value) == (f"projection of point {complex(z)} onto the "
                               f"{curve.kind} curve overflows")


@pytest.mark.parametrize("curve,z,message", [
    # finite projections, far or non-finite points: still a distance
    (CornerGraph(-1.0, 1.0), 1e308 - 3j, "point (1e+308-3j) is at distance "
     "7.071e+307 from the corner_graph curve (tol 1.0e-09)"),
    (CornerGraph(-1.0, 1.0), complex(math.inf, 0.0), "point (inf+0j) is at "
     "distance inf from the corner_graph curve (tol 1.0e-09)"),
    (CornerGraph(-1.0, 1.0), complex(0.0, math.inf), "point infj is at "
     "distance inf from the corner_graph curve (tol 1.0e-09)"),
    (Line(0j, 1 + 1j), complex(math.inf, 0.0), "point (inf+0j) is at "
     "distance inf from the line curve (tol 1.0e-09)"),
])
def test_other_off_curve_messages_keep_their_distance(curve, z, message):
    with pytest.raises(OffCurveError) as info:
        curve.invert(z)
    assert str(info.value) == message


def test_membership_scales_the_tolerance_by_the_matrix_norm():
    # tol * max(1, scale): a scale below 1 keeps tol, one per point or row
    line = real_line()
    zs = np.array([2.0 + 5e-10j, 3.0 - 4e-7j, 1.0 + 2e-3j])
    with pytest.raises(OffCurveError) as info:
        line.invert_array(zs[:2], 1e-3)
    # the raw distance and tol, as at scale 1
    assert str(info.value) == ("point (3-4e-07j) is at distance 4.000e-07 from the "
                               "real_interval curve (tol 1.0e-09)")
    np.testing.assert_array_equal(line.invert_array(zs[:2], 1e3), [2.0, 3.0])
    with pytest.raises(OffCurveError, match="point \\(1\\+0.002j\\)"):
        line.invert_array(zs, 1e3)
    np.testing.assert_array_equal(line.invert_array(zs, [1.0, 1e3, 1e7]), [2.0, 3.0, 1.0])
    assert line.order(zs.reshape(1, 3), [[1e7]]).tolist() == [[2, 0, 1]]
    with pytest.raises(OffCurveError):
        line.order(np.array([zs, zs]), [[1e7], [1e3]])


def test_invert_array_matches_scalar():
    c = CornerGraph(-1.0, 1.0)
    ts = np.linspace(-3, 3, 41)
    zs = c.eval_array(ts)
    np.testing.assert_allclose(c.invert_array(zs), ts, atol=1e-12)
    arc = unit_circle_arc()
    ts = np.linspace(0.01, TAU - 0.01, 37)
    np.testing.assert_allclose(arc.invert_array(arc.eval_array(ts)), ts, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    curve=CURVE_STRATEGY,
    u=st.floats(0, 1, **finite),
    off=st.complex_numbers(max_magnitude=1e-6, **finite),
)
def test_scalar_calls_are_one_element_arrays(curve, u, off):
    t = _bounded_param(curve, u)
    assert _bits(curve.eval(t), complex) == _bits(curve.eval_array([t])[0], complex)
    for z in (curve.eval(t), curve.eval(t) + off):
        try:
            want = curve.invert_array([z])[0]
        except OffCurveError:
            with pytest.raises(OffCurveError):
                curve.invert(z)
        else:
            assert _bits(curve.invert(z), float) == _bits(want, float)


@pytest.mark.parametrize(
    "curve", [c for c in ROUND_TRIP_CURVES if c.domain is not None], ids=lambda c: c.kind
)
def test_nan_parameter_is_outside_every_domain(curve):
    with pytest.raises(ParameterDomainError):
        curve.eval(math.nan)
    with pytest.raises(ParameterDomainError):
        curve.eval_array([_bounded_param(curve, 0.5), math.nan])


def test_nonfinite_geometry_rejected():
    nan, inf = math.nan, math.inf
    builds = [
        lambda: Segment(complex(nan, 0.0), 1j),
        lambda: Segment(0j, complex(0.0, inf)),
        lambda: Line(complex(inf, 0.0), 1j),
        lambda: Line(0j, complex(1.0, nan)),
        lambda: CircleArc(complex(nan, 0.0)),
        lambda: Polyline((0j, 1 + 0j, complex(inf, 1.0))),
    ]
    for build in builds:
        with pytest.raises(ConfigError):
            build()


# -- array forms against the scalar formulas they replaced ------------------
#
# Each kind once stated its geometry twice: a scalar _point/_project and an
# array form.  The scalar formulas of the kinds whose array form is new or
# changed are kept here as references.  Curve parameters and points reach
# seeded output, so the array forms must equal them bit for bit.


def _bits(xs, dtype):
    return np.asarray(xs, dtype=dtype).tobytes()


def _ref_contains(iv, t):
    if t < iv.lower or t > iv.upper:
        return False
    if t == iv.lower and not iv.lower_closed:
        return False
    if t == iv.upper and not iv.upper_closed:
        return False
    return True


def _ref_real_project(ri, z):
    return min(max(z.real, ri.interval.lower), ri.interval.upper)


def _ref_segment_project(seg, z):
    d = seg.z1 - seg.z0
    t = ((z - seg.z0) * d.conjugate()).real / (d.real**2 + d.imag**2)
    return min(max(t, 0.0), 1.0)


def _ref_arc_project(arc, z):
    def point(t):
        return arc.center + arc.radius * complex(math.cos(t), math.sin(t))

    v = z - arc.center
    if v == 0:
        return arc.angles.lower
    theta = math.atan2(v.imag, v.real)
    lo, hi = arc.angles.lower, arc.angles.upper
    t = theta + TAU * math.ceil((lo - theta) / TAU)
    if t <= hi:
        return t
    if abs(point(lo) - z) <= abs(point(hi) - z):
        return lo
    return hi


def _ref_unit_circle_project(z):
    if z == 0:
        return 0.0
    return math.atan2(z.imag, z.real) % TAU


def _ref_polyline_point(pl, t):
    m = len(pl.vertices) - 1
    i = max(min(int(math.floor(t)), m - 1), 0)
    return pl.vertices[i] + (t - i) * (pl.vertices[i + 1] - pl.vertices[i])


def _ref_polyline_project(pl, z):
    best_t, best_d = 0.0, math.inf
    for i in range(len(pl.vertices) - 1):
        a, b = pl.vertices[i], pl.vertices[i + 1]
        d = b - a
        s = ((z - a) * d.conjugate()).real / (d.real**2 + d.imag**2)
        s = min(max(s, 0.0), 1.0)
        dist = abs(a + s * d - z)
        if dist < best_d:
            best_d, best_t = dist, i + s
    return best_t


def _ref_line_project(line, z):
    d = line.direction
    return ((z - line.point) * d.conjugate()).real / (d.real**2 + d.imag**2)


def _ref_corner_point(cg, t):
    slope = cg.a if t < 0.0 else cg.b
    return complex(t, slope * t)


def _ref_corner_project(cg, z):
    dl, dr = complex(1.0, cg.a), complex(1.0, cg.b)
    tl = min(0.0, (z * dl.conjugate()).real / (dl.real**2 + dl.imag**2))
    tr = max(0.0, (z * dr.conjugate()).real / (dr.real**2 + dr.imag**2))
    return tr if abs(tr * dr - z) < abs(tl * dl - z) else tl


def _ulp_neighbours(z):
    """z and the four points one ulp away from it along an axis."""
    out = [z]
    for step in (-math.inf, math.inf):
        out.append(complex(np.nextafter(z.real, step), z.imag))
        out.append(complex(z.real, np.nextafter(z.imag, step)))
    return out


SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
coords = st.floats(-10, 10, **finite)
planar = st.complex_numbers(max_magnitude=20, **finite)


@settings(deadline=None, max_examples=200)
@given(
    a=coords,
    b=coords,
    open_below=st.booleans(),
    open_above=st.booleans(),
    closed_flags=st.tuples(st.booleans(), st.booleans()),
    ts=st.lists(st.floats(allow_nan=False), max_size=10),
)
def test_interval_contains_and_clamp_match_the_scalar_rules(
    a, b, open_below, open_above, closed_flags, ts
):
    assume(a != b)
    lo = -math.inf if open_below else min(a, b)
    hi = math.inf if open_above else max(a, b)
    iv = Interval(lo, hi, closed_flags[0] and math.isfinite(lo),
                  closed_flags[1] and math.isfinite(hi))
    edges = [e for x in (lo, hi)
             for e in (x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf))]
    ts = ts + edges + [-math.inf, math.inf, 0.0, -0.0]
    assert iv.contains(np.array(ts)).tolist() == [_ref_contains(iv, t) for t in ts]
    assert not iv.contains(math.nan)
    ri = RealInterval(iv)
    zs = [complex(t, y) for t in ts for y in (0.0, -0.0, 1.0)] + SIGNED_ZEROS
    want = [_ref_real_project(ri, z) for z in zs]
    assert _bits(ri._project_array(np.array(zs)), float) == _bits(want, float)


@settings(deadline=None, max_examples=200)
@given(z0=st.complex_numbers(max_magnitude=10, **finite),
       z1=st.complex_numbers(max_magnitude=10, **finite),
       zs=st.lists(planar, max_size=10))
def test_segment_projection_matches_the_scalar_formula(z0, z1, zs):
    assume(abs(z1 - z0) > 1e-3)
    seg = Segment(z0, z1)
    zs = zs + _ulp_neighbours(z0) + _ulp_neighbours(z1) + SIGNED_ZEROS
    want = [_ref_segment_project(seg, z) for z in zs]
    assert _bits(seg._project_array(np.array(zs)), float) == _bits(want, float)


@settings(deadline=None, max_examples=200)
@given(
    center=st.complex_numbers(max_magnitude=5, **finite),
    radius=st.floats(0.1, 5, **finite),
    lo=coords,
    width=st.floats(0.1, TAU - 0.1, **finite),
    closed_flags=st.tuples(st.booleans(), st.booleans()),
    polar=st.lists(st.tuples(st.floats(-20, 20, **finite), st.floats(0, 2, **finite)),
                   max_size=10),
    zs=st.lists(planar, max_size=5),
)
def test_arc_projection_matches_the_scalar_formula(
    center, radius, lo, width, closed_flags, polar, zs
):
    arc = CircleArc(center, radius, Interval(lo, lo + width, *closed_flags))
    on_rays = [center + radius * s * complex(math.cos(a), math.sin(a)) for a, s in polar]
    # The point opposite the middle of the window is off it and about
    # equidistant from both ends.
    mid = lo + width / 2
    opposite = center - radius * complex(math.cos(mid), math.sin(mid))
    ends = [center + radius * complex(math.cos(t), math.sin(t)) for t in (lo, lo + width)]
    zs = (zs + on_rays + [center, opposite] + _ulp_neighbours(ends[0])
          + _ulp_neighbours(ends[1]))
    want = [_ref_arc_project(arc, z) for z in zs]
    assert _bits(arc._project_array(np.array(zs)), float) == _bits(want, float)


@settings(deadline=None, max_examples=200)
@given(zs=st.lists(planar, max_size=20))
def test_unit_circle_projection_matches_the_scalar_formula(zs):
    axes = [complex(x, y) for x, y in ((1.0, 0.0), (-1.0, 0.0), (-1.0, -0.0),
                                      (0.0, 1.0), (0.0, -1.0), (-0.0, -1.0))]
    zs = zs + axes + SIGNED_ZEROS
    want = [_ref_unit_circle_project(z) for z in zs]
    got = UnitCircleClosed()._project_array(np.array(zs))
    assert _bits(got, float) == _bits(want, float)


POLYLINES = [
    Polyline((0j, 1 + 0j, 1 + 1j, 0 + 1.5j)),
    Polyline((-1 + 1j, 0j, 1 + 1j)),  # points on the imaginary axis tie
    Polyline((0j, 2 + 0j, 2 + 2j)),  # points 2 - y + iy tie
    Polyline((0.3 - 0.2j, -2.5 + 1j, -1 + 3j, 4 + 2.5j)),
]


@settings(deadline=None, max_examples=200)
@given(
    pl=st.sampled_from(POLYLINES),
    us=st.lists(st.floats(0, 1, **finite), max_size=10),
    ys=st.lists(st.floats(0, 2, **finite), max_size=5),
    zs=st.lists(planar, max_size=10),
)
def test_polyline_matches_the_scalar_formulas(pl, us, ys, zs):
    m = len(pl.vertices) - 1
    ts = [u * m for u in us] + [
        t for k in range(m + 1)
        for t in (np.nextafter(float(k), -1.0), float(k), np.nextafter(float(k), m + 1.0))
        if 0.0 <= t <= m
    ]
    want = [_ref_polyline_point(pl, t) for t in ts]
    assert _bits(pl.eval_array(ts), complex) == _bits(want, complex)
    ties = [complex(0.0, y) for y in ys] + [complex(2.0 - y, y) for y in ys]
    zs = zs + ties + [w for v in pl.vertices for w in _ulp_neighbours(v)] + SIGNED_ZEROS
    want = [_ref_polyline_project(pl, z) for z in zs]
    assert _bits(pl._project_array(np.array(zs)), float) == _bits(want, float)


@settings(deadline=None, max_examples=200)
@given(
    a=st.one_of(st.just(0.0), st.floats(-3, 3, **finite)),
    b=st.one_of(st.just(0.0), st.floats(-3, 3, **finite)),
    ts=st.lists(st.floats(-10, 10, **finite), max_size=10),
    zs=st.lists(planar, max_size=10),
)
def test_corner_graph_matches_the_scalar_formulas(a, b, ts, zs):
    assume(a != b)
    cg = CornerGraph(a, b)
    ts = ts + [0.0, -0.0, -0.5, 0.5, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0)]
    want = [_ref_corner_point(cg, t) for t in ts]
    assert _bits(cg.eval_array(ts), complex) == _bits(want, complex)
    # the bisector of the corner's outer angle is equidistant from both branches
    bisector = complex(1.0, a) / abs(complex(1.0, a)) + complex(1.0, b) / abs(complex(1.0, b))
    zs = zs + [-y * bisector for y in (0.5, 1.0, 3.0)] + SIGNED_ZEROS
    want = [_ref_corner_project(cg, z) for z in zs]
    assert _bits(cg._project_array(np.array(zs)), float) == _bits(want, float)


@settings(deadline=None, max_examples=200)
@given(point=st.complex_numbers(max_magnitude=10, **finite),
       direction=st.complex_numbers(max_magnitude=10, **finite),
       zs=st.lists(planar, max_size=10))
def test_line_projection_matches_the_scalar_formula(point, direction, zs):
    assume(abs(direction) > 1e-3)
    line = Line(point, direction)
    zs = zs + _ulp_neighbours(point) + SIGNED_ZEROS
    want = [_ref_line_project(line, z) for z in zs]
    assert _bits(line._project_array(np.array(zs)), float) == _bits(want, float)
