"""Tests for the curve geometry layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_interval_contains_respects_flags_and_slack():
    iv = Interval(0.0, TAU, upper_closed=False)
    assert iv.contains(0.0)
    assert not iv.contains(TAU)
    assert iv.contains(TAU, slack=1e-9)
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
    lo, hi = _position(c.reversed(), [-1.0, 3.0])
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


def test_contains_is_exceptionless():
    assert not real_line().contains(1j)
    assert real_line().contains(5.0)
    assert UnitCircleClosed().contains(np.exp(0.3j))


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


# -- parametrization properties ---------------------------------------------

finite = {"allow_nan": False, "allow_infinity": False}


def _bounded_param(curve, u):
    """Map u in [0, 1] to a parameter safely inside the curve's domain."""
    dom = curve.domain
    if dom is None:
        return u * TAU
    lo = dom.lower if math.isfinite(dom.lower) else -50.0
    hi = dom.upper if math.isfinite(dom.upper) else 50.0
    return lo + (0.01 + 0.98 * u) * (hi - lo)


CURVE_STRATEGY = st.one_of(
    st.just(real_line()),
    st.builds(
        Segment,
        st.complex_numbers(max_magnitude=10, **finite),
        st.just(3 + 2j),
    ),
    st.builds(
        Line,
        st.complex_numbers(max_magnitude=10, **finite),
        st.sampled_from([1 + 0j, 1j, 2 - 1j, -1 - 1j]),
    ),
    st.builds(
        lambda lo, w: CircleArc(0.5j, 1.5, Interval(lo, lo + w, upper_closed=False)),
        st.floats(-5, 5, **finite),
        st.floats(0.5, TAU, **finite),
    ),
    st.builds(
        CornerGraph,
        st.floats(-3, 0.4, **finite),
        st.floats(0.6, 3, **finite),
    ),
    st.just(Polyline((0j, 1 + 0j, 1 + 1j, 0 + 1.5j))),
)


@settings(deadline=None, max_examples=200)
@given(curve=CURVE_STRATEGY, u=st.floats(0, 1, **finite))
def test_invert_after_eval_is_identity(curve, u):
    t = _bounded_param(curve, u)
    z = curve.eval(t) if curve.domain is not None else curve._point(t)
    t_back = curve.invert(z)
    scale = max(1.0, abs(t))
    assert abs(t_back - t) <= 1e-9 * scale


@settings(deadline=None, max_examples=100)
@given(
    curve=CURVE_STRATEGY,
    us=st.tuples(st.floats(0, 1, **finite), st.floats(0, 1, **finite), st.floats(0, 1, **finite)),
)
def test_cmp_is_a_total_order(curve, us):
    if curve.closed:
        return
    ts = sorted(_bounded_param(curve, u) for u in us)
    # Separate the parameters so that rounding cannot blur the order.
    if ts[1] - ts[0] < 1e-6 or ts[2] - ts[1] < 1e-6:
        return
    zs = [curve.eval(t) for t in ts]
    pos = _position(curve, zs)
    # Points sort along the orientation, by the stable sort OrderMap uses.
    forward = [0, 1, 2] if curve.orientation > 0 else [2, 1, 0]
    assert list(np.argsort(pos, kind="stable")) == forward
    # Reversal flips the order.
    back = _position(curve.reversed(), zs)
    assert list(np.argsort(back, kind="stable")) == forward[::-1]


@settings(deadline=None, max_examples=100)
@given(curve=CURVE_STRATEGY, u=st.floats(0, 1, **finite))
def test_cmp_equal_on_identical_points(curve, u):
    if curve.closed:
        return
    z = curve.eval(_bounded_param(curve, u))
    # A point and its round trip through invert and eval share a position.
    p = _position(curve, [z, curve.eval(curve.invert(z))])
    assert abs(p[0] - p[1]) <= curve.tol * max(1.0, abs(p[0]))


def test_invert_array_matches_scalar():
    c = CornerGraph(-1.0, 1.0)
    ts = np.linspace(-3, 3, 41)
    zs = c.eval_array(ts)
    np.testing.assert_allclose(c.invert_array(zs), ts, atol=1e-12)
    arc = unit_circle_arc()
    ts = np.linspace(0.01, TAU - 0.01, 37)
    np.testing.assert_allclose(arc.invert_array(arc.eval_array(ts)), ts, atol=1e-12)
