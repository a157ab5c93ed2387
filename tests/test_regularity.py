import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvespec.curves import CornerGraph, Interval, Line, RealInterval, unit_circle_arc
from curvespec.errors import CoincidentPointsError, ConfigError, OffCurveError
from curvespec.regularity import (
    ConfigurationTuple,
    db_profile,
    dc_probe,
    divided_difference,
    read_profile_csv,
    write_profile_csv,
)


def test_real_pair_is_identity_quotient():
    assert divided_difference(np.conj, (0.0, 1.0)) == 1.0 + 0.0j
    # one point: the order-0 quotient is f itself
    assert divided_difference(np.conj, (1 + 1j,)) == 1 - 1j


def test_imaginary_pair_is_negated_identity_quotient():
    assert divided_difference(np.conj, (0.3j, 1.1j)) == -1.0 + 0.0j


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_corner_straddling_triple_oracle(eps):
    # both branch quotients have modulus 1 but opposite sign, over a 2*eps gap
    value = divided_difference(np.conj, (-eps + eps * 1j, 0.0, eps + eps * 1j))
    assert abs(value - (-1j / eps)) <= 1e-6 / eps
    assert abs(abs(value) - 1.0 / eps) <= 1e-6 / eps


def test_coincident_points_rejected():
    with pytest.raises(CoincidentPointsError):
        divided_difference(np.conj, (1.0, 1.0))
    with pytest.raises(CoincidentPointsError):
        ConfigurationTuple((0.5, 0.5))


def test_configuration_tuple_checks_curve_membership():
    with pytest.raises(OffCurveError):
        ConfigurationTuple((0.0, 1.0 + 0.5j), RealInterval())
    cfg = ConfigurationTuple((0.0, 1.0), RealInterval())
    assert len(cfg) == 2


def test_configuration_tuple_nonempty():
    with pytest.raises(ConfigError):
        ConfigurationTuple(())


def test_sorted_points_follow_curve_order():
    cfg = ConfigurationTuple((2.0, 0.0, 1.0), RealInterval())
    assert cfg.sorted_points() == (0.0 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j)


@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(2, 5),
    perm_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(seed, k, perm_seed):
    rng = np.random.default_rng(seed)
    curve = unit_circle_arc(0.0)
    ts = np.sort(rng.uniform(0.5, 2.5, k))
    while np.min(np.diff(ts)) < 1e-4:
        ts = np.sort(rng.uniform(0.5, 2.5, k))
    pts = curve.eval_array(ts)
    base = divided_difference(np.conj, tuple(pts))
    perm = np.random.default_rng(perm_seed).permutation(k)
    shuffled = divided_difference(np.conj, tuple(pts[perm]))
    assert abs(shuffled - base) <= 1e-9 * max(1.0, abs(base))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_first_quotient_has_modulus_one(seed):
    rng = np.random.default_rng(seed)
    for curve in (
        RealInterval(),
        unit_circle_arc(0.0),
        CornerGraph(-1.0, 1.0),
        Line(1.0 + 1.0j, np.exp(0.3j)),
    ):
        t0, t1 = rng.uniform(0.1, 3.0, 2)
        if abs(t1 - t0) < 1e-6:
            continue
        z0, z1 = curve.eval(t0), curve.eval(t1)
        q = divided_difference(np.conj, (z0, z1))
        assert abs(abs(q) - 1.0) <= 1e-12


@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_second_quotient_vanishes_on_lines(seed, theta):
    rng = np.random.default_rng(seed)
    line = Line(0.5 - 0.25j, np.exp(1j * theta))
    ts = np.sort(rng.uniform(-1.0, 1.0, 3))
    if np.min(np.diff(ts)) < 1e-3:
        return
    pts = line.eval_array(ts)
    q = divided_difference(np.conj, tuple(pts))
    assert abs(q) <= 1e-9


def test_db_profile_corner_diverges():
    profile = db_profile(
        CornerGraph(-1.0, 1.0), np.conj, 3, 0.0, rng=np.random.default_rng(11)
    )
    assert profile.verdict_db == "diverging"
    assert profile.slope >= 0.9
    # sup grows roughly like 1/scale
    assert profile.sup_values[-1] > 10 * profile.sup_values[0]


def test_db_profile_line_bounded():
    line = Line(0.0j, np.exp(1j * 0.7))
    profile = db_profile(line, np.conj, 3, 0.0, rng=np.random.default_rng(12))
    assert profile.verdict_db == "bounded"
    assert abs(profile.slope) <= 0.1


def test_db_profile_arc_bounded():
    arc = unit_circle_arc(0.0)
    center = np.exp(1j * 1.0)
    profile = db_profile(arc, np.conj, 3, center, rng=np.random.default_rng(13))
    assert profile.verdict_db == "bounded"
    assert abs(profile.slope) <= 0.1
    # |second quotient of conj| is exactly 1 on the unit circle
    assert all(abs(s - 1.0) < 1e-3 for s in profile.sup_values)


@pytest.mark.parametrize("order", [3, 4])
def test_db_profile_smooth_curves_sup_stable(order):
    # deeper quotients meet cancellation noise sooner, so keep scales coarser
    scales = (1e-1, 1e-2, 1e-3) if order == 3 else (1e-1, 3e-2, 1e-2)
    arc = unit_circle_arc(0.0)
    p_arc = db_profile(
        arc, np.conj, order, np.exp(0.5j), scales=scales,
        rng=np.random.default_rng(14),
    )
    line = Line(0.0j, np.exp(1j * 0.3))
    p_line = db_profile(
        line, np.conj, order, 0.0, scales=scales, rng=np.random.default_rng(15)
    )
    for p in (p_arc, p_line):
        assert p.verdict_db == "bounded"
        a, b = p.sup_values[-2], p.sup_values[-1]
        assert max(a, b) <= 2 * max(min(a, b), 1e-8)


def test_db_profile_order_two_sup_is_one_everywhere():
    for curve, center in (
        (CornerGraph(-1.0, 1.0), 0.0),
        (RealInterval(), 0.5),
        (unit_circle_arc(0.0), np.exp(2j)),
    ):
        p = db_profile(curve, np.conj, 2, center, rng=np.random.default_rng(16))
        assert p.verdict_db == "bounded"
        assert all(abs(s - 1.0) <= 1e-9 for s in p.sup_values)


def test_dc_probe_line_constant_limit():
    theta = 0.7
    line = Line(0.0j, np.exp(1j * theta))
    p = dc_probe(line, np.conj, 2, 0.0, rng=np.random.default_rng(17))
    assert p.verdict_dc == "converges"
    assert abs(p.dc_limit - np.exp(-2j * theta)) <= 1e-3


def test_dc_probe_corner_has_no_limit():
    p = dc_probe(
        CornerGraph(-1.0, 1.0), np.conj, 2, 0.0, rng=np.random.default_rng(18)
    )
    assert p.verdict_dc == "no_limit"
    assert p.dc_limit is None
    # the two branch values i and -i keep the dispersion macroscopic
    assert min(p.dispersions) > 0.5


def test_dc_probe_arc_limit():
    theta0 = 1.0
    arc = unit_circle_arc(0.0)
    p = dc_probe(arc, np.conj, 2, np.exp(1j * theta0), rng=np.random.default_rng(19))
    assert p.verdict_dc == "converges"
    assert abs(p.dc_limit - (-np.exp(-2j * theta0))) <= 1e-3


def test_probe_errors():
    line = Line(0.0j, 1.0 + 0.0j)
    with pytest.raises(OffCurveError):
        db_profile(line, np.conj, 3, 1.0 + 1.0j)
    with pytest.raises(ConfigError):
        db_profile(line, np.conj, 3, 0.0, scales=(1e-1, 1e-1))
    with pytest.raises(ConfigError):
        db_profile(line, np.conj, 1, 0.0)
    with pytest.raises(ConfigError):
        db_profile(line, np.conj, 3, 0.0, samples_per_scale=0)
    with pytest.raises(ConfigError):
        db_profile(line, np.conj, 3, 0.0, scales=(1e-1, -1e-2))


def test_probe_determinism():
    corner = CornerGraph(-0.5, 2.0)
    a = db_profile(corner, np.conj, 3, 0.0, rng=np.random.default_rng(42))
    b = db_profile(corner, np.conj, 3, 0.0, rng=np.random.default_rng(42))
    assert a.sup_values == b.sup_values
    assert a.means == b.means
    assert a.slope == b.slope


def test_profile_csv_roundtrip(tmp_path):
    p = db_profile(
        CornerGraph(-1.0, 1.0), np.conj, 3, 0.0, rng=np.random.default_rng(20)
    )
    path = tmp_path / "profile.csv"
    write_profile_csv(p, str(path))
    back = read_profile_csv(str(path))
    assert back.verdict_db == p.verdict_db
    assert back.verdict_dc == p.verdict_dc
    assert back.scales == p.scales
    np.testing.assert_allclose(back.sup_values, p.sup_values, rtol=1e-10)
    np.testing.assert_allclose(
        [m.real for m in back.means], [m.real for m in p.means], atol=1e-10
    )


def test_profile_csv_footer_required():
    with pytest.raises(ConfigError):
        read_profile_csv(io.StringIO("scale,sup,mean_re,mean_im,dispersion\n"))


def test_probe_interval_boundary_center():
    # center at the edge of a bounded domain: only one-sided tuples exist
    seg = RealInterval(Interval(0.0, 1.0))
    p = db_profile(seg, np.conj, 2, 0.0, rng=np.random.default_rng(21))
    assert p.verdict_db == "bounded"
    assert all(abs(s - 1.0) <= 1e-9 for s in p.sup_values)
