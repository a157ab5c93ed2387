import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvespec.curves import (
    CornerGraph,
    Interval,
    Line,
    RealInterval,
    Segment,
    unit_circle_arc,
)
from curvespec.errors import (
    CoincidentPointsError,
    ConfigError,
    NumericalDomainError,
    OffCurveError,
)
from curvespec.regularity import (
    ConfigurationTuple,
    _acceptable,
    _quotient_table_err,
    _sample_offsets,
    db_profile,
    dc_probe,
    divided_difference,
    write_profile_csv,
)
from oracles import quotient_table_err_rows, read_profile_csv, sorted_gap_acceptable


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
    assert len(cfg.points) == 2


@pytest.mark.parametrize("points", [(np.nan, 1.0), (0.0, complex(1, np.inf)),
                                    (np.nan, np.nan)])
@pytest.mark.parametrize("curve", [None, RealInterval()])
def test_configuration_tuple_rejects_non_finite_points(points, curve):
    with pytest.raises(NumericalDomainError, match="non-finite"):
        ConfigurationTuple(points, curve)
    with pytest.raises(NumericalDomainError, match="non-finite"):
        divided_difference(np.conj, points, curve)


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


def test_scale_without_room_for_a_tuple_is_vacuous():
    # at scale 10 the segment leaves offsets in [-0.05, 0.05], too narrow
    # for three points 5% apart: the scale reads 0 and draws nothing
    rngs = [np.random.default_rng(0) for _ in range(2)]
    p = db_profile(Segment(0, 1), np.conj, 3, 0.5, scales=(10, 1), rng=rngs[0])
    fine = db_profile(Segment(0, 1), np.conj, 3, 0.5, scales=(1,), rng=rngs[1])
    assert (p.sup_values[0], p.means[0], p.dispersions[0]) == (0.0, 0j, 0.0)
    assert (p.sup_values[1:], p.means[1:], p.dispersions[1:]) == (
        fine.sup_values, fine.means, fine.dispersions)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


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


def test_probe_interval_boundary_center():
    # center at the edge of a bounded domain: only one-sided tuples exist
    seg = RealInterval(Interval(0.0, 1.0))
    p = db_profile(seg, np.conj, 2, 0.0, rng=np.random.default_rng(21))
    assert p.verdict_db == "bounded"
    assert all(abs(s - 1.0) <= 1e-9 for s in p.sup_values)


# ---------------------------------------------------------------------------
# the probes' column-wise kernels against their row-wise references


def _hostile_stack(seed, m, k):
    """(m, k) points and values at row scales from 1e-300 to 1e300, with
    coincident points, infinite and NaN entries and -0.0 parts."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-300.0, 300.0, size=(m, 1))
    pts = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) * scale
    with np.errstate(over="ignore"):
        fv = np.conj(pts) * 10.0 ** rng.uniform(-20.0, 20.0, size=(m, 1))
    rows = rng.permutation(m)
    if k > 1:
        pts[rows[:8], 1] = pts[rows[:8], 0]  # coincident
    pts[rows[8:12], -1] = complex(np.inf, 1.0)
    pts[rows[12:16], 0] = complex(np.nan, 0.0)
    fv[rows[16:20], 0] = complex(-np.inf, np.inf)
    fv[rows[20:24], -1] = np.nan
    pts.imag[rows[24:40]] = -0.0
    pts.real[rows[40:48]] = -0.0
    fv[rows[48:56]] = complex(-0.0, -0.0)
    return pts, fv


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("m", [1, 400])
def test_quotient_table_is_the_row_wise_table_bit_for_bit(m, k):
    pts, fv = _hostile_stack(50 * m + k, max(m, 56), k)
    pts, fv = pts[:m], fv[:m]
    # C-ordered stacks, as the probes and divided_difference pass them,
    # Fortran-ordered ones and reversed ones; the reference takes the last
    # as contiguous copies, since numpy's complex abs runs another loop on
    # negative strides, which rounds some moduli the other way
    for P, F in ((pts, fv), (np.asfortranarray(pts), np.asfortranarray(fv)),
                 (pts[::-1, ::-1], fv[::-1, ::-1])):
        with np.errstate(all="ignore"):
            q, qerr = _quotient_table_err(F, P)
            want_q, want_err = quotient_table_err_rows(
                np.ascontiguousarray(F), np.ascontiguousarray(P))
        assert q.tobytes() == want_q.tobytes()
        assert qerr.tobytes() == want_err.tobytes()
        # the probe zeroes entries of q in place: it owns them
        assert not np.shares_memory(q, F) and not np.shares_memory(q, P)
    if m == 400:
        assert all(np.any(np.signbit(x) & (x == 0))
                   for x in (pts.real, pts.imag, fv.real, fv.imag))
        assert not np.all(np.isfinite(q)) and np.any(q == 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_divided_difference_is_the_row_wise_quotient(k):
    rng = np.random.default_rng(k)
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        points = scale * np.sort(rng.uniform(-1.0, 1.0, k)) + 0j
        # the roundoff bound, which divided_difference drops, overflows at
        # the smallest scales
        with np.errstate(all="ignore"):
            want = quotient_table_err_rows(np.conj(points)[None], points[None])[0]
            got = np.array([divided_difference(np.conj, points)])
        assert got.tobytes() == want.tobytes()


def _gap_rows(seed, k, block=3000):
    """Uniform rows, rows on a grid of pitch 0.05 (whose gaps round to either
    side of sep), rows with repeated entries and rows of tiny and -0.0
    entries."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(block, k))
    u[::4] = rng.integers(-20, 21, size=(len(u[::4]), k)) * 0.05
    u[1::8, -1] = u[1::8, 0]
    u[3::8] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 0.05, -0.05, 0.1],
                         size=(len(u[3::8]), k))
    return u


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("stratum", ["straddle", "left", "right"])
def test_pairwise_gap_mask_is_the_sorted_gap_mask(stratum, k):
    u = _gap_rows(k, k)
    for sep in (0.05, 0.025, 0.1, 1e-3, 0.0):
        ok = _acceptable(u, stratum, sep)
        want = sorted_gap_acceptable(u, stratum, sep)
        assert ok.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the sampler's stream contract: the same rng calls, the same rows


def _reference_sample_offsets(rng, stratum, count, k, lo, hi):
    """The row-wise sampler the seeded outputs were recorded with, plus a
    count of its rounds."""
    total_rounds = 0
    if count == 0:
        return np.zeros((0, k)), total_rounds
    out = np.zeros((count, k))
    have = 0
    sep = 0.05
    rounds = 0
    while have < count:
        total_rounds += 1
        rounds += 1
        if rounds > 100:
            sep *= 0.5  # keep terminating on very thin boxes
            rounds = 0
        u = rng.uniform(lo, hi, size=(4 * (count - have), k))
        if stratum == "straddle":
            ok = (u.min(axis=1) < -0.25 * sep) & (u.max(axis=1) > 0.25 * sep)
        elif stratum == "left":
            ok = u.max(axis=1) < 0.0
        else:
            ok = u.min(axis=1) > 0.0
        su = np.sort(u, axis=1)
        ok &= np.diff(su, axis=1).min(axis=1) >= sep
        good = u[ok]
        take = min(count - have, good.shape[0])
        out[have : have + take] = good[:take]
        have += take
    return out, total_rounds


def _stratum_has_room(stratum, k, lo, hi):
    """The probe's own test (regularity._probe) for a stratum it may use; the
    others it replaces, and the sampler would hardly ever finish on them."""
    if stratum == "left":
        return lo < -0.05 * k
    if stratum == "right":
        return hi > 0.05 * k
    return lo <= -0.25 * 0.05 and hi >= 0.25 * 0.05


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64)


def _assert_same_state(got, want):
    """Bit-generator states equal field by field (MT19937's key is an array)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_state(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


def _assert_same_stream(seed, stratum, count, k, lo, hi,
                        bit_generator=np.random.PCG64, cached=False):
    """The sampler and the reference, on two generators built alike, return
    the same rows and leave the same state; with ``cached``, a 32-bit draw
    first leaves half a word in the generator's cache, and the next 32-bit
    draws after the call agree too."""
    ref_rng, rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if cached:
        for g in (ref_rng, rng):
            g.integers(0, 1000, dtype=np.int32)
    want, rounds = _reference_sample_offsets(ref_rng, stratum, count, k, lo, hi)
    got = _sample_offsets(rng, stratum, count, k, lo, hi)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    _assert_same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    if cached:
        assert (rng.integers(0, 1000, size=5, dtype=np.int32).tolist()
                == ref_rng.integers(0, 1000, size=5, dtype=np.int32).tolist())
    return rounds


class _RecordingRng:
    """A generator that records the row count of each uniform draw: run
    through the reference, the rows of each of its rounds."""

    def __init__(self, seed):
        self.rng, self.rows = np.random.default_rng(seed), []

    def uniform(self, lo, hi, size):
        self.rows.append(size[0])
        return self.rng.uniform(lo, hi, size=size)


def _round_rows(seed, stratum, count, k, lo, hi):
    rec = _RecordingRng(seed)
    _reference_sample_offsets(rec, stratum, count, k, lo, hi)
    return rec.rows


_ORACLE_CASES = [(stratum, k, lo, hi, count)
                 for stratum in ("straddle", "left", "right")
                 for k in range(2, 7)
                 for lo, hi in ((-1.0, 1.0), (-1.0, 0.03), (-0.3, 1.0))
                 for count in (0, 1, 7, 500)
                 if _stratum_has_room(stratum, k, lo, hi)]


@pytest.mark.parametrize("stratum,k,lo,hi,count", _ORACLE_CASES)
def test_sample_offsets_keeps_the_reference_stream(stratum, k, lo, hi, count):
    _assert_same_stream(11 * k + count, stratum, count, k, lo, hi)


def test_sample_offsets_stream_survives_separation_halving():
    # a thin one-sided stratum of the corner_collision probes: the sampler
    # passes 100 rounds, so sep halves before the last rows are accepted
    rounds = _assert_same_stream(3, "left", 500, 5, -1.0, 1.0)
    assert rounds > 100


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS,
                         ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("stratum,count,k,lo,hi", [
    ("straddle", 7, 3, -1.0, 1.0),
    ("straddle", 40, 6, -1.0, 0.03),
    ("right", 40, 4, -0.3, 1.0),
    ("left", 500, 5, -1.0, 1.0),
])
def test_sample_offsets_stream_holds_for_every_bit_generator(
        bit_generator, cached, stratum, count, k, lo, hi):
    _assert_same_stream(5, stratum, count, k, lo, hi, bit_generator, cached)


# the sampler scans the stream in blocks of 4 * count rows, the first round's
# draw; these cases pin where the rounds fall against those blocks


def test_sample_offsets_stream_with_a_partly_used_last_block():
    args = ("right", 50, 5, -1.0, 1.0)
    rows = _round_rows(7, *args)
    assert len(rows) > 1 and sum(rows) % (4 * 50) != 0
    # some round spans two blocks
    ends = np.cumsum(rows)
    assert np.any(ends // 200 != (ends - np.array(rows)) // 200)
    _assert_same_stream(7, *args)


@pytest.mark.parametrize("seed", [37, 68])
def test_sample_offsets_stream_when_the_last_round_spans_two_blocks(seed):
    # the last round fills count in its second block (37) or in its first,
    # where the rest of the round is still drawn (68)
    args = ("left", 7, 3, -1.0, 1.0)
    rows = _round_rows(seed, *args)
    end = sum(rows)
    assert (end - rows[-1]) // 28 != (end - 1) // 28
    _assert_same_stream(seed, *args)


def test_sample_offsets_stream_with_a_wholly_used_block():
    # one round, exactly one block: nothing to put back
    rows = _round_rows(2, "straddle", 30, 3, -1.0, 1.0)
    assert rows == [120]
    _assert_same_stream(2, "straddle", 30, 3, -1.0, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_sample_offsets_stream_when_sep_halves_inside_a_block(seed):
    args = ("left", 100, 5, -1.0, 1.0)
    rows = _round_rows(seed, *args)
    assert len(rows) > 101
    halving = sum(rows[:100])  # rows drawn before round 101
    assert halving % (4 * 100) != 0
    for bit_generator in _BIT_GENERATORS:
        _assert_same_stream(seed, *args, bit_generator=bit_generator)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5),
       count=st.integers(0, 40), stratum=st.sampled_from(["straddle", "left", "right"]),
       lo=st.floats(-1.0, -0.3), hi=st.floats(0.3, 1.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sample_offsets_stream_property(seed, k, count, stratum, lo, hi):
    _assert_same_stream(seed, stratum, count, k, lo, hi)
