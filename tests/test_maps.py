import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from curvespec.curves import (
    Interval,
    RealInterval,
    UnitCircleClosed,
    real_line,
    unit_circle_arc,
)
from curvespec.errors import (
    ClosedCurveError,
    ConfigError,
    DefectiveMatrixError,
    NumericalDomainError,
    OffCurveError,
)
from curvespec.maps import (
    Compose,
    Conj,
    OrderMap,
    Rho,
    TransposeConj,
    eigen_conj,
    map_from_json,
    rho,
)
from curvespec.spectral import (
    RECONSTRUCTION_RTOL,
    MatrixClass,
    default_window,
    matrix_to_json,
    random_unitary,
    sample,
    sample_batch,
    sample_commuting_pair_batch,
    spectra_equal,
    spectral_decompose,
)
from curvespec.subspaces import line_distance


def _random_frame(n, rng, scale=1.0):
    return np.eye(n) + scale * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(2.0)


def test_rho_skewed_rotation_oracle():
    X = np.array([[0.0, 2.0], [-0.5, 0.0]])
    expected = np.array([[0.0, 0.5], [-2.0, 0.0]])
    assert_allclose(rho(X), expected, atol=1e-12)


def test_rho_on_positive_frame_conjugate():
    rng = np.random.default_rng(8)
    for _ in range(5):
        Q = random_unitary(3, rng)
        R = Q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ Q.conj().T
        N = random_unitary(3, rng)
        X = R @ N @ np.linalg.inv(R)
        expected = np.linalg.inv(R) @ N @ R
        assert np.linalg.norm(rho(X) - expected) <= 1e-8 * np.linalg.norm(X)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_rho_fixes_normal_matrices(seed):
    rng = np.random.default_rng(seed)
    X = sample(UnitCircleClosed(), 3, MatrixClass.NORMAL, rng)
    assert np.linalg.norm(rho(X) - X) <= 1e-8 * np.linalg.norm(X)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_rho_is_an_involution(seed, n):
    rng = np.random.default_rng(seed)
    X = sample(real_line(), n, MatrixClass.SEMISIMPLE, rng, Interval(-1.0, 1.0))
    assert np.linalg.norm(rho(rho(X)) - X) <= 1e-6 * np.linalg.norm(X)


def test_rho_preserves_spectrum():
    rng = np.random.default_rng(17)
    X = sample(UnitCircleClosed(), 4, MatrixClass.SEMISIMPLE, rng)
    assert spectra_equal(X, rho(X), 1e-6 * np.linalg.norm(X))


def test_rho_defective_input_rejected():
    with pytest.raises(DefectiveMatrixError):
        rho(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(3, 5),
    mclass=st.sampled_from(list(MatrixClass)),
    k=st.integers(-12, 6),
    log_gap=st.none() | st.floats(-9.0, -5.5),
)
@settings(max_examples=80, deadline=None)
def test_rho_and_order_map_commute_with_scaling(seed, n, mclass, k, log_gap):
    # rho and the ordering map are homogeneous of degree one on their whole
    # domain, small matrices included; a pair at gap 10**log_gap straddles
    # the merge threshold 1e-7 * max(1, ||X||) on one side of the scaling
    # and the reconstruction tolerance 1e-7 * ||X|| on the other
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, n)
    if log_gap is not None:
        lam[1] = lam[0] + 10**log_gap
    Q = random_unitary(n, rng)
    X = (Q * lam) @ Q.conj().T
    if mclass is MatrixClass.SEMISIMPLE:
        R = (Q * rng.uniform(0.5, 2.0, n)) @ Q.conj().T
        X = R @ X @ np.linalg.inv(R)
    c = 10.0**k
    for m in (Rho(), OrderMap(real_line(), random_unitary(n, rng))):
        want = c * m.apply(X)
        got = m.apply(c * X)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), type(m).__name__


def test_eigen_conj_fixes_hermitian():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = g + g.conj().T
    assert np.linalg.norm(eigen_conj(H) - H) <= 1e-8 * np.linalg.norm(H)


def test_eigen_conj_diagonal():
    assert_allclose(eigen_conj(np.diag([1j, -1j])), np.diag([-1j, 1j]), atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_eigen_conj_is_rho_adjoint(seed):
    rng = np.random.default_rng(seed)
    X = sample(unit_circle_arc(0.0), 3, MatrixClass.SEMISIMPLE, rng)
    lhs = eigen_conj(X)
    rhs = rho(X).conj().T
    assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(X)


def test_order_map_sorts_diagonal():
    om = OrderMap(real_line(), np.eye(3))
    assert_allclose(om.apply(np.diag([3.0, 1.0, 2.0])), np.diag([1.0, 2.0, 3.0]), atol=1e-12)


def test_order_map_reversed_orientation():
    om = OrderMap(dataclasses.replace(real_line(), orientation=-1), np.eye(3))
    assert_allclose(om.apply(np.diag([3.0, 1.0, 2.0])), np.diag([3.0, 2.0, 1.0]), atol=1e-12)


def test_order_map_repeated_eigenvalues_contiguous():
    om = OrderMap(real_line(), np.eye(3))
    assert_allclose(om.apply(np.diag([5.0, 2.0, 2.0])), np.diag([2.0, 2.0, 5.0]), atol=1e-10)


def test_order_map_idempotent_in_action():
    rng = np.random.default_rng(4)
    T = _random_frame(3, rng, 0.5)
    om = OrderMap(real_line(), T)
    X = sample(real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0))
    once = om.apply(X)
    twice = om.apply(once)
    assert np.linalg.norm(twice - once) <= 1e-8 * np.linalg.norm(once)


def test_order_map_output_eigenspaces_are_input_independent():
    rng = np.random.default_rng(12)
    T = _random_frame(3, rng, 0.5)
    om = OrderMap(real_line(), T)
    outs = []
    for _ in range(2):
        X = sample(real_line(), 3, MatrixClass.SEMISIMPLE, rng, Interval(0.0, 1.0))
        dec = spectral_decompose(om.apply(X))
        order = np.argsort(dec.distinct_eigenvalues.real)
        lines = [dec.idempotents[k] for k in order]
        outs.append(lines)
    for Pa, Pb in zip(*outs):
        assert np.linalg.norm(Pa - Pb) < 1e-6


def test_order_map_off_curve_spectrum_rejected():
    om = OrderMap(real_line(), np.eye(2))
    with pytest.raises(OffCurveError):
        om.apply(np.diag([1.0 + 0.5j, 2.0]))


def test_order_map_defective_rejected():
    om = OrderMap(real_line(), np.eye(2))
    with pytest.raises(DefectiveMatrixError):
        om.apply(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_order_map_closed_curve_rejected():
    with pytest.raises(ClosedCurveError):
        OrderMap(UnitCircleClosed(), np.eye(2))


def test_transpose_conj_plain_transpose():
    tc = TransposeConj(np.eye(2))
    assert_allclose(tc.apply(np.array([[1.0, 2.0], [0.0, 3.0]])), np.array([[1.0, 0.0], [2.0, 3.0]]))


def test_transpose_conj_unfolds_as_conj_of_transpose():
    rng = np.random.default_rng(9)
    T = _random_frame(4, rng)
    tc = TransposeConj(T)
    cj = Conj(T)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert_allclose(tc.apply(X), cj.apply(X.T), atol=1e-12)


def test_conj_preserves_spectrum():
    rng = np.random.default_rng(6)
    T = _random_frame(3, rng)
    cj = Conj(T)
    X = sample(real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0))
    assert spectra_equal(X, cj.apply(X), 1e-6 * np.linalg.norm(X))


def test_ill_conditioned_frame_rejected():
    T = np.diag([1.0, 1e-11])
    with pytest.raises(ConfigError):
        Conj(T)
    with pytest.raises(ConfigError):
        TransposeConj(T)
    with pytest.raises(ConfigError):
        OrderMap(real_line(), T)


def test_dimension_mismatch_rejected():
    cj = Conj(np.eye(2))
    with pytest.raises(ConfigError):
        cj.apply(np.eye(3))


@pytest.mark.parametrize("k", range(3))
def test_batch_dimension_mismatch_rejected(k):
    m = _variant_pool(np.random.default_rng(k), n=2)[k]
    for Xs in (np.zeros((4, 3, 3)), np.zeros((0, 3, 3))):
        with pytest.raises(ConfigError, match="frame dimension 2"):
            m.apply_batch(Xs)


def test_compose_left_to_right():
    rng = np.random.default_rng(3)
    T = _random_frame(3, rng, 0.5)
    m = Compose((Conj(T), Rho()))
    X = sample(real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0))
    assert_allclose(m.apply(X), rho(Conj(T).apply(X)), atol=1e-10)


def test_compose_inverse_pair_is_identity():
    rng = np.random.default_rng(10)
    T = _random_frame(3, rng, 0.5)
    m = Compose((Conj(T), Conj(np.linalg.inv(T))))
    X = rng.standard_normal((3, 3))
    assert np.linalg.norm(m.apply(X) - X) <= 1e-8 * np.linalg.norm(X)


def test_compose_rho_rho_identity_on_semisimple():
    rng = np.random.default_rng(14)
    m = Compose((Rho(), Rho()))
    X = sample(real_line(), 4, MatrixClass.SEMISIMPLE, rng, Interval(0.0, 1.0))
    assert np.linalg.norm(m.apply(X) - X) <= 1e-6 * np.linalg.norm(X)


def test_compose_order_order_equals_order():
    rng = np.random.default_rng(15)
    T = _random_frame(3, rng, 0.5)
    om = OrderMap(real_line(), T)
    m = Compose((om, om))
    X = sample(real_line(), 3, MatrixClass.SEMISIMPLE, rng, Interval(0.0, 1.0))
    assert np.linalg.norm(m.apply(X) - om.apply(X)) <= 1e-7 * np.linalg.norm(X)


def test_compose_empty_rejected():
    with pytest.raises(ConfigError):
        Compose(())
    with pytest.raises(ConfigError):
        Compose((Rho(), "not a map"))


def test_compose_overflow_inside_is_numerical_and_bad_input_is_config():
    shear = Conj(np.array([[1.0, 1.0], [0.0, 1.0]]))
    m = Compose((shear, Conj(np.eye(2))))
    huge = np.array([[[1e308, 0.0], [1e308, 1.0]]], dtype=complex)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalDomainError, match="part 1 of 2"):
            m.apply_batch(huge)
    with pytest.raises(ConfigError, match="non-finite"):
        m.apply_batch(np.full((1, 2, 2), np.nan, dtype=complex))


def _variant_pool(rng, n=3, curve=None):
    curve = real_line() if curve is None else curve
    T = _random_frame(n, rng, 0.4)
    return [
        Conj(T),
        TransposeConj(T),
        OrderMap(curve, T),
        Rho(),
        Compose((OrderMap(curve, T), Rho(), Conj(T))),
    ]


@pytest.mark.parametrize("k", range(5))
def test_apply_batch_accepts_an_empty_stack(k):
    m = _variant_pool(np.random.default_rng(300 + k))[k]
    out = m.apply_batch(np.empty((0, 3, 3), dtype=complex))
    assert out.shape == (0, 3, 3)


@pytest.mark.parametrize("k", range(5))
def test_apply_batch_matches_sequential(k):
    rng = np.random.default_rng(100 + k)
    m = _variant_pool(rng)[k]
    Xs = sample_batch(
        real_line(), 3, MatrixClass.SEMISIMPLE, rng, Interval(0.0, 1.0), count=12
    )
    seq = np.array([m.apply(X) for X in Xs])
    bat = m.apply_batch(Xs)
    assert np.max(np.abs(seq - bat)) < 1e-9 * max(1.0, np.max(np.abs(seq)))


def _outcome(f, X):
    try:
        return f(X)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def _per_matrix(m, X):
    """The map on one matrix through its per-matrix route, which apply's
    batch route must match: the frame products, OrderMap's
    _sorted_spectrum (the stacked eigensolve must serve a row exactly when
    spectral_decompose accepts it), rho(), and a composition's parts in
    turn."""
    if isinstance(m, Conj):
        return m.T @ X @ m._Tinv
    if isinstance(m, TransposeConj):
        return m.T @ X.T @ m._Tinv
    if isinstance(m, OrderMap):
        return (m.T * m._sorted_spectrum(X)) @ m._Tinv
    if isinstance(m, Rho):
        return rho(X)
    for p in m.parts:
        X = p.apply(X)
    return X


# rho() takes the Schur route on a near-normal row, and its result differs
# from the batch route's by the departure from normality, which the batch
# route bounds by RECONSTRUCTION_RTOL (see Rho)
_PER_MATRIX_RTOL = {Rho: 2 * RECONSTRUCTION_RTOL}


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(3, 6),
    near_jordan=st.booleans(),
    log_a=st.floats(-7.5, -3.0),
    log_b=st.floats(-12.0, 0.0),
)
@settings(max_examples=80, deadline=None)
def test_apply_agrees_with_the_per_matrix_route_or_raises_alike(seed, n, near_jordan, log_a, log_b):
    rng = np.random.default_rng(seed)
    if near_jordan:
        # diagonal 1 + k*delta, log-uniform superdiagonal: near a Jordan block
        X = np.diag(1.0 + 10**log_a * np.arange(n)) + np.diag(
            np.full(n - 1, 10**log_b), 1
        )
    else:
        # normal, plus a strictly upper perturbation in its eigenframe
        lam = rng.uniform(-1.0, 1.0, n)
        U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        U *= 10 ** (log_b - 2.0) * np.linalg.norm(lam) / np.linalg.norm(U)
        Q = random_unitary(n, rng)
        X = Q @ (np.diag(lam) + U) @ Q.conj().T
    X = X.astype(complex)
    for m in _variant_pool(rng, n):
        want = _outcome(lambda Y: _per_matrix(m, Y), X)
        got = _outcome(m.apply, X)
        if isinstance(want, type) or isinstance(got, type):
            assert want is got, (type(m).__name__, want, got)
        elif isinstance(m, OrderMap):
            assert np.array_equal(got, want)
        else:
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= _PER_MATRIX_RTOL.get(type(m), 1e-9), (type(m).__name__, rel)


def _tied_stack(count=40):
    """Normal matrices whose eigenvalues 0.5 + 1e-4i and 0.5 - 1e-4i sit at
    one position on a real interval of tol 1e-3."""
    rng = np.random.default_rng(0)
    lam = np.diag([0.5 + 1e-4j, 0.5 - 1e-4j, 0.2])
    return np.array([Q @ lam @ Q.conj().T
                     for Q in (random_unitary(3, rng) for _ in range(count))])


_OFF_CURVE = np.diag([0.3 + 0.5j, 0.1, 0.7])
# (curve of the ordering maps, stack)
_STACKS = {
    "defective_then_off_curve": (real_line(), np.array([
        [[0.2, 1.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.7]], _OFF_CURVE])),
    "scaled_off_curve_rows": (real_line(), np.array([0.5 * _OFF_CURVE, _OFF_CURVE])),
    "tied_positions": (RealInterval(tol=1e-3), _tied_stack()),
}


def _outcome_or_error(f, X):
    try:
        return f(X)
    except Exception as exc:  # the error itself is the outcome compared
        return exc


@pytest.mark.parametrize("name", sorted(_STACKS))
def test_multi_row_apply_batch_agrees_or_raises_like_the_first_failing_row(name):
    curve, Xs = _STACKS[name]
    Xs = Xs.astype(complex)
    for m in _variant_pool(np.random.default_rng(7), curve=curve):
        bat = _outcome_or_error(m.apply_batch, Xs)
        for X in Xs:
            one = _outcome_or_error(m.apply, X)
            if isinstance(one, Exception):
                assert type(bat) is type(one), (type(m).__name__, bat, one)
                assert str(bat) == str(one), type(m).__name__
                break
        else:
            assert not isinstance(bat, Exception), (type(m).__name__, bat)
            seq = np.array([m.apply(X) for X in Xs])
            rel = np.linalg.norm(seq - bat, axis=(1, 2)) / np.linalg.norm(seq, axis=(1, 2))
            assert rel.max() <= 1e-9, (type(m).__name__, rel.max())


@pytest.mark.parametrize("curve", [real_line(), unit_circle_arc(0.0)],
                         ids=["line", "arc"])
@pytest.mark.parametrize("mclass", list(MatrixClass), ids=lambda c: c.value)
@pytest.mark.parametrize("n", range(3, 7))
def test_order_map_batch_is_the_sorted_spectrum_bit_for_bit(curve, mclass, n):
    # the batch eigenvalues are the per-matrix decomposition's, bit for bit,
    # which keeps every ordering map output the same on either route
    rng = np.random.default_rng(500 + n)
    om = OrderMap(curve, _random_frame(n, rng, 0.4))
    Xs = sample_batch(curve, n, mclass, rng, default_window(curve), count=100)
    want = np.array([(om.T * om._sorted_spectrum(X)) @ om._Tinv for X in Xs])
    assert np.array_equal(om.apply_batch(Xs), want)


def test_apply_batch_handles_repeated_eigenvalues():
    om = OrderMap(real_line(), np.eye(3))
    Xs = np.array([np.diag([5.0, 2.0, 2.0]), np.diag([1.0, 3.0, 2.0])], dtype=complex)
    bat = om.apply_batch(Xs)
    assert_allclose(bat[0], np.diag([2.0, 2.0, 5.0]), atol=1e-10)
    assert_allclose(bat[1], np.diag([1.0, 2.0, 3.0]), atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_all_variants_preserve_spectrum_and_commutativity(seed, k):
    rng = np.random.default_rng(seed)
    m = _variant_pool(rng)[k]
    (X,), (Y,) = sample_commuting_pair_batch(
        real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0), count=1
    )
    fx, fy = m.apply(X), m.apply(Y)
    assert spectra_equal(X, fx, max(1e-12, 1e-6 * np.linalg.norm(X)))
    comm = np.linalg.norm(fx @ fy - fy @ fx)
    assert comm <= max(1e-12, 1e-6 * np.linalg.norm(X) * np.linalg.norm(Y))


def test_rho_commutativity_on_semisimple_pairs():
    # the normal-operator commutation transfer behind the involution's claim
    rng = np.random.default_rng(77)
    for _ in range(10):
        (X,), (Y,) = sample_commuting_pair_batch(
            unit_circle_arc(0.0), 3, MatrixClass.SEMISIMPLE, rng, count=1
        )
        fx, fy = rho(X), rho(Y)
        comm = np.linalg.norm(fx @ fy - fy @ fx)
        assert comm <= 1e-6 * np.linalg.norm(X) * np.linalg.norm(Y)


@pytest.mark.parametrize("k", range(5))
def test_map_from_json_builds_each_variant(k):
    rng = np.random.default_rng(200 + k)
    m = _variant_pool(rng)[k]
    # the frame _variant_pool draws first, written out as JSON
    t = matrix_to_json(_random_frame(3, np.random.default_rng(200 + k), 0.4))
    order = {"variant": "order", "curve": {"kind": "real_interval"}, "T": t}
    text = json.dumps([
        {"variant": "conj", "T": t},
        {"variant": "transpose_conj", "T": t},
        order,
        {"variant": "rho"},
        {"variant": "compose", "parts": [order, {"variant": "rho"},
                                         {"variant": "conj", "T": t}]},
    ][k])
    back = map_from_json(json.loads(text))
    assert type(back) is type(m)
    X = sample(real_line(), 3, MatrixClass.SEMISIMPLE, rng, Interval(0.0, 1.0))
    assert_allclose(back.apply(X), m.apply(X), atol=1e-12)


def test_map_json_malformed():
    with pytest.raises(ConfigError):
        map_from_json({"variant": "spiral"})
    with pytest.raises(ConfigError):
        map_from_json({"variant": "conj"})
    with pytest.raises(ConfigError):
        map_from_json({})
