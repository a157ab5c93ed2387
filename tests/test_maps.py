import dataclasses
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from curvespec.curves import (
    CornerGraph,
    Interval,
    Line,
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
    DomainSpec,
    MAX_DIM,
    MIN_DIM,
    RECONSTRUCTION_RTOL,
    _batch_eig,
    _certified_normal,
    _decompose_rows,
    MatrixClass,
    default_window,
    matrix_to_json,
    random_unitary,
    sample,
    sample_batch,
    spectra_equal,
    spectral_decompose,
)
from curvespec.subspaces import line_distance
from oracles import sorted_spectrum


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


@pytest.mark.parametrize("curve", [real_line(), unit_circle_arc(0.0)], ids=["line", "arc"])
@pytest.mark.parametrize("n", range(MIN_DIM, MAX_DIM + 1))
def test_rho_returns_sampled_normal_rows_bit_for_bit(curve, n):
    Xs = sample_batch(curve, n, MatrixClass.NORMAL, np.random.default_rng(600 + n),
                      count=200)
    out = Rho().apply_batch(Xs)
    assert np.array_equal(out, Xs) and out is not Xs


@pytest.mark.parametrize("n", [3, 5, 8])
def test_rho_takes_the_eig_route_on_semisimple_rows_of_a_mixed_stack(n):
    # Rho maps the uncertified rows by rho(), whose stacked decomposition
    # takes the eig route on these rows: the output is rho()'s, bit for bit
    rng = np.random.default_rng(650 + n)
    normal = sample_batch(real_line(), n, MatrixClass.NORMAL, rng, count=30)
    semi = sample_batch(real_line(), n, MatrixClass.SEMISIMPLE, rng, count=30)
    assert not _certified_normal(semi).any()
    Xs = np.empty((60, n, n), dtype=complex)
    Xs[0::2], Xs[1::2] = normal, semi
    out = Rho().apply_batch(Xs)
    assert np.array_equal(out[0::2], normal)
    assert np.array_equal(out[1::2], np.array([rho(X) for X in semi]))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_rho_on_scaled_jordan_and_normal_rows(n):
    # over every scale, only a normal row is certified, and every other row
    # gives what rho() gives, bit for bit, or raises what it raises
    rng = np.random.default_rng(670 + n)
    J = np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    N = sample(real_line(), n, MatrixClass.NORMAL, rng)
    for k in range(-300, 151):
        for X, normal in ((J * 10.0**k, False), (N * 10.0**k, True)):
            certified = _certified_normal(X[None])[0]
            assert normal or not certified, k
            if normal and -150 <= k <= 150:
                assert certified, k
            got = _outcome_or_error(Rho().apply, X)
            if certified:
                assert np.array_equal(got, X), k
                continue
            want = _outcome_or_error(rho, X)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want), k
            else:
                assert np.array_equal(got, want), k


def test_certified_rows_are_accepted_by_rho_within_the_tolerance():
    # clustered spectra with a strictly upper perturbation: the commutator
    # is second order in the perturbation, and Henrici's bound is nearly
    # attained; rho() accepts every certified row, and moves it by at most
    # the departure, within the reconstruction tolerance
    rng = np.random.default_rng(690)
    certified = 0
    for _ in range(3000):
        n = int(rng.integers(MIN_DIM, MAX_DIM + 1))
        lam = 10 ** rng.uniform(-9.0, 0.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lam += rng.standard_normal() + 1j * rng.standard_normal()
        U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        U *= 10 ** rng.uniform(-8.0, -6.0) * np.linalg.norm(lam) / np.linalg.norm(U)
        Q = random_unitary(n, rng)
        X = Q @ (np.diag(lam) + U) @ Q.conj().T
        if _certified_normal(X[None])[0]:
            certified += 1
            assert np.array_equal(Rho().apply(X), X)
            dist = np.linalg.norm(rho(X) - X)
            assert dist <= 2 * RECONSTRUCTION_RTOL * np.linalg.norm(X), n
    assert certified >= 100


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(3, 5),
    mclass=st.sampled_from(list(MatrixClass)),
    k=st.integers(-12, 12),
    log_gap=st.none() | st.floats(-9.0, -5.5),
)
@settings(max_examples=80, deadline=None)
def test_rho_and_order_map_commute_with_scaling(seed, n, mclass, k, log_gap):
    # rho and the ordering map are homogeneous of degree one on their whole
    # domain, small and large matrices included; a pair at gap 10**log_gap
    # straddles the merge threshold 1e-7 * max(1, ||X||) on one side of the
    # scaling and the reconstruction tolerance 1e-7 * ||X|| on the other
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


def _rho_outcome(Xs):
    try:
        return rho(Xs).tobytes()
    except Exception as exc:  # the outcome compared is the error's type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rho_of_a_stack_is_rho_of_each_row_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    Xs = np.concatenate([sample_batch(real_line(), n, c, rng, count=20)
                         for c in MatrixClass])
    Xs = Xs[rng.permutation(len(Xs))]
    Xs[5] = np.diag(np.arange(n) * 1e-9)  # a row the retry ladder serves
    assert rho(Xs).tobytes() == b"".join(rho(X).tobytes() for X in Xs)
    # a stack raises what its earliest failing row raises alone, whatever
    # the kind of the later one's error
    jordan = np.eye(n) + np.diag(np.ones(n - 1), 1)
    huge, nan = 1e200 * Xs[0], np.full((n, n), np.nan)
    for first, later in itertools.permutations((jordan, huge, nan), 2):
        Ys = Xs.copy()
        Ys[7], Ys[13] = first, later
        assert _rho_outcome(Ys) == _rho_outcome(first)
    assert rho(Xs[:0]).shape == (0, n, n)


_CURVES = {"real line": real_line(), "line": Line(0j, np.exp(0.3j)),
           "corner": CornerGraph(-1.0, 1.0)}


@pytest.mark.parametrize("curve", list(_CURVES))
@pytest.mark.parametrize("mclass", list(MatrixClass))
@pytest.mark.parametrize("n", [3, 5])
def test_rho_relations_hold_within_the_perturbation_bound(curve, mclass, n):
    """Unitary covariance, rho(U X U*) = U rho(X) U*, and, on the real line,
    translation, rho(X + dI) = rho(X) + dI for real d, within
    64 n eps kappa(B)^2 ||X||_F (||X||_F + |d| sqrt(n) for translation).

    The bound: rho(X) = (B conj(L) B^-1)* for X = B L B^-1.  To first order
    a change dX moves B conj(L) B^-1 by B (F o (B^-1 dX B)) B^-1, where F
    holds the divided differences of conj on the spectrum, of modulus 1
    (and each eigenvalue's change is conjugated, of the same modulus); so
    the change is at most kappa(B)^2 ||dX||_F.  The rounding of each side
    (forming U X U* or X + dI, the eigensolve's backward error, the
    products) is such a dX, of a small multiple of n eps ||X||_F.  The
    largest ratio measured over these cells is about 7.5, on normal rows
    (kappa = 1); 64 leaves a margin of about 8.
    """
    rng = np.random.default_rng(1900 + 10 * n + list(_CURVES).index(curve))
    count = 50
    (Xs,), _ = DomainSpec(_CURVES[curve], n, mclass).sample(rng, count)
    kappa = np.linalg.cond(_decompose_rows(Xs)[0].B)
    eps = np.finfo(float).eps
    U = np.array([random_unitary(n, rng) for _ in range(count)])
    UH = U.conj().transpose(0, 2, 1)
    err = np.linalg.norm(rho(U @ Xs @ UH) - U @ rho(Xs) @ UH, axis=(1, 2))
    scale = np.linalg.norm(Xs, axis=(1, 2))
    assert np.all(err <= 64 * n * eps * kappa**2 * scale)
    if curve == "real line":
        d = rng.uniform(-10.0, 10.0, count)[:, None, None] * scale[:, None, None]
        dI = d * np.eye(n)
        err = np.linalg.norm(rho(Xs + dI) - (rho(Xs) + dI), axis=(1, 2))
        assert np.all(err <= 64 * n * eps * kappa**2 * (scale + np.abs(d[:, 0, 0]) * np.sqrt(n)))


@pytest.mark.parametrize("curve", list(_CURVES))
@pytest.mark.parametrize("mclass", list(MatrixClass))
@pytest.mark.parametrize("n", [3, 5])
def test_maps_commute_with_scaling_within_the_rounding_bound(curve, mclass, n):
    """Map covariance, F(cX) = c F(X) for c = 10^k, k in [-12, 12], on the
    three curves that X -> cX maps onto themselves, through apply_batch,
    within a bound of the rounding of each side, with an oblique frame T:

    - Conj and TransposeConj: 4 n eps kappa_F(T) ||cX||_F, with
      kappa_F(T) = ||T||_F ||T^-1||_F.  Forming cX rounds each entry by
      eps/2 relatively, and each of the two products of T Y T^-1 errs by
      at most n eps/2 ||T||_F ||Y||_F (and ||Y||_F ||T^-1||_F), so either
      side is within (2n + 1/2) eps kappa_F(T) ||cX||_F of c T X T^-1, and
      the scaling of F(X) adds eps/2 ||cF(X)||_F, at most eps/2
      kappa_F(T) ||cX||_F: (2n + 1) eps kappa_F(T) ||cX||_F in all.
    - OrderMap: 16 n^(3/2) eps kappa(T) kappa(B) ||cX||_F, as for the
      translation below: each side's spectrum is exact for a perturbation
      of a small multiple of n eps ||cX||_F, which moves each eigenvalue by
      kappa(B) times that (Bauer-Fike), and T diag(delta) T^-1 is at most
      kappa(T) ||delta||_2.  Both sides sort alike: each curve is a union
      of rays from 0, so c > 0 keeps every eigenvalue's place on it.
    - Rho: 64 n eps kappa(B)^2 ||cX||_F, as for its relations below (a
      normal row is returned as it is, so there both sides are cX).

    The largest ratios measured over seeds 0..19 of these cells were about
    0.3 (Conj, TransposeConj), 2.5 (OrderMap, on normal rows) and 2.1 (Rho,
    on semisimple rows), against the bounds' 4, 16 and 64.
    """
    curve_ = _CURVES[curve]
    rng = np.random.default_rng(2100 + 10 * n + list(_CURVES).index(curve)
                                + 3 * list(MatrixClass).index(mclass))
    (Xs,), _ = DomainSpec(curve_, n, mclass).sample(rng, 10)
    kappa = np.linalg.cond(_decompose_rows(Xs)[0].B)
    eps = np.finfo(float).eps
    T = random_unitary(n, rng) * rng.uniform(0.5, 2.0, n) @ random_unitary(n, rng)
    kappa_F = np.linalg.norm(T) * np.linalg.norm(np.linalg.inv(T))
    bounds = [(Conj(T), 4 * n * eps * kappa_F),
              (TransposeConj(T), 4 * n * eps * kappa_F),
              (OrderMap(curve_, T), 16 * n**1.5 * eps * np.linalg.cond(T) * kappa),
              (Rho(), 64 * n * eps * kappa**2)]
    scale = np.linalg.norm(Xs, axis=(1, 2))
    for k in range(-12, 13):
        c = 10.0**k
        for m, bound in bounds:
            err = np.linalg.norm(m.apply_batch(c * Xs) - c * m.apply_batch(Xs),
                                 axis=(1, 2))
            assert np.all(err <= bound * c * scale), (type(m).__name__, k)


@pytest.mark.parametrize("mclass", list(MatrixClass))
@pytest.mark.parametrize("n", [3, 5])
def test_order_map_translation_holds_within_the_perturbation_bound(mclass, n):
    """On the real line, OrderMap(X + dI) = OrderMap(X) + dI for real d,
    within 16 n^(3/2) eps kappa(T) kappa(B) (||X||_F + |d| sqrt(n)), for a
    unitary and an oblique frame T.

    The bound: OrderMap(X) = T diag(w) T^-1, with w the spectrum of X in
    curve order; X + dI has the spectrum w + d, in the same order, and the
    eigenvectors B of X.  Each side's computed spectrum is exact for a
    perturbation of a small multiple of n eps ||X + dI||_F, at most
    n eps (||X||_F + |d| sqrt(n)) (the eigensolve's backward error, and the
    rounding of forming X + dI), so by Bauer-Fike each eigenvalue moves by
    at most kappa(B) times that, and the n of them by sqrt(n) times that in
    the 2-norm; T diag(delta) T^-1 is at most kappa(T) ||delta||_2.  The
    products and the sum with dI round at a smaller multiple of eps.  Over
    seeds 0..39 of these cells the largest ratio measured is about 2.1, on
    normal rows at n = 3 with the unitary frame; 16 leaves a margin of about
    8.
    """
    rng = np.random.default_rng(2000 + 10 * n + list(MatrixClass).index(mclass))
    count = 50
    (Xs,), _ = DomainSpec(real_line(), n, mclass).sample(rng, count)
    kappa = np.linalg.cond(_decompose_rows(Xs)[0].B)
    eps = np.finfo(float).eps
    scale = np.linalg.norm(Xs, axis=(1, 2))
    d = rng.uniform(-10.0, 10.0, count) * scale
    dI = d[:, None, None] * np.eye(n)
    Q = random_unitary(n, rng)
    for T in (Q, Q * rng.uniform(0.5, 2.0, n) @ random_unitary(n, rng)):
        m = OrderMap(real_line(), T)
        err = np.linalg.norm(m.apply_batch(Xs + dI) - (m.apply_batch(Xs) + dI),
                             axis=(1, 2))
        bound = (16 * n**1.5 * eps * np.linalg.cond(T) * kappa
                 * (scale + np.abs(d) * np.sqrt(n)))
        assert np.all(err <= bound)


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
    batch route must match: the frame products, OrderMap's sorted spectrum
    (oracles.sorted_spectrum: the batch route must serve a row exactly
    when spectral_decompose accepts it), rho(), and a composition's parts
    in turn."""
    if isinstance(m, Conj):
        return m.T @ X @ m._Tinv
    if isinstance(m, TransposeConj):
        return m.T @ X.T @ m._Tinv
    if isinstance(m, OrderMap):
        return (m.T * sorted_spectrum(m.curve, X)) @ m._Tinv
    if isinstance(m, Rho):
        return rho(X)
    for p in m.parts:
        X = p.apply(X)
    return X


# Rho returns a certified row unchanged, where rho() takes the Schur route,
# whose result differs from X by the departure from normality, within
# RECONSTRUCTION_RTOL (see Rho); on every other row the two agree bit for bit
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
    "off_curve_then_defective": (real_line(), np.array([
        np.eye(3), _OFF_CURVE, [[0.2, 1.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.7]]])),
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
    want = np.array([(om.T * sorted_spectrum(curve, X)) @ om._Tinv for X in Xs])
    assert np.array_equal(om.apply_batch(Xs), want)


@pytest.mark.parametrize("n", [3, 5])
def test_order_map_batch_is_the_sorted_spectrum_on_every_route(n):
    # certified rows with a simple spectrum (the stacked eigensolve) among
    # rows of the stacked decomposition: clustered, near-normal, tiny and
    # skewed ones, and rows with -0.0 parts
    rng = np.random.default_rng(520 + n)
    om = OrderMap(real_line(), _random_frame(n, rng, 0.4))
    Q, S = random_unitary(n, rng), _random_frame(n, rng)
    lam = rng.uniform(-1.0, 1.0, n)
    rep = lam.copy()
    rep[1] = rep[0]
    near = np.diag(lam) + 1e-7 * np.triu(np.ones((n, n)), 1)
    signed = np.diag(lam).astype(complex)
    signed.imag[np.diag_indices(n)] = -0.0
    Xs = np.array([
        (Q * lam) @ Q.conj().T, (Q * rep) @ Q.conj().T, 1e-9 * (Q * lam) @ Q.conj().T,
        Q @ near @ Q.conj().T, S @ np.diag(lam) @ np.linalg.inv(S),
        S @ np.diag(rep) @ np.linalg.inv(S), signed, np.diag(rep + 0j),
    ])
    Xs = Xs[rng.permutation(len(Xs))]
    spectra = np.array([sorted_spectrum(om.curve, X) for X in Xs])
    (w, _), exc = _batch_eig(Xs, om.curve, vectors=False)
    assert exc is None and w.tobytes() == spectra.tobytes()
    want = np.array([(om.T * w) @ om._Tinv for w in spectra])
    assert om.apply_batch(Xs).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 5])
def test_batch_route_skips_the_stacked_decomposition_on_certified_stacks(n):
    # a stack whose every row the stacked eigensolve serves makes no call
    # of the stacked decomposition, empty or not, and keeps its bits
    rng = np.random.default_rng(540 + n)
    om = OrderMap(real_line(), _random_frame(n, rng, 0.4))
    Xs = sample_batch(real_line(), n, MatrixClass.NORMAL, rng, count=50)
    skewed = sample_batch(real_line(), n, MatrixClass.SEMISIMPLE, rng, count=1)
    assert _certified_normal(Xs).all() and not _certified_normal(skewed).any()
    with mock.patch("curvespec.spectral._decompose_rows", wraps=_decompose_rows) as dec:
        got = om.apply_batch(Xs)
        assert dec.call_count == 0
        mixed = om.apply_batch(np.concatenate([Xs, skewed]))
        assert dec.call_count == 1 and len(dec.call_args.args[0]) == 1
    want = np.array([(om.T * sorted_spectrum(om.curve, X)) @ om._Tinv
                     for X in np.concatenate([Xs, skewed])])
    assert got.tobytes() == want[:-1].tobytes()
    assert mixed.tobytes() == want.tobytes()


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
    X, Y = DomainSpec(
        real_line(), 3, MatrixClass.NORMAL, Interval(0.0, 1.0)).sample(rng, 1, 2)[0][:, 0]
    fx, fy = m.apply(X), m.apply(Y)
    assert spectra_equal(X, fx, max(1e-12, 1e-6 * np.linalg.norm(X)))
    comm = np.linalg.norm(fx @ fy - fy @ fx)
    assert comm <= max(1e-12, 1e-6 * np.linalg.norm(X) * np.linalg.norm(Y))


def test_rho_commutativity_on_semisimple_pairs():
    # the normal-operator commutation transfer behind the involution's claim
    rng = np.random.default_rng(77)
    for _ in range(10):
        X, Y = DomainSpec(
            unit_circle_arc(0.0), 3, MatrixClass.SEMISIMPLE).sample(rng, 1, 2)[0][:, 0]
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


@pytest.mark.parametrize("obj,message", [
    ({"variant": "conj"}, "malformed map JSON: missing 'T'"),
    ({"variant": "compose", "parts": [{"variant": "rho"}, 3]},
     "malformed map JSON: 'int' object is not subscriptable"),
    ({"variant": "compose", "parts": 3},
     "malformed map JSON: 'int' object is not iterable"),
])
def test_map_json_says_missing_only_for_a_missing_field(obj, message):
    with pytest.raises(ConfigError) as info:
        map_from_json(obj)
    assert str(info.value) == message


def test_map_json_malformed():
    with pytest.raises(ConfigError):
        map_from_json({"variant": "spiral"})
    with pytest.raises(ConfigError):
        map_from_json({"variant": "conj"})
    with pytest.raises(ConfigError):
        map_from_json({})
