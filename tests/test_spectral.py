import ast
import collections
import gc
import itertools
import json
import sys
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from curvespec.checking import BlackBoxMap, ExternalProgramMap
from curvespec.classify import (
    _GAP_BAND,
    _holdout_residual,
    _recover_fixed_frame,
    _with_swaps,
    equivariance_test,
    reconstruct_conjugator,
)
from curvespec.curves import (
    TAU,
    CornerGraph,
    Interval,
    RealInterval,
    Segment,
    UnitCircleClosed,
    real_line,
    unit_circle_arc,
)
from curvespec.errors import (
    ConfigError,
    DefectiveMatrixError,
    MapProtocolError,
    NumericalDomainError,
    OffCurveError,
)
from curvespec import spectral
from curvespec.spectral import (
    _assemble,
    _bottleneck,
    _certified_normal,
    _cluster_components,
    _Draw,
    _draw_params,
    _ginibre,
    _resolve_window,
    _SAMPLE_COND_LIMIT,
    _cluster_means,
    _curve_order,
    _decompose_rows,
    _haar_frames,
    _matchable,
    _norms,
    _schur,
    _skew_frames,
    DomainSpec,
    BASIS_COND_LIMIT,
    CLUSTER_RTOL,
    MAX_DIM,
    MIN_DIM,
    RECONSTRUCTION_RTOL,
    MatrixClass,
    conditioned,
    default_window,
    eigenflag,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    reconstructs,
    sample,
    sample_batch,
    separated,
    spectra_equal,
    spectral_bottleneck_distance,
    spectral_decompose,
)
from curvespec.maps import FRAME_COND_LIMIT, Conj, OrderMap, rho
from curvespec.subspaces import line_distance
from oracles import fix_phase, is_orthogonal, joined, per_matrix_decompose, validate


def test_rotation_matrix_projectors():
    X = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    dec = spectral_decompose(X)
    assert dec.multiplicities == (1, 1)
    expected = {
        1j: 0.5 * np.array([[1.0, -1j], [1j, 1.0]]),
        -1j: 0.5 * np.array([[1.0, 1j], [-1j, 1.0]]),
    }
    for lam, P in zip(dec.distinct_eigenvalues, dec.idempotents):
        key = 1j if lam.imag > 0 else -1j
        assert abs(lam - key) < 1e-12
        assert_allclose(P, expected[key], atol=1e-12)
    assert is_orthogonal(dec)
    validate(dec, X)


def test_diagonal_with_repeated_eigenvalue():
    dec = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
    assert dec.multiplicities == (2, 1)
    assert_allclose(sorted(dec.distinct_eigenvalues, key=abs), [2.0, 5.0], atol=1e-12)
    by_val = {round(v.real): P for v, P in zip(dec.distinct_eigenvalues, dec.idempotents)}
    assert_allclose(by_val[2], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert_allclose(by_val[5], np.diag([0.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("cls", [MatrixClass.NORMAL, MatrixClass.SEMISIMPLE])
def test_decomposition_carries_its_basis(cls):
    X = sample(real_line(), 4, cls, np.random.default_rng(12))
    dec = spectral_decompose(X)
    B, Binv = dec.basis, dec.basis_inv
    assert np.array_equal(Binv, B.conj().T) == (cls is MatrixClass.NORMAL)
    assert_allclose((B * dec.expanded()) @ Binv, X, atol=1e-10)
    # one idempotent per cluster from the basis columns, derived once
    ends = np.cumsum(dec.multiplicities)
    for P, a, b in zip(dec.idempotents, ends - dec.multiplicities, ends):
        assert P.tobytes() == (B[:, a:b] @ Binv[a:b, :]).tobytes()
    assert dec.idempotents is dec.idempotents
    assert is_orthogonal(dec) == (cls is MatrixClass.NORMAL)


@pytest.mark.parametrize("lam", [[1e-8, 2e-8, 3e-8], [-0.3, -0.3 + 9e-8, 0.18]])
def test_small_normal_matrix_merges_less_until_it_reconstructs(lam):
    # merging the closest pair moves X by about its gap, more than the
    # reconstruction tolerance 1e-7 * ||X||: the pair stays two clusters
    Q = random_unitary(3, np.random.default_rng(4))
    X = (Q * np.array(lam)) @ Q.conj().T
    dec = spectral_decompose(X)
    assert dec.multiplicities == (1, 1, 1)
    assert_allclose(np.sort(dec.distinct_eigenvalues.real), lam, rtol=1e-8, atol=0)
    # the threshold of the first retry, 1e-7 * ||X||
    validate(dec, X, RECONSTRUCTION_RTOL * np.linalg.norm(X))


def test_nilpotent_jordan_block_is_defective():
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_near_defective_perturbation_is_rejected():
    # eigenvectors collapse as the off-diagonal coupling dominates the split
    X = np.array([[0.0, 1.0], [0.0, 1e-14]])
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(X)


_JORDAN = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=complex)


def test_overflowing_commutator_is_not_normal_and_does_not_warn():
    # the norm of the commutator of 1e150 J overflows, which a normal
    # matrix's would not: the normality test says no, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrixError):
            spectral_decompose(1e150 * _JORDAN)


@pytest.mark.parametrize("k", range(0, 151, 5))
def test_large_normal_matrix_takes_the_schur_route(k):
    # the commutator is taken on X / ||X||, whose roundoff cannot overflow
    # when squared, so a normal matrix of any finite norm tests normal
    N = sample(real_line(), 4, MatrixClass.NORMAL, np.random.default_rng(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = spectral_decompose(10.0**k * N)
    assert np.array_equal(dec.basis_inv, dec.basis.conj().T)


def _raises_and_frees_its_caller(call):
    """The type of the error that call() raises (None when it returns), and
    whether a local of the frame that catches it dies with that frame while
    the cyclic GC is off: whether no reference cycle through the error, its
    traceback or its context holds the frame and so its locals."""
    class Local:
        pass

    raised = [None]

    def caller():
        local = Local()
        try:
            call()
        except Exception as exc:
            raised[0] = type(exc)
        return weakref.ref(local)

    gc.collect()
    gc.disable()
    try:
        freed = caller()() is None
    finally:
        gc.enable()
    return raised[0], freed


@pytest.mark.parametrize("X", [np.diag([1e-8, 2e-8, 3e-8]), _JORDAN],
                         ids=["retried", "refused"])
def test_retry_leaves_no_reference_to_its_caller(X):
    # a retried threshold's error is kept without the traceback that would
    # hold the retry's frame, and so its caller's frame and locals, until
    # the cyclic GC runs; the Jordan block fails every threshold and raises
    error = None if X is not _JORDAN else DefectiveMatrixError
    assert _raises_and_frees_its_caller(lambda: spectral_decompose(X)) == (error, True)


# diag(3+1j, 1+1j, 0): off the real line, certified normal, so served by
# the stacked eigensolve
_OFF_REAL = np.diag([3 + 1j, 1 + 1j, 0])


def _raise_malformed_reply():
    argv = [sys.executable, str(Path(__file__).parent / "misbehaving_map.py"), "bool"]
    with ExternalProgramMap(argv) as ext:
        ext(np.eye(3))


def _swaps_off_the_curve():
    draw = DomainSpec(real_line(), 3, MatrixClass.NORMAL).draw(np.random.default_rng(1), 2)
    draw.lam[0, 1, 1] += 1j
    _with_swaps(draw, real_line(), np.array([0, 1]))


def _fails(X):
    raise ValueError("no")


def _failing_map():
    return BlackBoxMap(_fails, DomainSpec(real_line(), 3, MatrixClass.NORMAL))


# every other exit of a stacked route (spectral._first and the routes
# feeding it); spectral_decompose's is the retry test's "refused" case
_ROUTE_EXITS = {
    "eigenflag, not simple": (lambda: eigenflag(
        spectral_decompose(np.diag([2.0, 2.0, 5.0])), real_line()), NumericalDomainError),
    "eigenflag, off the curve": (lambda: eigenflag(
        spectral_decompose(np.diag([1j, 2.0, 3.0])), real_line()), OffCurveError),
    "rho": (lambda: rho(np.stack([np.eye(3), _JORDAN])), DefectiveMatrixError),
    "OrderMap, defective": (lambda: OrderMap(real_line(), np.eye(3)).apply_batch(
        np.stack([np.eye(3), _JORDAN])), DefectiveMatrixError),
    "OrderMap, off the curve": (lambda: OrderMap(real_line(), np.eye(3)).apply_batch(
        np.stack([np.eye(3), _OFF_REAL])), OffCurveError),
    "BlackBoxMap, a callable": (lambda: BlackBoxMap(_fails, None).apply_batch(
        _OFF_REAL[None]), ValueError),
    "BlackBoxMap, a replayed batch": (lambda: BlackBoxMap(
        OrderMap(real_line(), np.eye(3)), None).apply_batch(_OFF_REAL[None]), OffCurveError),
    "ExternalProgramMap": (_raise_malformed_reply, MapProtocolError),
    "_with_swaps": (_swaps_off_the_curve, OffCurveError),
    # the classifier's stages, whose exits merge the errors of their routes
    "equivariance_test": (lambda: equivariance_test(_failing_map(), 3), ValueError),
    "reconstruct_conjugator": (lambda: reconstruct_conjugator(_failing_map()), ValueError),
    "_holdout_residual": (lambda: _holdout_residual(
        _failing_map(), np.random.default_rng(1), lambda Xs: Xs), ValueError),
    "_recover_fixed_frame": (lambda: _recover_fixed_frame(
        _failing_map(), np.random.default_rng(1)), ValueError),
}


@pytest.mark.parametrize("case", sorted(_ROUTE_EXITS))
def test_no_stacked_route_error_keeps_its_caller_alive(case):
    call, error = _ROUTE_EXITS[case]
    assert _raises_and_frees_its_caller(call) == (error, True)


@pytest.mark.parametrize("n", range(MIN_DIM, MAX_DIM + 1))
def test_norms_are_the_per_matrix_norms_bit_for_bit(n):
    # every scale from subnormal to overflowing, real and complex rows, a
    # non-finite row and an empty stack; no warning on any of them
    rng = np.random.default_rng(900 + n)
    G = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
    G[::3] = G[::3].real
    Ms = G * 10.0 ** rng.uniform(-320.0, 200.0, 300)[:, None, None]
    Ms[7, 0, 1] = np.nan
    with np.errstate(all="ignore"):
        norms = np.array([np.linalg.norm(M) for M in Ms])
    assert np.isinf(norms).sum() > 10 and np.isnan(norms[7])
    # C-ordered rows, Fortran-ordered ones (X.T's, one or a stack of them)
    # and strided ones
    for stack in (Ms, Ms.transpose(0, 2, 1), Ms[3].T[None], Ms[::2, ::-1]):
        with np.errstate(all="ignore"):
            want = np.array([np.linalg.norm(M) for M in stack])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral._norms(stack)
            assert spectral._norms(stack[:0]).shape == (0,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("curve", [real_line(), unit_circle_arc(0.0)], ids=["line", "arc"])
@pytest.mark.parametrize("n", range(MIN_DIM, MAX_DIM + 1))
def test_sampled_normal_rows_are_certified_normal(curve, n):
    # Henrici's bound on a sample's roundoff commutator stays inside the
    # reconstruction tolerance: at most 0.36 of it over 2,000 samples a cell
    Xs = sample_batch(curve, n, MatrixClass.NORMAL, np.random.default_rng(700 + n),
                      count=1000)
    assert _certified_normal(Xs).all()


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_certificate_turns_away_every_other_row(n):
    rng = np.random.default_rng(800 + n)
    J = np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    N = sample(real_line(), n, MatrixClass.NORMAL, rng)
    Xs = np.array([
        *sample_batch(real_line(), n, MatrixClass.SEMISIMPLE, rng, count=20),
        *(J * 10.0**k for k in range(-300, 151, 10)),
        np.zeros((n, n)),
        1e160 * N,  # its norm overflows
        1e-170 * N,  # its norm underflows to zero
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _certified_normal(Xs).any()


def test_sample_normal_real_window():
    rng = np.random.default_rng(7)
    X = sample(real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0))
    assert np.linalg.norm(X - X.conj().T) < 1e-12
    w = np.linalg.eigvals(X)
    assert np.all(w.real > -1e-9) and np.all(w.real < 1 + 1e-9)
    assert np.max(np.abs(w.imag)) < 1e-9


def test_sample_unit_circle_normal_has_unimodular_spectrum():
    rng = np.random.default_rng(7)
    X = sample(UnitCircleClosed(), 3, MatrixClass.NORMAL, rng)
    w = np.linalg.eigvals(X)
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-9


def test_sample_semisimple_matches_request():
    rng = np.random.default_rng(11)
    X = sample(real_line(), 4, MatrixClass.SEMISIMPLE, rng, Interval(-2.0, 2.0))
    validate(spectral_decompose(X), X)
    w = np.linalg.eigvals(X)
    assert np.max(np.abs(w.imag)) < 1e-9 and np.max(np.abs(w.real)) <= 2 + 1e-9


def test_sample_unbounded_window_rejected():
    with pytest.raises(ConfigError):
        sample(
            real_line(),
            3,
            MatrixClass.NORMAL,
            np.random.default_rng(0),
            Interval(0.0, np.inf, upper_closed=False),
        )


def test_sample_window_must_sit_inside_domain():
    seg = Segment(0.0 + 0.0j, 1.0 + 1.0j)
    with pytest.raises(ConfigError):
        sample(seg, 2, MatrixClass.NORMAL, np.random.default_rng(0), Interval(0.0, 2.0))


def test_degenerate_window_rejected():
    with pytest.raises(ConfigError):
        Interval(0.5, 0.5)


def test_commuting_pair_small_commutator():
    rng = np.random.default_rng(1)
    X, Y = DomainSpec(
        real_line(), 3, MatrixClass.NORMAL, Interval(0.0, 1.0)).sample(rng, 1, 2)[0][:, 0]
    assert np.linalg.norm(X @ Y - Y @ X) < 1e-10


def test_commuting_pair_shares_an_eigenframe():
    rng = np.random.default_rng(5)
    X, Y = DomainSpec(
        real_line(), 2, MatrixClass.NORMAL, Interval(0.0, 1.0)).sample(rng, 1, 2)[0][:, 0]
    _, V = np.linalg.eig(X)
    off = np.linalg.inv(V) @ Y @ V
    assert np.linalg.norm(off - np.diag(np.diag(off))) < 1e-9


def test_commuting_pair_semisimple():
    rng = np.random.default_rng(9)
    X, Y = DomainSpec(
        UnitCircleClosed(), 4, MatrixClass.SEMISIMPLE).sample(rng, 1, 2)[0][:, 0]
    assert np.linalg.norm(X @ Y - Y @ X) <= 1e-9 * np.linalg.norm(X) * np.linalg.norm(Y)


def test_sample_determinism():
    a = sample_batch(
        real_line(), 3, MatrixClass.SEMISIMPLE, np.random.default_rng(42),
        Interval(0.0, 1.0), count=3,
    )
    b = sample_batch(
        real_line(), 3, MatrixClass.SEMISIMPLE, np.random.default_rng(42),
        Interval(0.0, 1.0), count=3,
    )
    assert np.array_equal(a, b)


def test_default_windows():
    assert default_window(UnitCircleClosed()) == Interval(0.0, 2 * np.pi, upper_closed=False)
    assert default_window(real_line()) == Interval(-1.0, 1.0)
    assert default_window(Segment(0.0j, 1.0 + 0.0j)) == Interval(0.0, 1.0)
    assert default_window(RealInterval(Interval(0.0, np.inf, upper_closed=False))) == Interval(0.0, 1.0)


def test_eigenflag_diagonal():
    dec = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
    flag = eigenflag(dec, real_line())
    assert_allclose(np.abs(flag), np.eye(3)[:, [1, 2, 0]], atol=1e-10)
    assert is_orthogonal(dec)


def test_eigenflag_repeated_eigenvalue_rejected():
    dec = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
    with pytest.raises(NumericalDomainError):
        eigenflag(dec, real_line())


def test_eigenflag_conjugated_lines():
    rng = np.random.default_rng(13)
    Q = random_unitary(3, rng)
    X = Q @ np.diag([1.0, 2.0, 3.0]) @ Q.conj().T
    dec = spectral_decompose(X)
    flag = eigenflag(dec, real_line())
    for i in range(3):
        assert line_distance(flag[:, i], Q[:, i]) < 1e-8


@given(perm=st.permutations(range(4)))
@settings(max_examples=24, deadline=None)
def test_eigenflag_equivariant_on_diagonal_models(perm):
    values = np.array([0.5, 1.5, 2.5, 3.5])
    dec = spectral_decompose(np.diag(values[list(perm)]))
    flag = eigenflag(dec, real_line())
    # position k of the flag is the eigenline of the k-th smallest value
    for k in range(4):
        coord = list(perm).index(k)
        assert line_distance(flag[:, k], np.eye(4)[:, coord]) < 1e-10


def test_spectra_equal_reflexive_and_multiset():
    X = np.array([[1.0, 3.0], [0.0, 2.0]])
    assert spectra_equal(X, X)
    assert spectra_equal(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert not spectra_equal(np.diag([1.0, 2.0]), np.diag([1.0, 2.5]), tol=1e-6)


def test_spectra_equal_needs_optimal_matching():
    # greedy pairing gives max distance 0.6 here; the optimal pairing gives 0.35
    a = -0.1875 + 1j * np.sqrt(0.1225 - 0.0125**2)
    X = np.diag([0.0, a])
    Y = np.diag([0.3, -0.2])
    d = spectral_bottleneck_distance(X, Y)
    assert abs(d - 0.35) < 1e-9
    assert spectra_equal(X, Y, tol=0.4)
    assert not spectra_equal(X, Y, tol=0.3)


def test_bottleneck_distance_dimension_mismatch():
    assert spectral_bottleneck_distance(np.eye(2), np.eye(3)) == np.inf
    assert not spectra_equal(np.eye(2), np.eye(3))


def _brute_bottleneck(D):
    """min over permutations p of max_i D[i, p(i)]."""
    n = D.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return D[np.arange(n), perms].max(axis=1).min()


# eigenvalues on a coarse lattice: repeated values and exactly tied
# distances are the common case, not the exception
_lattice = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@given(
    data=st.data(),
    n=st.integers(1, 7),
)
@settings(max_examples=150, deadline=None)
def test_matchable_agrees_with_brute_force(data, n):
    D = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                             max_size=n),
                                    min_size=n, max_size=n)), dtype=float)
    t = data.draw(st.integers(0, 3)) + data.draw(st.sampled_from([0.0, 0.5]))
    assert _matchable(D, t) == (_brute_bottleneck(D) <= t)
    assert _bottleneck(D) == _brute_bottleneck(D)


@given(
    data=st.data(),
    n=st.integers(2, 7),
)
@settings(max_examples=150, deadline=None)
def test_spectrum_matching_agrees_with_brute_force(data, n):
    wx = np.array(data.draw(st.lists(_lattice, min_size=n, max_size=n)))
    wy = np.array(data.draw(st.lists(_lattice, min_size=n, max_size=n)))
    X, Y = np.diag(wx), np.diag(wy)
    ex, ey = np.linalg.eigvals(X), np.linalg.eigvals(Y)
    D = np.abs(ex[:, None] - ey[None, :])
    best = _brute_bottleneck(D)
    assert spectral_bottleneck_distance(X, Y) == best
    # tolerances sitting exactly on a distance, and just either side of it
    tol = float(data.draw(st.sampled_from(sorted(set(D.ravel())))))
    for t in (tol, np.nextafter(tol, -np.inf), np.nextafter(tol, np.inf)):
        assert spectra_equal(X, Y, tol=t) == (best <= t)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(matrix_from_json(matrix_to_json(X)), X)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_matrix_json_text_is_the_entrywise_pairs(n):
    # the reference writes each entry as [re, im] Python floats
    rng = np.random.default_rng(n)
    odd = np.array([0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan, 1e308, 1 / 3])
    for X in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
              rng.choice(odd, (n, n)),
              rng.choice(odd, (n, n, 2)).view(complex)[..., 0]):
        want = {"n": n, "entries": [[[float(z.real), float(z.imag)] for z in row]
                                    for row in np.asarray(X, dtype=complex)]}
        for sort_keys in (False, True):
            assert (json.dumps(matrix_to_json(X), sort_keys=sort_keys)
                    == json.dumps(want, sort_keys=sort_keys))


def test_matrix_json_malformed():
    with pytest.raises(ConfigError):
        matrix_from_json({"n": 2, "entries": [[[0.0, 0.0]]]})
    with pytest.raises(ConfigError):
        matrix_from_json({"entries": []})
    with pytest.raises(ConfigError):  # json.loads reads "n": 1e999 as this
        matrix_from_json({"n": float("inf"), "entries": []})
    for n in (2.0, 2.9, "2", True):  # n is a JSON integer, nothing else
        with pytest.raises(ConfigError, match="n must be an integer"):
            matrix_from_json({"n": n, "entries": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})
    # an entry is exactly two JSON numbers, as a reply of a --map-cmd program too
    for entry in ([True, 0], [0, False], ["2", 0], [1, 0, "junk"], [1], 1, None):
        with pytest.raises(ConfigError, match="malformed matrix JSON"):
            matrix_from_json({"n": 2, "entries": [[[1, 0], entry], [[0, 0], [2, 0]]]})


_CURVES = [real_line(), UnitCircleClosed(), Segment(-1.0 + 0.0j, 1.0 + 1.0j), CornerGraph(-1.0, 1.0)]


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 5),
    which=st.integers(0, len(_CURVES) - 1),
    cls=st.sampled_from([MatrixClass.NORMAL, MatrixClass.SEMISIMPLE]),
)
@settings(max_examples=60, deadline=None)
def test_decomposition_invariants_on_samples(seed, n, which, cls):
    curve = _CURVES[which]
    rng = np.random.default_rng(seed)
    X = sample(curve, n, cls, rng)
    dec = spectral_decompose(X)
    validate(dec, X)
    if cls is MatrixClass.NORMAL:
        assert is_orthogonal(dec)
        for p in dec.idempotents:
            assert np.linalg.norm(p - p.conj().T) < 1e-8


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_normal_samples_have_orthogonal_eigenspaces(seed):
    rng = np.random.default_rng(seed)
    X = sample(real_line(), 4, MatrixClass.NORMAL, rng, Interval(0.0, 1.0))
    dec = spectral_decompose(X)
    for i in range(dec.num_clusters):
        for j in range(i + 1, dec.num_clusters):
            prod = dec.idempotents[i].conj().T @ dec.idempotents[j]
            assert np.linalg.norm(prod) < 1e-7


# ---------------------------------------------------------------------------
# the per-matrix decomposition shortcuts reproduce the plain routes bit for bit


def _bfs_clusters(values, tol):
    """Single-linkage clusters by a sweep of the threshold graph, ordered by
    the (real, imag) order of their means: _cluster_components without its
    simple-spectrum shortcut."""
    m = values.size
    adj = np.abs(values[:, None] - values[None, :]) <= tol
    seen = np.zeros(m, dtype=bool)
    clusters = []
    for start in range(m):
        if seen[start]:
            continue
        frontier = np.zeros(m, dtype=bool)
        frontier[start] = True
        comp = np.zeros(m, dtype=bool)
        while frontier.any():
            comp |= frontier
            frontier = (adj[frontier].any(axis=0)) & ~comp
        seen |= comp
        clusters.append(np.flatnonzero(comp))
    reps = [values[c].mean() for c in clusters]
    order = sorted(range(len(clusters)), key=lambda k: (reps[k].real, reps[k].imag))
    return [clusters[k] for k in order]


_coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _eigenvalue_sets(draw):
    """Values with exact ties, signed zeros, gaps of tol * (1 +- 1e-12)
    along a few directions, and random values; and the tolerance."""
    tol = draw(st.sampled_from([1e-9, 1e-7, 1e-3, 0.5]))
    vals = [complex(draw(_coord), draw(_coord))]
    for _ in range(draw(st.integers(1, 11))):
        base = vals[draw(st.integers(0, len(vals) - 1))]
        kind = draw(st.sampled_from(["tie", "gap", "random"]))
        if kind == "tie":
            vals.append(base)
        elif kind == "gap":
            gap = tol * draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]))
            step = draw(st.sampled_from([1, -1, 1j, -1j, np.exp(0.7j)]))
            vals.append(base + gap * step)
        else:
            vals.append(complex(draw(_coord), draw(_coord)))
    return np.array(vals), tol


@given(case=_eigenvalue_sets())
@settings(max_examples=300, deadline=None)
def test_cluster_components_match_the_graph_sweep(case):
    values, tol = case
    want = _bfs_clusters(values, tol)
    got = _cluster_components(values, tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    means = np.array([values[c].mean() for c in want])
    assert _cluster_means(values, got).tobytes() == means.tobytes()


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 12),
    kind=st.sampled_from(["normal", "general", "triangular-ties"]),
    fortran=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_schur_matches_scipy_bitwise(seed, n, kind, fortran):
    import scipy.linalg

    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "normal":
        U = random_unitary(n, rng)
        X = (U * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ U.conj().T
    elif kind == "general":
        X = G
    else:
        X = np.diag(rng.integers(-2, 3, n).astype(complex)) + np.triu(G, 1)
    if fortran:
        X = np.asfortranarray(X)
    T, Z = _schur(X)
    T0, Z0 = scipy.linalg.schur(X, output="complex")
    assert T.tobytes() == T0.tobytes() and Z.tobytes() == Z0.tobytes()


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 8),
    cls=st.sampled_from([MatrixClass.NORMAL, MatrixClass.SEMISIMPLE]),
)
@settings(max_examples=80, deadline=None)
def test_eigenflag_matches_one_svd_per_idempotent(seed, n, cls):
    curve = real_line()
    dec = spectral_decompose(sample(curve, n, cls, np.random.default_rng(seed)))
    # the range of each rank-one idempotent, one full SVD at a time
    cols = [fix_phase(np.linalg.svd(dec.idempotents[int(c)])[0][:, :1][:, 0])
            for c in _curve_order(dec, curve)]
    assert eigenflag(dec, curve).tobytes() == np.column_stack(cols).tobytes()


# ---------------------------------------------------------------------------
# the sampler record: DomainSpec.draw makes the rng calls, _assemble the
# linear algebra, and DomainSpec.sample both


def _reference_sample_spectra(curve, n, matrix_class, rng, window, count, k):
    """The sampler before it was split into _draw and _assemble, in one body."""
    window = _resolve_window(curve, window)
    ts = [_draw_params(window, (count, n), rng) for _ in range(k)]
    lams = [curve.eval_array(t.ravel()).reshape(count, n) for t in ts]
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mod = np.abs(d)
    mod[mod == 0.0] = 1.0
    Q = q * (d / mod)[:, None, :]
    stacks = [(Q * lam[:, None, :]) @ Q.conj().transpose(0, 2, 1) for lam in lams]
    if matrix_class is MatrixClass.NORMAL:
        return stacks
    S = np.empty((count, n, n), dtype=complex)
    todo = np.arange(count)
    while todo.size:
        g = rng.standard_normal((todo.size, n, n)) + 1j * rng.standard_normal(
            (todo.size, n, n))
        cand = np.eye(n) + 0.5 * g / np.sqrt(2.0)
        good = np.linalg.cond(cand) <= _SAMPLE_COND_LIMIT
        S[todo[good]] = cand[good]
        todo = todo[~good]
    Sinv = np.linalg.inv(S)
    return [S @ N @ Sinv for N in stacks]


_RECORD_CURVES = {
    "real-line": real_line(),
    "arc": unit_circle_arc(0.5),
    "corner": CornerGraph(-1.0, 1.0),
}
_CLASSES = [MatrixClass.NORMAL, MatrixClass.SEMISIMPLE]


class TestSamplerRecord:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("curve", sorted(_RECORD_CURVES))
    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.value)
    def test_record_is_the_samplers_stream_and_bits(self, cls, curve, n):
        curve = _RECORD_CURVES[curve]
        for count in (1, 2, 7, 40):
            seed = 1000 * n + count
            ref, rec, one = (np.random.default_rng(seed) for _ in range(3))
            want = _reference_sample_spectra(curve, n, cls, ref, None, count, 1)[0]
            X = _assemble(DomainSpec(curve, n, cls).draw(rec, count))
            got = sample_batch(curve, n, cls, one, None, count)
            assert X.shape == (1, count, n, n)
            assert X[0].tobytes() == want.tobytes() == got.tobytes()
            state = ref.bit_generator.state
            assert rec.bit_generator.state == state == one.bit_generator.state

    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.value)
    def test_pair_record_is_the_pair_samplers_stream_and_bits(self, cls):
        for curve in _RECORD_CURVES.values():
            ref, rec, one = (np.random.default_rng(7) for _ in range(3))
            want = _reference_sample_spectra(curve, 4, cls, ref, None, 9, 2)
            X = _assemble(DomainSpec(curve, 4, cls).draw(rec, 9, k=2))
            got = DomainSpec(curve, 4, cls).sample(one, 9, 2)[0]
            for i in range(2):
                assert X[i].tobytes() == want[i].tobytes() == got[i].tobytes()
            state = ref.bit_generator.state
            assert rec.bit_generator.state == state == one.bit_generator.state

    def test_domain_route_draws_what_sample_batch_samples(self):
        for cls in _CLASSES:
            dom = DomainSpec(unit_circle_arc(0.5), 5, cls)
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            X = _assemble(dom.draw(a, 6))
            assert X[0].tobytes() == sample_batch(dom.curve, 5, cls, b, None, 6).tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.value)
    def test_single_draws_assemble_as_one_stack(self, cls, n):
        for name, curve in _RECORD_CURVES.items():
            rng, dom = np.random.default_rng(n), DomainSpec(curve, n, cls)
            for k in (1, 2, 5, 20):
                draws = [dom.draw(rng, 1, 2) for _ in range(k)]
                X = _assemble(joined(draws))
                alone = [_assemble(d) for d in draws]
                assert X.tobytes() == np.concatenate(alone, axis=1).tobytes()

    def test_draw_keeps_the_spectra(self):
        curve = unit_circle_arc(0.5)
        draw = DomainSpec(curve, 4, MatrixClass.NORMAL).draw(np.random.default_rng(1), 3)
        X, Q = _assemble(draw), _haar_frames(draw.G)
        assert draw.lam.shape == (1, 3, 4) and draw.S is None
        for Xi, Qi, lam in zip(X[0], Q, draw.lam[0]):
            assert np.allclose(Qi.conj().T @ Qi, np.eye(4), atol=1e-12)
            assert np.allclose(Qi.conj().T @ Xi @ Qi, np.diag(lam), atol=1e-12)


# the samplers of the parent revision, verbatim (_draw as _parent_draw), for
# the record that DomainSpec.draw and DomainSpec.sample keep


def _parent_draw(
    curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window,
    count: int,
    k: int = 1,
) -> _Draw:
    """Every rng call of count samples in k stacks, in the samplers' order."""
    if not (MIN_DIM <= n <= MAX_DIM):
        raise ConfigError(f"dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
    window = _resolve_window(curve, window)
    ts = [_draw_params(window, (count, n), rng) for _ in range(k)]
    # refuse a sample whose norm, and so every relative tolerance, would
    # overflow, before anything downstream warns
    with np.errstate(all="ignore"):
        lam = np.array([curve.eval_array(t.ravel()).reshape(count, n) for t in ts])
        finite = np.isfinite(np.linalg.norm(lam, axis=-1)).all()
    if not finite:
        raise NumericalDomainError("sample spectrum norm overflows")
    G = _ginibre(n, count, rng)
    S = None if matrix_class is MatrixClass.NORMAL else _skew_frames(n, count, rng)
    return _Draw(lam, G, S)


def _parent_sample_batch(
    curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window=None,
    count: int = 1,
) -> np.ndarray:
    """Stack of count independent samples with spectrum on the curve."""
    return _assemble(_parent_draw(curve, n, matrix_class, rng, window, count))[0]


def _parent_sample_commuting_pair_batch(
    curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window=None,
    count: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (Xs, Ys) of commuting pairs sharing an eigenframe per index."""
    return tuple(_assemble(_parent_draw(curve, n, matrix_class, rng, window, count, 2)))


class TestDomainSpec:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("curve", sorted(_RECORD_CURVES))
    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.value)
    def test_draw_and_sample_keep_the_parent_samplers(self, cls, curve, k):
        curve = _RECORD_CURVES[curve]
        dom = DomainSpec(curve, 4, cls)
        for count in (1, 7, 1024):
            ref, drawn, sampled = (np.random.default_rng(count + k) for _ in range(3))
            if k == 1:
                want = (_parent_sample_batch(curve, 4, cls, ref, None, count),)
            else:
                want = _parent_sample_commuting_pair_batch(curve, 4, cls, ref, None, count)
            draw = dom.draw(drawn, count, k)
            X, lam = dom.sample(sampled, count, k)
            assert X.shape == (k, count, 4, 4) and lam.shape == (k, count, 4)
            assert _assemble(draw).tobytes() == X.tobytes() == np.array(want).tobytes()
            assert lam.tobytes() == draw.lam.tobytes()
            state = ref.bit_generator.state
            assert drawn.bit_generator.state == state == sampled.bit_generator.state

    @pytest.mark.parametrize("curve,n,window,message", [
        (real_line(), 1, None, "dimension 1 outside [2, 12]"),
        (real_line(), 13, None, "dimension 13 outside [2, 12]"),
        (real_line(), 3, (0.0, 1.0), "window must be an Interval"),
        (real_line(), 3, Interval(0.0, np.inf, upper_closed=False),
         "sampling window must be bounded"),
        (unit_circle_arc(0.5), 3, Interval(0.0, 9.0),
         "window Interval(lower=0.0, upper=9.0, lower_closed=True, upper_closed=True) "
         "not contained in curve domain Interval(lower=0.5, upper=6.783185307179586, "
         "lower_closed=True, upper_closed=False)"),
    ])
    def test_refuses_a_bad_dimension_or_window_when_built(self, curve, n, window, message):
        for cls in _CLASSES:
            with pytest.raises(ConfigError) as info:
                DomainSpec(curve, n, cls, window)
            assert str(info.value) == message

    def test_one_class_under_every_name(self):
        import curvespec
        import curvespec.checking

        assert curvespec.DomainSpec is curvespec.checking.DomainSpec is DomainSpec

    def test_refuses_a_window_whose_width_overflows(self):
        with pytest.raises(ConfigError, match="sampling window width overflows"):
            DomainSpec(real_line(), 3, MatrixClass.NORMAL, Interval(-1e308, 1e308))


# ---------------------------------------------------------------------------
# the admission tests: conditioned, reconstructs and separated decide each
# guard of the parent revision as it did.  The parent's guard expressions,
# verbatim, each as a pass mask (the per-matrix guards raise, or return
# None, where theirs is False), run with warnings off; the admission tests
# run with warnings as errors.


def _parent_basis_cond(B):  # _decompose
    sv = np.linalg.svd(B, compute_uv=False)
    return not (sv[-1] == 0.0 or sv[0] / sv[-1] > BASIS_COND_LIMIT)


def _parent_frame_cond(T):  # maps._Framed.__post_init__
    sv = np.linalg.svd(T, compute_uv=False)
    return not (sv[-1] == 0.0 or sv[0] / sv[-1] > FRAME_COND_LIMIT)


def _parent_batch_cond(V):  # _batch_eig
    sv = np.linalg.svd(V, compute_uv=False)
    with np.errstate(divide="ignore"):
        return sv[:, 0] / sv[:, -1] <= BASIS_COND_LIMIT


def _parent_sample_cond(cand):  # _skew_frames
    conds = np.linalg.cond(cand)
    return conds <= _SAMPLE_COND_LIMIT


def _parent_conjugator_cond(T):  # classify.reconstruct_conjugator
    return np.linalg.cond(T) <= BASIS_COND_LIMIT


def _parent_recon(B, d, Binv, X, norm_x):  # _decompose and _schur_decompose
    recon = (B * d[None, :]) @ Binv
    return not (np.linalg.norm(recon - X) > RECONSTRUCTION_RTOL * max(norm_x, 1e-300))


def _parent_batch_recon(V, w, Vinv, Xs, norms):  # _batch_eig
    recon = (V * w[:, None, :]) @ Vinv
    err = np.linalg.norm(recon - Xs, axis=(1, 2))
    return err <= RECONSTRUCTION_RTOL * np.maximum(norms, 1e-300)


def _parent_batch_gap(w, norms):  # _batch_eig
    n = w.shape[-1]
    D = np.abs(w[:, :, None] - w[:, None, :])
    D[:, np.arange(n), np.arange(n)] = np.inf
    return np.isfinite(norms) & (
        D.min(axis=(1, 2)) > CLUSTER_RTOL * np.maximum(1.0, norms))


def _parent_certified_simple(lam):  # classify._certified_simple
    gaps = np.abs(lam[:, None] - lam[None, :])[~np.eye(lam.size, dtype=bool)]
    return bool(gaps.min() > (CLUSTER_RTOL + _GAP_BAND) * max(1.0, np.linalg.norm(lam)))


def _parent(f, *args):
    with np.errstate(all="ignore"):
        return f(*args)


def _strict(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def _near_singular_frames(n=3):
    """Frames whose condition numbers sweep 1 to 1e12 and straddle each
    limit closely, and the singular and overflowing ones."""
    rng = np.random.default_rng(5)
    limits = (_SAMPLE_COND_LIMIT, BASIS_COND_LIMIT, FRAME_COND_LIMIT)
    exps = np.concatenate([np.linspace(0.0, 12.0, 49), *(
        np.log10(c) + np.linspace(-1e-6, 1e-6, 41) for c in limits)])
    frames = []
    for e in exps:
        U, V = random_unitary(n, rng), random_unitary(n, rng)
        frames.append((U * np.geomspace(1.0, 10.0**-e, n)) @ V)
    frames += [np.diag([1.0, 1.0, 0.0]), np.zeros((n, n)),
               np.diag([1e200, 1.0, 1e-200]), np.diag([1e-300, 1e-300, 1e-310])]
    return np.array(frames, dtype=complex)


def _scaled_jordan_blocks():
    """Spectra and eigenvector bases of c * (J + delta * E), J a 3x3 Jordan
    block at 1: the basis condition grows like delta**(-2/3)."""
    rng = np.random.default_rng(7)
    J = np.eye(3) + np.diag([1.0, 1.0], 1)
    Xs = np.array([c * (J + delta * rng.standard_normal((3, 3)))
                   for c in (1e-3, 1.0, 1e6) for delta in np.geomspace(1e-16, 1e-2, 57)],
                  dtype=complex)
    return np.linalg.eig(Xs)


class TestAdmissionTests:
    def test_conditioned_decides_every_condition_guard_as_before(self):
        frames = _near_singular_frames()
        _, V = _scaled_jordan_blocks()
        for Ms in (frames, V):
            basis = _strict(conditioned, Ms)
            assert 0 < basis.sum() < len(Ms)
            assert np.array_equal(basis, _parent(_parent_batch_cond, Ms))
            for M, ok in zip(Ms, basis):
                assert _strict(conditioned, M[None])[0] == ok == _parent(_parent_basis_cond, M)
                assert ok == _parent(_parent_conjugator_cond, M)
                assert (_strict(conditioned, M[None], FRAME_COND_LIMIT)[0]
                        == _parent(_parent_frame_cond, M))
            sample = _strict(conditioned, Ms, _SAMPLE_COND_LIMIT)
            assert np.array_equal(sample, _parent(_parent_sample_cond, Ms))
        assert 0 < _strict(conditioned, frames, _SAMPLE_COND_LIMIT).sum() < len(frames)
        assert 0 < _strict(conditioned, frames, FRAME_COND_LIMIT).sum() < len(frames)

    @pytest.mark.parametrize("unitary", [False, True])
    def test_reconstructs_decides_every_reconstruction_guard_as_before(self, unitary):
        # bases whose inverse is off by a relative 1e-10 to 1e-4, which
        # straddles the tolerance 1e-7, at norms down to the 1e-300 floor
        rng = np.random.default_rng(11 + unitary)
        n, count = 4, 400
        B = np.array([random_unitary(n, rng) if unitary
                      else np.eye(n) + 0.3 * rng.standard_normal((n, n))
                      for _ in range(count)], dtype=complex)
        d = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        d *= np.repeat([1.0, 1e-150, 1e-305, 0.0], count // 4)[:, None]
        Binv = B.conj().transpose(0, 2, 1) if unitary else np.linalg.inv(B)
        Xs = (B * d[:, None, :]) @ Binv
        E = rng.standard_normal((count, n, n)) * np.geomspace(1e-10, 1e-4, count)[:, None, None]
        Binv = Binv @ (np.eye(n) + E)
        norms = np.linalg.norm(Xs, axis=(1, 2))
        ok = _strict(reconstructs, B, d, Binv, Xs, norms)
        assert 0 < ok.sum() < count
        assert np.array_equal(ok, _parent(_parent_batch_recon, B, d, Binv, Xs, norms))
        for i in range(count):
            norm_x = np.linalg.norm(Xs[i])
            got = _strict(reconstructs, B[i][None], d[i][None], Binv[i][None],
                          Xs[i][None], norm_x)[0]
            assert got == _parent(_parent_recon, B[i], d[i], Binv[i], Xs[i], norm_x)

    def test_separated_decides_every_gap_guard_as_before(self):
        # spectra {a, a + g, b} whose gap g straddles the merge threshold
        # closely, at norms from 1e-3 to 1e6, and rows whose norm overflows
        rng = np.random.default_rng(13)
        rows, lams = [], []
        for c in (1e-3, 1.0, 1e6):
            lam = c * np.array([0.3, 0.3, -0.7])
            for band in (0.0, _GAP_BAND):
                thr = (CLUSTER_RTOL + band) * max(1.0, np.linalg.norm(lam))
                for t in np.linspace(-1e-9, 1e-9, 41):
                    row = lam.astype(complex)
                    row[1] += thr * (1.0 + t) * np.exp(1j * rng.uniform(0, TAU))
                    (rows if band == 0.0 else lams).append(row)
        w = np.array(rows)
        norms = np.linalg.norm(w, axis=1) * rng.uniform(1.0, 1.0 + 1e-12, len(w))
        norms[:3] = np.inf
        ok = _strict(separated, w, norms)
        assert 0 < ok.sum() < len(w)
        assert np.array_equal(ok, _parent(_parent_batch_gap, w, norms))
        w_jordan, _ = _scaled_jordan_blocks()
        norms_jordan = np.geomspace(1e-2, 1e8, len(w_jordan))
        assert np.array_equal(_strict(separated, w_jordan, norms_jordan),
                              _parent(_parent_batch_gap, w_jordan, norms_jordan))
        # the classifier's certificate of a drawn spectrum (_simple_draws)
        lams = np.array(lams)
        simple = _strict(separated, lams, _norms(lams[:, None, :]), _GAP_BAND).tolist()
        assert 0 < sum(simple) < len(lams)
        assert simple == [_parent(_parent_certified_simple, lam) for lam in lams]

    def test_overflowing_frame_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="frame condition number exceeds 1e"):
                Conj(np.diag([1e200, 1e-200]))


_THRESHOLDS = ("CLUSTER_RTOL", "RECONSTRUCTION_RTOL", "BASIS_COND_LIMIT",
               "FRAME_COND_LIMIT", "_SAMPLE_COND_LIMIT")
_ADMISSION_TESTS = {"conditioned", "reconstructs", "separated"}


def _threshold_comparisons(src=Path(__file__).resolve().parents[1] / "src"):
    """Counter of (constant, function) over every comparison in the package
    that reads a threshold constant: a comparison that names it, a call
    that hands it to an admission test, and a parameter's default."""
    found = collections.Counter()

    def reads(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))} & set(_THRESHOLDS)

    def scan(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
                if isinstance(child, ast.FunctionDef):
                    for default in [*child.args.defaults, *child.args.kw_defaults]:
                        found.update((c, inner) for c in reads(default or ast.Pass()))
                scan(child, inner)
                continue
            if isinstance(child, ast.Compare):
                found.update((c, where) for c in reads(child))
            elif isinstance(child, ast.Call) and (getattr(child.func, "id", None) or getattr(
                    child.func, "attr", None)) in _ADMISSION_TESTS:
                for arg in [*child.args, *(k.value for k in child.keywords)]:
                    found.update((c, where) for c in reads(arg))
            scan(child, where)

    for path in sorted((src / "curvespec").glob("*.py")):
        scan(ast.parse(path.read_text()), "")
    return found


def test_each_threshold_is_compared_in_one_function():
    found = _threshold_comparisons()
    by_constant = {c: {f: k for (c2, f), k in found.items() if c2 == c} for c in _THRESHOLDS}
    assert by_constant == {
        "CLUSTER_RTOL": {"separated": 1},
        # the reconstruction guard is compared in reconstructs alone; the
        # departure from normality, a different test, is bounded by the same
        # tolerance once, in Henrici's certificate, which the batch route
        # (_batch_eig) and Rho share
        "RECONSTRUCTION_RTOL": {"reconstructs": 1, "_certified_normal": 1},
        "BASIS_COND_LIMIT": {"conditioned": 1},
        "FRAME_COND_LIMIT": {"_Framed.__post_init__": 1},
        "_SAMPLE_COND_LIMIT": {"_skew_frames": 1},
    }


def _raise_and_clear_functions(src=Path(__file__).resolve().parents[1] / "src"):
    """The functions of the package with a try whose body raises a name and
    whose finally sets that name to None."""
    found = []
    for path in sorted((src / "curvespec").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Try):
                    continue
                raised = {s.exc.id for s in node.body
                          if isinstance(s, ast.Raise) and isinstance(s.exc, ast.Name)}
                cleared = {t.id for s in node.finalbody if isinstance(s, ast.Assign)
                           and isinstance(s.value, ast.Constant) and s.value.value is None
                           for t in s.targets if isinstance(t, ast.Name)}
                if raised & cleared:
                    found.append(f"{path.stem}.{fn.name}")
    return found


def test_a_stacked_route_error_is_raised_in_one_function():
    assert _raise_and_clear_functions() == ["spectral._first"]


# ---------------------------------------------------------------------------
# the stacked decomposition against the per-matrix route it replaced


def _mixed_rows(rng, n: int, count: int) -> np.ndarray:
    """count matrices of size n, each of one of six kinds at a scale in
    1e-8..1e8: normal, near-normal, clustered, near-Jordan, skewed (from
    well to badly conditioned) and with an overflowing norm; one row is
    not finite, and one is triangular, with eigenvalues whose imaginary
    parts are -0.0."""
    rows = []
    for i in range(count):
        kind = i % 6
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = random_unitary(n, rng)
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == 0:
            X = (Q * lam) @ Q.conj().T
        elif kind == 1:
            # a strictly upper perturbation in the eigenframe, at the size of
            # the normality and reconstruction thresholds
            X = Q @ (np.diag(lam) + 10 ** rng.uniform(-11, -6) * np.triu(G, 1)) @ Q.conj().T
        elif kind == 2:
            lam[1] = lam[0] * (1 + 10 ** rng.uniform(-12, -6))
            S = np.eye(n) + rng.choice([0.0, 0.5]) * G
            X = S @ np.diag(lam) @ np.linalg.inv(S)
        elif kind == 3:
            # the first is a Jordan block
            spread, coupling = (10 ** rng.uniform(-9, -3), 10 ** rng.uniform(-8, 0)) if (
                i > kind) else (0.0, 1.0)
            X = np.diag(1.0 + spread * np.arange(n)) + np.diag(np.full(n - 1, coupling), 1)
        elif kind == 4:
            S = np.eye(n) + rng.choice([0.5, 3.0, 1e3, 1e5]) * G
            X = S @ np.diag(lam) @ np.linalg.inv(S)
        else:
            X = 1e200 * G
        rows.append(X if kind == 5 else 10 ** rng.uniform(-8, 8) * X)
    Xs = np.array(rows, dtype=complex)
    Xs[count // 2, 0, 0] = np.nan
    Xs[1] = np.triu(np.ones((n, n)), 1) + np.diag(np.arange(1.0, n + 1) - 0j)
    Xs[1].imag[np.diag_indices(n)] = -0.0
    return Xs


def _fields(dec):
    return (dec.distinct_eigenvalues.tobytes(), dec.multiplicities,
            dec.basis.tobytes(), dec.basis_inv.tobytes())


def _decomposed(f, X):
    try:
        return _fields(f(X))
    except Exception as exc:  # the outcome compared is the error's type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_decomposition_is_the_per_matrix_route_row_by_row(n):
    Xs = _mixed_rows(np.random.default_rng(2700 + n), n, 60)
    want = [_decomposed(per_matrix_decompose, X) for X in Xs]
    errors = {w[0] for w in want if isinstance(w[0], type)}
    assert errors == {ConfigError, DefectiveMatrixError, NumericalDomainError}
    # the one-row case, also on a matrix stored column by column
    assert [_decomposed(spectral_decompose, X) for X in Xs] == want
    assert [_decomposed(spectral_decompose, np.asfortranarray(X)) for X in Xs] == want
    # each stack decomposes its leading rows and reports the next row's
    # error; the rest of the stack is then decomposed on its own
    start = per_row = 0
    with mock.patch.object(spectral, "_decompose_row",
                           wraps=spectral._decompose_row) as route:
        while start < len(Xs):
            decs, exc = _decompose_rows(Xs[start:])
            k = len(decs.d)
            assert [_fields(decs.row(i)) for i in range(k)] == want[start: start + k]
            assert [decs.row(i).norm for i in range(k)] == [
                np.linalg.norm(X) for X in Xs[start: start + k]]
            if exc is None:
                assert start + k == len(Xs)
            else:
                assert (type(exc), str(exc)) == want[start + k]
            start += k + 1
        per_row = route.call_count
    # both routes ran on many rows
    assert min(per_row, len(Xs) - per_row) >= len(Xs) // 8
