import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from curvespec.curves import (
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
    NumericalDomainError,
)
from curvespec.checking import DomainSpec
from curvespec.spectral import (
    _assemble,
    _bottleneck,
    _cluster_components,
    _draw,
    _draw_params,
    _resolve_window,
    _SAMPLE_COND_LIMIT,
    _cluster_means,
    _curve_order,
    _fix_phase,
    _haar_frames,
    _matchable,
    _schur,
    RECONSTRUCTION_RTOL,
    MatrixClass,
    default_window,
    eigenflag,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    sample,
    sample_batch,
    sample_commuting_pair_batch,
    spectra_equal,
    spectral_bottleneck_distance,
    spectral_decompose,
)
from curvespec.subspaces import line_distance
from oracles import is_orthogonal, validate


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
    dec = spectral_decompose(np.diag([2.0, 2.0, 5.0]), cluster_tol=1e-8)
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


@pytest.mark.parametrize("lam,cluster_tol", [
    ([1e-8, 2e-8, 3e-8], None),
    ([-0.3, -0.3 + 9e-8, 0.18], None),
    # an explicit threshold is retried alike
    ([-0.3, -0.3 + 9e-8, 0.18], 1e-6),
])
def test_small_normal_matrix_merges_less_until_it_reconstructs(lam, cluster_tol):
    # merging the closest pair moves X by about its gap, more than the
    # reconstruction tolerance 1e-7 * ||X||: the pair stays two clusters
    Q = random_unitary(3, np.random.default_rng(4))
    X = (Q * np.array(lam)) @ Q.conj().T
    dec = spectral_decompose(X, cluster_tol)
    assert dec.multiplicities == (1, 1, 1)
    assert_allclose(np.sort(dec.distinct_eigenvalues.real), lam, rtol=1e-8, atol=0)
    # the threshold of the first retry, min(cluster_tol, 1e-7 * ||X||)
    validate(dec, X, RECONSTRUCTION_RTOL * np.linalg.norm(X))


def test_nilpotent_jordan_block_is_defective():
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_near_defective_perturbation_is_rejected():
    # eigenvectors collapse as the off-diagonal coupling dominates the split
    X = np.array([[0.0, 1.0], [0.0, 1e-14]])
    with pytest.raises(DefectiveMatrixError):
        spectral_decompose(X)


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
    (X,), (Y,) = sample_commuting_pair_batch(
        real_line(), 3, MatrixClass.NORMAL, rng, Interval(0.0, 1.0), count=1
    )
    assert np.linalg.norm(X @ Y - Y @ X) < 1e-10


def test_commuting_pair_shares_an_eigenframe():
    rng = np.random.default_rng(5)
    (X,), (Y,) = sample_commuting_pair_batch(
        real_line(), 2, MatrixClass.NORMAL, rng, Interval(0.0, 1.0), count=1
    )
    _, V = np.linalg.eig(X)
    off = np.linalg.inv(V) @ Y @ V
    assert np.linalg.norm(off - np.diag(np.diag(off))) < 1e-9


def test_commuting_pair_semisimple():
    rng = np.random.default_rng(9)
    (X,), (Y,) = sample_commuting_pair_batch(
        UnitCircleClosed(), 4, MatrixClass.SEMISIMPLE, rng, count=1
    )
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
    cols = [_fix_phase(np.linalg.svd(dec.idempotents[int(c)])[0][:, :1][:, 0])
            for c in _curve_order(dec, curve)]
    assert eigenflag(dec, curve).tobytes() == np.column_stack(cols).tobytes()


# ---------------------------------------------------------------------------
# the sampler record: _draw makes the rng calls, _assemble the linear algebra


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
            X = _assemble(_draw(curve, n, cls, rec, None, count))
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
            X = _assemble(_draw(curve, 4, cls, rec, None, 9, k=2))
            got = sample_commuting_pair_batch(curve, 4, cls, one, None, 9)
            for i in range(2):
                assert X[i].tobytes() == want[i].tobytes() == got[i].tobytes()
            state = ref.bit_generator.state
            assert rec.bit_generator.state == state == one.bit_generator.state

    def test_domain_route_draws_what_sample_batch_samples(self):
        for cls in _CLASSES:
            dom = DomainSpec(unit_circle_arc(0.5), 5, cls)
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            X = _assemble(dom._draw(a, 6))
            assert X[0].tobytes() == dom.sample_batch(b, 6).tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.value)
    def test_single_draws_assemble_as_one_stack(self, cls, n):
        for name, curve in _RECORD_CURVES.items():
            rng = np.random.default_rng(n)
            for k in (1, 2, 5, 20):
                draws = [_draw(curve, n, cls, rng, None, 1, 2) for _ in range(k)]
                X = _assemble(*draws)
                alone = [_assemble(d) for d in draws]
                assert X.tobytes() == np.concatenate(alone, axis=1).tobytes()

    def test_draw_keeps_the_spectra(self):
        curve = unit_circle_arc(0.5)
        draw = _draw(curve, 4, MatrixClass.NORMAL, np.random.default_rng(1), None, 3)
        X, Q = _assemble(draw), _haar_frames(draw.G)
        assert draw.lam.shape == (1, 3, 4) and draw.S is None
        for Xi, Qi, lam in zip(X[0], Q, draw.lam[0]):
            assert np.allclose(Qi.conj().T @ Qi, np.eye(4), atol=1e-12)
            assert np.allclose(Qi.conj().T @ Xi @ Qi, np.diag(lam), atol=1e-12)
