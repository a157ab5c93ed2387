"""Matrix domain: spectral decompositions, class tests, and curve-spectrum sampling.

The decomposition routine clusters eigenvalues by single linkage, returns a
diagonalizing basis from which one idempotent per cluster is derived, and
refuses inputs that are defective beyond tolerance.  Normal inputs take a
Schur path so their idempotents come out exactly Hermitian; everything else
goes through an eigenvector basis guarded by condition-number and
reconstruction checks.  The batch route (_batch_eig) runs one stacked
eigensolve and admits only the rows this routine would accept.

Samplers draw spectra from a parameter window on a curve and conjugate a
Haar-unitary frame (optionally skewed by a well-conditioned S) around the
diagonal: _draw makes the rng calls, and _assemble the linear algebra on
(count, n, n) stacks.  The stacked LAPACK calls are what keeps large
randomized checks affordable on a single core; they equal the per-matrix
calls bit for bit, so draws made one at a time assemble as one stack.

Spectra are compared by one routine, _bottleneck: the optimal-matching
distance of a distance matrix, by bisection with a perfect-matching test.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import Curve, Interval, TAU, _real
from .errors import (
    ClosedCurveError,
    ConfigError,
    DefectiveMatrixError,
    NumericalDomainError,
    OffCurveError,
)

__all__ = [
    "MatrixClass",
    "SpectralDecomposition",
    "as_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "spectral_decompose",
    "random_unitary",
    "default_window",
    "sample",
    "sample_batch",
    "sample_commuting_pair_batch",
    "eigenflag",
    "spectra_equal",
    "spectral_bottleneck_distance",
]

MIN_DIM = 2
MAX_DIM = 12

# Relative thresholds for the decomposition guards.
NORMALITY_RTOL = 1e-8
CLUSTER_RTOL = 1e-7
RANK_RTOL = 1e-8
BASIS_COND_LIMIT = 1e8
RECONSTRUCTION_RTOL = 1e-7

_SAMPLE_COND_LIMIT = 20.0


# ---------------------------------------------------------------------------
# matrices as values


def as_matrix(X, *, name: str = "matrix") -> np.ndarray:
    """Validate and return a square complex matrix with 2 <= n <= 12."""
    A = np.asarray(X, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {A.shape}")
    n = A.shape[0]
    if not (MIN_DIM <= n <= MAX_DIM):
        raise ConfigError(f"{name} dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
    if not np.all(np.isfinite(A)):
        raise ConfigError(f"{name} has non-finite entries")
    return A


def matrix_to_json(X: np.ndarray) -> dict:
    X = np.asarray(X, dtype=complex)
    return {"n": int(X.shape[0]), "entries": np.stack((X.real, X.imag), -1).tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = obj["n"]
        if type(n) is not int:  # not bool or float, although True == 1
            raise TypeError(f"n must be an integer, got {n!r}")
        rows = obj["entries"]
        # each entry is exactly two JSON numbers, [re, im]
        A = np.array([[complex(_real(re), _real(im)) for re, im in row]
                      for row in rows], dtype=complex)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix JSON: {exc}") from None
    if A.shape != (n, n):
        raise ConfigError(f"matrix JSON claims n={n} but entries are {A.shape}")
    return as_matrix(A)


class MatrixClass(enum.Enum):
    """The sampled matrix classes: normal, and semisimple (diagonalizable);
    normal implies semisimple."""

    SEMISIMPLE = "semisimple"
    NORMAL = "normal"


def _is_normal(X: np.ndarray, norm_x: float) -> bool:
    comm = X @ X.conj().T - X.conj().T @ X
    return np.linalg.norm(comm) <= NORMALITY_RTOL * max(1.0, norm_x**2)


# ---------------------------------------------------------------------------
# clustering and the decomposition


def _cluster_components(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clusters at threshold tol, ordered by eigenvalue lex order."""
    m = values.size
    adj = np.abs(values[:, None] - values[None, :]) <= tol
    if np.count_nonzero(adj) == m and adj.diagonal().all():
        # a simple spectrum: the graph is its diagonal (which only a NaN
        # leaves out), so every value is a cluster of its own
        return list(np.lexsort((values.imag, values.real))[:, None])
    seen = np.zeros(m, dtype=bool)
    clusters = []
    for start in range(m):
        if seen[start]:
            continue
        # breadth-first sweep of the threshold graph
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


def _cluster_means(values: np.ndarray, clusters) -> np.ndarray:
    """Mean value of each cluster.

    A singleton's mean is its value plus 0.0, bit for bit: the mean turns
    a -0.0 real or imaginary part into 0.0 and leaves every other finite
    value as it is.
    """
    return np.array(
        [values[c[0]] + 0.0 if c.size == 1 else values[c].mean() for c in clusters]
    )


@dataclass(eq=False)
class SpectralDecomposition:
    """Clustered eigenvalues of X and a basis that diagonalizes X.

    X = basis diag(expanded()) basis_inv, with each cluster's columns
    contiguous; on the Schur route of a normal input basis_inv is the
    adjoint of basis.  The spectral idempotents are derived on first use:
    they resolve the identity, annihilate each other pairwise, and
    weighted by the eigenvalues reconstruct X.
    """

    distinct_eigenvalues: np.ndarray
    multiplicities: tuple
    basis: np.ndarray
    basis_inv: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.multiplicities)

    def expanded(self) -> np.ndarray:
        """Every eigenvalue, repeated by its multiplicity, in basis order."""
        return np.repeat(self.distinct_eigenvalues, self.multiplicities)

    @functools.cached_property
    def idempotents(self) -> np.ndarray:
        ends = np.cumsum(self.multiplicities)
        return np.array([
            self.basis[:, a:b] @ self.basis_inv[a:b, :]
            for a, b in zip(ends - self.multiplicities, ends)
        ])


def _resolve_cluster_tol(cluster_tol, norm_x: float) -> float:
    if cluster_tol is None:
        return CLUSTER_RTOL * max(1.0, norm_x)
    tol = float(cluster_tol)
    if tol <= 0.0 or not np.isfinite(tol):
        raise ConfigError(f"cluster_tol must be positive and finite, got {tol}")
    return tol


def spectral_decompose(X, cluster_tol=None) -> SpectralDecomposition:
    """Spectral decomposition of a semisimple-at-tolerance matrix.

    Eigenvalues are merged by single linkage at cluster_tol (default
    1e-7 * max(1, ||X||)); one idempotent is produced per cluster.  A merge
    moves X by about the gap it closes, which on a small X can exceed the
    reconstruction tolerance 1e-7 * ||X||; the thresholds
    min(cluster_tol, 1e-7 * ||X||) and 0 are then tried in turn, and the
    first decomposition that passes every guard is returned.  Raises the
    first threshold's DefectiveMatrixError when none does, that is when no
    adequately conditioned diagonalization exists.
    """
    X = as_matrix(X)
    with np.errstate(over="ignore"):
        norm_x = np.linalg.norm(X)
    if not np.isfinite(norm_x):
        # every relative tolerance below would be infinite or NaN
        raise NumericalDomainError("matrix norm overflows")
    tol = _resolve_cluster_tol(cluster_tol, norm_x)
    first = None
    # each distinct threshold once, in this order
    for t in dict.fromkeys((tol, min(tol, RECONSTRUCTION_RTOL * norm_x), 0.0)):
        try:
            return _decompose(X, t, norm_x)
        except DefectiveMatrixError as exc:
            first = first or exc
    raise first


def _decompose(X: np.ndarray, tol: float, norm_x: float) -> SpectralDecomposition:
    """spectral_decompose(X) with eigenvalues merged at tol."""
    if _is_normal(X, norm_x):
        out = _schur_decompose(X, tol, norm_x)
        if out is not None:
            return out
        # fall through: the Schur route can lose the reconstruction guard
        # for inputs sitting right on the normality threshold

    w, V = np.linalg.eig(X)
    clusters = _cluster_components(w, tol)
    blocks = []
    for cols in clusters:
        block = V[:, cols]
        if cols.size > 1:
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            if s[-1] < RANK_RTOL * s[0]:
                raise DefectiveMatrixError(
                    f"eigenspace for clustered value {w[cols].mean():.6g} has "
                    f"numerical rank below multiplicity {cols.size}"
                )
            block = u
        blocks.append(block)
    B = np.hstack(blocks)
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > BASIS_COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector basis condition number exceeds {BASIS_COND_LIMIT:.0e}"
        )
    Binv = np.linalg.inv(B)
    values = _cluster_means(w, clusters)
    mults = tuple(int(c.size) for c in clusters)
    dec = SpectralDecomposition(values, mults, B, Binv)
    recon = (B * dec.expanded()[None, :]) @ Binv
    if np.linalg.norm(recon - X) > RECONSTRUCTION_RTOL * max(norm_x, 1e-300):
        raise DefectiveMatrixError(
            "diagonalization fails to reconstruct the input at tolerance"
        )
    return dec


def _no_sort(x):
    """zgees's eigenvalue-selection callback; unused, as nothing is sorted."""
    return None


@functools.cache
def _zgees():
    """LAPACK zgees, from scipy's compiled extension scipy.linalg._flapack.

    The extension is loaded on its own, under its full name, unless it is
    loaded already.  A later import of scipy.linalg reuses that module, so
    its lapack.zgees is this same function.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        found = importlib.machinery.PathFinder.find_spec(
            "_flapack", [os.path.join(d, "linalg") for d in scipy_dirs])
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].zgees


@functools.cache
def _zgees_lwork(n: int) -> int:
    """zgees's optimal workspace size, which depends on n alone."""
    return int(_zgees()(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2][0].real)


def _schur(X: np.ndarray):
    """Complex Schur form (T, Z) of X, as scipy.linalg.schur(X, output="complex").

    Calls LAPACK zgees once, with the workspace size queried once per n,
    where scipy.linalg.schur queries it on every call.  zgees comes from
    _zgees and not from scipy's lapack wrapper module: importing that runs
    the whole scipy.linalg package, 85 modules that cost about 0.3 s and
    26 MiB per process, for this one routine.
    """
    T, _, _, Z, _, info = _zgees()(_no_sort, X, lwork=_zgees_lwork(X.shape[0]))
    if info != 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z


def _schur_decompose(X: np.ndarray, tol: float, norm_x: float):
    T, Z = _schur(X)
    d = np.diag(T)
    clusters = _cluster_components(d, tol)
    perm = np.concatenate(clusters)
    B = Z[:, perm]
    values = _cluster_means(d, clusters)
    mults = tuple(int(c.size) for c in clusters)
    dec = SpectralDecomposition(values, mults, B, B.conj().T)
    recon = (B * dec.expanded()[None, :]) @ B.conj().T
    if np.linalg.norm(recon - X) > RECONSTRUCTION_RTOL * max(norm_x, 1e-300):
        return None
    return dec


def _batch_eig(Xs: np.ndarray, curve: Curve | None = None, vectors: bool = True):
    """The batch route of the spectral maps: one stacked eigensolve over a
    (N, n, n) stack, and the rows on which spectral_decompose would succeed.

    A row is fast when its eigenvalues w are pairwise farther apart than
    the default cluster tolerance and it passes the guard of a route of
    spectral_decompose: either ||X||_F^2 - sum |l_i|^2, which for a simple
    spectrum is the squared residual of the Schur route, is within the
    reconstruction tolerance, or its eigenvectors V pass the
    basis-condition and reconstruction guards.  Without vectors, eigvals
    serves every row, and eig only the rows the first guard turns away.

    Given a curve, the eigenvalues and eigenvectors of each fast row come
    in curve order (Curve.order).  When any fast row is off the curve, no
    row is fast.  The caller sends every other row to the per-matrix route,
    which raises at the first row its guards fail.

    Returns (fast, w, V, Vinv): the row mask and the eigenvalues, and with
    vectors the eigenvectors and their inverses on the fast rows.
    """
    n = Xs.shape[-1]
    if vectors:
        w, V = np.linalg.eig(Xs)
    else:
        w, V = np.linalg.eigvals(Xs), None
    D = np.abs(w[:, :, None] - w[:, None, :])
    D[:, np.arange(n), np.arange(n)] = np.inf
    # a row whose norm overflows is never fast: spectral_decompose refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(Xs, axis=(1, 2))
        departure = norms**2 - np.sum(np.abs(w) ** 2, axis=1)
    fast = np.isfinite(norms) & (
        D.min(axis=(1, 2)) > CLUSTER_RTOL * np.maximum(1.0, norms))
    near_normal = departure <= (RECONSTRUCTION_RTOL * norms) ** 2
    Vinv = None
    if V is None:
        fast &= near_normal
        # the other rows may still pass the eigenvector guards
        rest = np.flatnonzero(~fast)
        if rest.size:
            fast[rest], w[rest] = _batch_eig(Xs[rest])[:2]
    else:
        guarded = np.flatnonzero(fast & ~near_normal)
        sv = np.linalg.svd(V[guarded], compute_uv=False)
        with np.errstate(divide="ignore"):
            fast[guarded] = sv[:, 0] / sv[:, -1] <= BASIS_COND_LIMIT
        Vinv = np.empty_like(V)
        Vinv[fast] = np.linalg.inv(V[fast])
        guarded = guarded[fast[guarded]]
        recon = (V[guarded] * w[guarded][:, None, :]) @ Vinv[guarded]
        err = np.linalg.norm(recon - Xs[guarded], axis=(1, 2))
        fast[guarded] = err <= RECONSTRUCTION_RTOL * np.maximum(norms[guarded], 1e-300)
    if curve is not None and fast.any():
        try:
            order = curve.order(w[fast])
        except OffCurveError:
            fast[:] = False
        else:
            w[fast] = np.take_along_axis(w[fast], order, axis=1)
            if V is not None:
                V[fast] = np.take_along_axis(V[fast], order[:, None, :], axis=2)
                Vinv[fast] = np.take_along_axis(Vinv[fast], order[:, :, None], axis=1)
    return fast, w, V, Vinv


# ---------------------------------------------------------------------------
# sampling


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_frames(_ginibre(n, 1, rng))[0]


def _ginibre(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))


def _haar_frames(g: np.ndarray) -> np.ndarray:
    """The unitary QR factors of a Ginibre stack, phases fixed to make them Haar."""
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mod = np.abs(d)
    mod[mod == 0.0] = 1.0
    return q * (d / mod)[:, None, :]


def default_window(curve: Curve) -> Interval:
    """Bounded parameter window used when a sampler is given none."""
    dom = curve.domain
    if dom is None:
        return Interval(0.0, TAU, upper_closed=False)
    if dom.bounded:
        return dom
    lo = max(dom.lower, -1.0)
    hi = min(dom.upper, 1.0)
    return Interval(lo, hi)


def _resolve_window(curve: Curve, window) -> Interval:
    if window is None:
        return default_window(curve)
    if not isinstance(window, Interval):
        raise ConfigError("window must be an Interval")
    if not window.bounded:
        raise ConfigError("sampling window must be bounded")
    dom = curve.domain
    if dom is not None:
        lo_ok = window.lower > dom.lower or (
            window.lower == dom.lower
            and (dom.lower_closed or not window.lower_closed)
        )
        hi_ok = window.upper < dom.upper or (
            window.upper == dom.upper
            and (dom.upper_closed or not window.upper_closed)
        )
        if not (lo_ok and hi_ok):
            raise ConfigError(
                f"window {window} not contained in curve domain {dom}"
            )
    return window


def _draw_params(
    window: Interval, shape, rng: np.random.Generator
) -> np.ndarray:
    t = rng.uniform(window.lower, window.upper, size=shape)
    if not window.lower_closed:
        # an exact endpoint draw would fall outside an open window
        t[t == window.lower] = 0.5 * (window.lower + window.upper)
    return t


def _skew_frames(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned non-unitary frames S = I + 0.5 * Gaussian."""
    eye = np.eye(n)
    S = np.empty((count, n, n), dtype=complex)
    todo = np.arange(count)
    while todo.size:
        cand = eye + 0.5 * _ginibre(n, todo.size, rng) / np.sqrt(2.0)
        conds = np.linalg.cond(cand)
        good = conds <= _SAMPLE_COND_LIMIT
        S[todo[good]] = cand[good]
        todo = todo[~good]
    return S


class _Draw(NamedTuple):
    """Spectra lam (k, count, n), Ginibre stack G and skew frames S (None
    for the normal class) of count samples in k stacks."""

    lam: np.ndarray
    G: np.ndarray
    S: np.ndarray | None


def _draw(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None,
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


def _assemble(*draws: _Draw) -> np.ndarray:
    """The k sample stacks X (k, count, n, n) of the draws, in order, whose
    i-th samples share one eigenframe (so they commute); overflow as in _draw."""
    lam, G, S = zip(*draws)
    lam, G = np.concatenate(lam, axis=1), np.concatenate(G)
    S = None if S[0] is None else np.concatenate(S)
    Q = _haar_frames(G)
    with np.errstate(all="ignore"):
        X = (Q * lam[:, :, None, :]) @ Q.conj().transpose(0, 2, 1)
        if S is not None:
            X = S @ X @ np.linalg.inv(S)
        finite = np.isfinite(np.linalg.norm(X, axis=(-2, -1))).all()
    if not finite:
        raise NumericalDomainError("sample norm overflows")
    return X


def sample_batch(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None = None,
    count: int = 1,
) -> np.ndarray:
    """Stack of count independent samples with spectrum on the curve."""
    return _assemble(_draw(curve, n, matrix_class, rng, window, count))[0]


def sample(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None = None,
) -> np.ndarray:
    """One random matrix of the requested class with spectrum on the curve."""
    return sample_batch(curve, n, matrix_class, rng, window, count=1)[0]


def sample_commuting_pair_batch(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None = None,
    count: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (Xs, Ys) of commuting pairs sharing an eigenframe per index."""
    return tuple(_assemble(_draw(curve, n, matrix_class, rng, window, count, 2)))


# ---------------------------------------------------------------------------
# curve-ordered eigenstructure


def _curve_order(dec: SpectralDecomposition, curve: Curve) -> np.ndarray:
    """Cluster indices sorted along the oriented curve."""
    if curve.domain is None:
        raise ClosedCurveError("eigenvalue ordering requires a non-closed curve")
    return curve.order(dec.distinct_eigenvalues)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(v)))
    piv = v[j]
    return v * (piv.conjugate() / abs(piv))


def eigenflag(dec: SpectralDecomposition, curve: Curve) -> np.ndarray:
    """Eigenlines in curve order for a simple-spectrum decomposition: an
    (n, n) array whose k-th column is a unit vector spanning the line of
    the k-th eigenvalue, its largest entry made real and positive."""
    if any(m != 1 for m in dec.multiplicities):
        raise NumericalDomainError(
            "eigenflag requires a simple spectrum; "
            f"multiplicities are {dec.multiplicities}"
        )
    # column 0 of U spans the range of each rank-one idempotent
    U = np.linalg.svd(dec.idempotents[_curve_order(dec, curve)])[0]
    return np.column_stack([_fix_phase(u) for u in U[:, :, 0]])


# ---------------------------------------------------------------------------
# spectrum comparison


def _matchable(D: np.ndarray, t: float) -> bool:
    """Whether some perfect matching of rows to columns uses only D <= t.

    Kuhn's augmenting paths (see Hopcroft & Karp, SIAM J. Comput. 2(4),
    1973): O(n^3) at worst, which is ample for n <= 12.
    """
    nbrs = [[j for j, ok in enumerate(row) if ok] for row in (D <= t).tolist()]
    owner = [-1] * D.shape[1]

    def augment(i: int, seen: list) -> bool:
        for j in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * len(owner)) for i in range(len(nbrs)))


def _bottleneck(D: np.ndarray) -> float:
    """Optimal-matching distance of a square distance matrix: the least
    max D[i, p(i)] over permutations p."""
    # the optimum is one of the entries: binary search the sorted levels
    levels = np.unique(D)
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matchable(D, levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def spectral_bottleneck_distance(X, Y) -> float:
    """Optimal-matching distance between the two eigenvalue multisets
    (inf for matrices of different sizes)."""
    X = as_matrix(X, name="X")
    Y = as_matrix(Y, name="Y")
    if X.shape != Y.shape:
        return np.inf
    wx, wy = np.linalg.eigvals(X), np.linalg.eigvals(Y)
    return _bottleneck(np.abs(wx[:, None] - wy[None, :]))


def spectra_equal(X, Y, tol: float = 1e-9) -> bool:
    """Whether the eigenvalue multisets match within tol under optimal pairing."""
    d = spectral_bottleneck_distance(X, Y)
    return d < np.inf and d <= tol


def _batch_greedy_match_max(D: np.ndarray) -> np.ndarray:
    """Greedy matching maxima for a (N, n, n) distance stack (upper bounds)."""
    N, n, _ = D.shape
    work = D.copy()
    worst = np.zeros(N)
    rows = np.arange(N)
    for i in range(n):
        j = np.argmin(work[:, i, :], axis=1)
        worst = np.maximum(worst, work[rows, i, j])
        work[rows, :, j] = np.inf
    return worst
