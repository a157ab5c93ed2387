"""Matrix domain: spectral decompositions, class tests, and curve-spectrum sampling.

The decomposition routine clusters eigenvalues by single linkage, returns a
diagonalizing basis from which one idempotent per cluster is derived, and
refuses inputs that are defective beyond tolerance.  Normal inputs take a
Schur path so their idempotents come out exactly Hermitian; everything else
goes through an eigenvector basis guarded by condition-number and
reconstruction checks.  It is written once, over stacks (_decompose_rows):
the rows whose spectrum is simple share one eigensolve, every other row
takes the per-row route, and spectral_decompose is the one-row case.  The
batch route of the maps (_batch_eig) runs one stacked eigensolve only on
the rows where it is the Schur route this routine would take (rows that
Henrici's bound certifies normal, with a simple spectrum), and sends
every other row to _decompose_rows in one call.

Each stacked route here returns a pair: the leading rows' results, bit
for bit as one row at a time, and the error that the next row raises alone
(None when every row goes through), without its traceback.  _first is the
one exit from the pair, and callers pass the pair straight through, as in
_first(*_decompose_rows(Xs)): the traceback of the error raised holds each
frame that it passes, so a frame that held the error would live on, and
with it every caller, until the cyclic GC runs.

The decomposition, the map frames, the sampler's skew frames and the
classifier admit a matrix by three tests, pass masks over stacks that a
per-matrix route calls on its one row: conditioned (singular-value ratio),
reconstructs (B diag(d) B^-1 against X) and separated (least eigenvalue
gap).

Every sample is drawn from a DomainSpec, which checks its dimension and
parameter window once, when it is built.  It draws spectra from the window
on a curve and conjugates a Haar-unitary frame (optionally skewed by a
well-conditioned S) around the diagonal: draw makes the rng calls, and
sample also does the linear algebra, on (count, n, n) stacks.  The stacked
LAPACK calls are what keeps large randomized checks affordable on a single
core; they equal the per-matrix calls bit for bit, so draws made one at a
time assemble as one stack.

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
    CurvespecError,
    DefectiveMatrixError,
    NumericalDomainError,
    OffCurveError,
)

__all__ = [
    "DomainSpec",
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


def _norms(Ms: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, bit for bit as
    np.linalg.norm gives it on the one matrix: the same dot products of
    the real and imaginary parts, over the entries in memory order, one
    vector-by-vector matmul each, where the norm over a stack's axes sums
    in another order.  A norm that overflows is inf, without a warning."""
    if not Ms.flags.c_contiguous and Ms.transpose(0, 2, 1).flags.c_contiguous:
        Ms = Ms.transpose(0, 2, 1)  # rows in Fortran order, such as X.T's
    v = Ms.reshape(len(Ms), 1, Ms.shape[-2] * Ms.shape[-1])
    re, im = v.real, v.imag
    with np.errstate(over="ignore", invalid="ignore"):
        sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def _is_normal(Xs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Whether each matrix commutes with its adjoint within NORMALITY_RTOL."""
    # scaled to norm at most 1, so that the commutator cannot overflow;
    # below norm 1 the division is exact
    A = Xs / np.maximum(1.0, norms)[:, None, None]
    AH = A.conj().transpose(0, 2, 1)
    return _norms(A @ AH - AH @ A) <= NORMALITY_RTOL


def _certified_normal(Xs: np.ndarray) -> np.ndarray:
    """The rows of a (N, n, n) stack whose departure from normality is at
    most RECONSTRUCTION_RTOL * ||X||_F, certified without an eigensolve by
    Henrici's bound dep_F(X)^2 <= sqrt((n^3 - n) / 12) * ||X*X - XX*||_F
    (Henrici, Numer. Math. 4 (1962) 24-40).

    The bound is evaluated on A = X / ||X||_F, whose commutator can neither
    overflow nor underflow to zero; a row whose norm is zero or not finite
    is never certified.  A certified row passes the normality test of
    spectral_decompose, and its departure, the reconstruction error of the
    Schur route at threshold 0, is within that route's guard.
    """
    n = Xs.shape[-1]
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(Xs, axis=(1, 2))
        A = Xs / norms[:, None, None]
        AH = A.conj().transpose(0, 2, 1)
        comm = np.linalg.norm(AH @ A - A @ AH, axis=(1, 2))
    return np.isfinite(norms) & (
        np.sqrt((n**3 - n) / 12) * comm <= RECONSTRUCTION_RTOL**2)


def _first(result, exc):
    """A stacked route's result, or its error raised (see the module docstring)."""
    if exc is None:
        return result
    try:
        raise exc
    finally:
        exc = None  # the raised error's traceback holds this frame


# ---------------------------------------------------------------------------
# admission tests: pass masks over stacks, each the one comparison of its
# threshold


def conditioned(Ms: np.ndarray, limit: float = BASIS_COND_LIMIT) -> np.ndarray:
    """Whether each matrix's singular-value ratio is at most limit; a singular
    one, or one whose ratio overflows, fails without a warning."""
    sv = np.linalg.svd(Ms, compute_uv=False)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return sv[:, 0] / sv[:, -1] <= limit


def reconstructs(B, d, Binv, Xs, norms) -> np.ndarray:
    """Whether B diag(d) Binv is within RECONSTRUCTION_RTOL * ||X|| of X."""
    err = np.linalg.norm((B * d[:, None, :]) @ Binv - Xs, axis=(1, 2))
    return err <= RECONSTRUCTION_RTOL * np.maximum(norms, 1e-300)


def separated(w: np.ndarray, norms, band: float = 0.0) -> np.ndarray:
    """Whether a spectrum's values lie pairwise farther apart than
    (CLUSTER_RTOL + band) * max(1, ||X||), which no overflowing norm passes."""
    D = np.abs(w[:, :, None] - w[:, None, :])
    n = w.shape[-1]
    D.reshape(len(D), n * n)[:, :: n + 1] = np.inf  # the diagonals
    return D.min(axis=(1, 2)) > (CLUSTER_RTOL + band) * np.maximum(1.0, norms)


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
    adjoint of basis.  norm is ||X||_F, the scale of the decomposition's
    tolerances and of its eigenvalues' curve order.  The spectral
    idempotents are derived on first use: they resolve the identity,
    annihilate each other pairwise, and weighted by the eigenvalues
    reconstruct X.
    """

    distinct_eigenvalues: np.ndarray
    multiplicities: tuple
    basis: np.ndarray
    basis_inv: np.ndarray
    norm: float

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


def spectral_decompose(X) -> SpectralDecomposition:
    """Spectral decomposition of a semisimple-at-tolerance matrix.

    Eigenvalues are merged by single linkage at 1e-7 * max(1, ||X||); one
    idempotent is produced per cluster.  A merge moves X by about the gap
    it closes, which on a small X can exceed the reconstruction tolerance
    1e-7 * ||X||; the thresholds 1e-7 * ||X|| and 0 are then tried in turn,
    and the first decomposition that passes every guard is returned.
    Raises the first threshold's DefectiveMatrixError when none does, that
    is when no adequately conditioned diagonalization exists.  This is the
    one-row case of the stacked decomposition, _decompose_rows.
    """
    return _first(*_decompose_rows(as_matrix(X)[None])).row(0)


class _Decompositions(NamedTuple):
    """Decompositions of the rows of a stack, stacked: each row's
    eigenvalues d, repeated by their multiplicities (SpectralDecomposition.
    expanded), its basis B and basis_inv Binv, its multiplicities and its
    norm."""

    d: np.ndarray
    B: np.ndarray
    Binv: np.ndarray
    mults: list
    norms: np.ndarray

    def row(self, i: int) -> SpectralDecomposition:
        m, d = self.mults[i], self.d[i]
        if len(m) < len(d):
            d = d[np.cumsum(m) - m]  # each cluster's first column
        return SpectralDecomposition(d, m, self.B[i], self.Binv[i], self.norms[i])


def _decompose_rows(Xs: np.ndarray):
    """The decompositions of the leading rows of a (N, n, n) stack whose
    matrices have a shape that as_matrix accepts, and the error that the
    next row raises, or None when every row decomposes: on each row what
    spectral_decompose returns or raises, bit for bit.

    A row that is not normal takes the eig route on the stack
    (_simple_rows) when its spectrum is simple at the first threshold.
    Every other row, and a row that fails a test there, takes the per-row
    route (_decompose_row) in row order: a normal row the Schur route, a
    clustered row the rank test, a failed row the retry ladder, and a row
    whose norm is not finite its error.
    """
    N, n = Xs.shape[0], Xs.shape[-1]
    # a row whose norm is not finite is refused by the per-row route
    with np.errstate(all="ignore"):
        norms = _norms(Xs)
        normal = _is_normal(Xs, norms)
    mults = [(1,) * n] * N
    rows = np.flatnonzero(np.isfinite(norms) & ~normal)
    if rows.size:
        rows, w, V, Vinv = _simple_rows(Xs, norms, rows)
        if rows.size == N:
            return _Decompositions(w, V, Vinv, mults, norms), None
    d = np.empty((N, n), dtype=complex)
    B = np.empty((N, n, n), dtype=complex)
    Binv = np.empty_like(B)
    if rows.size:
        d[rows], B[rows], Binv[rows] = w, V, Vinv
    per_row = np.ones(N, dtype=bool)
    per_row[rows] = False
    for i in np.flatnonzero(per_row).tolist():
        try:
            d[i], mults[i], B[i], Binv[i] = _decompose_row(Xs[i], norms[i], normal[i])
        except (CurvespecError, np.linalg.LinAlgError) as exc:
            return (_Decompositions(d[:i], B[:i], Binv[:i], mults[:i], norms[:i]),
                    exc.with_traceback(None))
    return _Decompositions(d, B, Binv, mults, norms), None


def _simple_rows(Xs: np.ndarray, norms: np.ndarray, rows: np.ndarray):
    """The eig route of _decompose on a simple spectrum, on the stack
    Xs[rows] of rows that are not normal: one eig, the eigenvalues in
    lexicographic order (the order of singleton clusters), separated at
    the first threshold, conditioned, one inv and reconstructs.

    Returns the rows that pass, their eigenvalues in that order, each its
    singleton cluster's mean (_cluster_means), their eigenvectors in that
    order, and the inverses.  No row passes when a stacked LAPACK call
    fails: the per-row route then meets that row's error in its place.
    """
    n = Xs.shape[-1]
    try:
        w, V = np.linalg.eig(Xs[rows])
        order = np.lexsort((w.imag, w.real), axis=-1)
        k = np.arange(rows.size)[:, None]
        w = w[k, order] + 0.0
        V = V[k[:, None], np.arange(n)[:, None], order[:, None, :]]
        ok = separated(w, norms[rows]) & conditioned(V)
        if not ok.all():
            rows, w, V = rows[ok], w[ok], V[ok]
            if not rows.size:
                return rows, None, None, None
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return rows[:0], None, None, None
    ok = reconstructs(V, w, Vinv, Xs[rows], norms[rows])
    if not ok.all():
        rows, w, V, Vinv = rows[ok], w[ok], V[ok], Vinv[ok]
    return rows, w, V, Vinv


def _decompose_row(X: np.ndarray, norm_x: float, normal: bool):
    """The per-row route of spectral_decompose: the retry ladder over
    _decompose, given X's norm and normality.  Returns the row that
    _decompose_rows stores: the eigenvalues repeated by their
    multiplicities, the multiplicities, the basis and its inverse."""
    if not np.isfinite(norm_x):
        as_matrix(X)  # a non-finite entry is a config error
        # every relative tolerance below would be infinite or NaN
        raise NumericalDomainError("matrix norm overflows")
    tol = CLUSTER_RTOL * max(1.0, norm_x)
    errors = []
    # each distinct threshold once, in this order
    for t in dict.fromkeys((tol, min(tol, RECONSTRUCTION_RTOL * norm_x), 0.0)):
        try:
            return _decompose(X, t, norm_x, normal)
        except DefectiveMatrixError as exc:
            # kept without its traceback, whose frames (this one, and so
            # its callers) would otherwise live until the cyclic GC runs
            errors.append(exc.with_traceback(None))
    return _first(None, errors.pop(0))  # popped: no local here holds it


def _decompose(X: np.ndarray, tol: float, norm_x: float, normal: bool):
    """The row (_decompose_row) of spectral_decompose(X) merged at tol."""
    if normal:
        T, Z = _schur(X)
        d = np.diag(T)
        clusters = _cluster_components(d, tol)
        B = Z[:, np.concatenate(clusters)]
        row = _admitted(d, clusters, B, B.conj().T, X, norm_x)
        if row is not None:
            return row
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
    if not conditioned(B[None])[0]:
        raise DefectiveMatrixError(
            f"eigenvector basis condition number exceeds {BASIS_COND_LIMIT:.0e}"
        )
    row = _admitted(w, clusters, B, np.linalg.inv(B), X, norm_x)
    if row is None:
        raise DefectiveMatrixError(
            "diagonalization fails to reconstruct the input at tolerance"
        )
    return row


def _admitted(values, clusters, B, Binv, X, norm_x):
    """The row (_decompose_row) of X by the basis B, each cluster's columns
    contiguous, and its inverse; or None when it does not reconstruct X."""
    mults = tuple(int(c.size) for c in clusters)
    d = np.repeat(_cluster_means(values, clusters), mults)
    if reconstructs(B[None], d[None], Binv[None], X[None], norm_x)[0]:
        return d, mults, B, Binv
    return None


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


def _batch_eig(Xs: np.ndarray, curve: Curve, vectors: bool = True):
    """The batch route of the spectral maps over a (N, n, n) stack: the
    leading rows' eigenvalues, as spectral_decompose gives them and each
    repeated by its multiplicity, in curve order (Curve.order at the scale
    ||X||) and their unit eigenvectors in that order (None without vectors)
    as a pair; and the error that the next row raises, or None.

    A row that _certified_normal certifies and whose eigenvalues are
    separated at the first threshold is exactly a row on which
    spectral_decompose takes the Schur route and finds a simple spectrum:
    one eig of those rows (eigvals without vectors) serves them.  Every
    other row goes to one _decompose_rows call, and its eigenvectors are
    its basis columns.  With vectors a row must have a simple spectrum,
    as in eigenflag.  A row raises the error of its decomposition, then
    that of its multiplicities, then that of its curve order, and the
    earliest failing row is the one that raises, as one row at a time.
    """
    N, n = Xs.shape[0], Xs.shape[-1]
    norms = _norms(Xs)
    fast = _certified_normal(Xs)
    rows = np.flatnonzero(fast)
    if vectors:
        w, V = np.linalg.eig(Xs[rows])
    else:
        w, V = np.linalg.eigvals(Xs[rows]), None
    ok = separated(w, norms[rows])
    fast[rows] = ok
    rest = np.flatnonzero(~fast)
    dec, exc = (_decompose_rows(Xs[rest]) if rest.size else
                (_Decompositions(Xs[:0, 0], Xs[:0], Xs[:0], [], norms[:0]), None))
    done = rest[: len(dec.mults)]
    m = N if exc is None else int(rest[len(done)])
    d = np.empty((N, n), dtype=complex)
    d[fast], d[done] = w[ok] + 0.0, dec.d  # + 0.0 as in _cluster_means
    if vectors:
        B = np.empty((N, n, n), dtype=complex)
        B[fast], B[done] = V[ok], dec.B
        for i, mults in zip(done.tolist(), dec.mults):
            if len(mults) < n:
                m, exc = i, _not_simple(mults)
                break
    order, err = _row_orders(curve, d[:m], norms[:m])
    if err is not None:
        m, exc = len(order), err
    if vectors:
        V = np.take_along_axis(B[:m], order[:, None, :], axis=2)
    return (np.take_along_axis(d[:m], order, axis=1), V), exc


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
    if not np.isfinite(window.upper - window.lower):
        # the generator draws lower + width * u
        raise ConfigError("sampling window width overflows")
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
        good = conditioned(cand, _SAMPLE_COND_LIMIT)
        S[todo[good]] = cand[good]
        todo = todo[~good]
    return S


class _Draw(NamedTuple):
    """Spectra lam (k, count, n), Ginibre stack G and skew frames S (None
    for the normal class) of count samples in k stacks."""

    lam: np.ndarray
    G: np.ndarray
    S: np.ndarray | None


def _samples(draw: _Draw):
    """The k sample stacks X (k, count, n, n) of a draw, whose i-th samples
    share one eigenframe (so they commute), and which norms are finite."""
    lam, G, S = draw
    Q = _haar_frames(G)
    with np.errstate(all="ignore"):
        X = (Q * lam[:, :, None, :]) @ Q.conj().transpose(0, 2, 1)
        if S is not None:
            X = S @ X @ np.linalg.inv(S)
        return X, np.isfinite(np.linalg.norm(X, axis=(-2, -1)))


def _assemble(draw: _Draw) -> np.ndarray:
    """The sample stacks of a draw (_samples), refusing overflow as
    DomainSpec.draw does."""
    X, finite = _samples(draw)
    if not finite.all():
        raise NumericalDomainError("sample norm overflows")
    return X


@dataclass(frozen=True)
class DomainSpec:
    """Sampling domain: curve, dimension, matrix class, parameter window.

    The dimension and the window (default_window(curve) when None) are
    checked once, here, so a domain that exists can always be drawn from.
    """

    curve: Curve
    n: int
    matrix_class: MatrixClass
    window: Interval | None = None

    def __post_init__(self):
        if not (MIN_DIM <= self.n <= MAX_DIM):
            raise ConfigError(f"dimension {self.n} outside [{MIN_DIM}, {MAX_DIM}]")
        object.__setattr__(self, "window", _resolve_window(self.curve, self.window))

    def draw(self, rng: np.random.Generator, count: int, k: int = 1) -> _Draw:
        """Every rng call of count samples in k stacks, nothing assembled:
        each stack's parameters, the Ginibre stack, then the skew frames."""
        shape = (count, self.n)
        ts = [_draw_params(self.window, shape, rng) for _ in range(k)]
        # refuse a sample whose norm, and so every relative tolerance, would
        # overflow, before anything downstream warns
        with np.errstate(all="ignore"):
            lam = np.array([self.curve.eval_array(t.ravel()).reshape(shape) for t in ts])
            finite = np.isfinite(np.linalg.norm(lam, axis=-1)).all()
        if not finite:
            raise NumericalDomainError("sample spectrum norm overflows")
        G = _ginibre(self.n, count, rng)
        normal = self.matrix_class is MatrixClass.NORMAL
        return _Draw(lam, G, None if normal else _skew_frames(self.n, count, rng))

    def sample(self, rng: np.random.Generator, count: int, k: int = 1):
        """The k stacks X (k, count, n, n) of count samples, whose i-th
        samples commute, and their drawn spectra lam (k, count, n)."""
        draw = self.draw(rng, count, k)
        return _assemble(draw), draw.lam


def sample_batch(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None = None,
    count: int = 1,
) -> np.ndarray:
    """Stack of count independent samples with spectrum on the curve."""
    return DomainSpec(curve, n, matrix_class, window).sample(rng, count)[0][0]


def sample(
    curve: Curve,
    n: int,
    matrix_class: MatrixClass,
    rng: np.random.Generator,
    window: Interval | None = None,
) -> np.ndarray:
    """One random matrix of the requested class with spectrum on the curve."""
    return sample_batch(curve, n, matrix_class, rng, window, count=1)[0]


# ---------------------------------------------------------------------------
# curve-ordered eigenstructure


def _closed() -> ClosedCurveError:
    """The error of ordering eigenvalues along a closed curve."""
    return ClosedCurveError("eigenvalue ordering requires a non-closed curve")


def _curve_order(dec: SpectralDecomposition, curve: Curve) -> np.ndarray:
    """Cluster indices sorted along the oriented curve, at the scale ||X||."""
    if curve.domain is None:
        raise _closed()
    return curve.order(dec.distinct_eigenvalues, dec.norm)


def _row_orders(curve: Curve, zs: np.ndarray, scales: np.ndarray):
    """curve.order of each row of zs (N, n) at its scale, in one call: the
    leading rows' orders, and the error that the next row raises on its
    own, or None.  A replay names the row's distinct values (np.unique, in
    the lexicographic order of _cluster_components's clusters)."""
    try:
        return curve.order(zs, scales[:, None]), None
    except OffCurveError:
        # the stack's error names the worst point of all its rows
        for i in range(len(zs)):
            try:
                curve.order(np.unique(zs[i]), scales[i])
            except OffCurveError as err:
                # its context, the stack's error, has a traceback holding this frame
                err.__context__ = None
                return curve.order(zs[:i], scales[:i, None]), err.with_traceback(None)
        raise


def _not_simple(mults) -> NumericalDomainError:
    """eigenflag's error on a spectrum with multiplicities mults."""
    return NumericalDomainError(
        f"eigenflag requires a simple spectrum; multiplicities are {mults}")


def _eigenflags(decs: _Decompositions, curve: Curve):
    """The eigenflag of each row of a stack of decompositions, as the
    leading rows' (N, n, n) stack, and the error that the next row raises,
    or None.  A row raises the error of its multiplicities, then that of
    its curve order.

    The rank-one idempotents of every row, in curve order, are built as
    one stack and go through one svd.  The scalar steps of a row at a time
    are kept bit for bit: a scalar's abs is np.hypot of its parts, where
    np.abs of an array may round otherwise.
    """
    N, n = decs.d.shape
    m = next((i for i, mults in enumerate(decs.mults) if len(mults) < n), N)
    exc = _not_simple(decs.mults[m]) if m < N else None
    if m and curve.domain is None:
        m, exc = 0, _closed()
    order, err = _row_orders(curve, decs.d[:m], decs.norms[:m])
    if err is not None:
        m, exc = len(order), err
    B = np.take_along_axis(decs.B[:m], order[:, None, :], axis=2)
    Binv = np.take_along_axis(decs.Binv[:m], order[:, :, None], axis=1)
    # P[i, k] = B[i][:, k:k+1] @ Binv[i][k:k+1, :], as the idempotents are
    # formed; column 0 of its U spans its range
    P = B.transpose(0, 2, 1)[..., None] @ Binv[:, :, None, :]
    U = np.linalg.svd(P)[0][..., 0]
    # each line's largest entry made real and positive
    piv = np.take_along_axis(U, np.argmax(np.abs(U), axis=2)[..., None], axis=2)
    U *= piv.conj() / np.hypot(piv.real, piv.imag)
    # in the memory layout of column_stack, which later dot products keep
    return np.ascontiguousarray(U.transpose(0, 2, 1)), exc


def eigenflag(dec: SpectralDecomposition, curve: Curve) -> np.ndarray:
    """Eigenlines in curve order for a simple-spectrum decomposition: an
    (n, n) array whose k-th column is a unit vector spanning the line of
    the k-th eigenvalue, its largest entry made real and positive.  This
    is the one-row case of the stacked eigenflags (_eigenflags)."""
    decs = _Decompositions(dec.expanded()[None], dec.basis[None],
                           dec.basis_inv[None], [dec.multiplicities],
                           np.array([dec.norm]))
    return _first(*_eigenflags(decs, curve))[0]


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
