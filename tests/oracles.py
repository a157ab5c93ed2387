"""Test oracles: independent checks of library results that no entry point needs.

    from oracles import idempotent_swap, is_orthogonal, read_profile_csv, validate

validate checks a SpectralDecomposition's structural invariants and its
reconstruction of X; idempotent_swap exchanges two eigenvalues of X by its
decomposition, the reference for the classifier's swapped samples;
sorted_spectrum is the per-matrix route that OrderMap took before its
batch route (spectral._batch_eig) served every row, its bit-for-bit
reference; read_profile_csv reads back what regularity.write_profile_csv wrote.
per_matrix_decompose is the per-matrix spectral_decompose as it was before
the stacked decomposition (spectral._decompose_rows) replaced it, the
reference of that decomposition's differential test.
principal_angles, max_principal_angle, subspace_sum and
subspace_intersection compare subspaces (orthonormal columns) and build
their lattice operations, for the tests of the induced subspace map.
The classifier's per-row numerics before each stage ran as one stack are
kept verbatim at the end, the references of the stacked routes:
per_row_eigenflag, the frame loop (recover_fixed_frame), with_swap,
probe_with_first_line, first_line_image and the holdout loop
(holdout_residual); and so is the one-at-a-time draw loop
(simple_draws, with simple_draw and certified_simple), the reference of
the classifier's draws ahead and of their stream contract.  joined puts a
list of draws into one stack, as _assemble joined them before it took
one draw.
The regularity probes' row-wise kernels are kept verbatim too, the
references of their column-wise ones: quotient_table_err_rows (the
difference-quotient table and its roundoff bound along rows) and
sorted_gap_acceptable (the sampler's mask by sorting each row).
"""

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from curvespec.classify import (
    _FRAME_SAMPLES,
    _GAP_BAND,
    _SAMPLE_ATTEMPTS,
    _VALIDATION_SAMPLES,
)
from curvespec.errors import (
    DefectiveMatrixError,
    NumericalDomainError,
    ReconstructionError,
)
from curvespec.regularity import RegularityProfile
from curvespec.spectral import (
    BASIS_COND_LIMIT,
    CLUSTER_RTOL,
    NORMALITY_RTOL,
    RANK_RTOL,
    RECONSTRUCTION_RTOL,
    MatrixClass,
    _assemble,
    _Draw,
    _cluster_components,
    _cluster_means,
    _curve_order,
    _decompose_rows,
    _not_simple,
    _schur,
    as_matrix,
    conditioned,
    reconstructs,
    separated,
    spectral_decompose,
)
from curvespec.subspaces import orthonormal_columns


def is_orthogonal(dec) -> bool:
    """Whether every idempotent is a Hermitian projector (a normal input)."""
    return np.array_equal(dec.basis_inv, dec.basis.conj().T) or all(
        np.linalg.norm(p - p.conj().T) <= 1e-8 * max(1.0, np.linalg.norm(p))
        for p in dec.idempotents
    )


def reconstruct(dec) -> np.ndarray:
    return np.tensordot(dec.distinct_eigenvalues, dec.idempotents, axes=1)


def validate(dec, X, cluster_tol=None) -> None:
    """Raise NumericalDomainError unless the idempotents of dec resolve the
    identity and annihilate each other pairwise, its distinct eigenvalues
    lie further apart than cluster_tol (by default the first threshold of
    spectral_decompose, 1e-7 * max(1, ||X||)), its idempotents are
    Hermitian when its basis is unitary, and it reconstructs X."""
    X = as_matrix(X)
    n = X.shape[0]
    P = dec.idempotents
    ident = np.sum(P, axis=0)
    if np.linalg.norm(ident - np.eye(n)) > 1e-8 * n:
        raise NumericalDomainError("idempotents do not resolve the identity")
    for i in range(len(P)):
        for j in range(len(P)):
            prod = P[i] @ P[j]
            target = P[i] if i == j else 0.0
            scale = max(1.0, np.linalg.norm(P[i]) * np.linalg.norm(P[j]))
            if np.linalg.norm(prod - target) > 1e-8 * scale:
                raise NumericalDomainError(
                    f"idempotent product ({i},{j}) violates annihilation"
                )
    vals = dec.distinct_eigenvalues
    if len(vals) > 1:
        gap = np.min(
            np.abs(vals[:, None] - vals[None, :])[~np.eye(len(vals), dtype=bool)]
        )
        if cluster_tol is None:
            cluster_tol = CLUSTER_RTOL * max(1.0, np.linalg.norm(X))
        if gap <= cluster_tol:
            raise NumericalDomainError("distinct eigenvalues closer than cluster_tol")
    if is_orthogonal(dec):
        for i, p in enumerate(P):
            if np.linalg.norm(p - p.conj().T) > 1e-8 * max(1.0, np.linalg.norm(p)):
                raise NumericalDomainError(
                    f"idempotent {i} flagged orthogonal but not Hermitian"
                )
    err = np.linalg.norm(reconstruct(dec) - X)
    if err > RECONSTRUCTION_RTOL * max(np.linalg.norm(X), 1e-300):
        raise NumericalDomainError(f"reconstruction error {err:.3g} exceeds tolerance")


def idempotent_swap(X, curve, j) -> np.ndarray:
    """X with its j-th and (j+1)-th eigenvalues in curve order exchanged
    across their spectral idempotents, every eigenspace kept in place."""
    dec = spectral_decompose(X)
    a, b = curve.order(dec.distinct_eigenvalues)[[j, j + 1]]
    va, vb = dec.distinct_eigenvalues[[a, b]]
    Pa, Pb = dec.idempotents[[a, b]]
    return X + (vb - va) * Pa + (va - vb) * Pb


def sorted_spectrum(curve, X) -> np.ndarray:
    """The eigenvalues of one matrix in curve order (at the scale ||X||),
    multiplicities contiguous, from spectral_decompose and its guards."""
    dec = spectral_decompose(X)
    order = curve.order(dec.distinct_eigenvalues, np.linalg.norm(X))
    return np.repeat(
        dec.distinct_eigenvalues[order], np.asarray(dec.multiplicities)[order]
    )


def read_profile_csv(fh) -> RegularityProfile:
    """The profile regularity.write_profile_csv wrote to fh (a path or a
    text stream)."""
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "r", newline="")
        close = True
    try:
        rows = []
        footer = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                footer = json.loads(line[1:].strip())
            else:
                rows.append(line)
    finally:
        if close:
            fh.close()
    assert footer is not None, "profile CSV has no verdict footer"
    body = list(csv.reader(io.StringIO("\n".join(rows))))
    if body and body[0] == ["scale", "sup", "mean_re", "mean_im", "dispersion"]:
        body = body[1:]
    scales, sups, means, disps = [], [], [], []
    for row in body:
        scales.append(float(row[0]))
        sups.append(float(row[1]))
        means.append(complex(float(row[2]), float(row[3])))
        disps.append(float(row[4]))
    limit = footer.get("dc_limit")
    return RegularityProfile(
        center=complex(footer["center"][0], footer["center"][1]),
        order=int(footer["order"]),
        scales=tuple(scales),
        sup_values=tuple(sups),
        means=tuple(means),
        dispersions=tuple(disps),
        verdict_db=footer["verdict_db"],
        verdict_dc=footer["verdict_dc"],
        dc_limit=None if limit is None else complex(limit[0], limit[1]),
        samples_per_scale=int(footer.get("samples_per_scale", 0)),
        slope=float(footer.get("slope", 0.0)),
    )


def principal_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given by orthonormal columns."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(U, V)


def max_principal_angle(U: np.ndarray, V: np.ndarray) -> float:
    """Largest principal angle; infinity when dimensions differ."""
    if U.shape[1] != V.shape[1]:
        return np.inf
    if U.shape[1] == 0:
        return 0.0
    return float(np.max(principal_angles(U, V)))


def subspace_sum(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(U) + span(V)."""
    return orthonormal_columns(np.hstack([U, V]))


def subspace_intersection(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(U) & span(V).

    A vector lies in both spans iff it is U x = V y for some coefficient
    vectors; the null space of [U, -V] (at relative cutoff 1e-8) yields
    all such pairs.
    """
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.zeros((U.shape[0], 0), dtype=complex)
    stacked = np.hstack([U, -V])
    ns = scipy.linalg.null_space(stacked, rcond=1e-8)
    if ns.shape[1] == 0:
        return np.zeros((U.shape[0], 0), dtype=complex)
    return orthonormal_columns(U @ ns[: U.shape[1], :])


# ---------------------------------------------------------------------------
# the per-matrix decomposition before the stacked one, verbatim but for the
# names: its result keeps the four fields it had, and the helpers it calls
# (_schur, _cluster_components, _cluster_means and the admission tests) are
# the package's own, unchanged


@dataclass(eq=False)
class PerMatrixDecomposition:
    distinct_eigenvalues: np.ndarray
    multiplicities: tuple
    basis: np.ndarray
    basis_inv: np.ndarray

    def expanded(self) -> np.ndarray:
        """Every eigenvalue, repeated by its multiplicity, in basis order."""
        return np.repeat(self.distinct_eigenvalues, self.multiplicities)


def _is_normal(X: np.ndarray, norm_x: float) -> bool:
    # scaled to norm at most 1, so that the commutator cannot overflow;
    # below norm 1 the division is exact
    A = X / max(1.0, norm_x)
    return np.linalg.norm(A @ A.conj().T - A.conj().T @ A) <= NORMALITY_RTOL


def per_matrix_decompose(X) -> PerMatrixDecomposition:
    X = as_matrix(X)
    with np.errstate(over="ignore"):
        norm_x = np.linalg.norm(X)
    if not np.isfinite(norm_x):
        # every relative tolerance below would be infinite or NaN
        raise NumericalDomainError("matrix norm overflows")
    tol = CLUSTER_RTOL * max(1.0, norm_x)
    first = None
    # each distinct threshold once, in this order
    for t in dict.fromkeys((tol, min(tol, RECONSTRUCTION_RTOL * norm_x), 0.0)):
        try:
            return _decompose(X, t, norm_x)
        except DefectiveMatrixError as exc:
            # kept without its traceback, whose frames (this one, and so
            # its callers) would otherwise live until the cyclic GC runs
            first = first or exc.with_traceback(None)
    try:
        raise first
    finally:
        first = None  # the raised error's traceback holds this frame


def _decompose(X: np.ndarray, tol: float, norm_x: float) -> PerMatrixDecomposition:
    """spectral_decompose(X) with eigenvalues merged at tol."""
    if _is_normal(X, norm_x):
        T, Z = _schur(X)
        d = np.diag(T)
        clusters = _cluster_components(d, tol)
        B = Z[:, np.concatenate(clusters)]
        dec = _admitted(d, clusters, B, B.conj().T, X, norm_x)
        if dec is not None:
            return dec
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
    dec = _admitted(w, clusters, B, np.linalg.inv(B), X, norm_x)
    if dec is None:
        raise DefectiveMatrixError(
            "diagonalization fails to reconstruct the input at tolerance"
        )
    return dec


def _admitted(values, clusters, B, Binv, X, norm_x):
    """The decomposition of X by the basis B (each cluster's columns
    contiguous) and its inverse, or None when it does not reconstruct X."""
    mults = tuple(int(c.size) for c in clusters)
    dec = PerMatrixDecomposition(_cluster_means(values, clusters), mults, B, Binv)
    if reconstructs(B[None], dec.expanded()[None], Binv[None], X[None], norm_x)[0]:
        return dec
    return None


# ---------------------------------------------------------------------------
# the classifier's numerics one row at a time, verbatim but for the names,
# before each stage ran as one stack: eigenflag and the loops of the frame
# recovery, the swapped draws, the probes, the probe images and the holdout;
# the helpers they call (_curve_order, _not_simple, orthonormal_columns,
# _decompose_rows) are the package's own, unchanged


def fix_phase(v: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(v)))
    piv = v[j]
    return v * (piv.conjugate() / abs(piv))


def per_row_eigenflag(dec, curve) -> np.ndarray:
    """Eigenlines in curve order for a simple-spectrum decomposition: an
    (n, n) array whose k-th column is a unit vector spanning the line of
    the k-th eigenvalue, its largest entry made real and positive."""
    if any(m != 1 for m in dec.multiplicities):
        raise _not_simple(dec.multiplicities)
    # column 0 of U spans the range of each rank-one idempotent
    U = np.linalg.svd(dec.idempotents[_curve_order(dec, curve)])[0]
    return np.column_stack([fix_phase(u) for u in U[:, :, 0]])


def certified_simple(lam: np.ndarray) -> bool:
    """Whether the least gap of a normal sample's drawn spectrum clears the
    merge threshold of spectral_decompose by more than the band, so that it
    gives len(lam) clusters.  Below that it may also raise."""
    return bool(separated(lam[None], np.linalg.norm(lam), _GAP_BAND)[0])


def simple_draw(domain, rng):
    """The draw (see DomainSpec.draw) of one sample with n distinct
    eigenvalues; a candidate the spectrum does not certify, and every
    candidate of a non-normal class (whose ||X|| may exceed ||lam||, and
    with it the merge threshold), is assembled and decomposed."""
    normal = domain.matrix_class is MatrixClass.NORMAL
    for _ in range(_SAMPLE_ATTEMPTS):
        draw = domain.draw(rng, 1)
        if (normal and certified_simple(draw.lam[0, 0])) or (
            spectral_decompose(_assemble(draw)[0, 0]).num_clusters == domain.n
        ):
            return draw
    raise NumericalDomainError("could not draw a simple-spectrum sample")


def simple_draws(domain, rng, count: int, then=lambda: None):
    """Up to count simple draws, and the exception that ended the drawing
    early, or None; then() runs after each draw."""
    draws, failure = [], None
    for _ in range(count):
        try:
            draws.append(simple_draw(domain, rng))
        except Exception as exc:
            failure = exc
            break
        then()
    if not draws:
        raise failure
    return draws, failure


def joined(draws):
    """The draws of a list as one _Draw, in order: each stack of samples
    the concatenation of theirs."""
    lam, G, S = zip(*draws)
    S = None if S[0] is None else np.concatenate(S)
    return _Draw(np.concatenate(lam, axis=1), np.concatenate(G), S)


def recover_fixed_frame(bb, rng):
    """Average the sorted output eigenvector matrices of a quotient map."""
    curve = bb.domain.curve
    draws, failure = simple_draws(bb.domain, rng, _FRAME_SAMPLES)
    FXs, exc = bb.apply_rows(_assemble(joined(draws))[0])
    # the decompositions of the leading outputs, and the next one's error
    decs, bad = _decompose_rows(FXs)
    frame = None
    for i in range(len(decs.d)):
        F = per_row_eigenflag(decs.row(i), curve)
        if frame is None:
            frame = F.copy()
            ref = F
        else:
            # align each column's phase to the first sample before averaging
            for j in range(F.shape[1]):
                c = ref[:, j].conj() @ F[:, j]
                if abs(c) < 1e-12:
                    raise ReconstructionError("output frames do not share columns")
                F[:, j] *= c.conjugate() / abs(c)
            frame += F
    if bad or exc or failure:
        raise bad or exc or failure
    frame /= np.linalg.norm(frame, axis=0, keepdims=True)
    return frame


def with_swap(draw, curve, j):
    """The draw and, on its frame, its j-th and (j+1)-th eigenvalues (in
    curve order) exchanged, as one k = 2 draw: every eigenspace stays."""
    lam = draw.lam[0, 0]
    a, b = curve.order(lam)[[j, j + 1]]
    swapped = lam.copy()
    swapped[[a, b]] = lam[[b, a]]
    return draw._replace(lam=np.array([lam, swapped])[:, None])


def probe_with_first_line(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Normal matrix with eigenline span(u) for values[0] and the rest of
    the spectrum on the orthogonal complement."""
    n = values.size
    u = u / np.linalg.norm(u)
    B = np.eye(n, dtype=complex)
    B[:, 0] = u
    Q, _ = np.linalg.qr(B)
    # qr may flip the first column's phase; pin it back to u
    Q[:, 0] = u
    Q[:, 1:] = orthonormal_columns(
        Q[:, 1:] - u[:, None] * (u.conj() @ Q[:, 1:])
    )
    return (Q * values) @ Q.conj().T


def first_line_image(dec, values) -> np.ndarray:
    """Unit vector spanning the eigenline of values[0] in a probe image, by
    the image's decomposition dec."""
    k = int(np.argmin(np.abs(dec.distinct_eigenvalues - values[0])))
    if dec.multiplicities[k] != 1:
        raise ReconstructionError("probe image eigenvalue is not simple")
    P = dec.idempotents[k]
    j = int(np.argmax(np.linalg.norm(P, axis=0)))
    v = P[:, j]
    return v / np.linalg.norm(v)


def holdout_residual(bb, rng, model) -> float:
    """Worst relative deviation ||F(X) - model(X)|| / ||X|| of the map from
    a candidate model, a map of stacks, over fresh domain samples."""
    (Xs,), _ = bb.domain.sample(rng, _VALIDATION_SAMPLES)
    FXs, exc = bb.apply_rows(Xs)
    residual = 0.0
    for X, FX, M in zip(Xs, FXs, model(Xs[: len(FXs)])):
        residual = max(residual, np.linalg.norm(FX - M) / np.linalg.norm(X))
    if exc is not None:
        raise exc
    return float(residual)


# ---------------------------------------------------------------------------
# the regularity probes' kernels along rows, verbatim but for the names,
# before they ran on columns


def quotient_table_err_rows(fvals: np.ndarray, pts: np.ndarray):
    """Triangular recursion over rows of (m, k) stacks, plus a per-row
    forward roundoff bound."""
    em = float(np.finfo(float).eps)
    k = pts.shape[1]
    pt_err = 4.0 * em * np.abs(pts).max(axis=1, keepdims=True)
    first = (fvals[:, 1:] - fvals[:, :-1]) / (pts[:, 1:] - pts[:, :-1])
    lip = np.abs(first).max(axis=1, keepdims=True, initial=0.0)
    err = em * np.abs(fvals) + lip * pt_err
    table = fvals.copy()
    for level in range(1, k):
        num = table[:, 1 : k - level + 1] - table[:, : k - level]
        den = pts[:, level:] - pts[:, : k - level]
        aden = np.abs(den)
        table = num / den
        err = (err[:, 1 : k - level + 1] + err[:, : k - level]
               + em * np.abs(num)) / aden
        err += np.abs(table) * (em + 2.0 * pt_err / aden)
    return table[:, 0], err[:, 0]


def sorted_gap_acceptable(u: np.ndarray, stratum: str, sep: float) -> np.ndarray:
    """Mask of the rows of u that lie in the stratum (straddle: min < -sep/4
    and max > sep/4; left: max < 0; right: min > 0) and whose sorted entries
    are at least sep apart."""
    # reducing over the k column views is cheap where an axis=1 reduction
    # along short rows is not; sort only rows in the stratum
    if stratum == "straddle":
        ok = ((functools.reduce(np.minimum, u.T) < -0.25 * sep)
              & (functools.reduce(np.maximum, u.T) > 0.25 * sep))
    elif stratum == "left":
        ok = functools.reduce(np.maximum, u.T) < 0.0
    else:
        ok = functools.reduce(np.minimum, u.T) > 0.0
    rows = np.flatnonzero(ok)
    if rows.size:
        st = np.sort(u[rows], axis=1).T
        ok[rows] = functools.reduce(np.minimum, st[1:] - st[:-1]) >= sep
    return ok
