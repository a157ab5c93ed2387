"""Small Grassmannian toolkit: orthonormal bases, principal angles, lattice ops.

Subspaces are represented by matrices with orthonormal columns; lines by
single unit vectors.  Sums and intersections are computed with standard
SVD-based constructions, accurate enough for the 1e-6 principal-angle
comparisons used by the classifier.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orthonormal_columns",
    "principal_angles",
    "max_principal_angle",
    "subspace_sum",
    "subspace_intersection",
    "line_distance",
]


def orthonormal_columns(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of A (n x k, k = numerical rank
    at relative singular-value cutoff 1e-10)."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.shape[1] == 0:
        return A.copy()
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def principal_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces given by orthonormal columns."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.zeros(0)
    import scipy.linalg  # deferred, so that importing the package stays scipy-free
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
    import scipy.linalg  # deferred, so that importing the package stays scipy-free
    stacked = np.hstack([U, -V])
    ns = scipy.linalg.null_space(stacked, rcond=1e-8)
    if ns.shape[1] == 0:
        return np.zeros((U.shape[0], 0), dtype=complex)
    return orthonormal_columns(U @ ns[: U.shape[1], :])


def line_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Sine of the angle between the lines spanned by u and v."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    c = abs(np.vdot(u, v)) / (nu * nv)
    return float(np.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2)))
