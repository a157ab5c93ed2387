"""Orthonormal bases of column spans, and the distance between two lines.

Subspaces are represented by matrices with orthonormal columns; lines by
single unit vectors.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orthonormal_columns",
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
