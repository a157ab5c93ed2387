"""The canonical spectrum/commutativity preservers and their compositions.

Four building blocks: conjugation by a fixed invertible frame, transpose
conjugation, the curve-ordering map that sorts the spectrum into a fixed
eigenspace chain, and the involution that conjugates every eigenvalue
against its own spectral idempotents.  Compositions apply left to right.

A map is its apply_batch over (count, n, n) stacks; apply(X) is
apply_batch on the one-row stack X[None], so the two agree bit for bit,
and a stack raises what its first failing row raises alone.  OrderMap
takes its spectra from the batch route, spectral._batch_eig: one stacked
eigensolve on the rows that Henrici's bound certifies normal and whose
spectrum is simple, and the stacked decomposition on every other row.
The involution fixes normal matrices, so Rho returns a certified row
unchanged, before any eigensolve, and maps every other row by rho().  A
frame is admitted by conditioned at FRAME_COND_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, curve_from_json
from .errors import ClosedCurveError, ConfigError, NumericalDomainError
from .spectral import (
    _batch_eig,
    _certified_normal,
    _decompose_rows,
    _first,
    as_matrix,
    conditioned,
    matrix_from_json,
    spectral_decompose,
)

__all__ = [
    "CanonicalMap",
    "Conj",
    "TransposeConj",
    "OrderMap",
    "Rho",
    "Compose",
    "rho",
    "eigen_conj",
    "map_from_json",
]

FRAME_COND_LIMIT = 1e10


def rho(X) -> np.ndarray:
    """Adjoint of the eigenvalue-conjugated decomposition: (sum conj(l) P_l)*.

    Fixes normal matrices; on X = R N R^{-1} with R positive and N normal it
    returns R^{-1} N R; an involution on semisimple matrices.  X is one
    matrix or a (N, n, n) stack, decomposed in one call of the stacked
    decomposition (spectral._decompose_rows): row i of the result is
    rho(X[i]), bit for bit, and a stack raises what its earliest failing
    row raises alone.  Raises DefectiveMatrixError when a matrix has no
    decomposition at tolerance.
    """
    Xs = np.asarray(X, dtype=complex)
    one = Xs.ndim != 3
    if one or len(Xs):
        # a stack's rows all have row 0's shape, and row 0's errors come first
        as_matrix(Xs if one else Xs[0])
    dec = _first(*_decompose_rows(Xs[None] if one else Xs))
    # (B diag(conj d) Binv)^* with the diagonal's adjoint undoing the conjugation
    BinvH, BH = (M.conj().transpose(0, 2, 1) for M in (dec.Binv, dec.B))
    out = (BinvH * dec.d[:, None, :]) @ BH
    return out[0] if one else out


def eigen_conj(X) -> np.ndarray:
    """Conjugate every eigenvalue, keep every spectral idempotent."""
    dec = spectral_decompose(X)
    d = np.conj(dec.expanded())
    return (dec.basis * d[None, :]) @ dec.basis_inv


@dataclass(frozen=True)
class CanonicalMap:
    """Base for the canonical preserver variants; immutable and pure.

    apply_batch is the one implementation of a map; apply is its one-row
    case.
    """

    def apply_batch(self, Xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, X) -> np.ndarray:
        return self.apply_batch(as_matrix(X)[None])[0]

    def __call__(self, X) -> np.ndarray:
        return self.apply(X)


@dataclass(frozen=True)
class _Framed(CanonicalMap):
    """A map with a fixed frame T, a field of each subclass: T is checked
    to be well conditioned and held with its inverse _Tinv."""

    def __post_init__(self):
        T = as_matrix(self.T, name="frame")
        if not conditioned(T[None], FRAME_COND_LIMIT)[0]:
            raise ConfigError(
                f"frame condition number exceeds {FRAME_COND_LIMIT:.0e}; not usable"
            )
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "_Tinv", np.linalg.inv(T))

    def _stack(self, Xs) -> np.ndarray:
        """Xs as a complex stack whose matrices match the frame."""
        Xs = np.asarray(Xs, dtype=complex)
        if Xs.shape[-1] != self.T.shape[0]:
            raise ConfigError(
                f"input dimension {Xs.shape[-1]} does not match frame "
                f"dimension {self.T.shape[0]}"
            )
        return Xs


@dataclass(frozen=True)
class Conj(_Framed):
    """X -> T X T^{-1}."""

    T: np.ndarray

    def apply_batch(self, Xs):
        return self.T @ self._stack(Xs) @ self._Tinv


@dataclass(frozen=True)
class TransposeConj(_Framed):
    """X -> T X^t T^{-1}."""

    T: np.ndarray

    def apply_batch(self, Xs):
        return self.T @ self._stack(Xs).transpose(0, 2, 1) @ self._Tinv


@dataclass(frozen=True)
class OrderMap(_Framed):
    """Sort the spectrum along the curve into the fixed eigenspace chain of T.

    The output is T diag(sorted eigenvalues, multiplicities contiguous)
    T^{-1}: its k-th sorted eigenspace is always the span of the k-th block
    of columns of T, independent of the input.
    """

    curve: Curve
    T: np.ndarray

    def __post_init__(self):
        if self.curve.domain is None:
            raise ClosedCurveError(
                "ordering along a closed curve is not defined; cut it first"
            )
        super().__post_init__()

    def apply_batch(self, Xs):
        w, _ = _first(*_batch_eig(self._stack(Xs), self.curve, vectors=False))
        return (self.T * w[:, None, :]) @ self._Tinv


@dataclass(frozen=True)
class Rho(CanonicalMap):
    """The eigenvalue-conjugation involution; see rho().

    rho fixes every normal matrix, so a row that Henrici's bound certifies
    normal to within the reconstruction tolerance
    (spectral._certified_normal) is returned unchanged, with no
    eigensolve, and every other row is rho() of that row, bit for bit.
    On a certified row rho() takes the Schur route, whose result differs
    from X by the departure from normality, within the reconstruction
    tolerance.
    """

    def apply_batch(self, Xs):
        Xs = np.asarray(Xs, dtype=complex)
        out = Xs.copy()
        rest = np.flatnonzero(~_certified_normal(Xs))
        if rest.size:
            out[rest] = rho(Xs[rest])
        return out


@dataclass(frozen=True)
class Compose(CanonicalMap):
    """Left-to-right composition: parts[0] is applied first."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ConfigError("composition needs at least one map")
        if not all(isinstance(p, CanonicalMap) for p in parts):
            raise ConfigError("composition parts must be canonical maps")
        object.__setattr__(self, "parts", parts)

    def apply_batch(self, Xs):
        Ys = np.asarray(Xs, dtype=complex)
        for k, p in enumerate(self.parts):
            if not np.all(np.isfinite(Ys)):
                # a non-finite input is a config error, as in as_matrix; a
                # finite one that overflows inside the composition is out
                # of its numerical domain, as it is for a single map
                if k == 0:
                    raise ConfigError("matrix has non-finite entries")
                raise NumericalDomainError(
                    f"part {k} of {len(self.parts)} of the composition "
                    "returned non-finite entries")
            Ys = p.apply_batch(Ys)
        return Ys


# ---------------------------------------------------------------------------
# serialization


def map_from_json(obj: dict) -> CanonicalMap:
    try:
        variant = obj["variant"]
        if variant == "conj":
            return Conj(matrix_from_json(obj["T"]))
        if variant == "transpose_conj":
            return TransposeConj(matrix_from_json(obj["T"]))
        if variant == "order":
            return OrderMap(curve_from_json(obj["curve"]), matrix_from_json(obj["T"]))
        if variant == "rho":
            return Rho()
        if variant == "compose":
            return Compose(tuple(map_from_json(p) for p in obj.get("parts", [])))
    except KeyError as exc:
        raise ConfigError(f"malformed map JSON: missing {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"malformed map JSON: {exc}") from None
    raise ConfigError(f"unknown map variant {variant!r}")
