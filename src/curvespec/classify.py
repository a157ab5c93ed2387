"""Black-box classification of spectrum/commutativity preservers.

A continuous preserver on normal matrices over a non-closed curve is
either a conjugation (possibly composed with transpose) or an ordering
map that freezes an output frame and only transports the sorted spectrum.
The two families are separated behaviorally: swapping two adjacent
eigenvalues across their eigenspaces either swaps the corresponding
output eigenlines (the map is permutation-equivariant) or leaves the
output lines untouched (the map factors through the spectrum alone).

Once the family is known, the conjugating matrix is reconstructed column
by column from probe operators with prescribed first eigenlines, and the
linear-vs-conjugate-linear ambiguity is resolved on a single complex
probe line.  Every reconstruction, a conjugator or a frozen frame, is
validated by one holdout check on fresh samples (_holdout_residual); a
failed validation downgrades the answer to unknown rather than forcing a
label.

Each stage (the equivariance trials, the 2n probes, the frame samples,
the holdout) builds its inputs first and crosses BlackBoxMap.apply_rows
once; failures come out in the order of a one-at-a-time loop, though an
external program may see rows after the one that fails.  The numerics
after each crossing run once over the whole stack, bit for bit as a loop
over its rows: the trials' output eigenlines are the basis columns of one
call of the maps' batch route (spectral._batch_eig), the frame samples
and the probe images are decomposed in one call of the stacked
decomposition, the frame's eigenflags come from one stacked svd, and the
holdout's norms from one call of spectral._norms.  The draws of the
trials and of the frame samples are made ahead (_simple_draws): every
attempt's rng calls first, then one curve evaluation and one gap test
over all of them, and one stacked decomposition of the candidates the
gap test leaves uncertified; at the first candidate rejected, or an
error, rng is rewound to just after that attempt and a new round starts,
since each draw's retries decide the rng stream the next one sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checking import BlackBoxMap
from .curves import punctured_unit_circle
from .errors import (
    ClosedCurveError,
    CoincidentPointsError,
    ConfigError,
    MixedWitnessError,
    NumericalDomainError,
    ParameterDomainError,
    ReconstructionError,
)
from .maps import OrderMap
from .spectral import (
    MatrixClass,
    _assemble,
    _batch_eig,
    _curve_order,
    _decompose_rows,
    _Draw,
    _draw_params,
    _eigenflags,
    _first,
    _norms,
    _row_orders,
    _samples,
    _skew_frames,
    conditioned,
    matrix_to_json,
    separated,
    spectral_decompose,
)
from .subspaces import line_distance, orthonormal_columns

__all__ = [
    "EquivarianceVerdict",
    "equivariance_test",
    "reconstruct_conjugator",
    "PreserverType",
    "classify_preserver",
    "subspace_image",
    "ObstructionReport",
    "circle_obstruction_demo",
]

EQUIVARIANT = "equivariant"
FACTORS_THROUGH_QUOTIENT = "factors_through_quotient"

_LINE_TOL = 1e-6
_VALIDATION_TOL = 1e-6
_VALIDATION_SAMPLES = 50
_FRAME_SAMPLES = 20
_SAMPLE_ATTEMPTS = 50
# computed eigenvalues of a normal sample lie within about 10 ulp * ||X||
# of its drawn spectrum, far inside this band
_GAP_BAND = 1e-12


@dataclass(frozen=True)
class EquivarianceVerdict:
    kind: str  # EQUIVARIANT or FACTORS_THROUGH_QUOTIENT
    witnesses: int

    def __post_init__(self):
        if self.kind not in (EQUIVARIANT, FACTORS_THROUGH_QUOTIENT):
            raise ConfigError(f"unknown verdict kind {self.kind!r}")
        if self.witnesses < 1:
            raise ConfigError("verdict needs at least one witness")


def check_classifiable(domain) -> None:
    """Refuse a domain the equivariance dichotomy cannot order."""
    if domain.n < 3:
        raise ConfigError("classification needs n >= 3")
    if domain.curve.domain is None:
        raise ClosedCurveError("classification requires a non-closed curve")


def _simple_draws(domain, rng, count: int, then=lambda: None):
    """Up to count simple draws as one _Draw, the value of then() after
    each, and the exception that ended the drawing early, or None.

    Seeded outputs rest on this stream contract: the draws, the values and
    the exception (type and message) are those of a loop that draws
    candidates one at a time (DomainSpec.draw(rng, 1)), gives up on a draw
    after _SAMPLE_ATTEMPTS rejected candidates, calls then() after each
    kept draw and stops at the first exception, and rng is left in the
    loop's state, for every numpy bit generator (tests/oracles.py keeps
    the loop).  then() makes rng calls only.  A normal candidate whose
    drawn spectrum clears the merge threshold by the band (_GAP_BAND) is
    kept; any other, as every one of a non-normal class (whose ||X|| may
    exceed ||lam||), when its decomposition has n clusters.

    Each round makes the rng calls of its attempts first, in the loop's
    order and as though each gave its draw: the parameters, the Ginibre
    halves, the skew frame of a non-normal class, then() (its value kept,
    not acted on).  It judges them at once, in the loop's order: one
    curve.eval_array (the parameter domain), one overflow test, one
    separated, and one assembly and one stacked decomposition of the
    candidates left uncertified.  At the first attempt that the loop would
    not keep, a rejected candidate or an error, rng is put back to its
    state before the round and makes the kept attempts' calls again, then
    that attempt's own (its parameters alone when its spectrum fails).  A
    round takes every attempt still needed, or 2s + 1 after one that kept
    s, so that the attempts drawn past a rejection stay in proportion to
    those kept.  (A state saved per attempt costs more than the replay.)
    """
    n, curve, window = domain.n, domain.curve, domain.window
    normal = domain.matrix_class is MatrixClass.NORMAL
    t, lam = np.empty((count, n)), np.empty((count, n), dtype=complex)
    halves = np.empty((count, 2, n, n))  # of each Ginibre matrix, in draw order
    S = None if normal else np.empty((count, n, n), dtype=complex)
    values, kept, rejected, failure, size = [None] * count, 0, 0, None, count

    def attempt(i, whole=True):
        t[i] = _draw_params(window, n, rng)
        if whole:
            rng.standard_normal(out=halves[i])
            if S is not None:
                S[i] = _skew_frames(n, 1, rng)[0]

    while failure is None and kept < count:
        end = min(count, kept + size)
        state = rng.bit_generator.state
        for i in range(kept, end):
            attempt(i)
            values[i] = then()
        # stop: the first attempt the loop would not keep (whole: all its calls)
        ts = t[kept:end]
        stop, whole = len(ts), True
        with np.errstate(all="ignore"):
            try:
                z = curve.eval_array(ts.ravel()).reshape(ts.shape)
            except ParameterDomainError as exc:
                # the stack's error names the first attempt's first outside
                # parameter, as that attempt's own does
                stop = int(np.argmin(curve.domain.contains(ts).all(axis=1)))
                failure, whole = exc, False
                z = curve.eval_array(ts[:stop].ravel()).reshape(stop, n)
            finite = np.isfinite(np.linalg.norm(z, axis=-1))
        if not finite.all():
            stop, whole = int(np.argmin(finite)), False
            failure = NumericalDomainError("sample spectrum norm overflows")
        lam[kept : kept + stop] = z = z[:stop]
        rows = np.flatnonzero(
            (not normal) | ~separated(z, _norms(z[:, None, :]), _GAP_BAND))
        if rows.size:
            k = kept + rows
            X, fits = _samples(_Draw(z[rows][None], halves[k, 0] + 1j * halves[k, 1],
                                     None if S is None else S[k]))
            f = int(np.argmin(fits[0])) if not fits.all() else rows.size
            decs, exc = _decompose_rows(X[0, :f])
            m = len(decs.mults)
            r = next((i for i in range(m) if len(decs.mults[i]) != n), m)
            if r < rows.size:
                stop, whole = int(rows[r]), True
                failure = None if r < m else exc if r < f else (
                    NumericalDomainError("sample norm overflows"))
        if stop < len(ts):
            rng.bit_generator.state = state
            for i in range(kept, kept + stop):
                attempt(i)
                then()
            attempt(kept + stop, whole)
        # the rejections since the last kept draw
        rejected = (0 if stop else rejected) + (stop < len(ts))
        if failure is None and rejected == _SAMPLE_ATTEMPTS:
            failure = NumericalDomainError("could not draw a simple-spectrum sample")
        kept, size = kept + stop, 2 * stop + 1
    if not kept:
        raise failure
    G = halves[:kept, 0] + 1j * halves[:kept, 1]  # as _ginibre joins them
    draw = _Draw(lam[None, :kept], G, None if S is None else S[:kept])
    return draw, values[:kept], failure


def _with_swaps(draw, curve, js):
    """The draws of a stack and, on each one's frame, its j-th and (j+1)-th
    eigenvalues (in curve order at the scale ||lam||, as the maps order at
    ||FX||) exchanged, as one k = 2 draw: every eigenspace stays.  One curve
    order serves every draw; a draw off the curve raises its own error, the
    first such draw's, which names its distinct values (_row_orders)."""
    lam = draw.lam[0]
    order = _first(*_row_orders(curve, lam, _norms(lam[:, None, :])))
    t = np.arange(len(lam))[:, None]
    ab = order[t, np.stack([js, js + 1], axis=1)]
    swapped = lam.copy()
    swapped[t, ab] = lam[t, ab[:, ::-1]]
    return draw._replace(lam=np.stack([lam, swapped]))


def _line_patterns(L: np.ndarray, Lt: np.ndarray, js: np.ndarray):
    """Per trial, whether the output eigenlines of X (L) and of X with its
    eigenvalues j and j+1 swapped (Lt) show the swapped pattern and the
    fixed pattern.  Every other line must stay in place for either."""
    c = np.minimum(np.abs(L.conj().transpose(0, 2, 1) @ Lt), 1.0)
    # close[t, a, b]: line a of L and line b of Lt agree within _LINE_TOL
    close = np.sqrt(np.maximum(0.0, 1.0 - c**2)) <= _LINE_TOL
    t = np.arange(js.size)
    same = np.diagonal(close, axis1=1, axis2=2).copy()
    fixed = same[t, js] & same[t, js + 1]
    swapped = close[t, js, js + 1] & close[t, js + 1, js]
    same[t, js] = same[t, js + 1] = True
    others = same.all(axis=1)
    return others & swapped, others & fixed


def _latest(errors: list):
    """The last error in a list of a stage's errors, one per route in the
    order they ran (None for a route that went through), or None; the list
    is emptied.  Each route works on the rows before the earliest failure
    so far, so the latest error comes first in row order.  Passed straight
    to spectral._first, it is then held by no local of the frame that its
    traceback holds."""
    exc = next((e for e in reversed(errors) if e is not None), None)
    errors.clear()
    return exc


def equivariance_test(bb: BlackBoxMap, trials: int = 20, rng=None) -> EquivarianceVerdict:
    """Decide whether the map tracks eigenspaces or ignores them.

    Each trial swaps one adjacent-in-curve-order eigenvalue pair of a
    simple-spectrum sample across its eigenspaces and checks whether the
    output eigenlines swap along or stay put.  The verdict must be
    unanimous; a trial matching neither pattern, or trials disagreeing,
    is a witness conflict.

    All trials are drawn first, and each trial's X and X' are assembled
    from its draw (see _with_swaps).  Their 2 * trials inputs X_1, X'_1,
    X_2, X'_2, ... go to the map in that order through one
    BlackBoxMap.apply_rows, which hands a map with its own apply_batch the
    whole stack, and one call of the batch route (spectral._batch_eig)
    gives the outputs' eigenlines, the unit eigenvectors in curve order,
    each row failing as eigenflag(spectral_decompose(...)) does.
    Failures come out as they would one trial at a time: trials are judged
    in order, and a failure to draw, to apply the map or to decompose an
    output at trial k is raised only after trials 0..k-1 are judged.
    """
    check_classifiable(bb.domain)
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    n, curve = bb.domain.n, bb.domain.curve
    if rng is None:
        rng = np.random.default_rng(0)
    errors = [None] * 3  # of the draws, the map and the output eigenlines
    draw, js, errors[0] = _simple_draws(
        bb.domain, rng, trials, lambda: int(rng.integers(n - 1))
    )
    js = np.array(js, dtype=int)
    pairs = _assemble(_with_swaps(draw, curve, js))
    FXs, errors[1] = bb.apply_rows(pairs.transpose(1, 0, 2, 3).reshape(-1, n, n))
    (_, lines), errors[2] = _batch_eig(FXs[: FXs.shape[0] // 2 * 2], curve)
    m = lines.shape[0] // 2
    swapped, fixed = _line_patterns(
        lines[0 : 2 * m : 2], lines[1 : 2 * m : 2], js[:m]
    )
    if not np.all(swapped != fixed):
        raise MixedWitnessError(
            "witness matched neither the swapped nor the fixed line pattern"
        )
    _first(None, _latest(errors))
    swaps = int(np.count_nonzero(swapped))
    if swaps and swaps < trials:
        raise MixedWitnessError(
            f"contradictory witnesses: {swaps} swapped, {trials - swaps} fixed"
        )
    kind = EQUIVARIANT if swaps else FACTORS_THROUGH_QUOTIENT
    return EquivarianceVerdict(kind=kind, witnesses=trials)


# ---------------------------------------------------------------------------
# conjugator reconstruction


def _probe_params(window, n: int) -> np.ndarray:
    lo, hi = window.lower, window.upper
    return lo + (np.arange(1, n + 1) / (n + 1)) * (hi - lo)


def _probes(lines: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each row u of lines, the normal matrix with eigenline span(u) for
    values[0] and the rest of the spectrum on the orthogonal complement:
    one stacked QR and one stacked SVD."""
    n = values.size
    u = lines / _norms(lines[:, None, :])[:, None]
    B = np.broadcast_to(np.eye(n, dtype=complex), (len(u), n, n)).copy()
    B[:, :, 0] = u
    Q, _ = np.linalg.qr(B)
    # qr may flip the first column's phase; pin it back to u
    Q[:, :, 0] = u
    # the complement of u in Q's other columns, an orthonormal basis of it:
    # those n - 1 columns have full rank, so no column is dropped
    rest = Q[:, :, 1:] - u[:, :, None] * (u.conj()[:, None, :] @ Q[:, :, 1:])
    Q[:, :, 1:] = np.linalg.svd(rest, full_matrices=False)[0]
    return (Q * values) @ Q.conj().transpose(0, 2, 1)


def _first_line_images(decs, values):
    """The unit vector spanning the eigenline of values[0] in each probe
    image, by the images' stacked decompositions, for the leading rows; and
    the error that the next row raises, or None."""
    N, n = decs.d.shape
    # the first column of the cluster nearest values[0]
    k = np.argmin(np.abs(decs.d - values[0]), axis=1)
    m, exc = N, None
    for i, mults in enumerate(decs.mults):
        if len(mults) < n and np.repeat(mults, mults)[k[i]] != 1:
            m, exc = i, ReconstructionError("probe image eigenvalue is not simple")
            break
    t, k = np.arange(m), k[:m]
    # the idempotent of that cluster, formed as SpectralDecomposition does
    P = decs.B[t, :, k][:, :, None] @ decs.Binv[t, k][:, None, :]
    v = P[t, :, np.argmax(np.linalg.norm(P, axis=1), axis=1)]
    return v / _norms(v[:, None, :])[:, None], exc


def _holdout_residual(bb: BlackBoxMap, rng, model) -> float:
    """Worst relative deviation ||F(X) - model(X)|| / ||X|| of the map from
    a candidate model, a map of stacks, over fresh domain samples; the max
    is taken in sample order, as one sample at a time."""
    (Xs,), _ = bb.domain.sample(rng, _VALIDATION_SAMPLES)
    errors = [None]
    FXs, errors[0] = bb.apply_rows(Xs)
    Xs = Xs[: len(FXs)]
    ratios = _norms(FXs - model(Xs)) / _norms(Xs)
    residual = max([0.0, *ratios.tolist()])
    return _first(float(residual), _latest(errors))


def reconstruct_conjugator(bb: BlackBoxMap, rng=None):
    """Recover (T, antilinear, residual) for an eigenspace-tracking map.

    Probes with first eigenlines span(e_i) give the columns of T up to
    scale, probes with span(e_0 + e_j) fix the relative scales, and the
    single probe span(e_0 + i e_1) separates linear from conjugate-linear
    line action.  The candidate is validated on fresh holdout samples;
    the residual is the worst relative deviation seen there.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = bb.domain.n
    values = bb.domain.curve.eval_array(_probe_params(bb.domain.window, n))
    eye = np.eye(n, dtype=complex)
    # first lines: e_i, then (e_0 + e_j) / sqrt(2), then (e_0 + i e_1) / sqrt(2)
    lines = np.array([
        *eye.T, *((eye[:, 0] + eye[:, j]) / np.sqrt(2) for j in range(1, n)),
        (eye[:, 0] + 1j * eye[:, 1]) / np.sqrt(2)])
    errors = [None] * 3  # of the map, the decompositions and the lines
    FXs, errors[0] = bb.apply_rows(_probes(lines, values))
    # the decompositions of the leading images, and the next one's error
    decs, errors[1] = _decompose_rows(FXs)
    images, errors[2] = _first_line_images(decs, values)

    def image(k):  # called with k = 0, 1, 2, ... in turn
        if k >= len(images):
            _first(None, _latest(errors))
        return images[k]

    cols = [image(i) for i in range(n)]
    T = np.empty((n, n), dtype=complex)
    T[:, 0] = cols[0]
    for j in range(1, n):
        w = image(n - 1 + j)
        coeffs, *_ = np.linalg.lstsq(
            np.column_stack([cols[0], cols[j]]), w, rcond=None
        )
        alpha, beta = coeffs
        if abs(alpha) < 1e-12 or abs(beta) < 1e-12:
            raise ReconstructionError("scale probe did not mix both columns")
        T[:, j] = (beta / alpha) * cols[j]

    w = image(2 * n - 1)
    d_lin = line_distance(w, T @ (eye[:, 0] + 1j * eye[:, 1]))
    d_anti = line_distance(w, T @ (eye[:, 0] - 1j * eye[:, 1]))
    antilinear = d_anti < d_lin

    T /= T.ravel()[int(np.argmax(np.abs(T)))]
    # probes of a non-preserver can land on repeated output lines
    if not conditioned(T[None])[0]:
        raise ReconstructionError("reconstructed conjugator is near singular")
    Tinv = np.linalg.inv(T)
    residual = _holdout_residual(
        bb, rng, lambda Xs: T @ (Xs.transpose(0, 2, 1) if antilinear else Xs) @ Tinv
    )
    if residual > _VALIDATION_TOL:
        raise ReconstructionError(
            f"conjugator validation residual {residual:.3e} exceeds {_VALIDATION_TOL:g}"
        )
    return T, antilinear, residual


@dataclass
class PreserverType:
    """Classification result: the family label, its parameter, the
    validation residual, and the witness budget spent."""

    kind: str  # "conjugation" | "transpose_conjugation" | "ordering_map" | "unknown"
    T: np.ndarray | None
    antilinear: bool
    residual: float
    trials: int
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "T": None if self.T is None else matrix_to_json(self.T),
            "antilinear": self.antilinear,
            "residual": self.residual,
            "trials": self.trials,
            "reason": self.reason,
        }


def _recover_fixed_frame(bb: BlackBoxMap, rng):
    """Average the sorted output eigenvector matrices of a quotient map."""
    errors = [None] * 4  # of the draws, the map, the decompositions, the flags
    draw, _, errors[0] = _simple_draws(bb.domain, rng, _FRAME_SAMPLES)
    FXs, errors[1] = bb.apply_rows(_assemble(draw)[0])
    # the decompositions of the leading outputs, and the next one's error
    decs, errors[2] = _decompose_rows(FXs)
    Fs, errors[3] = _eigenflags(decs, bb.domain.curve)
    if len(Fs):
        # align each column's phase to the first sample before averaging:
        # c[i, j] is ref[:, j].conj() @ Fs[i + 1][:, j], a contiguous row
        # by a strided column as in a loop over the columns, since the
        # strides choose BLAS's dot kernel and so the bits
        ref = np.ascontiguousarray(Fs[0].conj().T)
        c = (ref[:, None, :] @ Fs[1:].transpose(0, 2, 1)[..., None])[..., 0, 0]
        mod = np.hypot(c.real, c.imag)  # abs(c) of each scalar
        if np.any(mod < 1e-12):
            raise ReconstructionError("output frames do not share columns")
        Fs[1:] *= (c.conj() / mod)[:, None, :]
        frame = Fs[0].copy()
        for F in Fs[1:]:  # summed in sample order
            frame += F
    _first(None, _latest(errors))
    frame /= np.linalg.norm(frame, axis=0, keepdims=True)
    return frame


def classify_preserver(
    bb: BlackBoxMap, rng=None, trials: int = 20
) -> PreserverType:
    """Label a black-box preserver as conjugation, transpose conjugation,
    or an ordering map, with its parameter; anything that fails witness
    agreement or holdout validation comes back unknown."""
    if bb.domain.matrix_class is not MatrixClass.NORMAL:
        raise ConfigError("classification runs on the normal-matrix domain")
    if rng is None:
        rng = np.random.default_rng(0)

    def unknown(reason, residual=float("inf")):
        return PreserverType("unknown", None, False, residual, trials, reason=reason)

    try:
        verdict = equivariance_test(bb, trials, rng)
    except (MixedWitnessError, NumericalDomainError) as exc:
        return unknown(str(exc))

    if verdict.kind == EQUIVARIANT:
        try:
            T, antilinear, residual = reconstruct_conjugator(bb, rng)
        except (ReconstructionError, NumericalDomainError) as exc:
            return unknown(str(exc))
        kind = "transpose_conjugation" if antilinear else "conjugation"
        return PreserverType(kind, T, antilinear, residual, trials)

    try:
        frame = _recover_fixed_frame(bb, rng)
        residual = _holdout_residual(
            bb, rng, OrderMap(bb.domain.curve, frame).apply_batch
        )
    except (ReconstructionError, NumericalDomainError, ConfigError) as exc:
        return unknown(str(exc))
    if residual > _VALIDATION_TOL:
        return unknown(f"ordering-map validation residual {residual:.3e}", residual)
    return PreserverType("ordering_map", frame, False, residual, trials)


# ---------------------------------------------------------------------------
# the induced subspace map


def subspace_image(bb: BlackBoxMap, V: np.ndarray) -> np.ndarray:
    """Image of the subspace span(V) under the map the preserver induces
    on sums of leading eigenspaces.

    Builds a normal operator whose d lowest (in curve order) eigenvalues
    carry span(V), applies the preserver, and reads back the span of the
    d lowest output eigenspaces.  For an eigenspace-tracking preserver
    this is well defined: the result does not depend on the basis of V
    or on the auxiliary eigenvalues.
    """
    n = bb.domain.n
    V = orthonormal_columns(np.asarray(V, dtype=complex))
    d = V.shape[1]
    if not 1 <= d <= n:
        raise ConfigError("subspace dimension out of range")
    curve = bb.domain.curve
    values = curve.eval_array(_probe_params(bb.domain.window, n))

    # complete V to a unitary: QR of [V | I] keeps V's span in the lead columns
    Q, _ = np.linalg.qr(np.column_stack([V, np.eye(n, dtype=complex)]))
    basis = np.column_stack([V, Q[:, d:]])
    # the values in curve order: the d curve-lowest go to V's basis vectors
    X = (basis * values[curve.order(values)]) @ basis.conj().T

    FX = bb.apply(X)
    dec = spectral_decompose(FX)
    out_order = _curve_order(dec, curve)
    blocks = []
    got = 0
    for k in out_order:
        if got >= d:
            break
        P = dec.idempotents[k]
        r = dec.multiplicities[k]
        U, s, _ = np.linalg.svd(P)
        blocks.append(U[:, :r])
        got += r
    if got != d:
        raise NumericalDomainError("output eigenspace dimensions straddle d")
    return orthonormal_columns(np.column_stack(blocks))


# ---------------------------------------------------------------------------
# the closed-circle obstruction


@dataclass
class ObstructionReport:
    spectrum: tuple
    cut_angles: tuple
    outputs: tuple
    orders: tuple
    mismatch: float
    same_gap: bool

    def to_json(self) -> dict:
        return {
            "spectrum": [[z.real, z.imag] for z in self.spectrum],
            "cut_angles": list(self.cut_angles),
            "outputs": [matrix_to_json(Y) for Y in self.outputs],
            "orders": [list(o) for o in self.orders],
            "mismatch": self.mismatch,
            "same_gap": self.same_gap,
        }


def circle_obstruction_demo(n: int, spectrum, cuts) -> ObstructionReport:
    """Show that cutting the circle in different spectral gaps produces
    genuinely different ordering maps.

    Each cut point turns the circle into an open arc starting just past
    the cut; ordering the same diagonal spectrum along the two arcs gives
    different outputs exactly when the cuts sit in different gaps between
    consecutive spectrum points.
    """
    spectrum = [complex(z) for z in spectrum]
    if len(spectrum) != n or n < 3:
        raise ConfigError("need n >= 3 spectrum points")
    angles = np.angle(spectrum)
    if any(abs(abs(z) - 1.0) > 1e-9 for z in spectrum):
        raise ConfigError("spectrum points must have unit modulus")
    if len(set(np.round(angles, 12))) != n:
        raise ConfigError("spectrum points must be distinct")
    cuts = [complex(z) for z in cuts]
    if len(cuts) != 2:
        raise ConfigError("exactly two cut points required")
    cut_angles = []
    for c in cuts:
        if abs(abs(c) - 1.0) > 1e-9:
            raise ConfigError("cut points must lie on the circle")
        if min(abs(c - z) for z in spectrum) < 1e-9:
            raise CoincidentPointsError("cut coincides with a spectrum point")
        cut_angles.append(float(np.angle(c)))

    X = np.diag(spectrum)
    outputs, orders = [], []
    for a in cut_angles:
        arc = punctured_unit_circle(a)
        Y = OrderMap(arc, np.eye(n, dtype=complex)).apply(X)
        outputs.append(Y)
        # output diagonal lists the spectrum in this arc's travel order
        order = tuple(
            int(np.argmin(np.abs(np.array(spectrum) - y))) for y in np.diag(Y)
        )
        orders.append(order)

    mismatch = float(np.linalg.norm(outputs[0] - outputs[1]))
    # the cuts share a gap iff they induce the same travel order
    same_gap = orders[0] == orders[1]
    return ObstructionReport(
        spectrum=tuple(spectrum),
        cut_angles=tuple(cut_angles),
        outputs=tuple(outputs),
        orders=tuple(orders),
        mismatch=mismatch,
        same_gap=same_gap,
    )
