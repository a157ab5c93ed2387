"""Randomized preserver checks, continuity probes, and the involution experiment.

check_cs throws sampled single matrices and exactly-commuting pairs at an
arbitrary matrix map and tests spectrum preservation and commutativity
preservation at relative tolerances with absolute floors.  Maps that carry
a vectorized apply_batch are driven in stacked chunks, which is what makes
the large canonical-map sweeps affordable; opaque callables are applied one
matrix at a time inside the same pipeline.

continuity_probe estimates a modulus of continuity along a matrix path and
raises a heuristic discontinuity flag when the output oscillation refuses
to decay at the finest grid separation even though the input path steps
have contracted.  The involution experiment wires this to collision paths
whose spectra slide into a curve point from both sides while an
off-diagonal coupling keeps the output pinned; near a corner the coupled
quotient stays order one and the flag trips, matching the boundedness
verdict of the difference-quotient probe on the same curve.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, Interval, curve_to_json
from .errors import ConfigError, MapProtocolError
from .maps import rho
from .regularity import RegularityProfile, db_profile, dc_probe
from .spectral import (
    MatrixClass,
    _batch_greedy_match_max,
    _matchable,
    as_matrix,
    default_window,
    matrix_from_json,
    matrix_to_json,
    sample_batch,
    sample_commuting_pair_batch,
    spectral_bottleneck_distance,
)

__all__ = [
    "DomainSpec",
    "BlackBoxMap",
    "ExternalProgramMap",
    "Counterexample",
    "PreserverVerdict",
    "check_cs",
    "ContinuityTable",
    "continuity_probe",
    "collision_path",
    "RhoContinuityReport",
    "rho_continuity_experiment",
]

_CHUNK = 1024

# an external map gets this long to exit after stdin closes, and again
# after SIGTERM, before it is killed
_CLOSE_GRACE_S = 2.0
# characters of an external map's stderr kept for diagnostics
_STDERR_TAIL_CHARS = 500


@dataclass(frozen=True)
class DomainSpec:
    """Sampling domain: curve, dimension, matrix class, parameter window."""

    curve: Curve
    n: int
    matrix_class: MatrixClass
    window: Interval | None = None

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", default_window(self.curve))

    def sample_batch(self, rng, count: int) -> np.ndarray:
        return sample_batch(
            self.curve, self.n, self.matrix_class, rng, self.window, count
        )

    def sample_pair_batch(self, rng, count: int):
        return sample_commuting_pair_batch(
            self.curve, self.n, self.matrix_class, rng, self.window, count
        )


class BlackBoxMap:
    """An opaque matrix map under test, together with its sampling domain."""

    def __init__(self, func, domain: DomainSpec, name: str = "map"):
        if not callable(func):
            raise ConfigError("black-box map needs a callable")
        self.func = func
        self.domain = domain
        self.name = name

    def _validated(self, X: np.ndarray, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=complex)
        if Y.shape != X.shape:
            raise MapProtocolError(
                f"{self.name} returned shape {Y.shape} for input shape {X.shape}"
            )
        if not np.all(np.isfinite(Y)):
            raise MapProtocolError(f"{self.name} returned non-finite entries")
        return Y

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        return self._validated(X, self.func(X))

    def apply_batch(self, Xs: np.ndarray) -> np.ndarray:
        Xs = np.asarray(Xs, dtype=complex)
        inner = getattr(self.func, "apply_batch", None)
        if inner is not None:
            out = np.asarray(inner(Xs), dtype=complex)
            if out.shape != Xs.shape or not np.all(np.isfinite(out)):
                raise MapProtocolError(f"{self.name} batch output malformed")
            return out
        return np.array([self.apply(X) for X in Xs])


class ExternalProgramMap:
    """A map implemented by a subprocess speaking matrix JSON line protocol.

    One matrix JSON object per input line, one per output line.  A program
    that cannot start is a config error; a nonzero exit or a malformed reply
    is a protocol error.  The program's stderr is drained on a thread, so
    that a chatty program cannot fill the pipe and stall; the last
    characters are kept for diagnostics.
    """

    def __init__(self, argv):
        self.argv = list(argv)
        try:
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise ConfigError(f"cannot start {self.argv}: {exc}") from None
        self._stderr_bytes = b""
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        fd = self.proc.stderr.fileno()
        # keep up to 4 bytes per character: UTF-8's longest encoding
        while chunk := os.read(fd, 65536):
            self._stderr_bytes = (self._stderr_bytes + chunk)[-4 * _STDERR_TAIL_CHARS:]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        if self.proc.poll() is not None:
            raise MapProtocolError(
                f"external map exited with code {self.proc.returncode}"
            )
        try:
            self.proc.stdin.write(json.dumps(matrix_to_json(X)) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise MapProtocolError(f"external map pipe failed: {exc}") from None
        if not line:
            code = self._end()
            self._drain.join(timeout=_CLOSE_GRACE_S)
            err = self._stderr_bytes.decode("utf-8", errors="replace")
            raise MapProtocolError(
                f"external map closed its output (exit {code}): "
                f"{err[-_STDERR_TAIL_CHARS:]}"
            )
        try:
            return matrix_from_json(json.loads(line))
        except (json.JSONDecodeError, ConfigError) as exc:
            raise MapProtocolError(f"external map reply malformed: {exc}") from None

    def _end(self) -> int:
        """Stop the program and return its exit code, never raising: stdin
        EOF, then SIGTERM, then SIGKILL, each after a grace period in which
        it may exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the program is gone and the last flush found no reader
        for escalate in (self.proc.terminate, self.proc.kill):
            try:
                return self.proc.wait(timeout=_CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                escalate()
        return self.proc.wait()

    def close(self) -> None:
        """End the program (see _end) and release its pipes; never raises."""
        self._end()
        self.proc.stdout.close()
        self._drain.join(timeout=_CLOSE_GRACE_S)
        if not self._drain.is_alive():
            self.proc.stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class Counterexample:
    """First recorded violation: the witnesses and the violation size."""

    kind: str  # "spectrum" or "commutativity"
    trial: int
    inputs: tuple
    outputs: tuple
    magnitude: float
    tolerance: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "trial": self.trial,
            "inputs": [matrix_to_json(m) for m in self.inputs],
            "outputs": [matrix_to_json(m) for m in self.outputs],
            "magnitude": self.magnitude,
            "tolerance": self.tolerance,
        }


@dataclass
class PreserverVerdict:
    spectrum_ok: bool
    commutativity_ok: bool
    trials: int
    counterexample: Counterexample | None

    def __post_init__(self):
        has_violation = not (self.spectrum_ok and self.commutativity_ok)
        if has_violation != (self.counterexample is not None):
            raise ConfigError("counterexample must be present iff a flag is false")

    @property
    def ok(self) -> bool:
        return self.spectrum_ok and self.commutativity_ok

    def to_json(self) -> dict:
        return {
            "spectrum_ok": self.spectrum_ok,
            "commutativity_ok": self.commutativity_ok,
            "trials": self.trials,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json(),
        }


def check_cs(
    bb: BlackBoxMap, trials: int, tol: float = 1e-6, rng=None
) -> PreserverVerdict:
    """Randomized spectrum/commutativity preservation check.

    Spectrum: eigenvalue multisets of X and the image must match within
    max(1e-12, tol * ||X||) on `trials` single samples.  Commutativity:
    images of exactly-commuting pairs must have commutator norm at most
    max(1e-12, tol * ||im X|| * ||im Y||) on `trials` constructed pairs.
    The first violation in trial order is recorded.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if rng is None:
        rng = np.random.default_rng(0)

    spectrum_bad = None  # (trial, X, FX, magnitude, tol)
    done = 0
    while done < trials:
        cnt = min(_CHUNK, trials - done)
        Xs = bb.domain.sample_batch(rng, cnt)
        FXs = bb.apply_batch(Xs)
        if spectrum_bad is None:
            wx = np.linalg.eigvals(Xs)
            wy = np.linalg.eigvals(FXs)
            tols = np.maximum(1e-12, tol * np.linalg.norm(Xs, axis=(1, 2)))
            D = np.abs(wx[:, :, None] - wy[:, None, :])
            suspect = _batch_greedy_match_max(D) > tols
            for i in np.flatnonzero(suspect):
                if not _matchable(D[i], tols[i]):
                    spectrum_bad = (
                        done + int(i),
                        Xs[i],
                        FXs[i],
                        spectral_bottleneck_distance(Xs[i], FXs[i]),
                        float(tols[i]),
                    )
                    break
        done += cnt

    comm_bad = None
    done = 0
    while done < trials:
        cnt = min(_CHUNK, trials - done)
        Xs, Ys = bb.domain.sample_pair_batch(rng, cnt)
        FXs = bb.apply_batch(Xs)
        FYs = bb.apply_batch(Ys)
        if comm_bad is None:
            comm = np.linalg.norm(FXs @ FYs - FYs @ FXs, axis=(1, 2))
            tols = np.maximum(
                1e-12,
                tol
                * np.linalg.norm(FXs, axis=(1, 2))
                * np.linalg.norm(FYs, axis=(1, 2)),
            )
            bad = comm > tols
            if bad.any():
                i = int(np.argmax(bad))
                comm_bad = (
                    done + i,
                    (Xs[i], Ys[i]),
                    (FXs[i], FYs[i]),
                    float(comm[i]),
                    float(tols[i]),
                )
        done += cnt

    counter = None
    if spectrum_bad is not None:
        t, X, FX, mag, tolv = spectrum_bad
        counter = Counterexample("spectrum", t, (X,), (FX,), mag, tolv)
    elif comm_bad is not None:
        t, ins, outs, mag, tolv = comm_bad
        counter = Counterexample("commutativity", t, ins, outs, mag, tolv)
    return PreserverVerdict(
        spectrum_ok=spectrum_bad is None,
        commutativity_ok=comm_bad is None,
        trials=trials,
        counterexample=counter,
    )


# ---------------------------------------------------------------------------
# continuity probing


@dataclass
class ContinuityTable:
    """Empirical modulus of continuity of a map along a path."""

    deltas: tuple
    output_sups: tuple
    input_sups: tuple
    flag: bool
    ratio: float
    ratio_threshold: float
    input_contraction: float
    output_floor: float

    def to_json(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "output_sups": list(self.output_sups),
            "input_sups": list(self.input_sups),
            "flag": self.flag,
            "ratio": self.ratio,
            "ratio_threshold": self.ratio_threshold,
            "input_contraction": self.input_contraction,
            "output_floor": self.output_floor,
        }


def continuity_probe(
    bb: BlackBoxMap,
    path,
    samples: int = 101,
    ratio_threshold: float = 0.9,
    input_contraction: float = 1e-3,
    output_floor: float = 1e-6,
) -> ContinuityTable:
    """Modulus-of-continuity table for bb along path: [0,1] -> matrices.

    The grid is uniform; delta levels double from the grid spacing upward.
    The discontinuity flag trips iff the output sup at the finest delta
    stays above ratio_threshold times the next level's sup (no decay on
    refinement), the input path's finest-level sup is at most
    input_contraction (the path itself has contracted), and the output sup
    clears output_floor (constant paths stay quiet).  Thresholds are
    heuristics; the raw table is the real product.
    """
    if samples < 3:
        raise ConfigError("need at least 3 path samples")
    ts = np.linspace(0.0, 1.0, samples)
    Xs = np.array([as_matrix(path(t)) for t in ts])
    FXs = bb.apply_batch(Xs)

    spacing = 1.0 / (samples - 1)
    deltas = []
    d = spacing
    while d <= 1.0 + 1e-12:
        deltas.append(d)
        d *= 2.0

    # pairwise distances, then sup over |t - s| <= delta for each level
    diff_in = np.linalg.norm(Xs[:, None] - Xs[None, :], axis=(2, 3))
    diff_out = np.linalg.norm(FXs[:, None] - FXs[None, :], axis=(2, 3))
    gaps = np.abs(ts[:, None] - ts[None, :])
    out_sups, in_sups = [], []
    for d in deltas:
        mask = gaps <= d + 1e-12
        out_sups.append(float(diff_out[mask].max()))
        in_sups.append(float(diff_in[mask].max()))

    ratio = out_sups[0] / out_sups[1] if out_sups[1] > 0 else 0.0
    flag = (
        len(deltas) >= 2
        and ratio > ratio_threshold
        and in_sups[0] <= input_contraction
        and out_sups[0] >= output_floor
    )
    return ContinuityTable(
        deltas=tuple(deltas),
        output_sups=tuple(out_sups),
        input_sups=tuple(in_sups),
        flag=flag,
        ratio=float(ratio),
        ratio_threshold=ratio_threshold,
        input_contraction=input_contraction,
        output_floor=output_floor,
    )


# ---------------------------------------------------------------------------
# collision paths and the involution experiment


def collision_path(
    curve: Curve,
    n: int,
    corner_param: float,
    style: str = "straddle-sym",
    eps_max: float = 2e-5,
):
    """Path t -> X_t of semisimple matrices whose spectrum collapses onto
    the curve point at corner_param as t -> 1.

    X_t is upper bidiagonal: the diagonal holds n curve points spread
    eps_t = (1-t) * eps_max around the center, the superdiagonal holds the
    coupling eps_t^((n-2)/(n-1)).  That exponent balances the coupling
    product against the growth of the order-(n-1) difference quotient, so
    a corner in the curve keeps one output entry of the involution pinned
    at order one while the input collapses to a scalar.

    Styles place the diagonal offsets: 'straddle-sym' symmetric about the
    center, 'straddle-skew' asymmetric about it, 'one-sided' entirely on
    one side (which never straddles a corner, a control case).  The
    one-sided control takes a gentler coupling exponent: its narrower
    eigenvalue spread would otherwise push the eigenbasis conditioning
    near the defective-detection limit, and no pinning is expected there
    anyway.
    """
    if n < 2:
        raise ConfigError("collision paths need n >= 2")
    alpha = (n - 2) / (n - 1) if n >= 3 else 0.5
    if style == "straddle-sym":
        offsets = np.linspace(-1.0, 1.0, n)
    elif style == "straddle-skew":
        offsets = np.linspace(-0.4, 1.0, n)
    elif style == "one-sided":
        offsets = np.linspace(0.3, 1.0, n)
        alpha = alpha + (1.0 - alpha) / 2.0
    else:
        raise ConfigError(f"unknown collision path style {style!r}")
    t_c = float(corner_param)

    def path(t: float) -> np.ndarray:
        eps = (1.0 - float(t)) * eps_max
        diag = curve.eval_array(t_c + eps * offsets)
        X = np.diag(diag)
        s = eps**alpha
        for i in range(n - 1):
            X[i, i + 1] = s
        return X

    return path


_PATH_STYLES = ("straddle-sym", "straddle-skew", "one-sided")

# The collision spectra run eigengaps down to ~1.4e-7 near the endpoint;
# the involution is applied with a fixed fine cluster tolerance so those
# gaps are never merged before the projectors are formed.
_RHO_PATH_CLUSTER_TOL = 1e-8


@dataclass
class RhoContinuityReport:
    """Boundedness/limit verdicts next to continuity flags on collision paths."""

    curve_json: dict
    n: int
    corner_param: float
    db: RegularityProfile
    dc: RegularityProfile
    path_tables: dict = field(default_factory=dict)
    concordant: bool = True

    @property
    def any_flag(self) -> bool:
        return any(t.flag for t in self.path_tables.values())

    def to_json(self) -> dict:
        return {
            "curve": self.curve_json,
            "n": self.n,
            "corner_param": self.corner_param,
            "db_verdict": self.db.verdict_db,
            "db_slope": self.db.slope,
            "dc_verdict": self.dc.verdict_dc,
            "dc_limit": None
            if self.dc.dc_limit is None
            else [self.dc.dc_limit.real, self.dc.dc_limit.imag],
            "paths": {k: v.to_json() for k, v in self.path_tables.items()},
            "any_discontinuity_flag": self.any_flag,
            "concordant": self.concordant,
        }


def rho_continuity_experiment(
    curve: Curve,
    n: int = 3,
    corner_param: float = 0.0,
    scales=None,
    samples: int = 101,
    rng=None,
) -> RhoContinuityReport:
    """Difference-quotient verdicts vs involution continuity at one curve point.

    Runs the boundedness and limit probes for complex conjugation at order
    n around the point, then probes the involution for continuity along
    collision paths collapsing onto that point, and reports whether the
    verdicts agree in the predicted direction: a bounded quotient should
    mean no discontinuity flag on any path, a diverging one should trip a
    flag on some straddling path.
    """
    if n < 2:
        raise ConfigError("experiment needs n >= 2")
    if rng is None:
        rng = np.random.default_rng(0)
    center = curve.eval(float(corner_param))
    db_scales = tuple(scales) if scales is not None else (1e-1, 1e-2, 1e-3, 1e-4)
    dc_scales = tuple(scales) if scales is not None else (1e-2, 1e-3, 1e-4, 1e-5)
    db = db_profile(curve, np.conj, n, center, scales=db_scales, rng=rng)
    dc = dc_probe(curve, np.conj, n, center, scales=dc_scales, rng=rng)

    window = default_window(curve)
    domain = DomainSpec(curve, n, MatrixClass.SEMISIMPLE, window)
    bb = BlackBoxMap(
        lambda X: rho(X, cluster_tol=_RHO_PATH_CLUSTER_TOL), domain, name="rho"
    )
    tables = {}
    for style in _PATH_STYLES:
        path = collision_path(curve, n, corner_param, style)
        tables[style] = continuity_probe(bb, path, samples=samples)

    any_flag = any(t.flag for t in tables.values())
    bounded = db.verdict_db == "bounded"
    concordant = bounded == (not any_flag)
    return RhoContinuityReport(
        curve_json=curve_to_json(curve),
        n=n,
        corner_param=float(corner_param),
        db=db,
        dc=dc,
        path_tables=tables,
        concordant=concordant,
    )
