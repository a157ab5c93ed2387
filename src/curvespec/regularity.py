"""Difference quotients on curve configurations and boundedness/limit probes.

The recursive difference quotient of a scalar function is evaluated over
tuples of distinct curve points.  Two randomized probes estimate its
behaviour as the tuple collapses onto a center: one tracks the growth of
sup |quotient| across shrinking parameter scales (boundedness verdict via
a log-log slope), the other tracks mean and dispersion (limit verdict).

Tuples are sampled in parameter space inside the scale ball, split into
straddling and one-sided strata, and kept apart by a minimum pairwise
separation of 5% of the scale.  The separation floor is what makes the
sup estimator stable scale over scale: without it the largest quotients
are dominated by the random closest pair and the slope fit degenerates.

The involution experiment (rho_continuity_experiment) cross-checks the
boundedness verdict at a curve point against continuity_probe's flags for
the involution rho along collision paths whose spectra slide into that
point from both sides while an off-diagonal coupling keeps the output
pinned; near a corner the coupled quotient stays order one and the flag
trips, matching the diverging verdict on the same curve.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, curve_to_json
from .errors import (
    CoincidentPointsError,
    ConfigError,
    NumericalDomainError,
)

__all__ = [
    "ConfigurationTuple",
    "RegularityProfile",
    "divided_difference",
    "db_profile",
    "dc_probe",
    "collision_path",
    "RhoContinuityReport",
    "rho_continuity_experiment",
    "write_profile_csv",
    "DB_SCALES",
    "DC_SCALES",
]

DB_SCALES = (1e-1, 1e-2, 1e-3, 1e-4)
DC_SCALES = (1e-2, 1e-3, 1e-4, 1e-5)

DIVERGENCE_SLOPE = 0.25
DC_DISPERSION_TOL = 1e-3

# sups below this are treated as numerically zero in the slope fit, so
# pure-roundoff growth (machine noise over a shrinking denominator) cannot
# masquerade as divergence
SUP_FLOOR = 1e-8

_MIN_SEPARATION = 0.05  # in units of the scale


@dataclass(frozen=True)
class ConfigurationTuple:
    """Distinct points on a curve, the argument of a difference quotient."""

    points: tuple
    curve: Curve | None = None

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if not pts:
            raise ConfigError("configuration tuple must be nonempty")
        arr = np.array(pts)
        if not np.all(np.isfinite(arr)):
            raise NumericalDomainError("configuration tuple has non-finite points")
        if len(pts) > 1:
            dist = np.abs(arr[:, None] - arr[None, :])
            np.fill_diagonal(dist, np.inf)
            if dist.min() == 0.0:
                raise CoincidentPointsError(
                    "configuration tuple has coincident points"
                )
        if self.curve is not None:
            self.curve.invert_array(arr)  # raises OffCurveError off the curve
        object.__setattr__(self, "points", pts)

    def sorted_points(self) -> tuple:
        """Points ordered by curve parameter when a curve is attached."""
        if self.curve is None:
            return self.points
        return tuple(self.points[i] for i in self.curve.order(self.points))


def _call_f(f, pts: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(pts), dtype=complex)
        if out.shape == pts.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(p)) for p in pts.ravel()]).reshape(pts.shape)


def _quotient_table_err(fvals: np.ndarray, pts: np.ndarray):
    """Triangular recursion over rows of (m, k) stacks, plus a per-row
    forward roundoff bound.

    Curve evaluation leaves each point with absolute uncertainty of a few
    ulps of its magnitude; that displacement moves f by about the local
    first quotient times the displacement, and every later level divides
    the accumulated uncertainty by a point span.  A measured quotient at
    or below this bound is indistinguishable from zero.

    The recursion runs on fresh C-ordered (k, m) copies, so that each
    level's slices are contiguous rows of m entries, not strided columns
    of rows only k long; every entry sees the same operations in the same
    order as along the rows, and a max is exact in any order, so the bits
    are those of the row-wise recursion on C-ordered stacks.  The copies
    also keep the q returned from aliasing fvals.
    """
    em = float(np.finfo(float).eps)
    k = pts.shape[1]
    pts, table = np.array(pts.T, order="C"), np.array(fvals.T, order="C")
    pt_err = 4.0 * em * np.abs(pts).max(axis=0)
    first = (table[1:] - table[:-1]) / (pts[1:] - pts[:-1])
    lip = np.abs(first).max(axis=0, initial=0.0)
    err = em * np.abs(table) + lip * pt_err
    for level in range(1, k):
        num = table[1 : k - level + 1] - table[: k - level]
        den = pts[level:] - pts[: k - level]
        aden = np.abs(den)
        table = num / den
        err = (err[1 : k - level + 1] + err[: k - level]
               + em * np.abs(num)) / aden
        err += np.abs(table) * (em + 2.0 * pt_err / aden)
    return table[0], err[0]


def divided_difference(f, points, curve: Curve | None = None) -> complex:
    """Recursive difference quotient of f over a tuple of distinct points.

    A k-point tuple yields the order-(k-1) quotient.  The value is
    symmetric in the points; when a curve is available they are pre-sorted
    by its parameter to tame cancellation.
    """
    cfg = ConfigurationTuple(tuple(points), curve)
    pts = np.array(cfg.sorted_points())[None, :]
    fv = _call_f(f, pts)
    return complex(_quotient_table_err(fv, pts)[0][0])


# ---------------------------------------------------------------------------
# probe profiles


@dataclass
class RegularityProfile:
    """Per-scale statistics of a difference-quotient probe around a center."""

    center: complex
    order: int
    scales: tuple
    sup_values: tuple
    means: tuple
    dispersions: tuple
    verdict_db: str
    verdict_dc: str
    dc_limit: complex | None
    samples_per_scale: int = 0
    slope: float = 0.0

    def __post_init__(self):
        s = self.scales
        if any(s[i] <= s[i + 1] for i in range(len(s) - 1)):
            raise ConfigError("scales must be strictly decreasing")
        for sup, mean in zip(self.sup_values, self.means):
            if sup + 1e-12 < abs(mean):
                raise NumericalDomainError("sup below the mean it bounds")


def _stratum_plan(samples: int) -> list:
    half = samples // 2
    quarter = samples // 4
    return [
        ("straddle", half),
        ("left", quarter),
        ("right", samples - half - quarter),
    ]


def _acceptable(u: np.ndarray, stratum: str, sep: float) -> np.ndarray:
    """Mask of the rows of u that lie in the stratum (straddle: min < -sep/4
    and max > sep/4; left: max < 0; right: min > 0) and whose sorted entries
    are at least sep apart.

    The least gap between sorted entries is the least |u_i - u_j| over all
    pairs of entries, bit for bit: for a <= b <= c, c - a >= b - a holds
    exactly and rounding is monotone, so no pair's rounded distance falls
    below that of the adjacent pair inside it, and fl(a - b) = -fl(b - a).
    """
    # reducing over the k column views is cheap where an axis=1 reduction
    # or a sort along short rows is not; pair only rows in the stratum
    if stratum == "straddle":
        ok = ((functools.reduce(np.minimum, u.T) < -0.25 * sep)
              & (functools.reduce(np.maximum, u.T) > 0.25 * sep))
    elif stratum == "left":
        ok = functools.reduce(np.maximum, u.T) < 0.0
    else:
        ok = functools.reduce(np.minimum, u.T) > 0.0
    rows = np.flatnonzero(ok)
    if rows.size:
        cols = u.T.take(rows, axis=1)  # C-ordered: contiguous columns
        ok[rows] = functools.reduce(np.minimum, (
            np.abs(cols[i] - cols[j])
            for i, j in itertools.combinations(range(len(cols)), 2))) >= sep
    return ok


def _sample_offsets(
    rng: np.random.Generator,
    stratum: str,
    count: int,
    k: int,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Unit-scale parameter offsets in [lo, hi] with pairwise separation.

    Seeded probe outputs rest on this stream contract: the rows returned and
    the state in which rng is left are those of a round loop.  Its round r
    draws ``rng.uniform(lo, hi, size=(4 * (count - have), k))``, with
    ``have`` rows accepted so far, and keeps the first rows that
    ``_acceptable`` passes at ``sep``, up to the ``count - have`` still
    missing; ``sep`` starts at 0.05 and halves before rounds 101, 202, 303
    and so on.  The loop stops after the round that fills ``count`` rows,
    and ``count == 0`` draws nothing.  The number of rng calls is not part
    of the contract.  The halving bounds the rounds on a box too thin for
    sep, but a stratum that rarely accepts reaches it on ordinary boxes too
    (one-sided strata of 500 rows at order 5 on [-1, 1] take 107 to 179
    rounds a call), and then draws its last rows at half of sep.

    The rounds run as a scan over blocks of the same stream: uniform draws
    element by element whatever the shape, so the rounds are consecutive
    runs of rows.  Each block holds 4 * count rows, the loop's largest
    draw, and is judged at once, column by column: the separation test
    takes the least |u_i - u_j| over the k(k-1)/2 column pairs, which is
    the least gap of the sorted row bit for bit (see _acceptable), so no
    row is sorted.  The rounds are then replayed on integers, and a
    halving re-judges the block's unconsumed rows.  A round may span
    two blocks.  When the last block is only partly used, rng is put back
    to the state before its draw and redraws the rows used, which leaves
    every numpy bit generator where the round loop leaves it.
    """
    out = np.zeros((count, k))
    if count == 0:
        return out
    block = 4 * count
    have = 0
    sep = _MIN_SEPARATION
    rounds = 0  # since the last halving
    left = 0  # rows of the current round not yet consumed
    while have < count:
        state = rng.bit_generator.state
        u = rng.uniform(lo, hi, size=(block, k))
        ok = _acceptable(u, stratum, sep)
        seen = np.cumsum(ok)  # acceptable rows among the first i + 1
        start, pos = have, 0
        while pos < block and (left or have < count):
            if not left:
                rounds += 1
                if rounds > 100:
                    sep *= 0.5
                    rounds = 0
                    ok[pos:] = _acceptable(u[pos:], stratum, sep)
                    seen = np.cumsum(ok)
                left = 4 * (count - have)
            # every round before the last keeps all of its acceptable rows
            end = min(pos + left, block)
            have = min(count, start + int(seen[end - 1]))
            left -= end - pos
            pos = end
        out[start:have] = u[np.flatnonzero(ok[:pos])[: have - start]]
    if pos < block:
        rng.bit_generator.state = state
        rng.uniform(lo, hi, size=(pos, k))
    if left:
        rng.uniform(lo, hi, size=(left, k))
    return out


def _probe(
    curve: Curve,
    f,
    order: int,
    center: complex,
    scales,
    samples_per_scale: int,
    rng: np.random.Generator,
):
    if order < 2:
        raise ConfigError(f"probe order must be at least 2, got {order}")
    scales = tuple(float(s) for s in scales)
    if len(set(scales)) != len(scales):
        raise ConfigError("duplicate scales")
    if not all(0.0 < s < np.inf for s in scales):
        raise ConfigError(f"scales must be positive and finite, got {scales}")
    scales = tuple(sorted(scales, reverse=True))
    if samples_per_scale < 1:
        raise ConfigError("samples_per_scale must be positive")
    center = complex(center)
    t_c = curve.invert(center)
    dom = curve.domain
    k = order  # tuple size: order-many points give the (order-1) quotient

    sups, means, disps = [], [], []
    for eps in scales:
        if dom is None:
            lo_u, hi_u = -1.0, 1.0
        else:
            lo_u = -min(1.0, max(0.0, (t_c - dom.lower) / eps))
            hi_u = min(1.0, max(0.0, (dom.upper - t_c) / eps))
        if hi_u - lo_u < _MIN_SEPARATION * k:
            # no room for a distinct tuple at this scale: vacuous
            sups.append(0.0)
            means.append(0.0 + 0.0j)
            disps.append(0.0)
            continue
        rows = []
        for stratum, cnt in _stratum_plan(samples_per_scale):
            if stratum == "left" and lo_u >= -_MIN_SEPARATION * k:
                stratum = "right"
            elif stratum == "right" and hi_u <= _MIN_SEPARATION * k:
                stratum = "left"
            if stratum == "straddle" and (
                lo_u > -0.25 * _MIN_SEPARATION or hi_u < 0.25 * _MIN_SEPARATION
            ):
                stratum = "left" if hi_u <= 0 else "right"
            rows.append(_sample_offsets(rng, stratum, cnt, k, lo_u, hi_u))
        u = np.vstack(rows)
        params = np.sort(t_c + eps * u, axis=1)
        pts = curve.eval_array(params.ravel()).reshape(params.shape)
        fv = _call_f(f, pts)
        # points far from the origin can coincide in floating point, and
        # tiny scales overflow: the check below reports either
        with np.errstate(all="ignore"):
            q, qerr = _quotient_table_err(fv, pts)
        if not np.all(np.isfinite(q)):
            raise CoincidentPointsError(
                f"non-finite difference quotients at scale {eps:g}: points that "
                "coincide in floating point, overflow or non-finite values of f")
        q[np.abs(q) <= 8.0 * qerr] = 0.0  # certified numerical zero
        mean = complex(q.mean())
        sups.append(float(np.abs(q).max()))
        means.append(mean)
        disps.append(float(np.abs(q - mean).max()))

    logsup = np.log(np.maximum(sups, SUP_FLOOR))
    loginv = np.log(1.0 / np.array(scales))
    slope = float(np.polyfit(loginv, logsup, 1)[0]) if len(scales) > 1 else 0.0
    verdict_db = "diverging" if slope > DIVERGENCE_SLOPE else "bounded"

    tail_disp = disps[-2:]
    tail_means = means[-2:]
    if (
        len(scales) > 1
        and all(d <= DC_DISPERSION_TOL for d in tail_disp)
        and abs(tail_means[0] - tail_means[1]) <= DC_DISPERSION_TOL
    ):
        verdict_dc = "converges"
        dc_limit = means[-1]
    else:
        verdict_dc = "no_limit"
        dc_limit = None

    return RegularityProfile(
        center=center,
        order=order,
        scales=scales,
        sup_values=tuple(sups),
        means=tuple(means),
        dispersions=tuple(disps),
        verdict_db=verdict_db,
        verdict_dc=verdict_dc,
        dc_limit=dc_limit,
        samples_per_scale=samples_per_scale,
        slope=slope,
    )


def db_profile(
    curve: Curve,
    f,
    order: int,
    center: complex,
    scales=DB_SCALES,
    samples_per_scale: int = 200,
    rng: np.random.Generator | None = None,
) -> RegularityProfile:
    """Boundedness probe: sup |quotient| across shrinking scales.

    Verdict is 'diverging' when the least-squares slope of log(sup)
    against log(1/scale) exceeds 0.25, else 'bounded'.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _probe(curve, f, order, center, scales, samples_per_scale, rng)


def dc_probe(
    curve: Curve,
    f,
    order: int,
    center: complex,
    scales=DC_SCALES,
    samples_per_scale: int = 200,
    rng: np.random.Generator | None = None,
) -> RegularityProfile:
    """Limit probe: per-scale mean and dispersion of the quotient.

    Verdict is 'converges' (with the final mean as the limit estimate)
    when the two finest scales have dispersion at most 1e-3 and agreeing
    means, else 'no_limit'.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _probe(curve, f, order, center, scales, samples_per_scale, rng)


# ---------------------------------------------------------------------------
# collision paths and the involution experiment

# the spread of a collision path's spectrum at t = 0
_COLLISION_EPS = 2e-5


def collision_path(
    curve: Curve, n: int, corner_param: float, style: str = "straddle-sym"
):
    """Path t -> X_t of semisimple matrices whose spectrum collapses onto
    the curve point at corner_param as t -> 1.

    X_t is upper bidiagonal: the diagonal holds n curve points spread
    eps_t = (1-t) * _COLLISION_EPS around the center, the superdiagonal holds the
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
        eps = (1.0 - float(t)) * _COLLISION_EPS
        diag = curve.eval_array(t_c + eps * offsets)
        X = np.diag(diag)
        s = eps**alpha
        for i in range(n - 1):
            X[i, i + 1] = s
        return X

    return path


_PATH_STYLES = ("straddle-sym", "straddle-skew", "one-sided")


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


class _StackedRho:
    """rho as the experiment's map: called on one matrix or, as
    apply_batch, on a path's whole stack, whose rows it maps bit for bit
    as one at a time.  Rho would return a row certified normal unchanged,
    which moves the tables in their last bits."""

    def __call__(self, X):
        from .maps import rho  # the map under test; the probes need none

        return rho(X)

    apply_batch = __call__


def rho_continuity_experiment(
    curve: Curve,
    n: int = 3,
    corner_param: float = 0.0,
    samples: int = 101,
    rng=None,
) -> RhoContinuityReport:
    """Difference-quotient verdicts vs involution continuity at one curve point.

    Runs the boundedness and limit probes for complex conjugation at order
    n around the point, then probes the involution for continuity along
    collision paths collapsing onto that point, and reports whether the
    verdicts agree in the predicted direction: a bounded quotient should
    mean no discontinuity flag on any path, a diverging one should trip a
    flag on some straddling path.  Each path's table is continuity_probe's
    for rho, which maps the path's matrices in one call.
    """
    # the probe under test; the regularity probes need none of it
    from .checking import continuity_probe
    from .spectral import MAX_DIM, MIN_DIM

    if n < 2:
        raise ConfigError("experiment needs n >= 2")
    if n > MAX_DIM:  # before the probes, whose cost grows with the order
        raise ConfigError(f"matrix dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
    if rng is None:
        rng = np.random.default_rng(0)
    center = curve.eval(float(corner_param))
    db = db_profile(curve, np.conj, n, center, rng=rng)
    dc = dc_probe(curve, np.conj, n, center, rng=rng)
    tables = {style: continuity_probe(
        _StackedRho(), collision_path(curve, n, corner_param, style), samples)
        for style in _PATH_STYLES}

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


# ---------------------------------------------------------------------------
# CSV output


def write_profile_csv(profile: RegularityProfile, fh) -> None:
    """Rows of scale,sup,mean_re,mean_im,dispersion plus a JSON verdict footer."""
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "w", newline="")
        close = True
    try:
        writer = csv.writer(fh)
        writer.writerow(["scale", "sup", "mean_re", "mean_im", "dispersion"])
        for eps, sup, mean, disp in zip(
            profile.scales, profile.sup_values, profile.means, profile.dispersions
        ):
            writer.writerow(
                [f"{eps:.12g}", f"{sup:.12g}", f"{mean.real:.12g}",
                 f"{mean.imag:.12g}", f"{disp:.12g}"]
            )
        footer = {
            "center": [profile.center.real, profile.center.imag],
            "order": profile.order,
            "verdict_db": profile.verdict_db,
            "verdict_dc": profile.verdict_dc,
            "dc_limit": None
            if profile.dc_limit is None
            else [profile.dc_limit.real, profile.dc_limit.imag],
            "samples_per_scale": profile.samples_per_scale,
            "slope": profile.slope,
        }
        fh.write("# " + json.dumps(footer) + "\n")
    finally:
        if close:
            fh.close()
