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
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .curves import Curve
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
    "write_profile_csv",
    "read_profile_csv",
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

    def __len__(self):
        return len(self.points)

    def sorted_points(self) -> tuple:
        """Points ordered by curve parameter when a curve is attached."""
        if self.curve is None:
            return self.points
        params = self.curve.invert_array(np.array(self.points))
        order = np.argsort(self.curve.orientation * params, kind="stable")
        return tuple(self.points[i] for i in order)


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
    """
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


def divided_difference(f, points, curve: Curve | None = None) -> complex:
    """Recursive difference quotient of f over a tuple of distinct points.

    A k-point tuple yields the order-(k-1) quotient.  The value is
    symmetric in the points; when a curve is available they are pre-sorted
    by its parameter to tame cancellation.
    """
    if isinstance(points, ConfigurationTuple):
        cfg = points
        if curve is None:
            curve = cfg.curve
        if cfg.curve is None and curve is not None:
            cfg = ConfigurationTuple(cfg.points, curve)
    else:
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


def _sample_offsets(
    rng: np.random.Generator,
    stratum: str,
    count: int,
    k: int,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Unit-scale parameter offsets in [lo, hi] with pairwise separation."""
    if count == 0:
        return np.zeros((0, k))
    out = np.zeros((count, k))
    have = 0
    sep = _MIN_SEPARATION
    rounds = 0
    while have < count:
        rounds += 1
        if rounds > 100:
            sep *= 0.5  # keep terminating on very thin boxes
            rounds = 0
        u = rng.uniform(lo, hi, size=(4 * (count - have), k))
        if stratum == "straddle":
            ok = (u.min(axis=1) < -0.25 * sep) & (u.max(axis=1) > 0.25 * sep)
        elif stratum == "left":
            ok = u.max(axis=1) < 0.0
        else:
            ok = u.min(axis=1) > 0.0
        su = np.sort(u, axis=1)
        ok &= np.diff(su, axis=1).min(axis=1) >= sep
        good = u[ok]
        take = min(count - have, good.shape[0])
        out[have : have + take] = good[:take]
        have += take
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
    if any(s <= 0 for s in scales):
        raise ConfigError("scales must be positive")
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
        q, qerr = _quotient_table_err(fv, pts)
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
# CSV round trip


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


def read_profile_csv(fh) -> RegularityProfile:
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
    if footer is None:
        raise ConfigError("profile CSV has no verdict footer")
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
