"""Oriented simple curves in the complex plane.

A curve carries an injective parametrization ``t -> point``, an orientation
sign, and a membership tolerance ``tol``.  Inverting the parametrization
induces the order used everywhere else in the package, and ``Curve.order``
is its one definition: eigenvalue sorting, ordering maps, the classifier
and configuration tuples all sort points with it.

The closed unit circle is special: it is the only kind without a global
order, and order-dependent operations refuse it.

All parameters are plain real numbers; angles are radians.  ``tol`` governs
spatial membership.  A curve's JSON descriptor is its ``kind`` and its
dataclass fields, each in the JSON form of its declared type.
"""

import cmath
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    NumericalDomainError,
    OffCurveError,
    ParameterDomainError,
)

__all__ = [
    "TAU",
    "DEFAULT_TOL",
    "Interval",
    "Curve",
    "RealInterval",
    "Segment",
    "Line",
    "CircleArc",
    "UnitCircleClosed",
    "Polyline",
    "CornerGraph",
    "real_line",
    "unit_circle_arc",
    "punctured_unit_circle",
    "curve_to_json",
    "curve_from_json",
]

TAU = 2.0 * math.pi
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Extended-real interval with per-endpoint closedness.

    Endpoint flags default to closed for finite endpoints; infinite
    endpoints are always open.  ``lower < upper`` is required.
    """

    lower: float = -math.inf
    upper: float = math.inf
    lower_closed: Optional[bool] = None
    upper_closed: Optional[bool] = None

    def __post_init__(self) -> None:
        lo = float(self.lower)
        hi = float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ConfigError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ConfigError(f"interval requires lower < upper, got [{lo}, {hi}]")
        lc = self.lower_closed if self.lower_closed is not None else math.isfinite(lo)
        uc = self.upper_closed if self.upper_closed is not None else math.isfinite(hi)
        if lc and not math.isfinite(lo):
            raise ConfigError("infinite lower endpoint must be open")
        if uc and not math.isfinite(hi):
            raise ConfigError("infinite upper endpoint must be open")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "lower_closed", bool(lc))
        object.__setattr__(self, "upper_closed", bool(uc))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, ts) -> np.ndarray:
        """Elementwise membership mask of ``ts``; NaN lies in no interval."""
        ts = np.asarray(ts, dtype=float)
        above = ts >= self.lower if self.lower_closed else ts > self.lower
        below = ts <= self.upper if self.upper_closed else ts < self.upper
        return above & below

    def to_json(self) -> dict:
        def num(x: float):
            return x if math.isfinite(x) else None

        return {
            "lower": num(self.lower),
            "upper": num(self.upper),
            "lower_closed": self.lower_closed,
            "upper_closed": self.upper_closed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        if not isinstance(obj, dict):
            raise ConfigError(f"interval must be an object, got {obj!r}")
        lo = obj.get("lower")
        hi = obj.get("upper")
        flags = obj.get("lower_closed"), obj.get("upper_closed")
        for f in flags:
            if f is not None and not isinstance(f, bool):
                raise ConfigError(f"closedness must be true, false or null, got {f!r}")
        return cls(
            -math.inf if lo is None else _real(lo),
            math.inf if hi is None else _real(hi),
            *flags,
        )


def _real(v) -> float:
    """A JSON number as a float: an int or a float, not a bool or a string."""
    x = float(v)  # float's own error for what reads as no number at all
    if isinstance(v, (bool, str)):
        raise TypeError(f"expected a JSON number, got {v!r}")
    return x


def _c2j(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _j2c(v) -> complex:
    return complex(_real(v[0]), _real(v[1]))


# A kind's JSON is its parameter fields: the (write, read) pair of each
# field's declared type.
_FIELD_JSON = {
    complex: (_c2j, _j2c),
    float: (float, _real),
    Interval: (Interval.to_json, Interval.from_json),
    tuple: (
        lambda vs: [_c2j(v) for v in vs],
        lambda vs: tuple(_j2c(v) for v in vs),
    ),
}


def _params(cls) -> tuple:
    """The parameter fields of a kind: every field but orientation and tol."""
    return tuple(f for f in fields(cls) if f.name not in ("orientation", "tol"))


def _finite(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ConfigError(f"{what} must be finite, got {z}")
    return z


# math.atan2 applied elementwise.  np.arctan2 differs from it in the last
# bit on some points, and the parameter of a probe's center carries those
# bits into seeded output.
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _ATAN2(y, x).astype(float)


# Projections and distances are written in real arithmetic.  numpy's
# complex product and modulus may round differently from Python's (SIMD
# kernels with fused multiply-add), while np.hypot and plain float products
# give the bits that Python's complex arithmetic gives.


def _abs(zs: np.ndarray) -> np.ndarray:
    return np.hypot(zs.real, zs.imag)


def _line_params(zs: np.ndarray, a: complex, d: complex) -> np.ndarray:
    """Parameters s of the points of the line ``a + s*d`` nearest to ``zs``."""
    x = zs - a
    return (x.real * d.real + x.imag * d.imag) / (d.real**2 + d.imag**2)


def _segment_nearest(zs: np.ndarray, a: complex, d: complex):
    """Parameters in [0, 1] of the points of the segment ``a + s*d`` nearest
    to ``zs``, and the distances to them."""
    s = np.clip(_line_params(zs, a, d), 0.0, 1.0)
    return s, _abs(a + s * d - zs)


@dataclass(frozen=True, kw_only=True)
class Curve:
    """Base class: injective parametrized curve with orientation and tolerance."""

    orientation: int = 1
    tol: float = DEFAULT_TOL

    kind = "abstract"

    def __post_init__(self) -> None:
        if self.orientation not in (-1, 1):
            raise ConfigError(f"orientation must be +1 or -1, got {self.orientation}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")

    # -- per-kind geometry ------------------------------------------------
    # A kind states its geometry once, on 1-d arrays; every scalar
    # operation below runs it on a one-element array.

    @property
    def domain(self) -> Optional[Interval]:
        """Parameter domain; None for the closed circle."""
        raise NotImplementedError

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        """Curve points at parameters ``ts`` inside the domain."""
        raise NotImplementedError

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        """Parameters of the nearest curve points, clamped into the domain closure."""
        raise NotImplementedError

    # -- shared operations ------------------------------------------------

    def eval(self, t: float) -> complex:
        """The point at parameter t, refused when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = complex(self.eval_array(float(t))[0])
        if not cmath.isfinite(z):
            raise NumericalDomainError(f"{self.kind} point at parameter {t:g} overflows")
        return z

    def eval_array(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        dom = self.domain
        if dom is not None:
            outside = ts[~dom.contains(ts)]
            if outside.size:
                raise ParameterDomainError(
                    f"parameter {outside[0]} outside the domain of {self.kind}"
                )
        return self._point_array(ts)

    def _nearest(self, zs):
        """(points, parameters of their nearest curve points, distances).

        A projection or distance past the largest double comes out
        infinite or NaN without a warning; invert_array refuses its point.
        """
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            ts = self._project_array(zs)
            return zs, ts, _abs(self._point_array(ts) - zs)

    def invert(self, z: complex) -> float:
        return float(self.invert_array(complex(z))[0])

    def invert_array(self, zs, scale=1.0) -> np.ndarray:
        """Parameters of points within ``tol * max(1, scale)`` of the curve;
        the scale of eigenvalues is their matrix's norm, which their
        roundoff grows with, and that of plain points is 1."""
        zs, ts, ds = self._nearest(zs)
        near = ds <= self.tol * np.maximum(1.0, scale)
        if not near.all():
            # a finite point whose projection overflows has no distance
            lost = np.flatnonzero(np.isfinite(zs) & ~np.isfinite(ts))
            if lost.size:
                raise OffCurveError(
                    f"projection of point {zs[lost[0]]} onto the {self.kind} "
                    "curve overflows")
            # the farthest point off the curve; a NaN distance is the farthest
            worst = int(np.argmax(np.where(near, -np.inf, ds)))
            raise OffCurveError(
                f"point {zs[worst]} is at distance {ds[worst]:.3e} from the "
                f"{self.kind} curve (tol {self.tol:.1e})"
            )
        return ts

    def order(self, zs, scale=1.0) -> np.ndarray:
        """Indices that sort points along the oriented curve, on the last axis.

        The key is ``orientation * invert_array(zs, scale)``, with ``scale``
        broadcast against ``zs``; points at the same position come out in
        (real, imag) order.  Raises OffCurveError when any point is off the
        curve.  On the closed circle this is the order of the
        parametrization, which callers needing a global order refuse.
        """
        zs = np.asarray(zs, dtype=complex)
        if not isinstance(scale, float):  # one scale per point, or per row
            scale = np.broadcast_to(scale, zs.shape).ravel()
        key = self.orientation * self.invert_array(zs.ravel(), scale).reshape(zs.shape)
        return np.lexsort((zs.imag, zs.real, key), axis=-1)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for f in _params(type(self)):
            out[f.name] = _FIELD_JSON[f.type][0](getattr(self, f.name))
        out["orientation"] = self.orientation
        out["tol"] = self.tol
        return out


@dataclass(frozen=True)
class RealInterval(Curve):
    """The real line, or a sub-interval of it, embedded in the plane."""

    interval: Interval = Interval()

    kind = "real_interval"

    @property
    def domain(self) -> Interval:
        return self.interval

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return ts.astype(complex)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return np.clip(zs.real, self.interval.lower, self.interval.upper)


@dataclass(frozen=True)
class Segment(Curve):
    """Straight segment from z0 to z1, parametrized on [0, 1]."""

    z0: complex
    z1: complex

    kind = "segment"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "z0", _finite(self.z0, "segment endpoint"))
        object.__setattr__(self, "z1", _finite(self.z1, "segment endpoint"))
        if self.z0 == self.z1:
            raise ConfigError("segment endpoints must be distinct")

    @property
    def domain(self) -> Interval:
        return Interval(0.0, 1.0)

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.z0 + ts * (self.z1 - self.z0)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return _segment_nearest(zs, self.z0, self.z1 - self.z0)[0]


@dataclass(frozen=True)
class Line(Curve):
    """Full straight line through ``point`` with direction ``direction``."""

    point: complex
    direction: complex

    kind = "line"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "point", _finite(self.point, "line point"))
        object.__setattr__(self, "direction", _finite(self.direction, "line direction"))
        if self.direction == 0:
            raise ConfigError("line direction must be nonzero")

    @property
    def domain(self) -> Interval:
        return Interval()

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.point + ts * self.direction

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return _line_params(zs, self.point, self.direction)


@dataclass(frozen=True)
class CircleArc(Curve):
    """Arc of a circle, parametrized by angle over a bounded interval.

    Injectivity restricts the angular width to at most a full turn, with a
    full turn requiring at least one open endpoint.
    """

    center: complex = 0j
    radius: float = 1.0
    angles: Interval = Interval(0.0, TAU, upper_closed=False)

    kind = "circle_arc"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "center", _finite(self.center, "arc center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if not self.angles.bounded:
            raise ConfigError("arc angle interval must be bounded")
        w = self.angles.width
        if w > TAU + 1e-12:
            raise ConfigError("arc wider than a full turn is not injective")
        if w >= TAU - 1e-12 and self.angles.lower_closed and self.angles.upper_closed:
            raise ConfigError("full-turn arc must leave an endpoint open")

    @property
    def domain(self) -> Interval:
        return self.angles

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * ts)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        v = zs - self.center
        theta = _atan2(v.imag, v.real)
        lo, hi = self.angles.lower, self.angles.upper
        # Unique representative of theta in [lo, lo + tau).
        t = theta + TAU * np.ceil((lo - theta) / TAU)
        # Off the angular window: closer endpoint wins, ties toward lo.
        d_lo, d_hi = _abs(self._point_array(np.array([[lo], [hi]])) - zs)
        t = np.where(t <= hi, t, np.where(d_lo <= d_hi, lo, hi))
        # Center is equidistant from the whole arc; pick the lowest parameter.
        return np.where(v == 0, lo, t)


@dataclass(frozen=True)
class UnitCircleClosed(Curve):
    """The full unit circle; closed, hence order-free."""

    kind = "unit_circle"

    @property
    def domain(self) -> None:
        return None

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(1j * ts)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return np.where(zs == 0, 0.0, _atan2(zs.imag, zs.real) % TAU)


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    return float(_segment_nearest(np.array([p]), a, b - a)[1][0])


def _segments_intersect(a0: complex, a1: complex, b0: complex, b1: complex) -> bool:
    def cross(u: complex, v: complex) -> float:
        return (u.conjugate() * v).imag

    d1 = cross(a1 - a0, b0 - a0)
    d2 = cross(a1 - a0, b1 - a0)
    d3 = cross(b1 - b0, a0 - b0)
    d4 = cross(b1 - b0, a1 - b0)
    return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


def _segment_distance(a0: complex, a1: complex, b0: complex, b1: complex) -> float:
    if _segments_intersect(a0, a1, b0, b1):
        return 0.0
    return min(
        _point_segment_distance(b0, a0, a1),
        _point_segment_distance(b1, a0, a1),
        _point_segment_distance(a0, b0, b1),
        _point_segment_distance(a1, b0, b1),
    )


@dataclass(frozen=True)
class Polyline(Curve):
    """Piecewise-linear simple path through ``vertices``.

    Parameter t in [0, m] for m segments; integer values sit at vertices.
    Construction rejects paths that self-intersect within tol.
    """

    vertices: tuple

    kind = "polyline"

    def __post_init__(self) -> None:
        super().__post_init__()
        vs = tuple(_finite(v, "polyline vertex") for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ConfigError("polyline needs at least two vertices")
        for u, v in zip(vs, vs[1:]):
            if u == v:
                raise ConfigError("polyline has a zero-length segment")
        m = len(vs) - 1
        # Simplicity: non-adjacent segments stay tol-separated, and no vertex
        # touches a segment it is not an endpoint of (catches fold-backs).
        for i in range(m):
            for j in range(i + 2, m):
                if _segment_distance(vs[i], vs[i + 1], vs[j], vs[j + 1]) <= self.tol:
                    raise ConfigError(
                        f"polyline segments {i} and {j} come within tol of each other"
                    )
        for k, p in enumerate(vs):
            for i in range(m):
                if k in (i, i + 1):
                    continue
                if _point_segment_distance(p, vs[i], vs[i + 1]) <= self.tol:
                    raise ConfigError(
                        f"polyline vertex {k} lies within tol of segment {i}"
                    )

    @property
    def domain(self) -> Interval:
        return Interval(0.0, float(len(self.vertices) - 1))

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        vs = np.array(self.vertices)
        i = np.clip(np.floor(ts), 0, len(vs) - 2).astype(int)
        return vs[i] + (ts - i) * (vs[i + 1] - vs[i])

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        best_t = np.zeros(zs.shape)
        best_d = np.full(zs.shape, math.inf)
        for i, (a, b) in enumerate(zip(self.vertices, self.vertices[1:])):
            s, dist = _segment_nearest(zs, a, b - a)
            # Strict comparison keeps the smallest parameter on ties.
            closer = dist < best_d
            best_d = np.where(closer, dist, best_d)
            best_t = np.where(closer, i + s, best_t)
        return best_t


@dataclass(frozen=True)
class CornerGraph(Curve):
    """Graph of the piecewise-linear map t -> t + i * (a*t for t<0, b*t for t>=0).

    A corner at the origin whenever a != b, which construction requires.
    """

    a: float
    b: float

    kind = "corner_graph"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError("corner slopes must be finite")
        if not (math.isfinite(self.a * self.a) and math.isfinite(self.b * self.b)):
            # projecting onto a branch divides by 1 + slope**2
            raise ConfigError("corner slopes must have finite squares")
        if self.a == self.b:
            raise ConfigError("corner graph requires distinct slopes a != b")

    @property
    def domain(self) -> Interval:
        return Interval()

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        # Built part by part: ts + 1j * slopes * ts would turn the -0.0
        # imaginary part of a negative t at slope 0 into +0.0.
        out = ts.astype(complex)
        out.imag = np.where(ts < 0.0, self.a, self.b) * ts
        return out

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        dl, dr = complex(1.0, self.a), complex(1.0, self.b)
        tl = _line_params(zs, 0j, dl)
        tr = _line_params(zs, 0j, dr)
        # a finite point's branch parameter that overflows on its own side,
        # or is NaN, leaves the nearest point unknown; one past the corner
        # clamps to it
        lost = np.isfinite(zs) & ~((tl > -np.inf) & (tr < np.inf))
        tl = np.where(tl < 0.0, tl, 0.0)
        tr = np.where(tr > 0.0, tr, 0.0)
        dist_l = _abs(tl * dl - zs)
        dist_r = _abs(tr * dr - zs)
        # Ties go to the left branch (smaller parameter).
        return np.where(lost, np.nan, np.where(dist_r < dist_l, tr, tl))


# -- factories ------------------------------------------------------------


def real_line() -> RealInterval:
    return RealInterval()


def unit_circle_arc(start: float = 0.0) -> CircleArc:
    """Injective full-turn arc [start, start + tau) of the unit circle."""
    return CircleArc(0j, 1.0, Interval(start, start + TAU, upper_closed=False))


def punctured_unit_circle(cut: float) -> CircleArc:
    """Unit circle minus the point at angle ``cut``: the open arc just after it."""
    return CircleArc(
        0j, 1.0, Interval(cut, cut + TAU, lower_closed=False, upper_closed=False)
    )


# -- serialization --------------------------------------------------------

_KINDS = {
    cls.kind: cls
    for cls in (RealInterval, Segment, Line, CircleArc, UnitCircleClosed,
                Polyline, CornerGraph)
}


def curve_to_json(curve: Curve) -> dict:
    return curve.to_json()


def curve_from_json(obj) -> Curve:
    """Build a curve from a descriptor dict (or its JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("curve descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown curve kind {kind!r}")
    cls = _KINDS[kind]
    orientation = obj.get("orientation", 1)
    # not bool or float, although True == 1 and -1.0 == -1
    if type(orientation) is not int or orientation not in (-1, 1):
        raise ConfigError(f"orientation must be the integer 1 or -1, got {orientation!r}")
    try:
        kw = {"orientation": orientation, "tol": _real(obj.get("tol", DEFAULT_TOL))}
        # interval fields first, so that their errors are the ones reported;
        # null means the default for them alone
        for f in sorted(_params(cls), key=lambda f: f.type is not Interval):
            if f.name in obj and not (f.type is Interval and obj[f.name] is None):
                kw[f.name] = _FIELD_JSON[f.type][1](obj[f.name])
            elif f.default is MISSING:
                raise KeyError(f.name)
        return cls(**kw)
    except KeyError as exc:
        raise ConfigError(f"curve descriptor for {kind!r} missing field {exc}") from exc
    except ConfigError:  # a ValueError too, but already says what is wrong
        raise
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed curve descriptor for {kind!r}: {exc}") from exc
