"""Oriented simple curves in the complex plane.

A curve carries an injective parametrization ``t -> point``, an orientation
sign, and a membership tolerance ``tol``.  Inverting the parametrization
induces the order used everywhere else in the package: eigenvalue sorting,
ordering maps, and the classifier all sort points by
``orientation * invert_array(points)``.

The closed unit circle is special: it is the only kind without a global
order, and order-dependent operations refuse it.

All parameters are plain real numbers; angles are radians.  ``tol`` governs
spatial membership.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
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

    def contains(self, t: float, slack: float = 0.0) -> bool:
        """Membership test; with ``slack > 0`` the closure is widened and the
        open/closed flags are ignored."""
        if slack > 0.0:
            return self.lower - slack <= t <= self.upper + slack
        if t < self.lower or t > self.upper:
            return False
        if t == self.lower and not self.lower_closed:
            return False
        if t == self.upper and not self.upper_closed:
            return False
        return True

    def clamp(self, t: float) -> float:
        return min(max(t, self.lower), self.upper)

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
        lo = obj.get("lower")
        hi = obj.get("upper")
        return cls(
            -math.inf if lo is None else float(lo),
            math.inf if hi is None else float(hi),
            obj.get("lower_closed"),
            obj.get("upper_closed"),
        )


def _c2j(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _j2c(v) -> complex:
    return complex(float(v[0]), float(v[1]))


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

    @property
    def domain(self) -> Optional[Interval]:
        """Parameter domain; None for the closed circle."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        return self.domain is None

    def _point(self, t: float) -> complex:
        raise NotImplementedError

    def _project(self, z: complex) -> float:
        """Parameter of the nearest curve point, clamped into the domain closure."""
        raise NotImplementedError

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self._point(float(t)) for t in ts], dtype=complex)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return np.array([self._project(complex(z)) for z in zs], dtype=float)

    # -- shared operations ------------------------------------------------

    def eval(self, t: float) -> complex:
        t = float(t)
        dom = self.domain
        if dom is not None and not dom.contains(t):
            raise ParameterDomainError(
                f"parameter {t} outside the domain of {self.kind}"
            )
        return self._point(t)

    def eval_array(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        dom = self.domain
        if dom is not None:
            for t in np.atleast_1d(ts):
                if not dom.contains(float(t)):
                    raise ParameterDomainError(
                        f"parameter {t} outside the domain of {self.kind}"
                    )
        return self._point_array(np.atleast_1d(ts))

    def invert(self, z: complex) -> float:
        z = complex(z)
        t = self._project(z)
        d = abs(self._point(t) - z)
        if d > self.tol:
            raise OffCurveError(
                f"point {z} is at distance {d:.3e} from the {self.kind} curve "
                f"(tol {self.tol:.1e})"
            )
        return t

    def invert_array(self, zs) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        ts = self._project_array(zs)
        ds = np.abs(self._point_array(ts) - zs)
        worst = int(np.argmax(ds))
        if ds[worst] > self.tol:
            raise OffCurveError(
                f"point {zs[worst]} is at distance {ds[worst]:.3e} from the "
                f"{self.kind} curve (tol {self.tol:.1e})"
            )
        return ts

    def distance(self, z: complex) -> float:
        z = complex(z)
        return abs(self._point(self._project(z)) - z)

    def contains(self, z: complex) -> bool:
        return self.distance(z) <= self.tol

    def reversed(self) -> "Curve":
        """Same point set, opposite orientation."""
        return dataclasses.replace(self, orientation=-self.orientation)

    # -- serialization ----------------------------------------------------

    def _params_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        out.update(self._params_json())
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

    def _point(self, t: float) -> complex:
        return complex(t, 0.0)

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return ts.astype(complex)

    def _project(self, z: complex) -> float:
        return self.interval.clamp(z.real)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        return np.clip(zs.real, self.interval.lower, self.interval.upper)

    def _params_json(self) -> dict:
        return {"interval": self.interval.to_json()}


@dataclass(frozen=True)
class Segment(Curve):
    """Straight segment from z0 to z1, parametrized on [0, 1]."""

    z0: complex
    z1: complex

    kind = "segment"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "z0", complex(self.z0))
        object.__setattr__(self, "z1", complex(self.z1))
        if self.z0 == self.z1:
            raise ConfigError("segment endpoints must be distinct")

    @property
    def domain(self) -> Interval:
        return Interval(0.0, 1.0)

    def _point(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.z0 + ts * (self.z1 - self.z0)

    def _project(self, z: complex) -> float:
        d = self.z1 - self.z0
        t = ((z - self.z0) * d.conjugate()).real / (d.real**2 + d.imag**2)
        return min(max(t, 0.0), 1.0)

    def _params_json(self) -> dict:
        return {"z0": _c2j(self.z0), "z1": _c2j(self.z1)}


@dataclass(frozen=True)
class Line(Curve):
    """Full straight line through ``point`` with direction ``direction``."""

    point: complex
    direction: complex

    kind = "line"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "point", complex(self.point))
        object.__setattr__(self, "direction", complex(self.direction))
        if self.direction == 0:
            raise ConfigError("line direction must be nonzero")

    @property
    def domain(self) -> Interval:
        return Interval()

    def _point(self, t: float) -> complex:
        return self.point + t * self.direction

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.point + ts * self.direction

    def _project(self, z: complex) -> float:
        d = self.direction
        return ((z - self.point) * d.conjugate()).real / (d.real**2 + d.imag**2)

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        d = self.direction
        return ((zs - self.point) * np.conj(d)).real / (d.real**2 + d.imag**2)

    def _params_json(self) -> dict:
        return {"point": _c2j(self.point), "direction": _c2j(self.direction)}


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
        object.__setattr__(self, "center", complex(self.center))
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

    def _point(self, t: float) -> complex:
        return self.center + self.radius * complex(math.cos(t), math.sin(t))

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return self.center + self.radius * np.exp(1j * ts)

    def _project(self, z: complex) -> float:
        v = z - self.center
        if v == 0:
            # Center is equidistant from the whole arc; pick the lowest parameter.
            return self.angles.lower
        theta = math.atan2(v.imag, v.real)
        lo, hi = self.angles.lower, self.angles.upper
        # Unique representative of theta in [lo, lo + tau).
        t = theta + TAU * math.ceil((lo - theta) / TAU)
        if t <= hi:
            return t
        # Off the angular window: closer endpoint wins, ties toward lo.
        if abs(self._point(lo) - z) <= abs(self._point(hi) - z):
            return lo
        return hi

    def _params_json(self) -> dict:
        return {
            "center": _c2j(self.center),
            "radius": self.radius,
            "angles": self.angles.to_json(),
        }


@dataclass(frozen=True)
class UnitCircleClosed(Curve):
    """The full unit circle; closed, hence order-free."""

    kind = "unit_circle"

    @property
    def domain(self) -> None:
        return None

    def _point(self, t: float) -> complex:
        return complex(math.cos(t), math.sin(t))

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(1j * ts)

    def _project(self, z: complex) -> float:
        if z == 0:
            return 0.0
        return math.atan2(z.imag, z.real) % TAU

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        out = np.angle(zs) % TAU
        return np.where(zs == 0, 0.0, out)

    def _params_json(self) -> dict:
        return {}


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    d = b - a
    t = ((p - a) * d.conjugate()).real / (d.real**2 + d.imag**2)
    t = min(max(t, 0.0), 1.0)
    return abs(a + t * d - p)


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

    vertices: tuple = ()

    kind = "polyline"

    def __post_init__(self) -> None:
        super().__post_init__()
        vs = tuple(complex(v) for v in self.vertices)
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

    def _point(self, t: float) -> complex:
        m = len(self.vertices) - 1
        i = min(int(math.floor(t)), m - 1)
        i = max(i, 0)
        frac = t - i
        return self.vertices[i] + frac * (self.vertices[i + 1] - self.vertices[i])

    def _project(self, z: complex) -> float:
        best_t = 0.0
        best_d = math.inf
        for i in range(len(self.vertices) - 1):
            a, b = self.vertices[i], self.vertices[i + 1]
            d = b - a
            s = ((z - a) * d.conjugate()).real / (d.real**2 + d.imag**2)
            s = min(max(s, 0.0), 1.0)
            dist = abs(a + s * d - z)
            # Strict comparison keeps the smallest parameter on ties.
            if dist < best_d:
                best_d = dist
                best_t = i + s
        return best_t

    def _params_json(self) -> dict:
        return {"vertices": [_c2j(v) for v in self.vertices]}


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
        if self.a == self.b:
            raise ConfigError("corner graph requires distinct slopes a != b")

    @property
    def domain(self) -> Interval:
        return Interval()

    def _left_dir(self) -> complex:
        return complex(1.0, self.a)

    def _right_dir(self) -> complex:
        return complex(1.0, self.b)

    def _point(self, t: float) -> complex:
        slope = self.a if t < 0.0 else self.b
        return complex(t, slope * t)

    def _point_array(self, ts: np.ndarray) -> np.ndarray:
        slopes = np.where(ts < 0.0, self.a, self.b)
        return ts + 1j * slopes * ts

    def _project(self, z: complex) -> float:
        dl, dr = self._left_dir(), self._right_dir()
        tl = min(0.0, (z * dl.conjugate()).real / (dl.real**2 + dl.imag**2))
        tr = max(0.0, (z * dr.conjugate()).real / (dr.real**2 + dr.imag**2))
        dist_l = abs(tl * dl - z)
        dist_r = abs(tr * dr - z)
        # Ties go to the left branch (smaller parameter).
        return tr if dist_r < dist_l else tl

    def _project_array(self, zs: np.ndarray) -> np.ndarray:
        dl, dr = self._left_dir(), self._right_dir()
        tl = np.minimum(0.0, (zs * np.conj(dl)).real / (dl.real**2 + dl.imag**2))
        tr = np.maximum(0.0, (zs * np.conj(dr)).real / (dr.real**2 + dr.imag**2))
        dist_l = np.abs(tl * dl - zs)
        dist_r = np.abs(tr * dr - zs)
        return np.where(dist_r < dist_l, tr, tl)

    def _params_json(self) -> dict:
        return {"a": self.a, "b": self.b}


# -- factories ------------------------------------------------------------


def real_line(tol: float = DEFAULT_TOL) -> RealInterval:
    return RealInterval(tol=tol)


def unit_circle_arc(start: float = 0.0, tol: float = DEFAULT_TOL) -> CircleArc:
    """Injective full-turn arc [start, start + tau) of the unit circle."""
    return CircleArc(
        0j, 1.0, Interval(start, start + TAU, upper_closed=False), tol=tol
    )


def punctured_unit_circle(cut: float, tol: float = DEFAULT_TOL) -> CircleArc:
    """Unit circle minus the point at angle ``cut``: the open arc just after it."""
    return CircleArc(
        0j,
        1.0,
        Interval(cut, cut + TAU, lower_closed=False, upper_closed=False),
        tol=tol,
    )


# -- serialization --------------------------------------------------------

_KINDS = {
    "real_interval": RealInterval,
    "segment": Segment,
    "line": Line,
    "circle_arc": CircleArc,
    "unit_circle": UnitCircleClosed,
    "polyline": Polyline,
    "corner_graph": CornerGraph,
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
    cls = _KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown curve kind {kind!r}")
    common = {
        "orientation": int(obj.get("orientation", 1)),
        "tol": float(obj.get("tol", DEFAULT_TOL)),
    }
    try:
        if cls is RealInterval:
            iv = obj.get("interval")
            interval = Interval.from_json(iv) if iv is not None else Interval()
            return RealInterval(interval, **common)
        if cls is Segment:
            return Segment(_j2c(obj["z0"]), _j2c(obj["z1"]), **common)
        if cls is Line:
            return Line(_j2c(obj["point"]), _j2c(obj["direction"]), **common)
        if cls is CircleArc:
            angles = obj.get("angles")
            kw = {}
            if angles is not None:
                kw["angles"] = Interval.from_json(angles)
            return CircleArc(
                _j2c(obj.get("center", [0.0, 0.0])),
                float(obj.get("radius", 1.0)),
                **kw,
                **common,
            )
        if cls is UnitCircleClosed:
            return UnitCircleClosed(**common)
        if cls is Polyline:
            return Polyline(tuple(_j2c(v) for v in obj["vertices"]), **common)
        if cls is CornerGraph:
            return CornerGraph(float(obj["a"]), float(obj["b"]), **common)
    except KeyError as exc:
        raise ConfigError(f"curve descriptor for {kind!r} missing field {exc}") from exc
    raise ConfigError(f"unhandled curve kind {kind!r}")
