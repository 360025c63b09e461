"""Coordinate-level primitives and metrics for unit-diameter ("small") polygons.

Everything here works directly on vertex coordinates: perimeters are edge
sums, widths come from edge-normal support distances, diameters from the
antipodal vertex pairs of the convex hull, areas from the shoelace formula.
None of it knows about closed forms, so it can serve as an independent
cross-check for the analytic expressions in :mod:`smallpoly.bounds`.

All operations are pure functions of immutable values and are safe to call
concurrently; the convexity test and the diameter sweep a polygon caches are
deterministic, so a race can at most compute one twice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Unit-distance classification tolerance for diameter-graph edges.  Family
# constructions are accurate to ~1e-15, while the closest non-diameter vertex
# pair falls short of distance one by about pi^2/n^2 (b, q, tamvakis) or
# pi^2/(2n^2) (regular): 9.4e-6 and 4.7e-6 at n = 1024.  So 1e-9 separates
# diameter pairs only up to n ~ 1e5 (b) and n ~ 7e4 (regular).
DIAMETER_TOL = 1e-9

# Turning-angle sines below this threshold count as collinear (non strictly convex).
CONVEXITY_TOL = 1e-12

# Constructions keep the polygon in the upper half-plane up to this slack.
HALF_PLANE_TOL = 1e-12


class InvalidPolygonError(ValueError):
    """Input does not describe a usable polygon (too few vertices, bad data)."""


class NonConvexError(ValueError):
    """Operation defined only for convex polygons received a non-convex one."""


class Family(str, Enum):
    """Construction tag carried by every polygon."""

    REGULAR = "regular"
    REGULAR_PLUS = "regular-plus"
    REULEAUX_SUB = "reuleaux"
    TAMVAKIS = "tamvakis"
    B_FAMILY = "b"
    Q_FAMILY = "q"
    FROM_ANGLES = "from-angles"
    RAW = "raw"


@dataclass(frozen=True)
class Point2:
    """A planar point; coordinates are in unit-diameter lengths."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidPolygonError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True, eq=False)
class SmallPolygon:
    """An ordered (counterclockwise) vertex array plus construction metadata.

    ``xy`` is a read-only (n, 2) float64 array owned by the polygon.  The
    container itself only checks its shape and finiteness; the per-family
    invariants (strict convexity, diameter one, first vertex at the origin)
    are guaranteed by the constructors in :mod:`smallpoly.constructions` and
    can be re-checked with :func:`small_polygon_violations`.  The convexity
    test and the diameter sweep run at most once per polygon and are cached
    on it.
    """

    xy: np.ndarray
    family: Family = Family.RAW
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            xy = np.array(self.xy, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, non-numbers
            raise InvalidPolygonError(f"vertex coordinates are not numbers: {exc}") from exc
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise InvalidPolygonError(
                f"vertices must be (x, y) pairs, got an array of shape {xy.shape}")
        if len(xy) < 3:
            raise InvalidPolygonError(f"a polygon needs at least 3 vertices, got {len(xy)}")
        if not np.all(np.isfinite(xy)):
            raise InvalidPolygonError("non-finite vertex coordinate")
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmallPolygon):
            return NotImplemented
        return ((self.family, self.params) == (other.family, other.params)
                and np.array_equal(self.xy, other.xy))

    @property
    def n(self) -> int:
        return len(self.xy)

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple(Point2(x, y) for x, y in self.xy.tolist())

    def coords(self) -> np.ndarray:
        """A writable copy of the (n, 2) vertex coordinates."""
        return self.xy.copy()

    @cached_property
    def _convex(self) -> bool:
        return _is_convex(self.xy)

    @cached_property
    def _diameter(self) -> tuple[float, tuple[tuple[int, int], ...]]:
        # a strictly convex CCW polygon is its own hull
        hull = np.arange(self.n) if self._convex else _hull(self.xy)
        return _sweep(self.xy, hull)

    @classmethod
    def from_coords(
        cls,
        coords: Iterable[Sequence[float]],
        family: Family = Family.RAW,
        params: dict | None = None,
    ) -> "SmallPolygon":
        if not isinstance(coords, np.ndarray):
            coords = list(coords)
        return cls(coords, family, dict(params or {}))


@dataclass(frozen=True)
class MetricsReport:
    """Perimeter, width, diameter, area, convexity and diameter-graph edges."""

    perimeter: float
    width: float
    diameter: float
    area: float
    convex: bool
    diameter_edges: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "perimeter": self.perimeter,
            "width": self.width,
            "diameter": self.diameter,
            "area": self.area,
            "convex": self.convex,
            "diameter_edges": [list(e) for e in self.diameter_edges],
        }


def _edge_vectors(coords: np.ndarray) -> np.ndarray:
    return np.roll(coords, -1, axis=0) - coords


def perimeter(p: SmallPolygon) -> float:
    """Sum of edge lengths, closed cyclically."""
    e = _edge_vectors(p.xy)
    return math.fsum(np.hypot(e[:, 0], e[:, 1]).tolist())


def is_convex(p: SmallPolygon) -> bool:
    """True iff the polygon turns left at every vertex and winds around once.

    A turning angle whose sine is within ``CONVEXITY_TOL`` of zero (a
    collinear corner or a zero-length edge) does not count as convex, and
    neither does a star polygon.
    """
    return p._convex


def _scaled(coords: np.ndarray) -> np.ndarray:
    """``coords`` times the power of two putting them in [-1, 1]: cross
    products then neither overflow nor, for tiny polygons, underflow."""
    return np.ldexp(coords, -int(np.frexp(np.max(np.abs(coords)))[1]))


def _is_convex(coords: np.ndarray) -> bool:
    e = _edge_vectors(_scaled(coords))
    nxt = np.roll(e, -1, axis=0)
    cross = e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]
    lengths = np.hypot(e[:, 0], e[:, 1])
    turns = np.arctan2(cross, e[:, 0] * nxt[:, 0] + e[:, 1] * nxt[:, 1])
    return bool(np.all(cross > CONVEXITY_TOL * lengths * np.roll(lengths, -1))
                and np.sum(turns) < 3 * math.pi)  # the turns add up to 2 pi per winding


def _antipodes(coords: np.ndarray) -> np.ndarray:
    """For each edge of a convex CCW polygon, the vertex farthest from its line.

    Binary search on the unwrapped edge angles for the edge's reverse
    direction; rounding in the angles can pick a neighbour of that vertex.
    """
    e = _edge_vectors(coords)
    theta = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    ext = np.concatenate((theta, theta + 2 * math.pi))
    return np.searchsorted(ext, theta + math.pi) % len(coords)


def width(p: SmallPolygon) -> float:
    """Minimum support-line distance over all boundary-edge normals.

    For a convex polygon the width direction is normal to some edge, so
    enumerating edges is exact.  Non-convex input is rejected.
    """
    if not is_convex(p):
        raise NonConvexError("width is only defined here for convex CCW polygons")
    coords = p.xy
    e = _edge_vectors(coords)
    far = (_antipodes(coords)[:, None] + np.arange(-1, 2)) % len(coords)
    # distance of the antipodal vertex and its two neighbours from each edge's line
    d = coords[far] - coords[:, None, :]
    cross = e[:, None, 0] * d[:, :, 1] - e[:, None, 1] * d[:, :, 0]
    return float(np.min(np.max(cross, axis=1) / np.hypot(e[:, 0], e[:, 1])))


def _hull(coords: np.ndarray) -> np.ndarray:
    """CCW hull vertex indices (Andrew's monotone chain), collinear points dropped."""
    pts = _scaled(coords).tolist()
    order = np.lexsort((coords[:, 1], coords[:, 0])).tolist()
    hull: list[int] = []
    for chain in (order, order[::-1]):
        base = len(hull)
        for k in chain:
            while len(hull) >= base + 2:
                (ox, oy), (ax, ay), (bx, by) = pts[hull[-2]], pts[hull[-1]], pts[k]
                if (ax - ox) * (by - ay) - (ay - oy) * (bx - ax) > 0:
                    break
                hull.pop()
            hull.append(k)
        hull.pop()  # each chain ends where the other one starts
    return np.array(hull)


def diameter(p: SmallPolygon) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Largest pairwise vertex distance and all pairs achieving it.

    Returns ``(d, edges)`` where ``edges`` lists every index pair whose
    distance is within ``DIAMETER_TOL`` of ``d`` -- the diameter-graph edge
    set of the polygon.  Only antipodal pairs of the convex hull's vertices
    are measured, which holds every diameter of any vertex set.  The sweep
    runs once per polygon; later calls return the cached result.
    """
    return p._diameter


def _sweep(coords: np.ndarray, hull: np.ndarray) -> tuple[float, tuple[tuple[int, int], ...]]:
    """:func:`diameter` of ``coords`` given its CCW hull vertex indices."""
    n, m = len(coords), len(hull)
    far = _antipodes(coords[hull])
    # hull vertex k is antipodal to hull vertices far[k-1] .. far[k];
    # one more on each side absorbs rounding in far
    counts = (far - np.roll(far, 1)) % m + 3
    k = np.repeat(np.arange(m), counts)
    step = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = hull[k], hull[(np.roll(far, 1)[k] - 1 + step) % m]
    dist = np.hypot(coords[j, 0] - coords[i, 0], coords[j, 1] - coords[i, 1])
    dmax = float(np.max(dist))
    # each pair as lo * n + hi, so that one sort orders and dedupes them
    keys = np.unique((np.minimum(i, j) * n + np.maximum(i, j))[dist >= dmax - DIAMETER_TOL])
    lo, hi = np.divmod(keys, n)
    loop = lo == hi
    return dmax, tuple(zip(lo[~loop].tolist(), hi[~loop].tolist()))


def area(p: SmallPolygon) -> float:
    """Shoelace area; positive for simple CCW polygons."""
    x, y = p.xy[:, 0], p.xy[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * math.fsum((x * yn - xn * y).tolist())


def to_unit_perimeter(p: SmallPolygon) -> SmallPolygon:
    """Contract the polygon so its perimeter equals one.

    Widths and diameters scale by the same factor 1/L, so the width of the
    result equals ``width(p) / perimeter(p)``.
    """
    length = perimeter(p)
    if not length > 0.0:
        raise InvalidPolygonError("cannot rescale a polygon of zero perimeter")
    params = dict(p.params)
    params["unit_perimeter"] = True
    return SmallPolygon(p.xy / length, p.family, params)


def measure(p: SmallPolygon) -> MetricsReport:
    """Compute the full metrics report for a convex polygon.

    Raises :class:`InvalidPolygonError` when a metric overflows binary64.
    """
    try:
        with np.errstate(over="raise"):
            d, edges = diameter(p)
            return MetricsReport(
                perimeter=perimeter(p),
                width=width(p),
                diameter=d,
                area=area(p),
                convex=True,  # width() above rejects non-convex input
                diameter_edges=edges,
            )
    except (FloatingPointError, OverflowError) as exc:
        raise InvalidPolygonError(f"polygon metrics overflow binary64 ({exc})") from exc


def small_polygon_violations(p: SmallPolygon) -> list[str]:
    """List every violated small-polygon invariant (empty list == valid).

    Checks: strict convexity in CCW order, diameter within 1e-9 of at most
    one, first vertex at the origin, and containment in the half-plane
    ``y >= -1e-12``.
    """
    problems = []
    if not is_convex(p):
        problems.append("not strictly convex in CCW order")
    d, _ = diameter(p)
    if d > 1.0 + DIAMETER_TOL:
        problems.append(f"diameter {d!r} exceeds 1 + {DIAMETER_TOL}")
    x0, y0 = p.xy[0].tolist()
    if math.hypot(x0, y0) > HALF_PLANE_TOL:
        problems.append(f"first vertex ({x0}, {y0}) is not at the origin")
    if np.any(p.xy[:, 1] < -HALF_PLANE_TOL):
        problems.append("polygon leaves the half-plane y >= 0")
    return problems


def validate_small_polygon(p: SmallPolygon) -> None:
    """Raise :class:`InvalidPolygonError` unless all invariants hold."""
    problems = small_polygon_violations(p)
    if problems:
        raise InvalidPolygonError("; ".join(problems))


# ---------------------------------------------------------------------------
# JSON interchange: {"n": ..., "family": ..., "params": {...}, "vertices": [[x, y], ...]}
# with floats printed at 17 significant digits (lossless for binary64).
# ---------------------------------------------------------------------------


def _json17(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json17(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json17(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def polygon_to_json(p: SmallPolygon) -> str:
    """Serialize a polygon to its JSON interchange form."""
    vertices = ", ".join(f"[{x:.17g}, {y:.17g}]" for x, y in p.xy.tolist())
    return (f'{{"n": {p.n}, "family": {_json17(p.family.value)}, '
            f'"params": {_json17(p.params)}, "vertices": [{vertices}]}}')


def polygon_from_json(text: str) -> SmallPolygon:
    """Parse the JSON interchange form back into a polygon."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidPolygonError(f"malformed polygon JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InvalidPolygonError("polygon JSON must be an object with a 'vertices' array")
    vertices = doc["vertices"]
    # type scans in C: booleans, strings and nulls fail here; the constructor
    # rejects NaN, infinities and integers too large for a float
    if not (isinstance(vertices, list)
            and set(map(type, vertices)) <= {list}
            and set(map(len, vertices)) <= {2}
            and set(map(type, chain.from_iterable(vertices))) <= {int, float}):
        raise InvalidPolygonError("'vertices' must be a list of [x, y] pairs of finite numbers")
    if "n" in doc and doc["n"] != len(vertices):
        raise InvalidPolygonError(f"vertex count {len(vertices)} does not match n={doc['n']}")
    family_tag = doc.get("family", Family.RAW.value)
    try:
        family = Family(family_tag)
    except ValueError as exc:
        raise InvalidPolygonError(f"unknown family tag {family_tag!r}") from exc
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise InvalidPolygonError("'params' must be an object")
    return SmallPolygon.from_coords(vertices, family, params)
