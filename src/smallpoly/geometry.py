"""Coordinate-level primitives and metrics for unit-diameter ("small") polygons.

Everything here works directly on vertex coordinates: perimeters are edge
sums, widths come from edge-normal support distances, diameters from the
antipodal vertex pairs of the convex hull, areas from the shoelace formula.
None of it knows about closed forms, so it can serve as an independent
cross-check for the analytic expressions in :mod:`smallpoly.bounds`.

All operations are pure functions of immutable values and are safe to call
concurrently; what a polygon caches (convexity, antipodes, width, sweep,
cycle) is deterministic, so a race can at most compute one value twice.
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


@dataclass(frozen=True, eq=False)
class SmallPolygon:
    """An ordered (counterclockwise) vertex array plus construction metadata.

    ``xy`` is a read-only (n, 2) float64 array owned by the polygon.  The
    container itself only checks its shape and finiteness; the per-family
    invariants (strict convexity, diameter one, first vertex at the origin)
    are guaranteed by the constructors in :mod:`smallpoly.constructions` and
    can be re-checked with :func:`small_polygon_violations`.  The convexity
    test, the antipode search of a convex polygon, its width, the diameter
    sweep and the diameter cycle run at most once per polygon and are cached
    on it; the convexity test, the width and the hull share one scaled copy
    of the coordinates, and the width and the sweep share the antipodes.
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
        if not np.isfinite(xy).all():
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

    def coords(self) -> np.ndarray:
        """A writable copy of the (n, 2) vertex coordinates."""
        return self.xy.copy()

    @cached_property
    def _unit(self) -> tuple[np.ndarray, int]:
        return _scaled(self.xy)

    @cached_property
    def _convex(self) -> bool:
        return _is_convex(self._unit[0])

    @cached_property
    def _far(self) -> np.ndarray:
        # each edge's antipodal vertex; meaningful for convex polygons only
        return _antipodes(self.xy)

    @cached_property
    def _width(self) -> float:
        unit, exponent = self._unit
        return math.ldexp(_support_width(unit, self._far), exponent)

    @cached_property
    def _diameter(self) -> tuple[float, np.ndarray]:
        """``(d, edges)`` with ``edges`` a read-only (E, 2) intp array."""
        if self._convex:  # a strictly convex CCW polygon is its own hull
            return _sweep(self.xy, np.arange(self.n), self._far)
        hull = _hull(self._unit[0])
        return _sweep(self.xy, hull, _antipodes(self.xy[hull]))

    @cached_property
    def _cycle(self) -> tuple[np.ndarray, np.ndarray, int]:
        return _stride_cycle(self.xy, diameter(self)[1])

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


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Perimeter, width, diameter, area and diameter-graph edges of a convex
    polygon; ``diameter_edges`` is the edge array that :func:`diameter` caches."""

    perimeter: float
    width: float
    diameter: float
    area: float
    diameter_edges: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "perimeter": self.perimeter,
            "width": self.width,
            "diameter": self.diameter,
            "area": self.area,
            "diameter_edges": self.diameter_edges.tolist(),
        }


def _shift(a: np.ndarray, k: int) -> np.ndarray:
    """Rows ``a[(i + k) % n]``: ``np.roll(a, -k, axis=0)`` by slicing."""
    return np.concatenate((a[k:], a[:k]))


def perimeter(p: SmallPolygon) -> float:
    """Sum of edge lengths, closed cyclically."""
    e = _shift(p.xy, 1) - p.xy
    return math.fsum(np.hypot(e[:, 0], e[:, 1]).tolist())


def is_convex(p: SmallPolygon) -> bool:
    """True iff the polygon turns left at every vertex and winds around once.

    A turning angle whose sine is within ``CONVEXITY_TOL`` of zero (a
    collinear corner or a zero-length edge) does not count as convex, and
    neither does a star polygon.
    """
    return p._convex


def _scaled(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """``coords`` times the power of two 2^-e putting them in [-1, 1], and e:
    cross products then neither overflow nor, for tiny polygons, underflow."""
    exponent = int(np.frexp(np.abs(coords).max())[1])
    return np.ldexp(coords, -exponent), exponent


def _is_convex(c: np.ndarray) -> bool:
    """Convexity of the polygon whose coordinates :func:`_scaled` put in ``c``."""
    e = _shift(c, 1) - c
    nxt = _shift(e, 1)
    cross = e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]
    lengths = np.hypot(e[:, 0], e[:, 1])
    turns = np.arctan2(cross, e[:, 0] * nxt[:, 0] + e[:, 1] * nxt[:, 1])
    return bool((cross > CONVEXITY_TOL * lengths * _shift(lengths, 1)).all()
                and turns.sum() < 3 * math.pi)  # the turns add up to 2 pi per winding


def _antipodes(coords: np.ndarray) -> np.ndarray:
    """For each edge of a convex CCW polygon, the vertex farthest from its line.

    Binary search on the edge angles less the first one's, mod 2 pi, for the
    edge's reverse direction; rounding or a parallel edge can pick a neighbour.
    """
    e = _shift(coords, 1) - coords
    theta = np.arctan2(e[:, 1], e[:, 0])
    theta = (theta - theta[0]) % (2 * math.pi)
    ext = np.concatenate((theta, theta + 2 * math.pi))
    return np.searchsorted(ext, theta + math.pi) % len(coords)


def width(p: SmallPolygon) -> float:
    """Minimum support-line distance over all boundary-edge normals.

    For a convex polygon the width direction is normal to some edge, so
    enumerating edges is exact.  Non-convex input is rejected.  Computed on
    the scaled coordinates and cached per polygon; raises ``OverflowError``
    where it overflows binary64.
    """
    if not is_convex(p):
        raise NonConvexError("width is only defined here for convex CCW polygons")
    return p._width


def _support_width(coords: np.ndarray, far: np.ndarray) -> float:
    """The width of a convex CCW polygon, given its ``_antipodes``."""
    x, y = np.ascontiguousarray(coords.T)  # contiguous columns gather faster
    ex, ey = _shift(x, 1) - x, _shift(y, 1) - y
    far = (far[:, None] + np.arange(-1, 2)) % len(x)
    # distance of the antipodal vertex and its two neighbours from each edge's line
    cross = ex[:, None] * (y[far] - y[:, None]) - ey[:, None] * (x[far] - x[:, None])
    return float((cross.max(axis=1) / np.hypot(ex, ey)).min())


def _hull(scaled: np.ndarray) -> np.ndarray:
    """CCW hull vertex indices (Andrew's monotone chain), collinear points
    dropped, of the coordinates :func:`_scaled` put in ``scaled``.

    The chain sorts the same scaled points its turn test reads: scaling can
    flush a subnormal coordinate to zero, and an order taken before that
    would not be the order of the points tested.
    """
    pts = scaled.tolist()
    order = np.lexsort((scaled[:, 1], scaled[:, 0])).tolist()
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


def diameter(p: SmallPolygon) -> tuple[float, np.ndarray]:
    """Largest pairwise vertex distance and all pairs achieving it.

    Returns ``(d, edges)``: the read-only (E, 2) intp array ``edges`` holds,
    in ascending order, every index pair ``i < j`` within ``DIAMETER_TOL``
    of ``d`` -- the diameter graph.  Only antipodal pairs of the convex
    hull's vertices are measured, which holds every diameter of any vertex
    set.  The sweep runs once per polygon; each call returns the cached pair.
    """
    return p._diameter


def _sweep(coords: np.ndarray, hull: np.ndarray, far: np.ndarray) -> tuple[float, np.ndarray]:
    """The diameter of ``coords`` and its edges as a read-only (E, 2) intp
    array, given the CCW hull vertex indices and their ``_antipodes``."""
    n, m = len(coords), len(hull)
    prev = _shift(far, -1)
    # hull vertex k is antipodal to hull vertices far[k-1] .. far[k];
    # one more on each side absorbs rounding in far
    counts = (far - prev) % m + 3
    k = np.repeat(np.arange(m), counts)
    step = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = hull[k], hull[(prev[k] - 1 + step) % m]
    x, y = np.ascontiguousarray(coords.T)
    dist = np.hypot(x[j] - x[i], y[j] - y[i])
    dmax = float(dist.max())
    # each pair as lo * n + hi, so that one sort orders the pairs and a
    # neighbour comparison drops the repeats
    on = (dist >= dmax - DIAMETER_TOL) & (i != j)
    i, j = i[on], j[on]
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    keys = keys[np.concatenate(([True], keys[1:] > keys[:-1]))]
    edges = np.stack(np.divmod(keys, n), axis=1)
    edges.flags.writeable = False
    return dmax, edges


def _boundary_order(xy: np.ndarray) -> np.ndarray:
    """Indices of points in convex position in CCW order, starting from the
    point nearest the origin; the order does not depend on the row order."""
    cx = math.fsum(xy[:, 0].tolist()) / len(xy)
    cy = math.fsum(xy[:, 1].tolist()) / len(xy)
    order = np.argsort(np.arctan2(xy[:, 1] - cy, xy[:, 0] - cx), kind="stable")
    first = int(np.argmin(np.hypot(xy[order, 0], xy[order, 1])))
    return _shift(order, first)


def diameter_cycle(p: SmallPolygon) -> tuple[np.ndarray, np.ndarray, int]:
    """The diameter graph of a b or q polygon as (cycle, pendant edges, apex).

    ``cycle`` lists v_0 .. v_0 of the one cycle, from the origin vertex toward
    positive x; the (P, 2) pendant edges have an end of degree one; ``apex``
    ends the origin's pendant.  Any two diameters of a planar point set meet
    (Hopf and Pannwitz), so an odd cycle of m diameters visits the CCW-ordered
    vertices of degree >= 2 at stride (m -+ 1)/2; every stride pair is then
    looked up among the edges.  Cached on the polygon, with read-only arrays.
    Raises ValueError, on every call, unless the graph is one cycle through
    the origin vertex plus pendants, exactly one at the origin.
    """
    return p._cycle


def _stride_cycle(xy: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`diameter_cycle` of the points ``xy`` with diameter ``edges``."""
    n = len(xy)
    degree = np.bincount(edges.ravel(), minlength=n)
    origin = int(np.argmin(np.hypot(xy[:, 0], xy[:, 1])))
    if math.hypot(*xy[origin]) > 1e-9:
        raise ValueError("polygon has no vertex at the origin")
    ring = np.flatnonzero(degree >= 2)
    if degree[origin] < 2 or len(ring) < 3:
        raise ValueError("origin vertex must lie on the diameter cycle")
    ring = ring[_boundary_order(xy[ring])]
    m = len(ring)
    stride = (m - 1) // 2
    if xy[ring[m - stride], 0] > xy[ring[stride], 0]:
        stride = m - stride
    cycle = ring[np.arange(m + 1) * stride % m]
    steps = np.sort(np.column_stack((cycle[:-1], cycle[1:])), axis=1)
    core = np.all(degree[edges] >= 2, axis=1)
    if not np.array_equal(np.sort(steps @ (n, 1)), np.sort(edges[core] @ (n, 1))):
        raise ValueError("diameter graph is not a simple cycle with pendants")
    pendants = edges[~core]
    at_origin = pendants[np.any(pendants == origin, axis=1)]
    if len(at_origin) != 1:
        raise ValueError("origin vertex must carry exactly one pendant edge")
    cycle.flags.writeable = pendants.flags.writeable = False
    return cycle, pendants, int(at_origin.sum()) - origin  # the pendant's other end


def area(p: SmallPolygon) -> float:
    """Shoelace area; positive for simple CCW polygons."""
    x, y = p.xy.T
    xn, yn = _shift(p.xy, 1).T
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
    """The metrics report of a convex polygon, around its cached edge array.

    Raises :class:`NonConvexError` (from :func:`width`) on non-convex input
    and :class:`InvalidPolygonError` when a metric overflows binary64.
    """
    try:
        with np.errstate(over="raise"):
            d, edges = diameter(p)
            return MetricsReport(
                perimeter=perimeter(p),
                width=width(p),
                diameter=d,
                area=area(p),
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
    d = diameter(p)[0]
    if d > 1.0 + DIAMETER_TOL:
        problems.append(f"diameter {d!r} exceeds 1 + {DIAMETER_TOL}")
    x0, y0 = p.xy[0].tolist()
    if math.hypot(x0, y0) > HALF_PLANE_TOL:
        problems.append(f"first vertex ({x0}, {y0}) is not at the origin")
    if (p.xy[:, 1] < -HALF_PLANE_TOL).any():
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
    vertices = ", ".join(["[%.17g, %.17g]"] * p.n) % tuple(p.xy.ravel().tolist())
    return (f'{{"n": {p.n}, "family": {_json17(p.family.value)}, '
            f'"params": {_json17(p.params)}, "vertices": [{vertices}]}}')


def polygon_from_json(text: str) -> SmallPolygon:
    """Parse the JSON interchange form back into a polygon.

    Every number in the document must be finite, so what this returns
    :func:`polygon_to_json` writes back as JSON that this reads again.
    """
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
    try:  # NaN, Infinity or 1e400 outside the vertices, which the constructor checks
        json.dumps([v for k, v in doc.items() if k != "vertices"], allow_nan=False)
    except ValueError as exc:
        raise InvalidPolygonError("polygon JSON holds a non-finite number") from exc
    return SmallPolygon.from_coords(vertices, family, params)
