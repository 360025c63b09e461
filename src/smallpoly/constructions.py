"""Vertex constructions for every polygon family, plus the angle bridge.

Conventions shared by all constructions: the first vertex sits at the
origin, the polygon lives in the half-plane y >= 0, the symmetry axis (when
there is one) is the y-axis, and the emitted vertex order is the
counterclockwise boundary order.  Every construction builds its (n, 2)
float64 vertex array directly.

The two diameter-graph families are parametrized by angle sequences:

* cycle-plus-pendants ("b"): a (n/2+1)-cycle through the origin plus n/2-1
  pendant unit edges, driven by n/4+1 angles whose weighted sum is pi/2.
* odd-cycle ("q"): an (n-1)-cycle plus a single pendant unit edge along the
  symmetry axis, driven by n/2 angles summing to pi/2.

Both are one walk: the right half-cycle runs from the origin in unit steps
(-1)^r (sin phi_r, cos phi_r), one cumulative sum over the phases phi_r that
:class:`AngleParamB` / :class:`AngleParamQ` state for the walk and the
closure condition alike; slices place the pendants, apex and mirror half.
`from_angles_b` / `from_angles_q` rebuild polygons from raw angle sequences
(the bridge used by the optimizer) and `extract_angles_b` / `extract_angles_q`
invert them, measuring every turn along the diameter cycle in one pass.
:func:`diameter_cycle` reads that cycle off the edge array at a fixed stride
(any two diameters meet, by Hopf and Pannwitz), with no graph walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import b_alternation, is_power_of_two, q_alternation
from .geometry import (
    Family,
    SmallPolygon,
    diameter,
    small_polygon_violations,
    validate_small_polygon,
)

ANGLE_SUM_TOL = 1e-12   # weighted angle sums must hit pi/2 this tightly
CLOSURE_TOL = 1e-10     # half-cycle endpoint must reach abscissa +-1/2
BOX_TOL = 1e-9          # slack on the 0..pi/6 (pi/3) angle boxes
ROUNDED_TOL = 1e-5      # residual level of six-digit published angle data


class InfeasibleAnglesError(ValueError):
    """Angle sequence violates the feasibility conditions of its family.

    Carries the offending residuals so callers can report how far off the
    sequence was.
    """

    def __init__(self, message: str, angle_sum_residual: float = 0.0,
                 closure_residual: float = 0.0):
        super().__init__(message)
        self.angle_sum_residual = angle_sum_residual
        self.closure_residual = closure_residual


def _boundary_order(xy: np.ndarray) -> np.ndarray:
    """Indices of points in convex position in CCW order, starting from the
    point nearest the origin; the order does not depend on the row order."""
    cx = math.fsum(xy[:, 0].tolist()) / len(xy)
    cy = math.fsum(xy[:, 1].tolist()) / len(xy)
    order = np.argsort(np.arctan2(xy[:, 1] - cy, xy[:, 0] - cx), kind="stable")
    first = int(np.argmin(np.hypot(xy[order, 0], xy[order, 1])))
    return np.roll(order, -first)


def _polygon(verts, family, params) -> SmallPolygon:
    poly = SmallPolygon.from_coords(verts, family, params)
    validate_small_polygon(poly)
    return poly


# ---------------------------------------------------------------------------
# Classical constructions
# ---------------------------------------------------------------------------


def regular(n: int) -> SmallPolygon:
    """Regular small n-gon, symmetric about the y-axis, first vertex at the origin.

    For even n the circumradius is 1/2 (opposite vertices are diameters);
    for odd n it is 1/(2 cos(pi/2n)) so vertex-to-far-vertex distances are 1,
    which puts the flat edge at the top of this frame.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 2 == 0:
        radius = 0.5
    else:
        radius = 1.0 / (2.0 * math.cos(math.pi / (2 * n)))
    t = 2 * math.pi * np.arange(n) / n
    verts = np.column_stack((radius * np.sin(t), radius - radius * np.cos(t)))
    return _polygon(verts, Family.REGULAR, {"n": n})


def regular_plus(n: int) -> SmallPolygon:
    """Regular small (n-1)-gon with one vertex added at unit distance.

    The extra vertex rides the bisector of the origin vertex's angle (all
    choices are congruent), landing at (0, 1) in this frame and splitting the
    flat top edge of the odd (n-1)-gon.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"need even n >= 4, got {n}")
    top = (n - 2) // 2  # apex goes between the two topmost vertices
    verts = np.insert(regular(n - 1).xy, top + 1, (0.0, 1.0), axis=0)
    return _polygon(verts, Family.REGULAR_PLUS, {"n": n})


def _arc_interior(center: np.ndarray, start: np.ndarray, subarcs: int,
                  sweep: float) -> np.ndarray:
    """Interior points subdividing a unit-radius CCW arc into equal subarcs."""
    (cx, cy), (sx, sy) = center.tolist(), start.tolist()
    t = math.atan2(sy - cy, sx - cx) + np.arange(1, subarcs) * (sweep / subarcs)
    return np.column_stack((cx + np.cos(t), cy + np.sin(t)))


def _reuleaux(corners: np.ndarray, subarcs: Sequence[int]) -> np.ndarray:
    """Each corner, then its arc (about the opposite corner, sweeping pi/m)
    cut into ``subarcs[i]`` equal subarcs."""
    m = len(corners)
    pieces = []
    for i, count in enumerate(subarcs):
        opposite = corners[(i + (m + 1) // 2) % m]
        pieces += [corners[i:i + 1], _arc_interior(opposite, corners[i], count, math.pi / m)]
    return np.concatenate(pieces)


def reuleaux_subdivision(m: int, n: int) -> SmallPolygon:
    """Equilateral n-gon inscribed in the Reuleaux m-gon over the regular m-gon.

    Each edge of the regular small m-gon is replaced by the unit-radius arc
    centered at the opposite vertex, and n/m - 1 vertices are added per arc
    at regular angular intervals.  The result has perimeter 2n sin(pi/2n)
    and width cos(pi/2n), attaining both classical bounds.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"need odd m >= 3, got {m}")
    if n % m != 0:
        raise ValueError(f"need m | n, got m={m}, n={n}")
    verts = _reuleaux(regular(m).xy, [n // m] * m)
    return _polygon(verts, Family.REULEAUX_SUB, {"m": m, "n": n})


def tamvakis(n: int) -> SmallPolygon:
    """Tamvakis n-gon: subdivided Reuleaux triangle, n a power of two.

    The three unit arcs are split into floor(n/3) or ceil(n/3) subarcs of
    equal length.  The arc whose count differs from the other two is the one
    opposite the origin corner, keeping the polygon mirror-symmetric; that
    distribution is the unique one reproducing the family's perimeter
    formula (2 sin(pi/(2n-2)) chords etc.).
    """
    if not (is_power_of_two(n) and n >= 4):
        raise ValueError(f"need n = 2^s >= 4, got {n}")
    corners = np.array([(0.0, 0.0), (0.5, math.sqrt(3.0) / 2.0), (-0.5, math.sqrt(3.0) / 2.0)])
    k, r = divmod(n, 3)
    top = k + 1 if r == 1 else k      # arc opposite the origin corner
    side = k if r == 1 else k + 1     # the two arcs meeting at the origin
    return _polygon(_reuleaux(corners, (side, top, side)), Family.TAMVAKIS, {"n": n})


# ---------------------------------------------------------------------------
# Angle parametrizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AngleParam:
    """An angle sequence (a_0 .. a_{dim-1}) driving one diameter-graph family.

    Both families state feasibility in one form: the weighted angle sum
    sum w_k a_k = pi/2 (symmetry), the half-cycle closure
    const + sum_{r=0}^{dim-2} (-1)^r sin(phi_r) = 0 over the phases
    phi_r = sum_{j<=r} w_j a_j, and the boxes 0 <= a_k <= upper_k.  Each
    subclass states its family's data once: the least n (``_MIN_N``), the
    number of angles (``_dim``), the closure constant (``_CLOSURE``), the
    weights and upper boxes as (first, middle, last) values, and the phases
    (``phases``), along which the vertex walk steps too.  The optimizer
    builds its problem from the same weights, boxes and constant.
    """

    n: int
    alphas: tuple[float, ...]

    def __init__(self, n: int, alphas: Sequence[float]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "alphas", tuple(float(a) for a in alphas))

    @classmethod
    def weights(cls, dim: int) -> list[float]:
        """Angle-sum weights of ``dim`` angles."""
        first, middle, last = cls._WEIGHTS
        return [first] + [middle] * (dim - 2) + [last]

    @classmethod
    def upper(cls, n: int) -> np.ndarray:
        """Upper angle boxes at n; every lower box is 0."""
        first, middle, last = cls._UPPER
        return np.array([first] + [middle] * (cls._dim(n) - 2) + [last])

    def angle_sum_residual(self) -> float:
        w = self.weights(len(self.alphas))
        return math.fsum(wi * ai for wi, ai in zip(w, self.alphas)) - math.pi / 2

    def closure_residual(self) -> float:
        terms = _steps(self.phases(self.alphas))[:, 0]  # the walk's x increments
        return math.fsum([self._CLOSURE] + terms.tolist())

    def validate(self, sum_tol: float = ANGLE_SUM_TOL,
                 closure_tol: float = CLOSURE_TOL) -> None:
        if not (is_power_of_two(self.n) and self.n >= self._MIN_N):
            raise InfeasibleAnglesError(f"need n = 2^s >= {self._MIN_N}, got {self.n}")
        dim = self._dim(self.n)
        if len(self.alphas) != dim:
            raise InfeasibleAnglesError(
                f"need {dim} angles for n={self.n}, got {len(self.alphas)}")
        for k, (a, hi) in enumerate(zip(self.alphas, self.upper(self.n).tolist())):
            if not (-BOX_TOL <= a <= hi + BOX_TOL):
                raise InfeasibleAnglesError(f"angle {k} = {a} outside [0, {hi}]")
        rs = self.angle_sum_residual()
        rc = self.closure_residual()
        if abs(rs) > sum_tol or abs(rc) > closure_tol:
            raise InfeasibleAnglesError(
                f"infeasible angles: sum residual {rs:.3e}, closure residual {rc:.3e}",
                angle_sum_residual=rs, closure_residual=rc)

    def is_strict(self) -> bool:
        """True when both residuals are within the exact-feasibility tolerances."""
        return (abs(self.angle_sum_residual()) <= ANGLE_SUM_TOL
                and abs(self.closure_residual()) <= CLOSURE_TOL)


class AngleParamB(_AngleParam):
    """Angle sequence (a_0 .. a_{n/4}) of the cycle-plus-pendants family.

    Weights (1, 2, .., 2, 1); closure constant 1/2; boxes
    0 <= a_k <= pi/6 (pi/3 for the last angle).
    """

    _MIN_N = 8
    _CLOSURE = 0.5
    _WEIGHTS = (1.0, 2.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 6, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 4 + 1

    @staticmethod
    def phases(alphas: Sequence[float]) -> np.ndarray:
        """phi_r = a_0 + 2 (a_1 + .. + a_r) for r < n/4."""
        a = np.asarray(alphas, dtype=float)
        return a[0] + np.concatenate(([0.0], np.cumsum(2.0 * a[1:-1])))


class AngleParamQ(_AngleParam):
    """Angle sequence (a_0 .. a_{n/2-1}) of the odd-cycle family.

    Unit weights, so the phases are the running angle sums; closure constant
    -1/2; boxes 0 <= a_0 <= pi/6, 0 <= a_k <= pi/3 otherwise.
    """

    _MIN_N = 4
    _CLOSURE = -0.5
    _WEIGHTS = (1.0, 1.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 3, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 2

    @staticmethod
    def phases(alphas: Sequence[float]) -> np.ndarray:
        """phi_r = a_0 + .. + a_r for r < n/2 - 1."""
        return np.cumsum(np.asarray(alphas, dtype=float)[:-1])


def b_angles(n: int) -> AngleParamB:
    """Analytic angles pi/n + (-1)^k beta of the cycle-plus-pendants family."""
    if not (is_power_of_two(n) and n >= 8):
        raise ValueError(f"need n = 2^s >= 8, got {n}")
    beta = b_alternation(n)
    return AngleParamB(n, [math.pi / n + ((-1.0) ** k) * beta for k in range(n // 4 + 1)])


def q_angles(n: int) -> AngleParamQ:
    """Analytic angles pi/n - (-1)^k gamma of the odd-cycle family."""
    if not (is_power_of_two(n) and n >= 4):
        raise ValueError(f"need n = 2^s >= 4, got {n}")
    gamma = q_alternation(n)
    return AngleParamQ(n, [math.pi / n - ((-1.0) ** k) * gamma for k in range(n // 2)])


# ---------------------------------------------------------------------------
# The phase walk
# ---------------------------------------------------------------------------


def _steps(phases: np.ndarray) -> np.ndarray:
    """Unit steps (-1)^r (sin phi_r, cos phi_r), headings from the +y axis."""
    steps = np.column_stack((np.sin(phases), np.cos(phases)))
    steps[1::2] *= -1.0
    return steps


def _walk(phases: np.ndarray) -> np.ndarray:
    """Vertices 0 .. len(phases) of the walk from the origin along :func:`_steps`."""
    return np.cumsum(np.vstack((np.zeros((1, 2)), _steps(phases))), axis=0)


def _mirror(rows: np.ndarray) -> np.ndarray:
    """``rows`` reflected across the y-axis by exact sign flips, in reverse order."""
    return rows[::-1] * np.array([-1.0, 1.0])


def _b_vertices(n: int, alphas: Sequence[float]) -> np.ndarray:
    """Cycle-plus-pendants rows: the walk (vertices 0 .. n/4), its mirror,
    the apex, and the pendant ends, one step back from walk vertex k along
    phi_{k-1} + a_k, with their mirror; the vertex set is exactly symmetric.
    """
    m = n // 4
    a = np.asarray(alphas, dtype=float)
    phi = AngleParamB.phases(a)
    walk = _walk(phi)
    pendants = walk[1:m] - _steps(phi[:-1] + a[1:m])
    return np.concatenate((walk, _mirror(walk[1:]), [(0.0, 1.0)], pendants, _mirror(pendants)))


def _q_vertices(n: int, alphas: Sequence[float]) -> np.ndarray:
    """Odd-cycle rows: the walk (vertices 0 .. n/2 - 1, each step turning by
    pi + a_k), its mirror and the pendant apex."""
    walk = _walk(AngleParamQ.phases(alphas))
    return np.concatenate((walk, _mirror(walk[1:]), [(0.0, 1.0)]))


def _from_angles(param: _AngleParam, vertices, variant: str) -> SmallPolygon:
    param.validate(sum_tol=ROUNDED_TOL, closure_tol=ROUNDED_TOL)
    verts = vertices(param.n, param.alphas)
    verts = verts[_boundary_order(verts)]
    params = {"variant": variant, "n": param.n, "alphas": list(param.alphas)}
    poly = SmallPolygon.from_coords(verts, Family.FROM_ANGLES, params)
    if param.is_strict():
        validate_small_polygon(poly)
    else:
        # rounding-level infeasibility shifts the half-cycle endpoint, so the
        # diameter may exceed one by the same order; everything else must hold
        problems = [v for v in small_polygon_violations(poly)
                    if not v.startswith("diameter")]
        if problems:
            raise InfeasibleAnglesError("; ".join(problems))
        if diameter(poly)[0] > 1.0 + 8 * ROUNDED_TOL:
            raise InfeasibleAnglesError("diameter drifted too far from one")
    return poly


def from_angles_b(param: AngleParamB) -> SmallPolygon:
    """Rebuild the symmetric cycle-plus-pendants n-gon from raw angles.

    Strictly feasible sequences (residuals within the type tolerances) yield
    validated unit-diameter polygons.  Sequences feasible only to rounding
    precision -- published six-digit angle data carries residuals near 1e-6 --
    are built as-is, with the unit-diameter bound slackened accordingly.
    Anything farther off raises :class:`InfeasibleAnglesError`.
    """
    return _from_angles(param, _b_vertices, "b")


def from_angles_q(param: AngleParamQ) -> SmallPolygon:
    """Rebuild the symmetric odd-cycle n-gon from raw angles.

    Feasibility handling matches :func:`from_angles_b`: exact sequences are
    fully validated, rounding-grade sequences are built with a slackened
    diameter bound, and grossly infeasible ones are rejected.
    """
    return _from_angles(param, _q_vertices, "q")


def b_family(n: int) -> SmallPolygon:
    """The closed-form member of the cycle-plus-pendants family.

    Angles pi/n + (-1)^k beta with beta fixed by the closure condition; its
    perimeter is 2n sin(pi/2n) cos(beta/2) and its width cos(pi/2n + beta/2).
    """
    verts = _b_vertices(n, b_angles(n).alphas)
    return _polygon(verts[_boundary_order(verts)], Family.B_FAMILY, {"n": n})


def q_family(n: int) -> SmallPolygon:
    """The closed-form member of the odd-cycle family."""
    verts = _q_vertices(n, q_angles(n).alphas)
    return _polygon(verts[_boundary_order(verts)], Family.Q_FAMILY, {"n": n})


# ---------------------------------------------------------------------------
# Angle extraction (inverse of the recursions, via the diameter graph)
# ---------------------------------------------------------------------------


def diameter_cycle(p: SmallPolygon) -> tuple[np.ndarray, np.ndarray, int]:
    """The diameter graph of a b or q polygon as (cycle, pendant edges, apex).

    ``cycle`` lists v_0 .. v_0 of the one cycle, from the origin vertex toward
    positive x; the (P, 2) pendant edges have an end of degree one; ``apex``
    ends the origin's pendant.  Any two diameters of a planar point set meet
    (Hopf and Pannwitz), so an odd cycle of m diameters visits the CCW-ordered
    vertices of degree >= 2 at stride (m -+ 1)/2; every stride pair is then
    looked up among the edges.  Raises ValueError unless the graph is one
    cycle through the origin vertex plus pendants, exactly one at the origin.
    """
    xy, n = p.xy, p.n
    edges = np.array(diameter(p)[1], dtype=np.intp).reshape(-1, 2)
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
    return cycle, pendants, int(at_origin.sum()) - origin  # the pendant's other end


def _cycle_turns(p: SmallPolygon, count: int) -> np.ndarray:
    """Angle at the origin between the pendant and the first cycle edge, then
    the angles at cycle vertices 1 .. count between their cycle edges."""
    cycle, _, apex = diameter_cycle(p)
    pts = p.xy[cycle[:count + 2]]
    here = pts[:-1]
    u = np.vstack((p.xy[apex], pts[:-2])) - here
    v = pts[1:] - here
    return np.arctan2(np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]),
                      u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])


def extract_angles_b(p: SmallPolygon) -> AngleParamB:
    """Measure the defining angles of a cycle-plus-pendants polygon.

    The first angle is measured against the pendant axis, then half the
    turn at each interior cycle vertex (its pendant splits the turn into two
    angles a_k), then the full turn at vertex n/4.
    """
    m = p.n // 4
    turns = _cycle_turns(p, m)
    turns[1:m] *= 0.5
    return AngleParamB(p.n, turns)


def extract_angles_q(p: SmallPolygon) -> AngleParamQ:
    """Measure the defining angles of an odd-cycle polygon: the full turns."""
    return AngleParamQ(p.n, _cycle_turns(p, p.n // 2 - 1))
