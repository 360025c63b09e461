"""Vertex constructions for every polygon family, plus the angle bridge.

Conventions shared by all constructions: the first vertex sits at the
origin, the polygon lives in the half-plane y >= 0, the symmetry axis (when
there is one) is the y-axis, and the emitted vertex order is the
counterclockwise boundary order.

The two diameter-graph families are parametrized by angle sequences:

* cycle-plus-pendants ("b"): a (n/2+1)-cycle through the origin plus n/2-1
  pendant unit edges, driven by n/4+1 angles whose weighted sum is pi/2.
* odd-cycle ("q"): an (n-1)-cycle plus a single pendant unit edge along the
  symmetry axis, driven by n/2 angles summing to pi/2.

`from_angles_b` / `from_angles_q` rebuild polygons from raw angle sequences
(the bridge used by the optimizer) and `extract_angles_b` / `extract_angles_q`
invert them by walking the diameter graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .bounds import b_alternation, is_power_of_two, q_alternation
from .geometry import (
    Family,
    SmallPolygon,
    diameter,
    diameter_graph,
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


def _boundary_order(verts: list[tuple[float, float]]) -> np.ndarray:
    """Sort strictly convex vertices CCW, starting from the origin vertex."""
    xy = np.fromiter(chain.from_iterable(verts), float, 2 * len(verts)).reshape(-1, 2)
    cx = math.fsum(xy[:, 0].tolist()) / len(xy)
    cy = math.fsum(xy[:, 1].tolist()) / len(xy)
    ring = xy[np.argsort(np.arctan2(xy[:, 1] - cy, xy[:, 0] - cx), kind="stable")]
    first = int(np.argmin(np.hypot(ring[:, 0], ring[:, 1])))
    return np.roll(ring, -first, axis=0)


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
    verts = [(radius * math.sin(2 * math.pi * k / n),
              radius - radius * math.cos(2 * math.pi * k / n)) for k in range(n)]
    return _polygon(verts, Family.REGULAR, {"n": n})


def regular_plus(n: int) -> SmallPolygon:
    """Regular small (n-1)-gon with one vertex added at unit distance.

    The extra vertex rides the bisector of the origin vertex's angle (all
    choices are congruent), landing at (0, 1) in this frame and splitting the
    flat top edge of the odd (n-1)-gon.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"need even n >= 4, got {n}")
    base = regular(n - 1)
    verts = base.xy.tolist()
    top = (n - 2) // 2  # apex goes between the two topmost vertices
    verts = verts[: top + 1] + [(0.0, 1.0)] + verts[top + 1:]
    return _polygon(verts, Family.REGULAR_PLUS, {"n": n})


def _arc_interior(center: tuple[float, float], start: tuple[float, float],
                  subarcs: int, sweep: float) -> list[tuple[float, float]]:
    """Interior points subdividing a unit-radius CCW arc into equal subarcs."""
    cx, cy = center
    a0 = math.atan2(start[1] - cy, start[0] - cx)
    step = sweep / subarcs
    return [(cx + math.cos(a0 + i * step), cy + math.sin(a0 + i * step))
            for i in range(1, subarcs)]


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
    base = regular(m).xy.tolist()
    per_arc = n // m
    sweep = math.pi / m  # angular extent of each Reuleaux arc
    verts: list[tuple[float, float]] = []
    for i in range(m):
        opposite = base[(i + (m + 1) // 2) % m]
        verts.append(base[i])
        verts.extend(_arc_interior(opposite, base[i], per_arc, sweep))
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
    corner0 = (0.0, 0.0)
    corner1 = (0.5, math.sqrt(3.0) / 2.0)
    corner2 = (-0.5, math.sqrt(3.0) / 2.0)
    k, r = divmod(n, 3)
    top = k + 1 if r == 1 else k      # arc opposite the origin corner
    side = k if r == 1 else k + 1     # the two arcs meeting at the origin
    sweep = math.pi / 3
    verts = [corner0]
    verts.extend(_arc_interior(corner2, corner0, side, sweep))
    verts.append(corner1)
    verts.extend(_arc_interior(corner0, corner1, top, sweep))
    verts.append(corner2)
    verts.extend(_arc_interior(corner1, corner2, side, sweep))
    return _polygon(verts, Family.TAMVAKIS, {"n": n})


# ---------------------------------------------------------------------------
# Angle parametrizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AngleParam:
    """An angle sequence (a_0 .. a_{dim-1}) driving one diameter-graph family.

    Both families state feasibility in one form: the weighted angle sum
    sum w_k a_k = pi/2 (symmetry), the half-cycle closure
    const + sum_{r=0}^{dim-2} (-1)^r sin(phi_r) = 0 over the weighted running
    sums phi_r = sum_{j<=r} w_j a_j, and the boxes 0 <= a_k <= upper_k.  Each
    subclass states its family's data once: the least n (``_MIN_N``), the
    number of angles (``_dim``), the closure constant (``_CLOSURE``), and
    the weights and upper boxes as (first, middle, last) values.  The
    optimizer builds its problem from the same weights, boxes and constant.
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
        terms = [self._CLOSURE]
        run = 0.0
        for r, (w, a) in enumerate(zip(self.weights(len(self.alphas)), self.alphas[:-1])):
            run += w * a
            terms.append(((-1.0) ** r) * math.sin(run))
        return math.fsum(terms)

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

    Weights (1, 2, .., 2, 1), so phi_r = a_0 + 2 sum_{1<=j<=r} a_j; closure
    constant 1/2; boxes 0 <= a_k <= pi/6 (pi/3 for the last angle).
    """

    _MIN_N = 8
    _CLOSURE = 0.5
    _WEIGHTS = (1.0, 2.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 6, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 4 + 1


class AngleParamQ(_AngleParam):
    """Angle sequence (a_0 .. a_{n/2-1}) of the odd-cycle family.

    Unit weights, so phi_r = A_r is the running angle sum; closure constant
    -1/2; boxes 0 <= a_0 <= pi/6, 0 <= a_k <= pi/3 otherwise.
    """

    _MIN_N = 4
    _CLOSURE = -0.5
    _WEIGHTS = (1.0, 1.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 3, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 2


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
# Coordinate recursions
# ---------------------------------------------------------------------------


def _b_vertices(n: int, alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Cycle-walk coordinates of the cycle-plus-pendants family.

    Walks the right half of the diameter cycle from the origin with unit
    steps in directions phi_k measured from the +y axis, alternating the step
    sign, then drops the pendant endpoints and mirrors everything across the
    y-axis.  The mirrored half reuses exact sign flips, so the vertex set is
    exactly symmetric.
    """
    m = n // 4
    v: dict[int, tuple[float, float]] = {0: (0.0, 0.0), n // 2 + 1: (0.0, 1.0)}
    run = 0.0  # 2 * sum of alphas[1..k-1]
    for k in range(1, m + 1):
        phi = alphas[0] + run
        sign = 1.0 if k % 2 == 1 else -1.0  # = -(-1)^k
        xk = v[k - 1][0] + sign * math.sin(phi)
        yk = v[k - 1][1] + sign * math.cos(phi)
        v[k] = (xk, yk)
        v[n // 2 - k + 1] = (-xk, yk)
        if k <= m - 1:
            psi = phi + alphas[k]
            xp = xk - sign * math.sin(psi)
            yp = yk - sign * math.cos(psi)
            v[k + n // 2 + 1] = (xp, yp)
            v[n - k] = (-xp, yp)
            run += 2 * alphas[k]
    return [v[i] for i in range(n)]


def _q_vertices(n: int, alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Odd-cycle coordinates: unit steps with heading flipped each edge.

    Edge k of the cycle points along ((-1)^k sin A_k, (-1)^k cos A_k) with
    A_k the running angle sum, i.e. each step turns by pi + a_k; the right
    half is walked explicitly and the rest mirrored, with the pendant apex
    at (0, 1).
    """
    d = n // 2
    v: dict[int, tuple[float, float]] = {0: (0.0, 0.0), n - 1: (0.0, 1.0)}
    run = 0.0
    for k in range(d - 1):
        run += alphas[k]
        sign = 1.0 if k % 2 == 0 else -1.0
        v[k + 1] = (v[k][0] + sign * math.sin(run),
                    v[k][1] + sign * math.cos(run))
    for j in range(d, n - 1):
        xm, ym = v[n - 1 - j]
        v[j] = (-xm, ym)
    return [v[i] for i in range(n)]


def _from_angles(param: _AngleParam, vertices, variant: str) -> SmallPolygon:
    param.validate(sum_tol=ROUNDED_TOL, closure_tol=ROUNDED_TOL)
    verts = _boundary_order(vertices(param.n, param.alphas))
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
    param = b_angles(n)
    verts = _boundary_order(_b_vertices(n, param.alphas))
    return _polygon(verts, Family.B_FAMILY, {"n": n})


def q_family(n: int) -> SmallPolygon:
    """The closed-form member of the odd-cycle family."""
    param = q_angles(n)
    verts = _boundary_order(_q_vertices(n, param.alphas))
    return _polygon(verts, Family.Q_FAMILY, {"n": n})


# ---------------------------------------------------------------------------
# Angle extraction (inverse of the recursions, via the diameter graph)
# ---------------------------------------------------------------------------


def _cycle_walk(p: SmallPolygon, adj: dict[int, list[int]]) -> tuple[list[int], int]:
    """Walk the cycle of the diameter graph ``adj`` from the origin vertex back to it.

    Returns (cycle vertex indices v_0 .. v_0, apex index).  The walk starts
    toward positive x; pendant neighbors (degree one) are excluded from the cycle.
    """
    coords = p.xy
    origin = int(np.argmin(np.hypot(coords[:, 0], coords[:, 1])))
    if math.hypot(*coords[origin]) > 1e-9:
        raise ValueError("polygon has no vertex at the origin")
    pendants = [j for j in adj[origin] if len(adj[j]) == 1]
    if len(pendants) != 1:
        raise ValueError("origin vertex must carry exactly one pendant edge")
    apex = pendants[0]
    cycle_nbrs = [j for j in adj[origin] if len(adj[j]) >= 2]
    if len(cycle_nbrs) != 2:
        raise ValueError("origin vertex must lie on the diameter cycle")
    first = max(cycle_nbrs, key=lambda j: coords[j][0])
    path = [origin, first]
    while path[-1] != origin:
        here = path[-1]
        nxt = [j for j in adj[here] if len(adj[j]) >= 2 and j != path[-2]]
        if len(nxt) != 1:
            raise ValueError("diameter graph is not a simple cycle with pendants")
        path.append(nxt[0])
    return path, apex


def _angle_between(u: np.ndarray, v: np.ndarray) -> float:
    return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(u @ v))


def extract_angles_b(p: SmallPolygon) -> AngleParamB:
    """Measure the defining angles of a cycle-plus-pendants polygon.

    Walks the diameter cycle from the origin and measures interior angles
    with atan2: the first angle against the pendant axis, then half the
    turn at each interior cycle vertex, then the full turn at vertex n/4.
    """
    n = p.n
    m = n // 4
    coords = p.xy
    path, apex = _cycle_walk(p, diameter_graph(p))
    pts = coords[path]
    alphas = [_angle_between(coords[apex] - pts[0], pts[1] - pts[0])]
    for k in range(1, m):
        alphas.append(0.5 * _angle_between(pts[k - 1] - pts[k], pts[k + 1] - pts[k]))
    alphas.append(_angle_between(pts[m - 1] - pts[m], pts[m + 1] - pts[m]))
    return AngleParamB(n, alphas)


def extract_angles_q(p: SmallPolygon) -> AngleParamQ:
    """Measure the defining angles of an odd-cycle polygon."""
    n = p.n
    d = n // 2
    coords = p.xy
    path, apex = _cycle_walk(p, diameter_graph(p))
    pts = coords[path]
    alphas = [_angle_between(coords[apex] - pts[0], pts[1] - pts[0])]
    for k in range(1, d):
        alphas.append(_angle_between(pts[k - 1] - pts[k], pts[k + 1] - pts[k]))
    return AngleParamQ(n, alphas)
