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
invert them, measuring every turn along the diameter cycle that
:func:`smallpoly.geometry.diameter_cycle` caches on the polygon, in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import b_alternation, q_alternation, require_n
from .geometry import (
    Family,
    SmallPolygon,
    _boundary_order,
    diameter,
    diameter_cycle,
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
    require_n("regular", n)
    return _polygon(_regular_vertices(n), Family.REGULAR, {"n": n})


def _regular_vertices(n: int) -> np.ndarray:
    """The vertex rows of :func:`regular`, unvalidated."""
    radius = 0.5 if n % 2 == 0 else 1.0 / (2.0 * math.cos(math.pi / (2 * n)))
    t = 2 * math.pi * np.arange(n) / n
    return np.column_stack((radius * np.sin(t), radius - radius * np.cos(t)))


def regular_plus(n: int) -> SmallPolygon:
    """Regular small (n-1)-gon with one vertex added at unit distance.

    The extra vertex rides the bisector of the origin vertex's angle (all
    choices are congruent), landing at (0, 1) in this frame and splitting the
    flat top edge of the odd (n-1)-gon.
    """
    require_n("regular-plus", n)
    top = (n - 2) // 2  # apex goes between the two topmost vertices
    verts = np.insert(_regular_vertices(n - 1), top + 1, (0.0, 1.0), axis=0)
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
    require_n("reuleaux", n, m)
    verts = _reuleaux(_regular_vertices(m), [n // m] * m)
    return _polygon(verts, Family.REULEAUX_SUB, {"m": m, "n": n})


def tamvakis(n: int) -> SmallPolygon:
    """Tamvakis n-gon: subdivided Reuleaux triangle, n a power of two.

    The three unit arcs are split into floor(n/3) or ceil(n/3) subarcs of
    equal length.  The arc whose count differs from the other two is the one
    opposite the origin corner, keeping the polygon mirror-symmetric; that
    distribution is the unique one reproducing the family's perimeter
    formula (2 sin(pi/(2n-2)) chords etc.).
    """
    require_n("tamvakis", n)
    corners = np.array([(0.0, 0.0), (0.5, math.sqrt(3.0) / 2.0), (-0.5, math.sqrt(3.0) / 2.0)])
    k, r = divmod(n, 3)
    top = k + 1 if r == 1 else k      # arc opposite the origin corner
    side = k if r == 1 else k + 1     # the two arcs meeting at the origin
    return _polygon(_reuleaux(corners, (side, top, side)), Family.TAMVAKIS, {"n": n})


# ---------------------------------------------------------------------------
# Angle parametrizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _AngleParam:
    """An angle sequence (a_0 .. a_{dim-1}) driving one diameter-graph family.

    ``alphas`` is a read-only 1-D float64 array owned by the parameter; two
    parameters are equal when their class, n and angles are.  Both families
    state feasibility in one form: the weighted angle sum
    sum w_k a_k = pi/2 (symmetry), the half-cycle closure
    const + sum_{r=0}^{dim-2} (-1)^r sin(phi_r) = 0 over the phases
    phi_r = sum_{j<=r} w_j a_j, and the boxes 0 <= a_k <= upper_k.  Each
    subclass states its family's data once: the key of its n rule
    (``_FAMILY``), the number of angles (``_dim``), the closure constant
    (``_CLOSURE``), the weights and upper boxes as (first, middle, last)
    values, the phases (``phases``), along which the vertex walk steps too,
    and the phase of the fundamental harmonic of its alternating offsets
    (``harmonic``).  The optimizer builds its problem from the same weights,
    boxes and constant, and its warm start from that harmonic.
    """

    n: int
    alphas: np.ndarray

    def __init__(self, n: int, alphas: Sequence[float]):
        a = np.array(alphas, dtype=np.float64)
        if a.ndim != 1:
            raise InfeasibleAnglesError(f"angles must be one sequence, got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "alphas", a)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.alphas, other.alphas)

    @classmethod
    def weights(cls, dim: int) -> np.ndarray:
        """Angle-sum weights of ``dim`` angles."""
        first, middle, last = cls._WEIGHTS
        return np.concatenate(([first], np.full(dim - 2, middle), [last]))

    @classmethod
    def upper(cls, n: int) -> np.ndarray:
        """Upper angle boxes at n; every lower box is 0."""
        first, middle, last = cls._UPPER
        return np.concatenate(([first], np.full(cls._dim(n) - 2, middle), [last]))

    def angle_sum_residual(self) -> float:
        products = self.weights(len(self.alphas)) * self.alphas
        return math.fsum(products.tolist()) - math.pi / 2

    def closure_residual(self) -> float:
        terms = _steps(self.phases(self.alphas))[:, 0]  # the walk's x increments
        return math.fsum([self._CLOSURE] + terms.tolist())

    def validate(self) -> bool:
        """Raise InfeasibleAnglesError unless feasible to ``ROUNDED_TOL``; True if
        strictly so, its residuals within ``ANGLE_SUM_TOL`` and ``CLOSURE_TOL``."""
        require_n(self._FAMILY, self.n, error=InfeasibleAnglesError)
        a, hi = self.alphas, self.upper(self.n)
        if len(a) != len(hi):
            raise InfeasibleAnglesError(f"need {len(hi)} angles for n={self.n}, got {len(a)}")
        k = int(np.argmin((a >= -BOX_TOL) & (a <= hi + BOX_TOL)))  # the first outside, if any
        if not -BOX_TOL <= a[k] <= hi[k] + BOX_TOL:
            raise InfeasibleAnglesError(f"angle {k} = {a[k]} outside [0, {hi[k]}]")
        rs = self.angle_sum_residual()
        rc = self.closure_residual()
        if abs(rs) > ROUNDED_TOL or abs(rc) > ROUNDED_TOL:
            raise InfeasibleAnglesError(
                f"infeasible angles: sum residual {rs:.3e}, closure residual {rc:.3e}",
                angle_sum_residual=rs, closure_residual=rc)
        return abs(rs) <= ANGLE_SUM_TOL and abs(rc) <= CLOSURE_TOL


class AngleParamB(_AngleParam):
    """Angle sequence (a_0 .. a_{n/4}) of the cycle-plus-pendants family.

    Weights (1, 2, .., 2, 1); closure constant 1/2; boxes
    0 <= a_k <= pi/6 (pi/3 for the last angle).
    """

    _FAMILY = "b"
    _CLOSURE = 0.5
    _WEIGHTS = (1.0, 2.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 6, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 4 + 1

    @classmethod
    def harmonic(cls, n: int) -> np.ndarray:
        """2 pi k / n: the phase at angle k of the fundamental harmonic of
        the offsets' square wave (-1)^k."""
        return 2.0 * math.pi / n * np.arange(cls._dim(n))

    @staticmethod
    def phases(a: np.ndarray) -> np.ndarray:
        """phi_r = a_0 + 2 (a_1 + .. + a_r) for r < n/4."""
        return a[0] + np.concatenate(([0.0], (2.0 * a[1:-1]).cumsum()))


class AngleParamQ(_AngleParam):
    """Angle sequence (a_0 .. a_{n/2-1}) of the odd-cycle family.

    Unit weights, so the phases are the running angle sums; closure constant
    -1/2; boxes 0 <= a_0 <= pi/6, 0 <= a_k <= pi/3 otherwise.
    """

    _FAMILY = "q"
    _CLOSURE = -0.5
    _WEIGHTS = (1.0, 1.0, 1.0)
    _UPPER = (math.pi / 6, math.pi / 3, math.pi / 3)

    @staticmethod
    def _dim(n: int) -> int:
        return n // 2

    @classmethod
    def harmonic(cls, n: int) -> np.ndarray:
        """pi (k + 1/2) / n: the phase at angle k of the fundamental
        harmonic of the offsets' square wave (-1)^k."""
        return math.pi / n * (np.arange(cls._dim(n)) + 0.5)

    @staticmethod
    def phases(a: np.ndarray) -> np.ndarray:
        """phi_r = a_0 + .. + a_r for r < n/2 - 1."""
        return a[:-1].cumsum()


def _alternating_angles(n: int, offset: float, dim: int) -> np.ndarray:
    """The ``dim`` angles pi/n + (-1)^k offset, k = 0 .. dim-1."""
    angles = np.full(dim, math.pi / n + offset)
    angles[1::2] = math.pi / n - offset
    return angles


def b_angles(n: int) -> AngleParamB:
    """Analytic angles pi/n + (-1)^k beta of the cycle-plus-pendants family."""
    require_n("b", n)
    return AngleParamB(n, _alternating_angles(n, b_alternation(n), AngleParamB._dim(n)))


def q_angles(n: int) -> AngleParamQ:
    """Analytic angles pi/n - (-1)^k gamma of the odd-cycle family."""
    require_n("q", n)
    return AngleParamQ(n, _alternating_angles(n, -q_alternation(n), AngleParamQ._dim(n)))


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


def _b_vertices(n: int, a: np.ndarray) -> np.ndarray:
    """Cycle-plus-pendants rows: the walk (vertices 0 .. n/4), its mirror,
    the apex, and the pendant ends, one step back from walk vertex k along
    phi_{k-1} + a_k, with their mirror; the vertex set is exactly symmetric.
    """
    m = n // 4
    phi = AngleParamB.phases(a)
    walk = _walk(phi)
    pendants = walk[1:m] - _steps(phi[:-1] + a[1:m])
    return np.concatenate((walk, _mirror(walk[1:]), [(0.0, 1.0)], pendants, _mirror(pendants)))


def _q_vertices(n: int, a: np.ndarray) -> np.ndarray:
    """Odd-cycle rows: the walk (vertices 0 .. n/2 - 1, each step turning by
    pi + a_k), its mirror and the pendant apex."""
    walk = _walk(AngleParamQ.phases(a))
    return np.concatenate((walk, _mirror(walk[1:]), [(0.0, 1.0)]))


def _ordered_vertices(param: _AngleParam) -> np.ndarray:
    """The family's vertex rows of ``param`` in counterclockwise boundary order."""
    verts = (_b_vertices if param._FAMILY == "b" else _q_vertices)(param.n, param.alphas)
    return verts[_boundary_order(verts)]


def _from_angles(param: _AngleParam) -> SmallPolygon:
    """The polygon of :func:`from_angles_b` / :func:`from_angles_q`, by ``param``'s family."""
    strict = param.validate()
    params = {"variant": param._FAMILY, "n": param.n, "alphas": param.alphas.tolist()}
    poly = SmallPolygon.from_coords(_ordered_vertices(param), Family.FROM_ANGLES, params)
    if strict:
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
    return _from_angles(param)


def from_angles_q(param: AngleParamQ) -> SmallPolygon:
    """Rebuild the symmetric odd-cycle n-gon from raw angles.

    Feasibility handling matches :func:`from_angles_b`: exact sequences are
    fully validated, rounding-grade sequences are built with a slackened
    diameter bound, and grossly infeasible ones are rejected.
    """
    return _from_angles(param)


def b_family(n: int) -> SmallPolygon:
    """The closed-form member of the cycle-plus-pendants family.

    Angles pi/n + (-1)^k beta with beta fixed by the closure condition; its
    perimeter is 2n sin(pi/2n) cos(beta/2) and its width cos(pi/2n + beta/2).
    """
    return _polygon(_ordered_vertices(b_angles(n)), Family.B_FAMILY, {"n": n})


def q_family(n: int) -> SmallPolygon:
    """The closed-form member of the odd-cycle family."""
    return _polygon(_ordered_vertices(q_angles(n)), Family.Q_FAMILY, {"n": n})


# ---------------------------------------------------------------------------
# Angle extraction (inverse of the recursions, via the diameter graph)
# ---------------------------------------------------------------------------


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


def _extract_angles(cls: type[_AngleParam], p: SmallPolygon) -> _AngleParam:
    """Each turn along the diameter cycle divided by its angle-sum weight."""
    dim = cls._dim(p.n)
    return cls(p.n, _cycle_turns(p, dim - 1) / cls.weights(dim))


def extract_angles_b(p: SmallPolygon) -> AngleParamB:
    """Measure the defining angles of a cycle-plus-pendants polygon.

    The first angle is measured against the pendant axis, then half the
    turn at each interior cycle vertex (its pendant splits the turn into two
    angles a_k), then the full turn at vertex n/4.
    """
    return _extract_angles(AngleParamB, p)


def extract_angles_q(p: SmallPolygon) -> AngleParamQ:
    """Measure the defining angles of an odd-cycle polygon: the full turns."""
    return _extract_angles(AngleParamQ, p)
