"""Equality-constrained maximization of the two family perimeters.

Both problems are one trigonometric program over an angle sequence a with
the family's weights w, closure constant and boxes:

    max 4 sum w_k sin(a_k/2)  s.t.  sum w_k a_k = pi/2,
    const + sum_r (-1)^r sin(phi_r) = 0,  0 <= a_k <= upper_k,

with phi_r = sum_{j<=r} w_j a_j.  "b" has n/4+1 angles, weights
(1, 2, .., 2, 1) and const 1/2; "q" has n/2 angles, unit weights and const
-1/2.  :func:`_build_problem` writes the program once and reads the rest,
phases included, from the family's angle class.

The solver runs Newton's method on the KKT system (Nocedal & Wright,
*Numerical Optimization*, section 18.1) once, in the deviations
d_k = a_k - pi/n, from the optimum's leading Fourier profile: the family
member's alternating offsets (:mod:`smallpoly.constructions`) reshaped into
the fundamental harmonic of their square wave, where the optimum's lie
(:data:`bounds.OPTIMUM_GAP_LIMITS`).  Steps are taken in the phases
psi = cumsum(w * d), where the closure's Hessian is diagonal, the
objective's tridiagonal and the angle sum is psi_last alone: eliminating it
leaves a tridiagonal system bordered by the closure row, one LDL^T pass and
a scalar Schur complement, O(dim) per iteration.  The multipliers are
fitted by least squares from the 2x2 normal equations, refined once
(:func:`_multipliers`).  A report counts as converged only when its
residuals are small and the reduced Hessian of the Lagrangian on the null
space of the active constraints is negative definite (section 12.5), a
strict local maximum; the same factorization's inertia decides that
(theorem 16.3; Gould, Math. Programming 32, 1985), from its pivots alone
when they are all positive.  No default solve calls LAPACK.  The solve uses
no RNG, so identical problems reproduce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import GAP_LAWS, gap_constants, perimeter_gap
from .constructions import AngleParamB, AngleParamQ, _from_angles, b_angles, q_angles
from .geometry import DIAMETER_TOL, MetricsReport, measure

TOL_EQ = 1e-11          # certified equality residual, max of both
TOL_KKT = 1e-9          # certified projected stationarity norm
MAX_NEWTON = 20         # most Newton iterations per solve
STEP_TOL = 1e-13        # Newton iterations stop once steps shrink below this
EPS = float(np.finfo(float).eps)


class NonConvergenceError(RuntimeError):
    """The solve ended without a certified maximum; carries its report."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class CertificationError(RuntimeError):
    """A report failed revalidation."""


@dataclass(frozen=True)
class NlpProblem:
    """One of the two perimeter maximization problems.

    The callables take deviations d = angles - base_angle; ``objective``
    and ``eq_constraints`` (the angle sum, with gradient w, and the closure)
    return value and gradient in d.  Each Hessian callable returns its
    Hessian's diagonal where that is diagonal: ``objective_hessian`` in d,
    ``eq_hessians`` in the phases psi = cumsum(w * d) (zeros for the angle
    sum, never read).  In the built problems the Hessian callables reuse
    the sines that ``objective`` and the closure computed at the same
    read-only array; every callable returns a new array on each call.
    Angles are bounded below by 0; ``upper`` and ``warm_start`` are stored
    in angle space.  The built problems start from the optimum's Fourier
    profile, which is not feasible (see :func:`_build_problem`).
    """

    family: str                   # "b" or "q"
    n: int
    dim: int
    base_angle: float             # pi / n
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]]
    objective_hessian: Callable[[np.ndarray], np.ndarray]
    eq_constraints: tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], ...]
    eq_hessians: tuple[Callable[[np.ndarray], np.ndarray], ...]
    upper: np.ndarray
    warm_start: np.ndarray        # angle sequence


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve; ``starts_used`` is always 1 (one Newton run).

    ``objective`` is the perimeter at ``angles``; ``perimeter_gap`` is
    :func:`bounds.perimeter_gap` at the solved deviations, ub_L less that
    perimeter summed without cancellation, which ``objective`` cannot
    resolve once the two agree to a few ulp of pi.
    """

    family: str
    n: int
    angles: tuple[float, ...]
    objective: float
    perimeter_gap: float          # ub_L - objective (bounds.perimeter_gap)
    eq_residuals: tuple[float, float]
    kkt_residual: float
    iterations: int
    starts_used: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "angles": list(self.angles),
            "objective": self.objective,
            "perimeter_gap": self.perimeter_gap,
            "eq_residuals": list(self.eq_residuals),
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "starts_used": self.starts_used,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------


def _last_point(compute: Callable[[np.ndarray], tuple]) -> Callable[[np.ndarray], tuple]:
    """``compute`` keeping its result at the last read-only array it owns
    the data of, returned again while that same array comes back.

    The solver makes each iterate and marks it read-only, so a Hessian
    callable reads what ``objective`` or ``closure`` just computed at it.  A
    writable array, or a view of another array's data, may change in place
    between calls, so it is recomputed every time and never kept.
    """
    key, value = None, None

    def at(d: np.ndarray) -> tuple:
        nonlocal key, value
        if d is not key:
            result = compute(d)
            if d.flags.writeable or not d.flags.owndata:
                return result
            key, value = d, result
        return value

    return at


def _build_problem(member: AngleParamB | AngleParamQ) -> NlpProblem:
    """The perimeter problem of the family whose analytic member is
    ``member``, with the weights, closure constant and boxes of its angle
    class.

    The warm start is the optimum's leading Fourier profile: the member's
    deviations times 4/pi cos of the class's ``harmonic`` phase, the
    fundamental of their square wave, where the optimum's deviations lie
    (relative error O(1/n^2) for b, O(1/n) for q).  It is not feasible: the
    angle sum is off by O(offset/n) for b and O(offset) for q, the closure
    by O(offset/n), and Newton's first step absorbs both.  With dim <= 2
    (q4) the two equalities leave no freedom, and the member itself is the
    start.

    The closure phases phi_r (r < dim-1) are the base angles' phases plus
    the class's ``phases`` psi_r of the deviations, which move with slope
    w_j in d_j for j <= r: the closure gradient is w times the suffix sums
    of the signed cosines, its Hessian in psi the negated signed sines.

    Each point's trigonometry is computed once: sin and cos of the half
    angles h = (pi/n + d)/2, read by ``objective`` (value and gradient) and
    ``objective_hessian``, and the signed sines and cosines of phi, read by
    the closure and its Hessian.  Each pair is kept for the last point only
    and only when that point is a read-only array owning its data, as the
    solver's iterates are (:func:`_last_point`), so a Newton step's Hessians
    cost no trigonometric call.
    """
    n, dim = member.n, len(member.alphas)
    base = math.pi / n
    weights = member.weights(dim)
    base_phases = weights[:-1].cumsum() * base
    coef = 4.0 * weights
    const = member._CLOSURE
    warm = member.alphas
    if dim > 2:
        warm = base + 4.0 / math.pi * np.cos(member.harmonic(n)) * (warm - base)
    signs = (-1.0) ** np.arange(dim - 1)
    grad_coef, hess_coef = coef / 2, -coef / 4

    def halves(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = (base + d) / 2
        return np.sin(h), np.cos(h)

    def signed_phases(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = base_phases + member.phases(d)
        return signs * np.sin(phi), signs * np.cos(phi)

    halves, signed_phases = _last_point(halves), _last_point(signed_phases)

    def objective(d: np.ndarray) -> tuple[float, np.ndarray]:
        sines, cosines = halves(d)
        return math.fsum((coef * sines).tolist()), grad_coef * cosines

    def objective_hessian(d: np.ndarray) -> np.ndarray:
        return hess_coef * halves(d)[0]

    def angle_sum(d: np.ndarray) -> tuple[float, np.ndarray]:
        # weighted base angles sum to pi/2 exactly, so only deviations remain
        return math.fsum((weights * d).tolist()), weights.copy()

    def angle_sum_hessian(d: np.ndarray) -> np.ndarray:
        return np.zeros(dim)

    def closure(d: np.ndarray) -> tuple[float, np.ndarray]:
        sines, cosines = signed_phases(d)
        suffix = cosines[::-1].cumsum()[::-1]
        return math.fsum([const] + sines.tolist()), weights * np.concatenate((suffix, [0.0]))

    def closure_hessian(d: np.ndarray) -> np.ndarray:
        return np.concatenate((-signed_phases(d)[0], [0.0]))

    return NlpProblem(
        family=member._FAMILY, n=n, dim=dim, base_angle=base,
        objective=objective, objective_hessian=objective_hessian,
        eq_constraints=(angle_sum, closure),
        eq_hessians=(angle_sum_hessian, closure_hessian),
        upper=member.upper(n), warm_start=warm,
    )


def build_b_problem(n: int) -> NlpProblem:
    """Perimeter problem of the cycle-plus-pendants family (n/4+1 angles)."""
    return _build_problem(b_angles(n))  # b_angles rejects n other than 2^s >= 8


def build_q_problem(n: int) -> NlpProblem:
    """Perimeter problem of the odd-cycle family (n/2 angles)."""
    return _build_problem(q_angles(n))  # q_angles rejects n other than 2^s >= 4


# ---------------------------------------------------------------------------
# Solver internals.  Newton works in minimization form: F = -objective,
# constraints c = 0, Lagrangian F - lam.c.  In the phases, d = M psi with
# M = D_w^-1 times the first difference, and a gradient v in d is M^T v.
# ---------------------------------------------------------------------------


def _evaluate(problem: NlpProblem, d: np.ndarray):
    """The objective, its gradient, the two equality residuals as floats and
    their Jacobian at ``d``."""
    f, gf = problem.objective(d)
    angle_sum, closure = problem.eq_constraints
    c0, g0 = angle_sum(d)
    c1, g1 = closure(d)
    return f, gf, (c0, c1), np.array((g0, g1))


def _bordered(problem: NlpProblem, d: np.ndarray, w: np.ndarray, mult: float,
              rows: np.ndarray):
    """W = M^T (-H_f) M - mult H_c, and T = L D L^T, W less its last row and
    column, factored without pivoting: returns W's diagonal and off-diagonal,
    D, L's multipliers and L^-1 M^T ``rows``, or raises ZeroDivisionError at
    a zero pivot.  With u = -objective_hessian / w^2 and t = eq_hessians[1],
    W is tridiagonal: u_i + u_{i+1} - mult t_i on its diagonal, -u_{i+1} beside.
    """
    u = -problem.objective_hessian(d) / (w * w)
    diag, off = u - mult * problem.eq_hessians[1](d), -u[1:]
    diag[:-1] += u[1:]
    entries = diag[:-1].tolist()
    pivot = entries[0]
    piv, low = [pivot], []
    for a, b in zip(entries[1:], off[:-1].tolist()):
        m = b / pivot
        pivot = a - m * b
        low.append(m)
        piv.append(pivot)
    if not pivot:
        raise ZeroDivisionError("zero pivot")
    q = rows / w
    ys = []
    for row in (q[:, :-1] - q[:, 1:]).tolist():  # M^T rows, less the last phase
        y = row[0]
        ys.append([y])
        for r, m in zip(row[1:], low):
            y = r - m * y
            ys[-1].append(y)
    return diag, off, np.array(piv), low, np.array(ys)


def _multipliers(J: np.ndarray, t: np.ndarray) -> list[float]:
    """The least-squares multipliers of J^T lam = t for the two-row J.

    Cramer's rule on the normal equations J J^T lam = J t, then one
    refinement step lam += (J J^T)^-1 J (t - J^T lam): t carries an O(1)
    part that cancels inside J t, and the step recovers what that rounding
    lost.  Rows within about 1e-4 rad of parallel, rank one included, get
    the minimum-norm answer of ``np.linalg.lstsq`` instead.
    """
    (a, b), (_, c) = (J @ J.T).tolist()
    det = a * c - b * b
    if not det > math.sqrt(EPS) * a * c:
        return np.linalg.lstsq(J.T, t, rcond=None)[0].tolist()
    y0, y1 = (J @ t).tolist()
    lam = [(c * y0 - b * y1) / det, (a * y1 - b * y0) / det]
    y0, y1 = (J @ (t - J.T @ lam)).tolist()
    return [lam[0] + (c * y0 - b * y1) / det, lam[1] + (a * y1 - b * y0) / det]


def _newton_kkt(problem, d, lo, hi, max_iter):
    """Newton iterations on the stationarity + feasibility system.

    The multipliers start from :func:`_multipliers`' fit at ``d``.  Each step
    solves [[W, -J^T], [J, 0]] (p, dlam) = -(r_stat, c) in the phases: the
    angle-sum row e_last fixes p_last = -c[0], the closure row g = M^T J[1]
    ends in 0, and T p - mu g = b, g.p = -c[1] remain, b = -M^T r_stat less
    W's coupling to p_last (in b's last entry, so added after forward
    substitution); g^T T^-1 g gives mu and W's last row the angle-sum
    multiplier's step.  Steps are capped at 0.05 per coordinate and clipped
    to the box; the best iterate by KKT merit is kept, and a singular system
    ends the run.  Returns the best iterate, the iteration count and the
    best iterate's evaluation; each iterate is evaluated once, at a new
    read-only array.
    """
    ev = _evaluate(problem, d)
    _, gf, c, J = ev
    lam_sum, lam_closure = _multipliers(J, -gf)
    lam = np.array((lam_sum, lam_closure))
    iters = 0
    norm = math.inf
    best = (math.inf, d, ev)
    for _ in range(max_iter + 1):
        _, gf, (c_sum, c_closure), J = ev
        r_stat = -gf - J.T @ lam
        merit = max(float(np.abs(r_stat).max()), abs(c_sum), abs(c_closure))
        if merit < best[0]:
            best = (merit, d, ev)
        if merit <= 1e-14 or iters == max_iter or norm < STEP_TOL:
            break
        try:
            diag, off, piv, low, (yb, yg) = _bordered(problem, d, J[0], lam_closure,
                                                      np.array((-r_stat, J[1])))
            yb[-1] += off[-1] * c_sum
            mu = -(c_closure + float(yg @ (yb / piv))) / float(yg @ (yg / piv))
        except ZeroDivisionError:
            break
        z = ((yb + mu * yg) / piv).tolist()
        x = z[-1]
        p = [-c_sum, x]  # back substitution, last phase first
        for zi, m in zip(z[-2::-1], low[::-1]):
            x = zi - m * x
            p.append(x)
        p.reverse()
        step = np.subtract(p, [0.0] + p[:-1]) / J[0]
        norm = float(np.abs(step).max())
        if norm > 0.05:
            step = step * (0.05 / norm)
        d = np.minimum(np.maximum(d + step, lo), hi)
        d.flags.writeable = False
        lam_sum += off[-1] * p[-2] - diag[-1] * c_sum + r_stat[-1] / J[0, -1]
        lam_closure += mu
        lam = np.array((lam_sum, lam_closure))
        iters += 1
        ev = _evaluate(problem, d)
    return best[1], iters, best[2]


def _final_report_parts(problem, d, lo, hi, ev):
    """Refit multipliers (:func:`_multipliers`); measure residuals and curvature.

    ``ev`` is ``_evaluate(problem, d)``.  Returns the objective, both
    equality residuals, the box-aware stationarity norm, and whether the
    Hessian of the maximization Lagrangian f - lam.c is negative definite
    on the null space of the equality Jacobian and the active box rows.  In
    the phases, psi_last fixed, M^T of the closure and active box rows
    border the minimization T: K = [[T, B], [B^T, 0]].  With B of rank r,
    K has r more positive eigenvalues than the reduced T (Gould), so that is
    definite exactly when K has one per row of T, counted over T's pivots
    and the Schur complement -B^T T^-1 B; a zero pivot is not certified.
    When every pivot is positive, T is positive definite, the Schur
    complement negative semidefinite, and the count is met without its
    eigenvalues, as at every default optimum.
    """
    f, gf, c, J = ev
    lam = _multipliers(J, gf)
    # box-aware stationarity: at an active bound only the inward-pushing
    # component counts against optimality of the maximization problem
    proj = gf - J.T @ lam
    at_lo = d <= lo + 1e-12
    at_hi = d >= hi - 1e-12
    proj[at_lo] = np.maximum(proj[at_lo], 0.0)
    proj[at_hi] = np.minimum(proj[at_hi], 0.0)
    kkt = float(np.linalg.norm(proj))
    boxes = np.arange(len(d)) == np.flatnonzero(at_lo | at_hi)[:, None]
    try:
        _, _, piv, _, Y = _bordered(problem, d, J[0], -lam[1], np.concatenate((J[1:], boxes)))
        if piv.min() > 0.0:
            definite = True
        else:
            eig = np.linalg.eigvalsh(-(Y / piv) @ Y.T)
            tol = max(Y.shape) * EPS * float(np.abs(eig).max())
            definite = np.count_nonzero(piv > 0.0) + np.count_nonzero(eig > tol) == len(piv)
    except ZeroDivisionError:
        definite = False
    return f, (float(c[0]), float(c[1])), kkt, definite


def solve(problem: NlpProblem) -> SolveReport:
    """One Newton-KKT solve from the problem's warm start, clipped to the box.

    The report counts as converged, and is returned, when both equality
    residuals are within :data:`TOL_EQ`, the projected stationarity norm is
    within :data:`TOL_KKT`, the reduced Hessian is negative definite (a strict
    local maximum), and the perimeter is at least the analytic family
    member's, compared by their gaps to ub_L: the optimum's from
    :func:`bounds.perimeter_gap`, the member's closed form from
    :func:`bounds.gap_constants`.  Otherwise :class:`NonConvergenceError`,
    carrying the report, names each failure.
    """
    lo = -problem.base_angle
    hi = problem.upper - problem.base_angle
    warm_dev = np.minimum(np.maximum(problem.warm_start - problem.base_angle, lo), hi)
    warm_dev.flags.writeable = False
    d, iters, ev = _newton_kkt(problem, warm_dev, lo, hi, MAX_NEWTON)
    obj, eq_res, kkt, definite = _final_report_parts(problem, d, lo, hi, ev)
    gap = perimeter_gap(problem.n, ev[3][0], d)
    failed = []
    eq = max(abs(eq_res[0]), abs(eq_res[1]))
    if not eq <= TOL_EQ:
        failed.append(f"eq residual {eq:.2g} > tol_eq {TOL_EQ:.2g}")
    if not kkt <= TOL_KKT:
        failed.append(f"KKT residual {kkt:.2g} > tol_kkt {TOL_KKT:.2g}")
    if not definite:
        failed.append("reduced Hessian not negative definite")
    # perimeters, unlike their gaps to ub_L, tie in binary64 from b1024; n^p
    # is a power of two, so dividing the scaled gap by it rounds nothing
    law = f"{problem.family}-perimeter"
    member_gap = gap_constants(law, problem.n) / problem.n ** GAP_LAWS[law][0]
    if not gap <= member_gap:
        failed.append("objective below the family member")
    report = SolveReport(
        family=problem.family, n=problem.n,
        angles=tuple((problem.base_angle + d).tolist()),
        objective=obj, perimeter_gap=gap, eq_residuals=eq_res, kkt_residual=kkt,
        iterations=iters, starts_used=1, converged=not failed,
    )
    if failed:
        raise NonConvergenceError(
            f"no certified maximum for family {problem.family!r}, n={problem.n}: "
            + "; ".join(failed), report)
    return report


def certify(report: SolveReport) -> MetricsReport:
    """Rebuild the polygon of the report's family and n from its angles and
    revalidate it.

    The rebuild rejects non-convex polygons; this checks the unit-diameter
    bound and that the edge-sum perimeter matches the objective to 1e-10.
    """
    if not report.converged:
        raise CertificationError("cannot certify a non-converged report")
    angle_class = {"b": AngleParamB, "q": AngleParamQ}.get(report.family)
    if angle_class is None:
        raise CertificationError(f"unknown family {report.family!r}")
    try:
        poly = _from_angles(angle_class(report.n, report.angles))
    except ValueError as exc:
        raise CertificationError(f"angle reconstruction failed: {exc}") from exc
    metrics = measure(poly)
    if metrics.diameter > 1.0 + DIAMETER_TOL:
        raise CertificationError(
            f"reconstructed diameter {metrics.diameter!r} exceeds one")
    if abs(metrics.perimeter - report.objective) > 1e-10:
        raise CertificationError(
            f"edge-sum perimeter {metrics.perimeter!r} disagrees with "
            f"objective {report.objective!r}")
    return metrics
