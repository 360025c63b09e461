"""Equality-constrained maximization of the two family perimeters.

Both problems are one trigonometric program over an angle sequence a with
the family's weights w, closure constant and boxes:

    max 4 sum w_k sin(a_k/2)  s.t.  sum w_k a_k = pi/2,
    const + sum_r (-1)^r sin(phi_r) = 0,  0 <= a_k <= upper_k,

with phi_r = sum_{j<=r} w_j a_j.  "b" has n/4+1 angles, weights
(1, 2, .., 2, 1) and const 1/2; "q" has n/2 angles, unit weights and const
-1/2.  :func:`_build_problem` writes the program once and reads the rest,
phases included, from the family's angle class.

The solver runs Newton's method on the KKT system (stationarity plus
feasibility; Nocedal & Wright, *Numerical Optimization*, section 18.1)
from the problem's analytic warm start, the family member built by
:mod:`smallpoly.constructions`, with multipliers from a least-squares fit
there.  A report counts as converged only when its residuals are small and
the reduced Hessian of the Lagrangian on the null space of the active
constraints is negative definite (the second-order sufficient condition,
section 12.5), so a converged report is a strict local maximum.  The warm
start's perimeter is within O(1/n^6) (b) and O(1/n^4) (q) of the optimum's,
close enough for Newton's local quadratic convergence, so each problem gets
one Newton run.  All computation happens in deviation variables
d_k = a_k - pi/n: near the optima every angle clusters at pi/n, so
deviations keep the linear constraint assembly exact and the Hessians well
scaled.  The solve uses no RNG, so identical configurations reproduce
bit-identical reports.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructions import AngleParamB, AngleParamQ, _from_angles, b_angles, q_angles
from .geometry import DIAMETER_TOL, MetricsReport, measure

DEFAULT_TOL_EQ = 1e-11
DEFAULT_TOL_KKT = 1e-9
STEP_TOL = 1e-13        # Newton iterations stop once steps shrink below this


class NonConvergenceError(RuntimeError):
    """The solve ended without a certified maximum; carries its report."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class CertificationError(RuntimeError):
    """A report failed revalidation, or a result has no binary64 value."""


@dataclass(frozen=True)
class NlpProblem:
    """One of the two perimeter maximization problems.

    The callables operate on deviation vectors d = angles - base_angle and
    return value/gradient (and Hessian from the *_hessian companions).  The
    solver never reads the zero Hessian of the linear angle sum.  Angles are
    bounded below by 0; ``upper``/``warm_start`` are stored in angle space.
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
    """Outcome of one solve; ``starts_used`` is always 1 (one Newton run)."""

    family: str
    n: int
    angles: tuple[float, ...]
    objective: float
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
            "eq_residuals": list(self.eq_residuals),
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "starts_used": self.starts_used,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; invalid values raise ValueError."""

    max_outer: int = 20           # most Newton iterations
    tol_eq: float = DEFAULT_TOL_EQ
    tol_kkt: float = DEFAULT_TOL_KKT

    def __post_init__(self) -> None:
        value = self.max_outer
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"solver config 'max_outer' must be an integer >= 1, "
                             f"got {value!r}")
        for key in ("tol_eq", "tol_kkt"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0.0 <= value <= sys.float_info.max:
                raise ValueError(f"solver config {key!r} must be a finite number >= 0, "
                                 f"got {value!r}")

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("solver config must be a JSON object")
        known = {"max_outer", "tol_eq", "tol_kkt"}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown solver config keys: {sorted(bad)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------


def _suffix_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """S[r] = 0.0 + terms[r] + terms[r+1] + ..., for r = 0..len(terms).

    With ``mask`` the strict upper triangle of a square of side len(terms)+1,
    row r holds zeros, then terms[r:]; its sequential cumulative sum adds
    them in ascending order, as a per-term loop would, so the result is
    bitwise equal to such a loop (a reversed cumulative sum rounds
    differently).  The last entry, an empty sum, is 0.0.
    """
    rows = np.where(mask, np.concatenate(([0.0], terms)), 0.0)
    return np.cumsum(rows, axis=1)[:, -1]


def _build_problem(warm: AngleParamB | AngleParamQ) -> NlpProblem:
    """The perimeter problem of the family whose analytic member is ``warm``.

    With the family's weights w, closure constant and boxes (read from its
    angle-parameter class), the problem is

        max 4 sum w_k sin(a_k/2)  s.t.  sum w_k a_k = pi/2,
        const + sum_{r<dim-1} (-1)^r sin(phi_r) = 0,  0 <= a_k <= upper_k,

    where the closure phases phi_r = sum_{j<=r} w_j a_j are the base angles'
    phases plus the class's ``phases`` of the deviations.  Each phase moves
    with slope w_j in d_j for j <= r, so the closure gradient is w * S and
    its Hessian w_i w_j T[max(i, j)], with S and T the suffix sums of the
    signed cosine and negated sine terms; their mask, w_i w_j and max(i, j)
    are built once.
    """
    n, dim = warm.n, len(warm.alphas)
    base = math.pi / n
    weights = warm.weights(dim)
    base_phases = np.cumsum(weights[:-1]) * base
    coef = 4.0 * weights
    const = warm._CLOSURE
    index = np.arange(dim)
    signs = (-1.0) ** index[:-1]
    mask = np.triu(np.ones((dim, dim), dtype=bool), 1)
    weight_products = np.outer(weights, weights)
    gather = np.maximum.outer(index, index)

    def objective(d: np.ndarray) -> tuple[float, np.ndarray]:
        a = base + d
        val = math.fsum((coef * np.sin(a / 2)).tolist())
        return val, coef / 2 * np.cos(a / 2)

    def objective_hessian(d: np.ndarray) -> np.ndarray:
        a = base + d
        return np.diag(-coef / 4 * np.sin(a / 2))

    def angle_sum(d: np.ndarray) -> tuple[float, np.ndarray]:
        # weighted base angles sum to pi/2 exactly, so only deviations remain
        return math.fsum((weights * d).tolist()), weights.copy()

    def angle_sum_hessian(d: np.ndarray) -> np.ndarray:
        return np.zeros((dim, dim))

    def closure(d: np.ndarray) -> tuple[float, np.ndarray]:
        phi = base_phases + warm.phases(d)
        val = math.fsum([const] + (signs * np.sin(phi)).tolist())
        return val, weights * _suffix_sums(signs * np.cos(phi), mask)

    def closure_hessian(d: np.ndarray) -> np.ndarray:
        # H = -sum_r (-1)^r sin(phi_r) v_r v_r^T with v_r = w at 0..r, 0 after
        T = _suffix_sums(-signs * np.sin(base_phases + warm.phases(d)), mask)
        return weight_products * T[gather]

    return NlpProblem(
        family=warm._FAMILY, n=n, dim=dim, base_angle=base,
        objective=objective, objective_hessian=objective_hessian,
        eq_constraints=(angle_sum, closure),
        eq_hessians=(angle_sum_hessian, closure_hessian),
        upper=warm.upper(n), warm_start=warm.alphas,
    )


def build_b_problem(n: int) -> NlpProblem:
    """Perimeter problem of the cycle-plus-pendants family (n/4+1 angles)."""
    return _build_problem(b_angles(n))  # b_angles rejects n other than 2^s >= 8


def build_q_problem(n: int) -> NlpProblem:
    """Perimeter problem of the odd-cycle family (n/2 angles)."""
    return _build_problem(q_angles(n))  # q_angles rejects n other than 2^s >= 4


# ---------------------------------------------------------------------------
# Solver internals.  Newton works in minimization form: F = -objective,
# constraints c = 0, Lagrangian F - lam.c.
# ---------------------------------------------------------------------------


def _eval_constraints(problem: NlpProblem, d: np.ndarray):
    vals, grads = zip(*(c(d) for c in problem.eq_constraints))
    return np.array(vals), np.vstack(grads)


def _evaluate(problem: NlpProblem, d: np.ndarray):
    f, gf = problem.objective(d)
    c, J = _eval_constraints(problem, d)
    return f, gf, c, J


def _newton_kkt(problem, d, lo, hi, max_iter):
    """Newton iterations on the stationarity + feasibility system.

    The multipliers start from a least-squares fit at ``d``; each step solves
    the full KKT matrix, is capped at 0.05 per coordinate to stay local, and
    is clipped to the box.  Keeps the best iterate by KKT merit in case a
    step overshoots.  Each iterate is evaluated once; returns the best
    iterate, the iteration count and the best iterate's evaluation.  Each
    iteration refills the blocks of one KKT matrix [[W, -J^T], [J, 0]].
    """
    dim = problem.dim
    ev = _evaluate(problem, d)
    _, gf, c, J = ev
    lam = np.linalg.lstsq(J.T, -gf, rcond=None)[0]
    kkt = np.zeros((dim + len(c), dim + len(c)))
    iters = 0
    norm = math.inf
    best = (math.inf, d, ev)
    for _ in range(max_iter + 1):
        _, gf, c, J = ev
        r_stat = -gf - J.T @ lam
        merit = max(float(np.max(np.abs(r_stat))), float(np.max(np.abs(c))))
        if merit < best[0]:
            best = (merit, d, ev)
        if merit <= 1e-14 or iters == max_iter or norm < STEP_TOL:
            break
        # W = -objective_hessian - lam[1] closure_hessian (the angle sum is linear)
        W = np.negative(problem.objective_hessian(d), out=kkt[:dim, :dim])
        W -= lam[1] * problem.eq_hessians[1](d)
        np.negative(J.T, out=kkt[:dim, dim:])
        kkt[dim:, :dim] = J
        rhs = np.concatenate((-r_stat, -c))
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        step = sol[:dim]
        norm = float(np.max(np.abs(step)))
        if norm > 0.05:
            step = step * (0.05 / norm)
        d = np.clip(d + step, lo, hi)
        lam = lam + sol[dim:]
        iters += 1
        ev = _evaluate(problem, d)
    return best[1], iters, best[2]


def _final_report_parts(problem, d, lo, hi, ev):
    """Refit multipliers by least squares; measure residuals and curvature.

    ``ev`` is ``_evaluate(problem, d)``.  Returns the objective, both
    equality residuals, the box-aware stationarity norm, and whether the
    reduced Hessian Z^T W Z is negative definite (true when the null space
    is empty), that is, whether -Z^T W Z has a Cholesky factor.  W is the
    Hessian of the maximization Lagrangian f - lam.c and Z, from an SVD,
    spans the null space of the equality Jacobian and the active box rows.
    """
    f, gf, c, J = ev
    lam, *_ = np.linalg.lstsq(J.T, gf, rcond=None)
    r = gf - J.T @ lam
    # box-aware stationarity: at an active bound only the inward-pushing
    # component counts against optimality of the maximization problem
    proj = r.copy()
    at_lo = d <= lo + 1e-12
    at_hi = d >= hi - 1e-12
    proj[at_lo] = np.maximum(proj[at_lo], 0.0)
    proj[at_hi] = np.minimum(proj[at_hi], 0.0)
    kkt = float(np.linalg.norm(proj))
    active = np.eye(problem.dim)[at_lo | at_hi]
    A = np.vstack((J, active))
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > max(A.shape) * np.finfo(float).eps * sv[0]))
    Z = Vt[rank:].T
    negative_definite = True
    if Z.shape[1]:
        W = problem.objective_hessian(d) - lam[1] * problem.eq_hessians[1](d)
        try:
            np.linalg.cholesky(-(Z.T @ W @ Z))
        except np.linalg.LinAlgError:
            negative_definite = False
    return f, (float(c[0]), float(c[1])), kkt, negative_definite


def solve(problem: NlpProblem, config: SolverConfig | None = None) -> SolveReport:
    """One Newton-KKT solve from the analytic warm start, clipped to the box.

    The report counts as converged when both equality residuals are within
    ``tol_eq``, the projected stationarity norm is within ``tol_kkt``, and
    the reduced Hessian is negative definite (a strict local maximum).  It
    is returned when it converged with an objective at least the warm
    start's; otherwise :class:`NonConvergenceError`, carrying the report,
    names each criterion that failed.
    """
    cfg = config or SolverConfig()
    lo = -problem.base_angle
    hi = problem.upper - problem.base_angle
    warm_dev = np.clip(problem.warm_start - problem.base_angle, lo, hi)
    warm_obj, _ = problem.objective(warm_dev)
    d, iters, ev = _newton_kkt(problem, warm_dev, lo, hi, cfg.max_outer)
    obj, eq_res, kkt, definite = _final_report_parts(problem, d, lo, hi, ev)
    failed = []
    eq = max(abs(eq_res[0]), abs(eq_res[1]))
    if not eq <= cfg.tol_eq:
        failed.append(f"eq residual {eq:.2g} > tol_eq {cfg.tol_eq:.2g}")
    if not kkt <= cfg.tol_kkt:
        failed.append(f"KKT residual {kkt:.2g} > tol_kkt {cfg.tol_kkt:.2g}")
    if not definite:
        failed.append("reduced Hessian not negative definite")
    report = SolveReport(
        family=problem.family, n=problem.n,
        angles=tuple((problem.base_angle + d).tolist()),
        objective=obj, eq_residuals=eq_res, kkt_residual=kkt,
        iterations=iters, starts_used=1, converged=not failed,
    )
    if not obj >= warm_obj:
        failed.append("objective below the warm start")
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
