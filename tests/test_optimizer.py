"""Optimizer tests: derivative oracles, published optima, certification."""

import dataclasses
import math

import numpy as np
import pytest

from smallpoly import (
    CertificationError,
    NonConvergenceError,
    b_angles,
    build_b_problem,
    build_q_problem,
    certify,
    closed_form,
    optimizer,
    q_angles,
    solve,
    upper_bounds,
)
from smallpoly.bounds import b_alternation, gap_constants, perimeter_gap, q_alternation
from smallpoly.optimizer import _evaluate, _final_report_parts, _multipliers

from _reference import (
    OPTIMAL_ANGLES_B,
    OPTIMAL_ANGLES_Q,
    OPTIMAL_PERIMETER_B,
    OPTIMAL_PERIMETER_Q,
    block_kkt_solve,
    cholesky_report_parts,
    dense_phase_hessian,
    eigvalsh_report_parts,
    loop_b_closure_derivatives,
    loop_q_closure_gradient,
    loop_q_closure_hessian,
    triangle_problem,
)

EPS = np.finfo(float).eps


def _fd_gradient(fn, d, h=1e-7):
    g = np.zeros_like(d)
    for i in range(len(d)):
        dp, dm = d.copy(), d.copy()
        dp[i] += h
        dm[i] -= h
        g[i] = (fn(dp) - fn(dm)) / (2 * h)
    return g


def test_b_problem_shape():
    problem = build_b_problem(8)
    assert problem.dim == 3
    assert min(solve(problem).angles) >= 0.0  # every angle is bounded below by 0
    assert problem.upper[0] == pytest.approx(math.pi / 6)
    assert problem.upper[-1] == pytest.approx(math.pi / 3)
    assert build_b_problem(16).dim == 5
    with pytest.raises(ValueError):
        build_b_problem(12)
    with pytest.raises(ValueError):
        build_b_problem(4)


def test_q_problem_shape():
    problem = build_q_problem(8)
    assert problem.dim == 4
    assert problem.upper[0] == pytest.approx(math.pi / 6)
    assert np.all(problem.upper[1:] == pytest.approx(math.pi / 3))
    with pytest.raises(ValueError):
        build_q_problem(6)


def _member_deviations(problem):
    """The analytic family member's deviations from pi/n."""
    angles = b_angles if problem.family == "b" else q_angles
    return angles(problem.n).alphas - problem.base_angle


def test_family_member_objectives():
    problem = build_b_problem(8)
    member_dev = _member_deviations(problem)
    assert problem.objective(member_dev)[0] == pytest.approx(3.1210621230, abs=5e-11)
    qproblem = build_q_problem(8)
    member_dev = _member_deviations(qproblem)
    # closed-form perimeter of the analytic member
    assert qproblem.objective(member_dev)[0] == pytest.approx(
        closed_form("q", 8)[0], abs=1e-12)
    assert qproblem.objective(member_dev)[0] == pytest.approx(3.11934, abs=1e-4)


def test_warm_start_is_the_members_fourier_profile():
    # (4/pi) cos x_k times the member's offset (-1)^k beta (b) or
    # -(-1)^k gamma (q), x_k = 2 pi k/n (b) or pi (k + 1/2)/n (q), within a
    # few ulps of pi/n; q4 has no freedom left and starts at the member
    for n in (8, 64, 1024):
        k = np.arange(n // 4 + 1)
        profile = math.pi / n + 4 / math.pi * (-1.0) ** k * b_alternation(n) \
            * np.cos(2 * math.pi * k / n)
        assert np.max(np.abs(build_b_problem(n).warm_start - profile)) <= 4 * EPS * math.pi / n
    for n in (8, 64, 1024):
        k = np.arange(n // 2)
        profile = math.pi / n - 4 / math.pi * (-1.0) ** k * q_alternation(n) \
            * np.cos(math.pi * (k + 0.5) / n)
        assert np.max(np.abs(build_q_problem(n).warm_start - profile)) <= 4 * EPS * math.pi / n
    assert build_q_problem(4).warm_start.tobytes() == q_angles(4).alphas.tobytes()


def test_family_member_is_feasible():
    # the warm start is not: Newton's first step absorbs residuals below the offset
    for problem, offset in ((build_b_problem(16), b_alternation(16)),
                            (build_q_problem(16), q_alternation(16))):
        d = _member_deviations(problem)
        warm_dev = problem.warm_start - problem.base_angle
        for constraint in problem.eq_constraints:
            assert abs(constraint(d)[0]) <= 1e-12
            assert 1e-12 < abs(constraint(warm_dev)[0]) < offset


@pytest.mark.parametrize("builder,n", [
    (build_b_problem, 8), (build_b_problem, 16),
    (build_q_problem, 8), (build_q_problem, 16),
])
def test_gradients_match_finite_differences(builder, n):
    problem = builder(n)
    rng = np.random.default_rng(42)
    d = (problem.warm_start - problem.base_angle) \
        + rng.uniform(-5e-3, 5e-3, problem.dim)
    _, grad = problem.objective(d)
    fd = _fd_gradient(lambda z: problem.objective(z)[0], d)
    assert np.max(np.abs(grad - fd)) <= 1e-6
    for constraint in problem.eq_constraints:
        _, cgrad = constraint(d)
        cfd = _fd_gradient(lambda z: constraint(z)[0], d)
        assert np.max(np.abs(cgrad - cfd)) <= 1e-6


@pytest.mark.parametrize("builder,n", [
    (build_b_problem, 8), (build_q_problem, 8),
])
def test_hessians_match_finite_differences(builder, n):
    problem = builder(n)
    rng = np.random.default_rng(7)
    d = (problem.warm_start - problem.base_angle) \
        + rng.uniform(-5e-3, 5e-3, problem.dim)
    # the objective's Hessian is diagonal in d, the constraints' in the phases
    H = np.diag(problem.objective_hessian(d))
    fd = np.column_stack([
        _fd_gradient(lambda z, i=i: problem.objective(z)[1][i], d)
        for i in range(problem.dim)])
    assert np.max(np.abs(H - fd)) <= 1e-5
    weights = problem.eq_constraints[0](d)[1]
    for constraint, hessian in zip(problem.eq_constraints, problem.eq_hessians):
        Hc = dense_phase_hessian(weights, hessian(d))
        fd = np.column_stack([
            _fd_gradient(lambda z, i=i: constraint(z)[1][i], d)
            for i in range(problem.dim)])
        assert np.max(np.abs(Hc - fd)) <= 1e-5


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_solve_b_matches_published_optimum(n):
    report = solve(build_b_problem(n))
    assert report.converged
    assert report.objective == pytest.approx(OPTIMAL_PERIMETER_B[n], abs=1e-8)
    assert max(abs(r) for r in report.eq_residuals) <= 1e-11
    assert report.kkt_residual <= 1e-9
    for got, want in zip(report.angles, OPTIMAL_ANGLES_B[n]):
        assert got == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_solve_q_matches_published_optimum(n):
    report = solve(build_q_problem(n))
    assert report.converged
    assert report.objective == pytest.approx(OPTIMAL_PERIMETER_Q[n], abs=1e-8)
    for got, want in zip(report.angles, OPTIMAL_ANGLES_Q[n]):
        assert got == pytest.approx(want, abs=1e-5)


def test_solve_q4_hits_exact_optimum():
    report = solve(build_q_problem(4))
    assert report.objective == pytest.approx(
        2 + math.sqrt(6) - math.sqrt(2), abs=1e-12)
    assert report.angles[0] == pytest.approx(math.pi / 6, abs=1e-10)
    assert report.angles[1] == pytest.approx(math.pi / 3, abs=1e-10)


def test_solve_b128_containment():
    report = solve(build_b_problem(128))
    assert report.converged
    assert closed_form("b", 128)[0] <= report.objective <= upper_bounds(128).ubL
    assert report.objective >= 3.14151380112


def test_optimal_angles_alternate_about_center():
    # deviations from pi/n flip sign with the index
    for n in (8, 16, 32):
        report = solve(build_b_problem(n))
        devs = [a - math.pi / n for a in report.angles]
        for k, dev in enumerate(devs):
            assert math.copysign(1.0, dev) == (1.0 if k % 2 == 0 else -1.0)


def test_objective_never_below_the_family_member():
    for n in (8, 16, 32, 64, 128):
        for problem in (build_b_problem(n), build_q_problem(n)):
            member_obj = problem.objective(_member_deviations(problem))[0]
            assert solve(problem).objective >= member_obj


def test_optimality_fraction_of_bound_interval():
    # (L_opt - L_analytic) / (ub - L_analytic) stays in a narrow band
    for n in (8, 16, 32, 64, 128):
        lb = closed_form("b", n)[0]
        ub = upper_bounds(n).ubL
        frac = (solve(build_b_problem(n)).objective - lb) / (ub - lb)
        assert 0.18 < frac < 0.23


@pytest.mark.parametrize("n", (8, 32, 128))
def test_live_objective_ordering_chain(n):
    b_obj = solve(build_b_problem(n)).objective
    q_obj = solve(build_q_problem(n)).objective
    assert closed_form("b", n)[0] <= b_obj <= upper_bounds(n).ubL
    assert closed_form("q", n)[0] <= q_obj < b_obj


def test_solve_is_deterministic(monkeypatch):
    a = solve(build_q_problem(16))
    b = solve(build_q_problem(16))
    assert a == b  # bit-identical dataclasses
    monkeypatch.setattr(optimizer, "MAX_NEWTON", 3)
    assert solve(build_q_problem(16)) == solve(build_q_problem(16))


def test_impossible_tolerances_raise_non_convergence(monkeypatch):
    # one iteration leaves both residuals above zero, so both are named
    monkeypatch.setattr(optimizer, "MAX_NEWTON", 1)
    monkeypatch.setattr(optimizer, "TOL_EQ", 0.0)
    monkeypatch.setattr(optimizer, "TOL_KKT", 0.0)
    with pytest.raises(NonConvergenceError) as err:
        solve(build_b_problem(8))
    report = err.value.report
    assert report.objective > 3.12  # the solve's report is attached
    assert report.starts_used == 1 and not report.converged
    eq = max(abs(r) for r in report.eq_residuals)
    assert str(err.value) == (
        "no certified maximum for family 'b', n=8: "
        f"eq residual {eq:.2g} > tol_eq 0; KKT residual {report.kkt_residual:.2g} > tol_kkt 0")


def test_a_solve_below_the_family_member_reports_unconverged(monkeypatch):
    # a member gap of 0 fails only the member check, which is decided
    # before the report is built
    monkeypatch.setattr(optimizer, "gap_constants", lambda law, n: 0.0)
    with pytest.raises(NonConvergenceError) as err:
        solve(build_b_problem(8))
    assert str(err.value) == ("no certified maximum for family 'b', n=8: "
                              "objective below the family member")
    assert err.value.report.converged is False


def test_default_solves_call_no_lapack(monkeypatch):
    # the multipliers come from 2x2 normal equations and, T being positive
    # definite at every default optimum, the certificate from T's pivots
    def refused(*args, **kwargs):
        raise AssertionError("LAPACK called")
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for builder, least in ((build_b_problem, 3), (build_q_problem, 2)):
        for s in range(least, 17):
            assert solve(builder(2 ** s)).converged


def test_a_rank_one_jacobian_gets_the_minimum_norm_multipliers():
    # with the closure gradient zero, J J^T is singular: lstsq's answer,
    # not a ZeroDivisionError, and the solve ends uncertified
    problem = build_b_problem(16)
    closure = problem.eq_constraints[1]
    flat = dataclasses.replace(problem, eq_constraints=(
        problem.eq_constraints[0], lambda d: (closure(d)[0], np.zeros(problem.dim))))
    d = problem.warm_start - problem.base_angle
    _, gf, _, J = _evaluate(flat, d)
    assert not J[1].any()
    expected = np.linalg.lstsq(J.T, gf, rcond=None)[0]
    assert np.array_equal(_multipliers(J, gf), expected) and expected[1] == 0.0
    with pytest.raises(NonConvergenceError):
        solve(flat)


@pytest.mark.parametrize("n", [2 ** 14, 2 ** 15, 2 ** 16])
def test_large_b_gains_8_over_pi_squared_of_the_members_gap(n):
    # n^6 (ub_L - L_opt) -> pi^5/4, 8/pi^2 = 0.8106 of the member's law;
    # from b16384 on the warm start already meets the merit stop
    report = solve(build_b_problem(n))
    member = gap_constants("b-perimeter", n) / n ** 6
    assert 0.8105 <= report.perimeter_gap / member <= 0.8107
    assert report.iterations == 0


@pytest.mark.parametrize("builder,n", [
    *((build_b_problem, 2 ** s) for s in range(3, 10)),
    *((build_q_problem, 2 ** s) for s in range(2, 9)),
])
def test_default_solve_is_certified_from_the_first_start(builder, n):
    # converged includes the second-order check: the reduced Hessian of the
    # Lagrangian is negative definite (vacuous at q4, where no freedom is left)
    report = solve(builder(n))
    assert report.converged
    assert report.starts_used == 1
    assert report.iterations <= 4


# Newton iterations of each default solve started at the analytic member:
# b8 .. b2^14 and q4 .. q2^16 (q4 starts at its optimum)
MEMBER_START_ITERATIONS = {
    build_b_problem: (3, (4, 3, 3, 2, 2, 2, 1, 1, 1, 2, 1, 2)),
    build_q_problem: (2, (0, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2)),
}


@pytest.mark.parametrize("builder", list(MEMBER_START_ITERATIONS))
def test_fourier_start_takes_no_more_iterations_than_the_member(builder):
    least, ceilings = MEMBER_START_ITERATIONS[builder]
    iterations = [solve(builder(2 ** (least + i))).iterations for i in range(len(ceilings))]
    assert all(got <= most for got, most in zip(iterations, ceilings)), iterations
    assert sum(iterations) < sum(ceilings)


def _negated(problem):
    def objective(d):
        f, g = problem.objective(d)
        return -f, -g
    return dataclasses.replace(
        problem, objective=objective,
        objective_hessian=lambda d: -problem.objective_hessian(d))


@pytest.mark.parametrize("builder,n", [
    (build_b_problem, 8), (build_b_problem, 64), (build_q_problem, 16),
])
def test_certificate_rejects_a_minimum(builder, n):
    # The perimeter optimum is a KKT point of the negated problem too, and
    # there it is a strict minimum: residuals pass, the curvature must not.
    problem = builder(n)
    optimum = np.array(solve(problem).angles)
    at_optimum = dataclasses.replace(problem, warm_start=optimum)
    assert solve(at_optimum).converged
    with pytest.raises(NonConvergenceError) as err:
        solve(_negated(at_optimum))
    report = err.value.report
    assert max(abs(r) for r in report.eq_residuals) <= 1e-11
    assert report.kkt_residual <= 1e-9
    assert not report.converged
    assert str(err.value) == (f"no certified maximum for family {problem.family!r}, "
                              f"n={n}: reduced Hessian not negative definite")


def test_a_singular_step_system_ends_the_run_uncertified():
    # zero Hessians make T zero: its first pivot stops the Newton run at the
    # warm start and the certificate, which reads the same pivots, fails
    problem = build_b_problem(16)
    flat = dataclasses.replace(problem, objective_hessian=np.zeros_like,
                               eq_hessians=(np.zeros_like, np.zeros_like))
    with pytest.raises(NonConvergenceError) as err:
        solve(flat)
    assert err.value.report.iterations == 0
    assert str(err.value).endswith("reduced Hessian not negative definite")


def test_the_solver_takes_no_settings():
    import smallpoly
    problem = build_b_problem(8)
    with pytest.raises(TypeError):
        solve(problem, None)
    with pytest.raises(TypeError):
        solve(problem, config=None)
    assert not hasattr(smallpoly, "SolverConfig") and "SolverConfig" not in smallpoly.__all__
    assert (optimizer.MAX_NEWTON, optimizer.TOL_EQ, optimizer.TOL_KKT) == (20, 1e-11, 1e-9)


_BOTH_RESIDUALS = r"eq residual \S+ > tol_eq 1e-11; KKT residual \S+ > tol_kkt 1e-09"


@pytest.mark.parametrize("builder,name,value,failures", [
    (build_b_problem, "MAX_NEWTON", 1, _BOTH_RESIDUALS),
    (build_q_problem, "MAX_NEWTON", 1, _BOTH_RESIDUALS),
    (build_q_problem, "TOL_EQ", 0.0, r"eq residual \S+ > tol_eq 0"),
    (build_b_problem, "TOL_KKT", 0.0, r"KKT residual \S+ > tol_kkt 0"),
])
def test_solve_reads_each_constant_at_call_time(monkeypatch, builder, name, value, failures):
    # the default solve of n=8 is certified; one constant alone undoes that
    assert solve(builder(8)).converged
    monkeypatch.setattr(optimizer, name, value)
    with pytest.raises(NonConvergenceError, match=failures + "$") as err:
        solve(builder(8))
    assert not err.value.report.converged
    assert err.value.report.iterations <= optimizer.MAX_NEWTON


def test_certify_accepts_converged_reports():
    report = solve(build_b_problem(8))
    metrics = certify(report)
    assert metrics.perimeter == pytest.approx(report.objective, abs=1e-10)
    assert metrics.width == pytest.approx(0.9764, abs=5e-5)
    assert metrics.diameter <= 1 + 1e-9
    qreport = solve(build_q_problem(4))
    qmetrics = certify(qreport)
    assert qmetrics.perimeter == pytest.approx(3.0353, abs=5e-5)
    assert qmetrics.width == pytest.approx(0.8660, abs=5e-5)


def test_certify_rejects_tampered_report():
    report = solve(build_b_problem(8))
    angles = list(report.angles)
    angles[0] += 0.01
    tampered = dataclasses.replace(report, angles=tuple(angles))
    with pytest.raises(CertificationError):
        certify(tampered)
    unconverged = dataclasses.replace(report, converged=False)
    with pytest.raises(CertificationError):
        certify(unconverged)
    with pytest.raises(CertificationError):
        certify(dataclasses.replace(report, family="x"))


def test_report_json_round_trip():
    report = solve(build_q_problem(8))
    doc = report.to_json_dict()
    assert doc["family"] == "q"
    assert len(doc["angles"]) == 4
    assert doc["converged"] is True
    assert all(isinstance(a, float) for a in doc["angles"])
    assert doc["perimeter_gap"] == report.perimeter_gap


@pytest.mark.parametrize("builder,n", [
    *((build_b_problem, 2 ** s) for s in range(3, 8)),
    *((build_q_problem, 2 ** s) for s in range(2, 8)),
])
def test_report_carries_the_gap_to_the_perimeter_bound(builder, n):
    report = solve(builder(n))
    assert 0.0 < report.perimeter_gap
    # ub_L - objective cancels all but about 1e-11 at n = 128, leaving
    # an error of a few ulp of pi
    assert math.isclose(report.perimeter_gap, upper_bounds(n).ubL - report.objective,
                        rel_tol=1e-4)
    # the angles are rounded pi/n + d, so the gap rebuilt from them is close, not equal
    d = np.array(report.angles) - math.pi / n
    weights = builder(n).eq_constraints[0](d)[1]
    assert math.isclose(report.perimeter_gap, perimeter_gap(n, weights, d), rel_tol=5e-11)


def _sums_match(a, b, dim):
    # sums of up to dim terms of magnitude <= 4, added in another order:
    # each side is off its exact value by at most dim * eps/2 * 4 (dim - 1)
    return a.shape == b.shape and np.max(np.abs(a - b)) <= 4 * dim * dim * EPS


def _oracle_points(problem):
    """The warm start and four perturbations of it, clipped to the box."""
    lo = -problem.base_angle
    hi = problem.upper - problem.base_angle
    warm = problem.warm_start - problem.base_angle
    rng = np.random.default_rng(problem.n)
    return [warm] + [np.clip(warm + rng.uniform(-scale, scale, problem.dim), lo, hi)
                     for scale in (1e-6, 1e-3, 1e-2, 1.0)]


@pytest.mark.parametrize("n", [2 ** s for s in range(3, 12)])
def test_b_closure_derivatives_match_the_per_term_loops(n):
    problem = build_b_problem(n)
    closure, closure_hessian = problem.eq_constraints[1], problem.eq_hessians[1]
    weights = problem.eq_constraints[0](problem.warm_start)[1]
    for d in _oracle_points(problem):
        grad, H = loop_b_closure_derivatives(n, d)
        assert _sums_match(closure(d)[1], grad, problem.dim)
        assert _sums_match(dense_phase_hessian(weights, closure_hessian(d)), H, problem.dim)


@pytest.mark.parametrize("n", [2 ** s for s in range(2, 11)])
def test_q_closure_hessian_matches_the_per_term_loop(n):
    problem = build_q_problem(n)
    weights = np.ones(problem.dim)
    for d in _oracle_points(problem):
        H = dense_phase_hessian(weights, problem.eq_hessians[1](d))
        assert _sums_match(H, loop_q_closure_hessian(n, d), problem.dim)


@pytest.mark.parametrize("n", [2 ** s for s in range(2, 11)])
def test_q_closure_gradient_matches_the_per_term_loop(n):
    problem = build_q_problem(n)
    for d in _oracle_points(problem):
        grad = problem.eq_constraints[1](d)[1]
        assert _sums_match(grad, loop_q_closure_gradient(n, d), problem.dim)


@pytest.mark.parametrize("builder", [build_b_problem, build_q_problem])
def test_closure_hessian_matches_finite_differences_at_64(builder):
    problem = builder(64)
    rng = np.random.default_rng(11)
    d = (problem.warm_start - problem.base_angle) \
        + rng.uniform(-5e-3, 5e-3, problem.dim)
    closure, closure_hessian = problem.eq_constraints[1], problem.eq_hessians[1]
    fd = np.column_stack([
        _fd_gradient(lambda z, i=i: closure(z)[1][i], d)
        for i in range(problem.dim)])
    H = dense_phase_hessian(problem.eq_constraints[0](d)[1], closure_hessian(d))
    assert np.max(np.abs(H - fd)) <= 1e-6


@pytest.mark.parametrize("builder,n", [
    (build_b_problem, 1024), (build_b_problem, 2048),
    (build_q_problem, 512), (build_q_problem, 1024),
])
def test_large_default_solve_is_certified_from_the_first_start(builder, n):
    report = solve(builder(n))
    assert report.converged
    assert report.starts_used == 1
    assert report.iterations <= 4
    certify(report)


@pytest.mark.parametrize("builder,n", [
    *((build_b_problem, 2 ** s) for s in range(3, 12)),
    *((build_q_problem, 2 ** s) for s in range(2, 11)),
])
def test_solve_report_matches_the_block_kkt_reference(builder, n):
    problem = builder(n)
    report, reference = solve(problem), block_kkt_solve(problem)
    assert report.converged == reference.converged
    assert _angles_match(report, reference)


def _angles_match(report, reference):
    # the binary64 solve's own error bound (tests/test_mpmath_oracle.py)
    return max(abs(a - b) for a, b in zip(report.angles, reference.angles)) \
        <= report.n * 4e-16


def _counting_objective(problem, calls):
    def objective(d):
        calls.append(None)
        return problem.objective(d)
    return dataclasses.replace(problem, objective=objective)


_SOLVER_CONSTANTS = {"max_outer": "MAX_NEWTON", "tol_eq": "TOL_EQ", "tol_kkt": "TOL_KKT"}


@pytest.mark.parametrize("builder,n,config", [
    *((build_b_problem, 2 ** s, {"max_outer": m}) for s in range(3, 9) for m in (1, 2, 3, 20)),
    *((build_q_problem, 2 ** s, {"max_outer": m}) for s in range(2, 8) for m in (1, 2, 3, 20)),
    (build_b_problem, 8, {"tol_eq": 0.0, "tol_kkt": 0.0}),
    (build_q_problem, 8, {"tol_eq": 0.0, "tol_kkt": 0.0}),
])
def test_one_start_converges_exactly_when_the_multi_start_reference_does(builder, n, config,
                                                                         monkeypatch):
    # The reference runs up to 1 + 2 * dim perturbed starts while none has
    # converged; a start after the first never succeeds where the first failed.
    # ``config`` overrides the solver's constants of the same meaning.
    problem = builder(n)
    reference = block_kkt_solve(problem, **config)
    for key, value in config.items():
        monkeypatch.setattr(optimizer, _SOLVER_CONSTANTS[key], value)
    member_obj = problem.objective(_member_deviations(problem))[0]
    ref_ok = reference.converged and reference.objective >= member_obj
    calls = []
    try:
        report = solve(_counting_objective(problem, calls))
    except NonConvergenceError as err:
        report = None
        assert err.report.starts_used == 1
    assert (report is not None) == ref_ok
    if ref_ok:
        assert report.converged and _angles_match(report, reference)
    assert len(calls) <= optimizer.MAX_NEWTON + 2  # the warm start, then one per iterate


def _certificate_points():
    for builder, ns in ((build_b_problem, range(3, 13)), (build_q_problem, range(2, 12))):
        for s in ns:
            problem = builder(2 ** s)
            yield problem, np.array(solve(problem).angles)
    for builder, n in ((build_b_problem, 8), (build_b_problem, 64), (build_q_problem, 16)):
        problem = builder(n)
        yield _negated(problem), np.array(solve(problem).angles)


def test_inertia_certificate_equals_the_eigvalsh_sign_and_the_cholesky_test():
    verdicts = []
    for problem, angles in _certificate_points():
        d = angles - problem.base_angle
        lo, hi = -problem.base_angle, problem.upper - problem.base_angle
        negative_definite = _final_report_parts(problem, d, lo, hi, _evaluate(problem, d))[3]
        dense = triangle_problem(problem)
        ev = _evaluate(dense, d)
        curvature = eigvalsh_report_parts(dense, d, lo, hi, ev)[3]
        assert negative_definite == (curvature < 0.0), (problem.family, problem.n)
        assert negative_definite == cholesky_report_parts(dense, d, lo, hi, ev)[3]
        if problem.dim == 2:  # q4: both boxes active, no freedom left
            assert np.all((d <= lo + 1e-12) | (d >= hi - 1e-12)) and negative_definite
        verdicts.append(negative_definite)
    assert verdicts.count(False) == 3  # the three negated optima


def _trig_counting(monkeypatch):
    """Patch ``np.sin`` and ``np.cos`` to log their names; returns the log."""
    log = []
    for name in ("sin", "cos"):
        def counted(x, fn=getattr(np, name), name=name):
            log.append(name)
            return fn(x)
        monkeypatch.setattr(np, name, counted)
    return log


def _per_call_trig(problem, log):
    """``problem`` with each callable recording, per call, the trig calls
    it made; returns it and the record, keyed by callable."""
    made = {key: [] for key in ("objective", "objective_hessian", "angle_sum",
                                "closure", "angle_sum_hessian", "closure_hessian")}

    def tally(key, fn):
        def counted(d):
            start = len(log)
            out = fn(d)
            made[key].append(log[start:])
            return out
        return counted

    return dataclasses.replace(
        problem,
        objective=tally("objective", problem.objective),
        objective_hessian=tally("objective_hessian", problem.objective_hessian),
        eq_constraints=(tally("angle_sum", problem.eq_constraints[0]),
                        tally("closure", problem.eq_constraints[1])),
        eq_hessians=(tally("angle_sum_hessian", problem.eq_hessians[0]),
                     tally("closure_hessian", problem.eq_hessians[1])),
    ), made


@pytest.mark.parametrize("builder,n", [(build_b_problem, 256), (build_q_problem, 128)])
def test_each_iterate_takes_one_trigonometric_pass_per_function(builder, n, monkeypatch):
    problem = builder(n)
    log = _trig_counting(monkeypatch)
    counted, made = _per_call_trig(problem, log)
    report = solve(counted)
    iterates = report.iterations + 1
    assert made["objective"] == made["closure"] == [["sin", "cos"]] * iterates
    assert made["angle_sum"] == [[]] * iterates
    # the Newton steps and the certificate read the Hessians at evaluated
    # iterates: every sine they need was computed there
    assert len(made["objective_hessian"]) == len(made["closure_hessian"]) == iterates
    for key in ("objective_hessian", "closure_hessian", "angle_sum_hessian"):
        assert made[key] == [[]] * len(made[key])


@pytest.mark.parametrize("builder", [build_b_problem, build_q_problem])
def test_hessians_at_an_array_changed_in_place_are_fresh(builder):
    problem, fresh = builder(16), builder(16)
    start = problem.warm_start - problem.base_angle
    writable = start.copy()
    owner = start.copy()
    view = owner[:]
    view.flags.writeable = False  # read-only, but its owner is not
    for d, change in ((writable, writable), (view, owner)):
        problem.objective(d)
        problem.eq_constraints[1](d)
        change += 1e-3
        assert np.array_equal(problem.objective_hessian(d), fresh.objective_hessian(d.copy()))
        assert np.array_equal(problem.eq_hessians[1](d), fresh.eq_hessians[1](d.copy()))


def _uncached_hessians(problem):
    """``problem`` with both Hessian callables computing their sines afresh,
    by the formulas of the problem builder."""
    n, base = problem.n, problem.base_angle
    member = (b_angles if problem.family == "b" else q_angles)(n)
    weights = problem.eq_constraints[0](np.zeros(problem.dim))[1]
    base_phases = np.cumsum(weights[:-1]) * base
    signs = (-1.0) ** np.arange(problem.dim - 1)

    def objective_hessian(d):
        return -4.0 * weights / 4 * np.sin((base + d) / 2)

    def closure_hessian(d):
        return np.append(-signs * np.sin(base_phases + member.phases(d)), 0.0)

    return dataclasses.replace(problem, objective_hessian=objective_hessian,
                               eq_hessians=(problem.eq_hessians[0], closure_hessian))


@pytest.mark.parametrize("builder,n", [
    (build_b_problem, 8), (build_b_problem, 256), (build_q_problem, 4), (build_q_problem, 128),
])
def test_reused_sines_leave_the_report_unchanged(builder, n):
    problem = builder(n)
    cached, uncached = solve(problem), solve(_uncached_hessians(problem))
    for field in dataclasses.fields(cached):
        assert getattr(cached, field.name) == getattr(uncached, field.name), field.name
