"""Binary64 results against high-precision mpmath references.

Default solves: the reference optimum comes from ``perfbench/checks.py``,
which states both perimeter problems from the paper's definitions in mpmath
and solves their KKT system to 40 digits; nothing here is computed by
``smallpoly``'s own problem builders.  The bounds are the binary64 solve's
own error: angles within n * 4e-16 and objectives within 1e-15 of the
optimum.  The same optima hold the solver's warm start, the optimum's
Fourier profile, within its stated relative error, and, extrapolated from
n = 32 .. 256, the limits of ``bounds.OPTIMUM_GAP_LIMITS``.  The solver's
least-squares multipliers are no further from a 50-digit fit of the same
binary64 Jacobian and gradient than ``np.linalg.lstsq``'s.

Closed forms and gap laws: every closed form, and every scaled gap
n^p (bound - value) of ``GAP_LAWS``, evaluated from its definition at 50
digits (the alternation offsets in their direct arcsin form, the Tamvakis
perimeter as a chord sum over its three arcs), must match ``bounds`` to a
relative 2e-15 at every power of two n = 4 .. 2^16 where it is defined; so
must ``bounds.ubw_step``, the step ub_w(n) - ub_w(n-1).  The T2 and T3
ratios that ``table`` prints must be their 50-digit values rounded to four
decimals (within 5e-5) at n = 2^16 .. 2^20, where the denominators are a few
dozen ulps of the bounds or less.

Widths: the width of a triangle whose coordinates are as small as 1e-310
(subnormal) must be within one ulp of its 50-digit value from the same
binary64 vertices.
"""

import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from smallpoly import (
    GAP_LAWS,
    SmallPolygon,
    b_angles,
    build_b_problem,
    build_q_problem,
    closed_form,
    gap_constants,
    q_angles,
    solve,
    width,
)
from smallpoly.bounds import OPTIMUM_GAP_LIMITS, perimeter_gap, ubw_step
from smallpoly.cli import EXIT_OK, main
from smallpoly.optimizer import _evaluate, _multipliers

mp = pytest.importorskip("mpmath")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

BUILDERS = {"b": build_b_problem, "q": build_q_problem}


@pytest.mark.parametrize("family,n", [(family, 2 ** s)
                                      for family in ("b", "q") for s in range(3, 9)])
def test_default_solve_is_within_binary64_noise_of_the_optimum(family, n):
    report = solve(BUILDERS[family](n))
    assert report.converged
    with mp.workdps(checks.DPS):
        prob = checks.problem(family, n)
        optimum = checks.kkt_optimum(prob, checks.family_angles(family, n))
        objective = checks.evaluate(prob, optimum)[0]
        angle_error = max(abs(mp.mpf(a) - x) for a, x in zip(report.angles, optimum))
        assert len(report.angles) == prob.dim
        assert angle_error <= n * 4e-16
        assert abs(mp.mpf(report.objective) - objective) <= 1e-15


@functools.cache
def _optimum(family, n):
    """The 40-digit optimum's angles, from the analytic member."""
    with mp.workdps(checks.DPS):
        prob = checks.problem(family, n)
        return tuple(checks.kkt_optimum(prob, checks.family_angles(family, n)))


@pytest.mark.parametrize("family,n", [(family, n) for family in ("b", "q")
                                      for n in (64, 128, 256)])
def test_warm_start_is_the_optimums_fourier_profile(family, n):
    # the largest deviation error, relative to the optimum's largest
    # deviation: about pi^2/n^2 for b and 2/n for q
    warm = BUILDERS[family](n).warm_start
    with mp.workdps(checks.DPS):
        optimum = [x - mp.pi / n for x in _optimum(family, n)]
        error = max(abs(mp.mpf(a) - mp.pi / n - x) for a, x in zip(warm, optimum))
        bound = 2 * math.pi ** 2 / n ** 2 if family == "b" else 3 / n
        assert error <= bound * max(abs(x) for x in optimum)


@pytest.mark.parametrize("family", ["b", "q"])
def test_optimum_gap_limits_match_extrapolated_40_digit_optima(family):
    # n^p (ub_L - L_opt) at n = 32 .. 256 is the limit plus a series in 1/n^2,
    # so three Richardson passes (ratios 4, 16, 64) leave one value
    law = f"{family}-perimeter"
    power, limit = OPTIMUM_GAP_LIMITS[law]
    assert power == GAP_LAWS[law][0]
    with mp.workdps(checks.DPS):
        prob = {n: checks.problem(family, n) for n in (32, 64, 128, 256)}
        gaps = [mp.mpf(n) ** power * (checks.upper_bound_L(n)
                                      - checks.evaluate(p, _optimum(family, n))[0])
                for n, p in prob.items()]
        for ratio in (4, 16, 64):
            gaps = [(ratio * fine - coarse) / (ratio - 1)
                    for coarse, fine in zip(gaps, gaps[1:])]
        assert abs(gaps[0] - limit) <= 1e-9 * limit
        assert limit == pytest.approx(8 / math.pi ** 2 * GAP_LAWS[law][1], rel=1e-15)


@pytest.mark.parametrize("family,n", [("b", 64), ("b", 1024), ("b", 16384), ("b", 32768),
                                      ("q", 128), ("q", 4096)])
def test_multipliers_are_no_further_from_the_50_digit_fit_than_lstsq(family, n):
    # the least-squares lam of J^T lam = t for the binary64 J and t at the
    # warm start, solved from exact 50-digit normal equations
    problem = BUILDERS[family](n)
    d = problem.warm_start - problem.base_angle
    _, t, _, J = _evaluate(problem, d)
    with mp.workdps(50):
        rows = [[mp.mpf(x) for x in row] for row in J.tolist()]
        rhs = [mp.mpf(x) for x in t.tolist()]
        normal = mp.matrix([[mp.fsum(map(mp.fmul, a, b)) for b in rows] for a in rows])
        exact = mp.lu_solve(normal, mp.matrix([mp.fsum(map(mp.fmul, a, rhs)) for a in rows]))

        def error(lam):
            return max(abs(mp.mpf(x) - y) for x, y in zip(lam, exact))

        assert error(_multipliers(J, t)) <= error(np.linalg.lstsq(J.T, t, rcond=None)[0])


REL_TOL = 2e-15
POWERS = tuple(2 ** s for s in range(2, 17))
LEAST_N = {"regular-plus": 4, "tamvakis": 4, "q": 4, "b": 8, "b-hat": 8}


def _tamvakis_arcs(n):
    k, r = divmod(n, 3)
    return (k, k + 1, k) if r == 1 else (k + 1, k, k + 1)


def mp_closed_form(family, n):
    """(perimeter, width) of a family member at the working precision."""
    pi = mp.pi
    half = pi / (2 * n)
    beta = pi / n - mp.asin(mp.sin(2 * pi / n) / 2)
    gamma = pi / 4 - mp.asin(mp.cos(pi / n) / mp.sqrt(2))
    if family == "regular":
        if n % 2:
            return 2 * n * mp.sin(half), mp.cos(half)
        return n * mp.sin(pi / n), mp.cos(pi / n)
    if family == "regular-plus":
        odd = pi / (2 * n - 2)
        return (2 * n - 2) * mp.sin(odd) - 2 * mp.sin(odd) + 4 * mp.sin(odd / 2), mp.cos(odd)
    if family == "tamvakis":
        arcs = _tamvakis_arcs(n)
        return (sum(2 * k * mp.sin(pi / (6 * k)) for k in arcs),
                mp.cos(pi / (6 * min(arcs))))
    if family == "b":
        return 2 * n * mp.sin(half) * mp.cos(beta / 2), mp.cos(half + beta / 2)
    if family == "q":
        return 2 * n * mp.sin(half) * mp.cos(gamma / 2), mp.cos(half + gamma / 2)
    if family == "regular-hat":
        return mp.mpf(1), (mp.cot(half) / (2 * n) if n % 2 else mp.cot(pi / n) / n)
    if family == "b-hat":
        return mp.mpf(1), (mp.cot(half) - mp.tan(beta / 2)) / (2 * n)
    raise KeyError(family)


def _assert_close(got, ref):
    assert abs(mp.mpf(got) - ref) <= REL_TOL * abs(ref), (got, ref)


@pytest.mark.parametrize("family", ["regular", "regular-plus", "tamvakis", "b", "q",
                                    "regular-hat", "b-hat"])
def test_closed_forms_match_50_digit_definitions(family):
    odd = (3, 5, 7, 9, 1023, 4095) if family in ("regular", "regular-hat") else ()
    with mp.workdps(50):
        for n in odd + POWERS:
            if n < LEAST_N.get(family, 3):
                continue
            for got, ref in zip(closed_form(family, n), mp_closed_form(family, n)):
                _assert_close(got, ref)


def mp_scaled_gap(law, n):
    """n^p (bound - value) of a gap law at the working precision."""
    family, metric = law.rsplit("-", 1)
    half = mp.pi / (2 * n)
    if metric == "perimeter":
        bound = 2 * n * mp.sin(half)
    elif family.endswith("-hat"):
        bound = mp.cot(half) / (2 * n)
    else:
        bound = mp.cos(half)
    value = mp_closed_form(family, n)[0 if metric == "perimeter" else 1]
    return mp.mpf(n) ** GAP_LAWS[law][0] * (bound - value)


@pytest.mark.parametrize("law", sorted(GAP_LAWS))
def test_every_gap_law_matches_its_50_digit_difference(law):
    family = law.rsplit("-", 1)[0]
    with mp.workdps(50):
        for n in POWERS:
            if n >= LEAST_N.get(family, 4):
                _assert_close(gap_constants(law, n), mp_scaled_gap(law, n))


@pytest.mark.parametrize("family", ["b", "q"])
def test_perimeter_gap_matches_its_50_digit_value(family):
    # at the analytic member's binary64 deviations and at one in the middle
    # of its box; perimeter_gap is ub_L - L + 2 cos(pi/2n) sum w_k d_k there
    angles = b_angles if family == "b" else q_angles
    with mp.workdps(50):
        for n in (LEAST_N[family], 2 ** 6, 2 ** 12):
            warm = angles(n)
            weights = warm.weights(len(warm.alphas))
            d = warm.alphas - math.pi / n
            for dev in (d, d + math.pi / 12 * (-1.0) ** np.arange(len(d))):
                half = mp.pi / (2 * n)
                w, e = [mp.mpf(x) for x in weights], [mp.mpf(x) for x in dev]
                ref = (2 * n * mp.sin(half)
                       - 4 * mp.fsum(wk * mp.sin(half + ek / 2) for wk, ek in zip(w, e))
                       + 2 * mp.cos(half) * mp.fsum(wk * ek for wk, ek in zip(w, e)))
                _assert_close(perimeter_gap(n, weights, dev), ref)


def mp_ubw(n):
    return mp.cot(mp.pi / (2 * n)) / (2 * n)


def test_ubw_step_matches_its_50_digit_difference():
    with mp.workdps(50):
        for n in (5, 7, 9, 1023) + POWERS + (2 ** 20,):
            _assert_close(ubw_step(n), mp_ubw(n) - mp_ubw(n - 1))


def mp_table_ratio(table, n):
    """The ratio column of T2 or T3 at the working precision."""
    if table == "T2":
        wrp, wb = mp_closed_form("regular-plus", n)[1], mp_closed_form("b", n)[1]
        return (wb - wrp) / (mp.cos(mp.pi / (2 * n)) - wrp)
    prev, wbh = mp_ubw(n - 1), mp_closed_form("b-hat", n)[1]
    return (wbh - prev) / (mp_ubw(n) - prev)


@pytest.mark.parametrize("table", ["T2", "T3"])
def test_table_t2_t3_ratios_match_50_digit_values_at_large_n(capsys, table):
    ns = (2 ** 16, 2 ** 17, 2 ** 20)
    assert main(["table", "--id", table[1], "--n", ",".join(map(str, ns))]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(ns)
    with mp.workdps(50):
        for n, row in zip(ns, rows):
            assert abs(mp.mpf(row[-1]) - mp_table_ratio(table, n)) <= 5e-5, (n, row[-1])


def mp_width(vertices):
    """The least, over the edges, of the largest vertex distance from the edge's line."""
    pts = [(mp.mpf(x), mp.mpf(y)) for x, y in vertices]

    def reach(a, b):
        (ax, ay), (bx, by) = a, b
        return max(abs((bx - ax) * (py - ay) - (by - ay) * (px - ax)) for px, py in pts) \
            / mp.hypot(bx - ax, by - ay)
    return min(reach(a, b) for a, b in zip(pts, pts[1:] + pts[:1]))


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-310])
@pytest.mark.parametrize("shape", [((0, 0), (1, 0), (0, 1)), ((0, 0), (3, 0.1), (1, 2))])
def test_tiny_triangle_width_is_within_an_ulp_of_its_50_digit_value(shape, scale):
    vertices = [(x * scale, y * scale) for x, y in shape]
    with mp.workdps(50):
        exact = float(mp_width(vertices))
    assert abs(width(SmallPolygon.from_coords(vertices)) - exact) <= math.ulp(exact)
