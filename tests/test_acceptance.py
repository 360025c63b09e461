"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from smallpoly import (
    GAP_LAWS,
    b_family,
    closed_form,
    gap_constants,
    build_b_problem,
    build_q_problem,
    perimeter,
    q_family,
    regular,
    regular_plus,
    reuleaux_subdivision,
    solve,
    tamvakis,
    upper_bounds,
    width,
)
from smallpoly import area, diameter
from smallpoly.geometry import diameter_cycle

from _reference import (
    OPTIMAL_ANGLES_B,
    OPTIMAL_ANGLES_Q,
    OPTIMAL_PERIMETER_B,
    OPTIMAL_PERIMETER_Q,
    PERIMETER_TABLE,
    UNIT_PERIMETER_WIDTH_TABLE,
    WIDTH_TABLE,
)

POWERS = (8, 16, 32, 64, 128)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_perimeter_table():
    t0 = time.perf_counter()
    worst = 0.0
    for n in POWERS:
        lr, lrp, lt, _, lb, ub, _ = PERIMETER_TABLE[n]
        tol12 = 5e-13 if n == 128 else 5e-11
        checks = [
            (closed_form("regular", n)[0], lr, 5e-11),
            (closed_form("regular-plus", n)[0], lrp, 5e-11),
            (closed_form("tamvakis", n)[0], lt, 5e-11),
            (closed_form("b", n)[0], lb, tol12),
            (upper_bounds(n).ubL, ub, tol12),
        ]
        for got, want, tol in checks:
            worst = max(worst, abs(got - want) / tol)
            assert abs(got - want) <= tol, (n, got, want)
    elapsed = time.perf_counter() - t0
    _report("criterion 1: perimeter table reproduction",
            worst <= 1.0 and elapsed < 1.0,
            f"worst error {worst:.3f} of tolerance, {elapsed:.3f}s")


def test_criterion_2_width_tables():
    t0 = time.perf_counter()
    for n in POWERS:
        wr, wrp, wb, ubw_, ratio = WIDTH_TABLE[n]
        assert abs(closed_form("regular", n)[1] - wr) <= 5e-11
        assert abs(closed_form("regular-plus", n)[1] - wrp) <= 5e-11
        assert abs(closed_form("b", n)[1] - wb) <= 5e-11
        assert abs(upper_bounds(n).ubW - ubw_) <= 5e-11
        got_ratio = (closed_form("b", n)[1] - closed_form("regular-plus", n)[1]) \
            / (upper_bounds(n).ubW - closed_form("regular-plus", n)[1])
        assert abs(got_ratio - ratio) <= 5e-5, (n, got_ratio, ratio)
        wrh, prev, wbh, ubw2, ratio3 = UNIT_PERIMETER_WIDTH_TABLE[n]
        assert abs(closed_form("regular-hat", n)[1] - wrh) <= 5e-11
        assert abs(upper_bounds(n - 1).ubw - prev) <= 5e-11
        assert abs(closed_form("b-hat", n)[1] - wbh) <= 5e-11
        assert abs(upper_bounds(n).ubw - ubw2) <= 5e-11
        got3 = (closed_form("b-hat", n)[1] - upper_bounds(n - 1).ubw) \
            / (upper_bounds(n).ubw - upper_bounds(n - 1).ubw)
        assert abs(got3 - ratio3) <= 5e-5, (n, got3, ratio3)
    elapsed = time.perf_counter() - t0
    _report("criterion 2: width tables with ratio columns",
            elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_3_b_optimizer():
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_angle = 0.0
    for n in (8, 16, 32, 64):
        report = solve(build_b_problem(n))
        worst_obj = max(worst_obj, abs(report.objective - OPTIMAL_PERIMETER_B[n]))
        assert abs(report.objective - OPTIMAL_PERIMETER_B[n]) <= 1e-8, n
        for got, want in zip(report.angles, OPTIMAL_ANGLES_B[n]):
            worst_angle = max(worst_angle, abs(got - want))
            assert abs(got - want) <= 1e-5, (n, got, want)
    report = solve(build_b_problem(128))
    lo = closed_form("b", 128)[0]
    hi = upper_bounds(128).ubL
    assert lo <= report.objective <= hi
    assert report.objective >= 3.14151380112
    elapsed = time.perf_counter() - t0
    _report("criterion 3: maximal-perimeter solve, cycle family",
            elapsed < 300.0,
            f"worst objective err {worst_obj:.2e}, worst angle err "
            f"{worst_angle:.2e}, n=128 objective {report.objective:.12f}, "
            f"{elapsed:.1f}s")


def test_criterion_4_q_optimizer():
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_angle = 0.0
    for n in (8, 16, 32, 64):
        report = solve(build_q_problem(n))
        worst_obj = max(worst_obj, abs(report.objective - OPTIMAL_PERIMETER_Q[n]))
        assert abs(report.objective - OPTIMAL_PERIMETER_Q[n]) <= 1e-8, n
        for got, want in zip(report.angles, OPTIMAL_ANGLES_Q[n]):
            worst_angle = max(worst_angle, abs(got - want))
            assert abs(got - want) <= 1e-5, (n, got, want)
    elapsed = time.perf_counter() - t0
    _report("criterion 4: maximal-perimeter solve, odd-cycle family",
            elapsed < 300.0,
            f"worst objective err {worst_obj:.2e}, worst angle err "
            f"{worst_angle:.2e}, {elapsed:.1f}s")


def test_criterion_5_metric_closed_form_equivalence():
    cases = []
    cases += [("regular", regular(n), n, None) for n in range(3, 129)]
    cases += [("regular-plus", regular_plus(n), n, None)
              for n in range(4, 129, 2)]
    cases += [("reuleaux", reuleaux_subdivision(m, m * j), m * j, m)
              for m in (3, 5, 7, 9) for j in (1, 2, 3, 4, 8)]
    cases += [("tamvakis", tamvakis(n), n, None) for n in (4, 8, 16, 32, 64, 128)]
    cases += [("b", b_family(n), n, None) for n in POWERS]
    cases += [("q", q_family(n), n, None) for n in (4,) + POWERS]
    worst = 0.0
    for family, poly, n, m in cases:
        L, W = closed_form(family, n, m)
        dl = abs(perimeter(poly) - L)
        dw = abs(width(poly) - W)
        worst = max(worst, dl, dw)
        assert dl <= 1e-10, (family, n, dl)
        assert dw <= 1e-10, (family, n, dw)
    _report("criterion 5: geometry vs closed-form oracle equivalence",
            True, f"{len(cases)} polygons, worst disagreement {worst:.2e}")


def test_criterion_6_quarter_vertex_and_pendant_lines():
    for n in POWERS:
        poly = b_family(n)
        coords = poly.coords()
        miss = np.min(np.max(np.abs(coords - np.array([-0.5, 0.5])), axis=1))
        assert miss <= 1e-12, (n, miss)
        _, edges = diameter(poly)
        deg = {}
        for i, j in edges:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        for i, j in edges:
            if deg[i] != 1 and deg[j] != 1:
                continue
            a, b = coords[i], coords[j]
            d = abs((b[0] - a[0]) * (0.5 - a[1]) - (b[1] - a[1]) * (-a[0]))
            d /= math.hypot(b[0] - a[0], b[1] - a[1])
            assert d <= 1e-10, (n, d)
    _report("criterion 6: quarter vertex at (-1/2, 1/2) and pendant lines "
            "through (0, 1/2)", True)


def test_criterion_7_area_identity():
    worst = 0.0
    for n in POWERS:
        delta = abs(area(b_family(n)) - (n / 8) * math.sin(2 * math.pi / n))
        worst = max(worst, delta)
        assert delta <= 1e-12, n
    _report("criterion 7: area identity n/8 sin(2 pi/n)", True,
            f"worst deviation {worst:.2e}")


def test_criterion_8_asymptotic_constants():
    n = 2 ** 12
    laws = ("b-perimeter", "b-width", "q-perimeter", "b-hat-width")
    details = []
    for law in laws:
        _, limit = GAP_LAWS[law]
        got = gap_constants(law, n)
        rel = abs(got / limit - 1.0)
        details.append(f"{law}: {rel:.2e}")
        assert rel <= 0.02, (law, got, limit)
    _report("criterion 8: asymptotic gap constants at n=4096", True,
            "; ".join(details))


def test_criterion_9_exact_identities():
    w8 = 0.25 * math.sqrt(10 + 2 * math.sqrt(7))
    assert abs(closed_form("b", 8)[1] - w8) <= 1e-12
    assert abs(width(b_family(8)) - w8) <= 1e-12
    l4 = 2 + math.sqrt(6) - math.sqrt(2)
    assert abs(closed_form("q", 4)[0] - l4) <= 1e-12
    assert abs(perimeter(q_family(4)) - l4) <= 1e-12
    _report("criterion 9: surd identities for the 8-gon width and 4-gon "
            "perimeter", True)


def _graph_structure(poly):
    """(cycle length, pendant count) of a b or q polygon's diameter graph."""
    cycle, pendants, _ = diameter_cycle(poly)
    return len(cycle) - 1, len(pendants)


def test_criterion_10_diameter_graph_structure():
    for n in POWERS:
        assert _graph_structure(b_family(n)) == (n // 2 + 1, n // 2 - 1), n
    for n in (4,) + POWERS:
        assert _graph_structure(q_family(n)) == (n - 1, 1), n
    _report("criterion 10: diameter-graph cycle+pendant structure", True)
