"""Family constructions vs published values, symmetry, and angle round-trips."""

import math

import numpy as np
import pytest

from smallpoly import (
    AngleParamB,
    AngleParamQ,
    InfeasibleAnglesError,
    SmallPolygon,
    b_alternation,
    b_angles,
    b_family,
    diameter,
    extract_angles_b,
    extract_angles_q,
    from_angles_b,
    from_angles_q,
    perimeter,
    q_alternation,
    q_angles,
    q_family,
    regular,
    regular_plus,
    reuleaux_subdivision,
    small_polygon_violations,
    tamvakis,
    width,
)
from smallpoly import area, build_b_problem, build_q_problem, closed_form, solve

from smallpoly.cli import _graph_structure
from smallpoly.constructions import _b_vertices, _q_vertices

from _reference import (
    FIGURE_METRICS,
    OPTIMAL_ANGLES_B,
    OPTIMAL_ANGLES_Q,
    atan2_boundary_order,
    loop_b_vertices,
    loop_extract_angles_b,
    loop_extract_angles_q,
    loop_q_vertices,
    loop_regular,
    loop_reuleaux,
)

POWERS_B = (8, 16, 32, 64, 128)
POWERS_Q = (4, 8, 16, 32, 64, 128)


def _build(family, n):
    if family == "regular":
        return regular(n)
    if family == "regular-plus":
        return regular_plus(n)
    if family == "reuleaux":
        return reuleaux_subdivision(3, n)
    if family == "tamvakis":
        return tamvakis(n)
    if family == "b":
        return b_family(n)
    return q_family(n)


@pytest.mark.parametrize("key", sorted(FIGURE_METRICS))
def test_figure_caption_metrics(key):
    family, n = key
    poly = _build(family, n)
    L, W = FIGURE_METRICS[key]
    assert perimeter(poly) == pytest.approx(L, abs=5e-5)
    assert width(poly) == pytest.approx(W, abs=5e-5)


def test_regular_examples():
    assert perimeter(regular(8)) == pytest.approx(3.0614674589, abs=5e-11)
    assert width(regular(6)) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)
    assert perimeter(regular(3)) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        regular(2)


def test_regular_plus_examples():
    assert perimeter(regular_plus(8)) == pytest.approx(3.1181091119, abs=5e-11)
    assert width(regular_plus(8)) == pytest.approx(0.9749279122, abs=5e-11)
    # the first member attains the known 4-gon optimum 2 + sqrt(6) - sqrt(2)
    assert perimeter(regular_plus(4)) == pytest.approx(
        2 + math.sqrt(6) - math.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        regular_plus(7)


def test_reuleaux_subdivision_examples():
    hexa = reuleaux_subdivision(3, 6)
    assert perimeter(hexa) == pytest.approx(3.1058285412, abs=5e-11)
    assert width(hexa) == pytest.approx(0.9659258263, abs=5e-11)
    # m = n degenerates to the regular small m-gon
    tri = reuleaux_subdivision(3, 3)
    assert np.allclose(tri.coords(), regular(3).coords(), atol=1e-15)
    # 24 sin(pi/24), derived by evaluating the equilateral chord sum at n=12
    twelve = reuleaux_subdivision(3, 12)
    assert perimeter(twelve) == pytest.approx(24 * math.sin(math.pi / 24), abs=1e-12)
    with pytest.raises(ValueError):
        reuleaux_subdivision(4, 8)
    with pytest.raises(ValueError):
        reuleaux_subdivision(3, 8)


def test_tamvakis_examples():
    assert perimeter(tamvakis(8)) == pytest.approx(3.1190543124, abs=5e-11)
    assert width(tamvakis(32)) == pytest.approx(math.cos(math.pi / 60), abs=1e-12)
    assert len(tamvakis(4).vertices) == 4
    with pytest.raises(ValueError):
        tamvakis(12)


@pytest.mark.parametrize("n", POWERS_B + (256,))
def test_tamvakis_subarc_distribution_matches_chord_formula(n):
    # edge-sum perimeter must hit the two-case closed form exactly, which
    # pins down which arc carries the odd subarc count
    poly = tamvakis(n)
    L, W = closed_form("tamvakis", n)
    assert perimeter(poly) == pytest.approx(L, abs=1e-12)
    assert width(poly) == pytest.approx(W, abs=1e-12)


def test_b_family_alternation_and_first_angle():
    # derived from the defining closure: beta = pi/8 - arcsin(sin(pi/4)/2)
    beta = b_alternation(8)
    assert beta == pytest.approx(
        math.pi / 8 - math.asin(0.5 * math.sin(math.pi / 4)), abs=1e-15)
    assert beta == pytest.approx(0.0313319578, abs=1e-9)
    alphas = b_angles(8).alphas
    assert alphas[0] == pytest.approx(math.pi / 8 + beta, abs=1e-15)
    assert alphas[0] + 2 * alphas[1] + alphas[2] == pytest.approx(
        math.pi / 2, abs=1e-14)


def test_b_family_published_metrics():
    poly = b_family(8)
    assert perimeter(poly) == pytest.approx(3.1210621230, abs=5e-11)
    assert width(poly) == pytest.approx(0.9776087734, abs=5e-11)
    with pytest.raises(ValueError):
        b_family(12)
    with pytest.raises(ValueError):
        b_family(4)


@pytest.mark.parametrize("n", POWERS_B)
def test_b_family_quarter_vertex(n):
    coords = b_family(n).coords()
    miss = np.min(np.max(np.abs(coords - np.array([-0.5, 0.5])), axis=1))
    assert miss <= 1e-12


@pytest.mark.parametrize("n", POWERS_B)
def test_b_family_pendant_lines_pass_through_half_point(n):
    poly = b_family(n)
    coords = poly.coords()
    _, edges = diameter(poly)
    deg = {}
    for i, j in edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    checked = 0
    for i, j in edges:
        if deg[i] != 1 and deg[j] != 1:
            continue
        a, b = coords[i], coords[j]
        miss = abs((b[0] - a[0]) * (0.5 - a[1]) - (b[1] - a[1]) * (0.0 - a[0]))
        miss /= math.hypot(b[0] - a[0], b[1] - a[1])
        assert miss <= 1e-10
        checked += 1
    assert checked == n // 2 - 1


@pytest.mark.parametrize("n", POWERS_B)
def test_b_family_area_identity(n):
    assert area(b_family(n)) == pytest.approx(
        (n / 8) * math.sin(2 * math.pi / n), abs=1e-12)


def test_q_family_published_metrics():
    poly = q_family(8)
    assert perimeter(poly) == pytest.approx(3.1193382474, abs=5e-11)
    assert width(poly) == pytest.approx(0.9729565261, abs=5e-11)
    # derived: gamma(8) = pi/4 - arcsin(cos(pi/8)/sqrt(2))
    assert q_alternation(8) == pytest.approx(0.0734875953, abs=1e-9)
    # the 4-gon member coincides with regular_plus(4)
    assert perimeter(q_family(4)) == pytest.approx(
        2 + math.sqrt(6) - math.sqrt(2), abs=1e-12)
    assert width(q_family(4)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        q_family(6)


@pytest.mark.parametrize("family,n_values", [
    ("b", POWERS_B), ("q", POWERS_Q)])
def test_mirror_symmetry(family, n_values):
    for n in n_values:
        coords = _build(family, n).coords()
        mirrored = coords * np.array([-1.0, 1.0])
        dist = np.hypot(coords[:, None, 0] - mirrored[None, :, 0],
                        coords[:, None, 1] - mirrored[None, :, 1])
        assert float(np.max(np.min(dist, axis=1))) <= 1e-12


@pytest.mark.parametrize("family,n_values", [
    ("regular", (3, 4, 7, 8, 16)),
    ("regular-plus", (4, 8, 16)),
    ("reuleaux", (6, 12)),
    ("tamvakis", POWERS_Q),
    ("b", POWERS_B),
    ("q", POWERS_Q),
])
def test_all_constructions_are_valid_small_polygons(family, n_values):
    for n in n_values:
        poly = _build(family, n)
        assert small_polygon_violations(poly) == []
        assert poly.n == n
        assert poly.vertices[0].x == 0.0 and poly.vertices[0].y == 0.0


def test_from_angles_b_definitional_round_trip():
    for n in POWERS_B:
        direct = b_family(n)
        rebuilt = from_angles_b(b_angles(n))
        assert np.max(np.abs(direct.coords() - rebuilt.coords())) <= 1e-12


def test_from_angles_q_definitional_round_trip():
    for n in POWERS_Q:
        direct = q_family(n)
        rebuilt = from_angles_q(q_angles(n))
        assert np.max(np.abs(direct.coords() - rebuilt.coords())) <= 1e-12


@pytest.mark.parametrize("n", POWERS_B)
def test_extracted_angle_round_trip_b(n):
    poly = b_family(n)
    extracted = extract_angles_b(poly)
    assert np.max(np.abs(np.array(extracted.alphas)
                         - np.array(b_angles(n).alphas))) <= 1e-10
    rebuilt = from_angles_b(extracted)
    assert np.max(np.abs(poly.coords() - rebuilt.coords())) <= 1e-12


@pytest.mark.parametrize("n", POWERS_Q)
def test_extracted_angle_round_trip_q(n):
    poly = q_family(n)
    extracted = extract_angles_q(poly)
    assert np.max(np.abs(np.array(extracted.alphas)
                         - np.array(q_angles(n).alphas))) <= 1e-10
    rebuilt = from_angles_q(extracted)
    assert np.max(np.abs(poly.coords() - rebuilt.coords())) <= 1e-12


ROUND_TRIPS = {"b": (extract_angles_b, from_angles_b, AngleParamB, build_b_problem),
               "q": (extract_angles_q, from_angles_q, AngleParamQ, build_q_problem)}


@pytest.mark.parametrize("family,n,solved", [
    (family, n, solved) for family, sizes in (("b", (8, 64, 512)), ("q", (4, 64, 256)))
    for n in sizes for solved in (False, True)])
def test_extraction_ignores_the_vertex_row_order(family, n, solved):
    extract, rebuild, param, build = ROUND_TRIPS[family]
    poly = rebuild(param(n, solve(build(n)).angles)) if solved else _build(family, n)
    angles = np.array(extract(poly).alphas)
    structure = _graph_structure(poly)
    for rows in (np.roll(np.arange(n), n // 3), np.random.default_rng(n).permutation(n)):
        moved = SmallPolygon.from_coords(poly.xy[rows], poly.family, poly.params)
        extracted = extract(moved)
        assert np.array(extracted.alphas).tobytes() == angles.tobytes()
        assert _graph_structure(moved) == structure
        assert np.max(np.abs(rebuild(extracted).xy - poly.xy)) <= 1e-12


def test_from_angles_b_published_optimum():
    # optimal 8-gon angles, published to six digits
    param = AngleParamB(8, (0.435281, 0.368535, 0.398447))
    poly = from_angles_b(param)
    assert perimeter(poly) == pytest.approx(3.1211471, abs=1e-6)


def test_from_angles_q_published_optimum():
    param = AngleParamQ(8, (0.301375, 0.480058, 0.355776, 0.433588))
    poly = from_angles_q(param)
    assert perimeter(poly) == pytest.approx(3.1195977, abs=1e-6)


def test_from_angles_rejects_infeasible_sequences():
    # violates both the weighted angle sum and the closure condition
    with pytest.raises(InfeasibleAnglesError):
        from_angles_b(AngleParamB(8, (math.pi / 4, math.pi / 8, math.pi / 8)))
    # correct sum, broken closure
    good = list(b_angles(8).alphas)
    bad = [good[0] + 1e-3, good[1], good[2] - 1e-3]
    with pytest.raises(InfeasibleAnglesError) as err:
        from_angles_b(AngleParamB(8, bad))
    assert abs(err.value.closure_residual) > 1e-10
    # wrong length
    with pytest.raises(InfeasibleAnglesError):
        from_angles_b(AngleParamB(8, good + [0.0]))
    # out-of-box angle
    qa = list(q_angles(8).alphas)
    qa[0], qa[1] = qa[0] + 0.4, qa[1] - 0.4
    with pytest.raises(InfeasibleAnglesError):
        from_angles_q(AngleParamQ(8, qa))


def test_angle_param_residual_helpers():
    param = b_angles(16)
    assert abs(param.angle_sum_residual()) <= 1e-14
    assert abs(param.closure_residual()) <= 1e-14
    qparam = q_angles(16)
    assert abs(qparam.angle_sum_residual()) <= 1e-14
    assert abs(qparam.closure_residual()) <= 1e-14


def _atan2_ordered(vertices):
    return np.array(atan2_boundary_order(vertices))


@pytest.mark.parametrize("n", [2 ** s for s in range(3, 13)])
def test_boundary_order_matches_the_atan2_sort(n):
    b_param, q_param = b_angles(n), q_angles(n)
    b_ref = _atan2_ordered(_b_vertices(n, b_param.alphas))
    q_ref = _atan2_ordered(_q_vertices(n, q_param.alphas))
    for poly, ref in ((b_family(n), b_ref), (from_angles_b(b_param), b_ref),
                      (q_family(n), q_ref), (from_angles_q(q_param), q_ref)):
        assert poly.xy.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", POWERS_B)
def test_boundary_order_matches_the_atan2_sort_on_solved_angles(n):
    b_alphas = solve(build_b_problem(n)).angles
    q_alphas = solve(build_q_problem(n)).angles
    b_ref = _atan2_ordered(_b_vertices(n, b_alphas))
    q_ref = _atan2_ordered(_q_vertices(n, q_alphas))
    assert from_angles_b(AngleParamB(n, b_alphas)).xy.tobytes() == b_ref.tobytes()
    assert from_angles_q(AngleParamQ(n, q_alphas)).xy.tobytes() == q_ref.tobytes()


WALKS = {
    "b": (_b_vertices, loop_b_vertices, b_angles, build_b_problem, OPTIMAL_ANGLES_B),
    "q": (_q_vertices, loop_q_vertices, q_angles, build_q_problem, OPTIMAL_ANGLES_Q),
}


@pytest.mark.parametrize("family,n", [("b", 2 ** s) for s in range(3, 17)]
                         + [("q", 2 ** s) for s in range(2, 17)])
def test_phase_walk_equals_the_vertex_loop_byte_for_byte(family, n):
    walk, loop, angles, build, published = WALKS[family]
    sequences = [angles(n).alphas]
    if n <= 1024:
        sequences.append(solve(build(n)).angles)
    if n in published:  # six-digit data, feasible only to rounding
        sequences.append(published[n])
    for alphas in sequences:
        assert walk(n, alphas).tobytes() == np.array(loop(n, alphas)).tobytes()


@pytest.mark.parametrize("family,n", [("b", 2 ** s) for s in range(3, 15)]
                         + [("q", 2 ** s) for s in range(2, 15)])
def test_extraction_is_within_one_ulp_of_the_per_vertex_loop(family, n):
    if family == "b":
        poly, extract, loop = b_family(n), extract_angles_b, loop_extract_angles_b
    else:
        poly, extract, loop = q_family(n), extract_angles_q, loop_extract_angles_q
    got, ref = np.array(extract(poly).alphas), np.array(loop(poly))
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= np.spacing(ref))


@pytest.mark.parametrize("n", list(range(3, 34)) + [2 ** s + k for s in range(6, 17)
                                                    for k in (-1, 0)])
def test_regular_equals_the_vertex_loop_byte_for_byte(n):
    assert regular(n).xy.tobytes() == np.array(loop_regular(n)).tobytes()


@pytest.mark.parametrize("m,n", [(m, m * k) for m in (3, 5, 7) for k in (1, 2, 7, 64, 585)])
def test_reuleaux_arcs_equal_the_vertex_loop_byte_for_byte(m, n):
    ref = loop_reuleaux(regular(m).xy.tolist(), [n // m] * m)
    assert reuleaux_subdivision(m, n).xy.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("n", [2 ** s for s in range(2, 17)])
def test_tamvakis_arcs_equal_the_vertex_loop_byte_for_byte(n):
    k, r = divmod(n, 3)
    subarcs = (k, k + 1, k) if r == 1 else (k + 1, k, k + 1)
    corners = [(0.0, 0.0), (0.5, math.sqrt(3.0) / 2.0), (-0.5, math.sqrt(3.0) / 2.0)]
    assert tamvakis(n).xy.tobytes() == np.array(loop_reuleaux(corners, subarcs)).tobytes()
