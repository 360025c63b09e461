"""Coordinate-level metric tests: known shapes, invariants, JSON round-trips."""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallpoly import (
    Family,
    InvalidPolygonError,
    MetricsReport,
    NonConvexError,
    SmallPolygon,
    area,
    b_family,
    diameter,
    is_convex,
    measure,
    perimeter,
    polygon_from_json,
    polygon_to_json,
    q_family,
    regular,
    small_polygon_violations,
    to_unit_perimeter,
    width,
)
from smallpoly.cli import build_polygon

from _reference import row_polygon_to_json

SQRT2 = math.sqrt(2.0)

# unit-diameter square, CCW, first vertex at the origin
SQUARE = SmallPolygon.from_coords([(0, 0), (0.5, 0.5), (0, 1), (-0.5, 0.5)])
# unit-side square (diameter sqrt(2))
UNIT_SQUARE = SmallPolygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
# non-convex quadrilateral with a reflex vertex
CHEVRON = SmallPolygon.from_coords([(0, 0), (1, 0), (0.5, 0.2), (0.5, 1)])


def test_point_rejects_non_finite():
    with pytest.raises(InvalidPolygonError):
        SmallPolygon.from_coords([(float("nan"), 0.0), (1, 0), (0, 1)])
    with pytest.raises(InvalidPolygonError):
        SmallPolygon.from_coords([(0, 0), (0.0, float("inf")), (0, 1)])


def test_polygon_needs_three_vertices():
    with pytest.raises(InvalidPolygonError):
        SmallPolygon.from_coords([(0, 0), (1, 0)])


def test_perimeter_known_shapes():
    assert perimeter(SQUARE) == pytest.approx(2 * SQRT2, abs=1e-12)
    assert perimeter(regular(4)) == pytest.approx(2.8284271247, abs=5e-11)
    assert perimeter(b_family(8)) == pytest.approx(3.1210621230, abs=5e-11)


def test_width_known_shapes():
    assert width(regular(4)) == pytest.approx(0.7071067812, abs=5e-11)
    assert width(b_family(8)) == pytest.approx(0.9776087734, abs=5e-11)
    # unit-side equilateral triangle: width is the altitude
    assert width(regular(3)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_width_rejects_non_convex():
    with pytest.raises(NonConvexError):
        width(CHEVRON)
    with pytest.raises(NonConvexError):
        measure(CHEVRON)


def test_measure_still_raises_on_overflow_after_an_unguarded_width_call():
    # half-side 8e153: an edge's length times its antipode's offset, (1.6e154)^2,
    # and the area overflow binary64, while the perimeter and the diameter do not
    h = 8e153
    square = SmallPolygon.from_coords([(-h, -h), (h, -h), (h, h), (-h, h)])
    assert math.isfinite(perimeter(square)) and math.isfinite(diameter(square)[0])
    with np.errstate(over="ignore"), contextlib.suppress(FloatingPointError):
        width(square)
    with pytest.raises(InvalidPolygonError):
        measure(square)


def test_diameter_simple_max_pair():
    tri = SmallPolygon.from_coords([(0, 0), (0.9, 0), (0.2, 0.3)])
    d, edges = diameter(tri)
    assert d == pytest.approx(0.9, abs=1e-15)
    assert edges.tolist() == [[0, 1]]


def test_diameter_graph_of_families():
    d, edges = diameter(b_family(8))
    assert d == pytest.approx(1.0, abs=1e-9)
    assert len(edges) == 8  # 5-cycle plus 3 pendant edges
    d, edges = diameter(q_family(8))
    assert d == pytest.approx(1.0, abs=1e-9)
    assert len(edges) == 8  # 7-cycle plus 1 pendant edge


def test_area_known_shapes():
    assert area(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-15)
    assert area(b_family(8)) == pytest.approx(0.7071067812, abs=5e-11)
    assert area(regular(8)) == pytest.approx(area(b_family(8)), abs=1e-12)


def test_is_convex():
    assert is_convex(SQUARE)
    assert is_convex(b_family(16))
    assert not is_convex(CHEVRON)
    # collinear corner fails the strict test
    flat = SmallPolygon.from_coords([(0, 0), (0.5, 0), (1, 0), (0.5, 1)])
    assert not is_convex(flat)


def test_to_unit_perimeter_square():
    scaled = to_unit_perimeter(UNIT_SQUARE)
    assert perimeter(scaled) == pytest.approx(1.0, abs=1e-12)
    assert scaled.xy[1, 0] == pytest.approx(0.25, abs=1e-15)


def test_to_unit_perimeter_b8_width():
    scaled = to_unit_perimeter(b_family(8))
    assert width(scaled) == pytest.approx(0.3132295145, abs=5e-11)
    scaled_reg = to_unit_perimeter(regular(8))
    assert width(scaled_reg) == pytest.approx(0.3017766953, abs=5e-11)


def test_to_unit_perimeter_scales_width_and_diameter_equally():
    for poly in (b_family(16), q_family(16), regular(7)):
        scaled = to_unit_perimeter(poly)
        assert is_convex(scaled)
        ratio_w = width(scaled) / width(poly)
        ratio_d = diameter(scaled)[0] / diameter(poly)[0]
        assert ratio_w == pytest.approx(ratio_d, rel=1e-12)


def _random_convex_polygon(rng, n):
    # strictly convex by construction: points on a circle at distinct angles
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
    if np.min(np.diff(angles)) < 1e-3:  # degenerate draw; nudge apart
        angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        angles += rng.uniform(0, 2 * math.pi / n / 2, size=n)
    r = rng.uniform(0.2, 0.5)
    return SmallPolygon.from_coords(
        np.column_stack((r * np.cos(angles), r * np.sin(angles))))


@pytest.mark.parametrize("seed", range(8))
def test_convex_metric_invariants(seed):
    rng = np.random.default_rng(seed)
    poly = _random_convex_polygon(rng, int(rng.integers(4, 40)))
    d, _ = diameter(poly)
    assert width(poly) <= d + 1e-12
    assert perimeter(poly) > 2 * d


def test_family_polygons_satisfy_invariants():
    for poly in (regular(5), regular(8), b_family(32), q_family(16)):
        assert small_polygon_violations(poly) == []


def test_violations_reported():
    off_origin = SmallPolygon.from_coords([(0.1, 0), (0.6, 0.5), (0.1, 1)])
    assert any("origin" in v for v in small_polygon_violations(off_origin))
    big = SmallPolygon.from_coords([(0, 0), (2, 0), (1, 1)])
    assert any("diameter" in v for v in small_polygon_violations(big))


def test_json_round_trip_is_exact():
    poly = b_family(16)
    text = polygon_to_json(poly)
    back = polygon_from_json(text)
    assert back.family == Family.B_FAMILY
    assert back.params == poly.params
    assert np.array_equal(back.coords(), poly.coords())


def test_json_rejects_malformed_documents():
    with pytest.raises(InvalidPolygonError):
        polygon_from_json("not json at all {")
    with pytest.raises(InvalidPolygonError):
        polygon_from_json('{"vertices": [[0, 0], [1, 0]]}')
    with pytest.raises(InvalidPolygonError):
        polygon_from_json('{"n": 5, "vertices": [[0,0],[1,0],[0,1]]}')
    with pytest.raises(InvalidPolygonError):
        polygon_from_json('{"family": "nope", "vertices": [[0,0],[1,0],[0,1]]}')


def test_measure_report_fields():
    rep = measure(SQUARE)
    assert isinstance(rep, MetricsReport)
    assert rep.diameter == pytest.approx(1.0, abs=1e-15)
    assert rep.width <= rep.diameter
    assert rep.perimeter > 2 * rep.diameter
    assert rep.area > 0
    assert rep.diameter_edges is diameter(SQUARE)[1]
    assert rep.diameter_edges.tolist() == [[0, 2], [1, 3]]
    doc = rep.to_json_dict()
    assert list(doc) == ["perimeter", "width", "diameter", "area", "diameter_edges"]
    assert doc["diameter_edges"] == [[0, 2], [1, 3]]
    with pytest.raises(NonConvexError):  # only convex polygons get a report
        measure(CHEVRON)


@pytest.mark.parametrize("coords", [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    [(0, 0), (1, 0), (0,)],
    [(0, 0), (1, 0), [0.5, "x"]],
    [(0, 0), (1, 0), (0.5, float("nan"))],
], ids=["rows-of-three", "short-row", "non-numeric", "non-finite"])
def test_from_coords_rejects_malformed_coordinates(coords):
    with pytest.raises(InvalidPolygonError):
        SmallPolygon.from_coords(coords)


def test_coords_returns_a_writable_copy():
    poly = b_family(8)
    copy = poly.coords()
    copy[0] = (5.0, 5.0)
    assert poly.xy[0].tolist() == [0.0, 0.0]
    assert poly == b_family(8)


def test_stored_coordinates_are_read_only_and_owned():
    source = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    poly = SmallPolygon.from_coords(source)
    with pytest.raises(ValueError):
        poly.xy[0, 0] = 1.0
    source[0, 0] = 9.0  # the caller's array stays writable and is not shared
    assert poly.xy.dtype == np.float64 and poly.xy[0, 0] == 0.0


def test_vertices_are_an_n_by_2_float_array():
    poly = q_family(8)
    assert isinstance(poly.xy, np.ndarray)
    assert poly.xy.shape == (8, 2) and poly.xy.dtype == np.float64
    assert poly.coords().tolist() == poly.xy.tolist()


@pytest.mark.parametrize("vertices", [
    "[[0, 0], [1, 0], [true, 1]]",
    '[[0, 0], [1, 0], ["0.5", 1]]',
    "[[0, 0], [1, 0], [null, 1]]",
    "[[0, 0], [1, 0], [NaN, 1]]",
    "[[0, 0], [1, 0], [Infinity, 1]]",
    "[[0, 0], [1, 0], [-Infinity, 1]]",
    "[[0, 0], [1, 0], [1e400, 1]]",
    "[[0, 0], [1, 0], [1" + "0" * 400 + ", 1]]",
    "[[0, 0], [1, 0], 7]",
    "[[0, 0], [1, 0], {}]",
    "[[0, 0], [1, 0], [[0], [1]]]",
    "[[0, 0], [1, 0], [0, 1, 2]]",
    "[[0, 0], [1, 0], [0]]",
    '"abc"',
], ids=["bool", "string", "null", "nan", "inf", "-inf", "float-overflow",
        "int-overflow", "number-item", "object-item", "nested-item",
        "long-row", "short-row", "string-vertices"])
def test_json_rejects_every_non_coordinate(vertices):
    with pytest.raises(InvalidPolygonError):
        polygon_from_json('{"vertices": ' + vertices + "}")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(json_values.map(json.dumps) | st.sampled_from(["1e400", "-1e400", '[0, {"x": 1e999}]']))
@example("NaN")
@example("1e400")
def test_every_polygon_read_from_json_writes_back_as_json_it_reads(param):
    text = '{"params": {"p": %s}, "vertices": [[0, 0], [1, 0], [0, 1]]}' % param
    try:
        poly = polygon_from_json(text)
    except InvalidPolygonError as exc:
        assert "non-finite" in str(exc)
        return
    assert polygon_from_json(polygon_to_json(poly)) == poly


def test_json_accepts_integer_coordinates():
    poly = polygon_from_json('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    assert poly.xy.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("family,n,m", [
    ("b", 16, None), ("b", 4096, None), ("q", 4, None), ("q", 1024, None),
    ("regular", 7, None), ("regular-plus", 64, None), ("tamvakis", 128, None),
    ("reuleaux", 40, 5)])
def test_json_write_matches_the_per_row_formatter(family, n, m):
    poly = build_polygon(family, n, m)
    assert polygon_to_json(poly) == row_polygon_to_json(poly)


json_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(json_float, json_float), min_size=3, max_size=12))
@example([(-0.0, 5e-324), (1e308, -1e308), (-5e-324, 0.0)])
def test_json_write_matches_the_per_row_formatter_on_any_finite_floats(vertices):
    poly = SmallPolygon.from_coords(vertices, params={"x": vertices[0][0]})
    assert polygon_to_json(poly) == row_polygon_to_json(poly)
