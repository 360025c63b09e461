"""The caliper sweep against the all-pairs oracle, the diameter graph, and convexity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallpoly import (
    NonConvexError,
    SmallPolygon,
    b_family,
    closed_form,
    diameter,
    geometry,
    is_convex,
    measure,
    q_family,
    regular,
    width,
)
from smallpoly.cli import _graph_structure, build_polygon
from smallpoly.constructions import diameter_cycle
from smallpoly.geometry import _hull, _sweep

from _reference import cycle_walk, diameter_graph, pairwise_diameter, pairwise_width

POWERS = tuple(2 ** s for s in range(2, 13))
FAMILY_CASES = (
    [("regular", n, None) for n in (3, 5, 7, 9) + POWERS]
    + [(family, n, None) for family in ("regular-plus", "tamvakis", "q") for n in POWERS]
    + [("b", n, None) for n in POWERS if n >= 8]
    + [("reuleaux", m * 2 ** k, m) for m in (3, 5, 7) for k in (0, 3, 6, 9)]
)


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_sweep_matches_pairwise_oracle_on_families(family, n, m):
    poly = build_polygon(family, n, m)
    assert diameter(poly) == pairwise_diameter(poly)
    assert width(poly) == pairwise_width(poly)


finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def convex_polygons(draw):
    """Points on a rotated, shifted ellipse at angles at least 1e-3 apart."""
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                  min_size=3, max_size=60, unique=True)))
    gaps = np.diff(angles + [angles[0] + 2 * math.pi])
    assume(np.min(gaps) >= 1e-3)
    a, b = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    psi, dx, dy = draw(st.floats(0.0, 2 * math.pi)), draw(finite), draw(finite)
    x, y = a * np.cos(angles), b * np.sin(angles)
    return SmallPolygon.from_coords(np.column_stack((
        x * math.cos(psi) - y * math.sin(psi) + dx,
        x * math.sin(psi) + y * math.cos(psi) + dy)))


@settings(max_examples=300, deadline=None)
@given(convex_polygons())
def test_sweep_matches_pairwise_oracle_on_convex_polygons(poly):
    assert is_convex(poly)
    assert diameter(poly) == pairwise_diameter(poly)
    assert width(poly) == pairwise_width(poly)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=40))
def test_sweep_matches_pairwise_diameter_on_point_sets(points):
    poly = SmallPolygon.from_coords(points)
    if is_convex(poly):
        assert diameter(poly) == pairwise_diameter(poly)
        assert width(poly) == pairwise_width(poly)
    else:
        assert diameter(poly)[0] == pairwise_diameter(poly)[0]


def test_b_family_builds_and_measures_at_2_to_15():
    n = 2 ** 15
    report = measure(b_family(n))
    assert report.convex
    assert len(report.diameter_edges) == n
    assert abs(report.width - closed_form("b", n)[1]) <= 1e-12


def test_zero_length_edge_is_not_convex_and_raises_no_warning():
    poly = SmallPolygon.from_coords([(0, 0), (0, 0), (1, 0), (0.5, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_convex(poly)


def test_star_polygon_is_not_convex():
    # a pentagram turns left at every vertex but winds around twice
    star = SmallPolygon.from_coords(
        [(math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)) for k in range(5)])
    assert not is_convex(star)
    with pytest.raises(NonConvexError):
        width(star)


def _degrees(poly):
    cycle, pendants, _ = diameter_cycle(poly)
    ends = np.concatenate((cycle[:-1], cycle[1:], pendants.ravel()))
    return sorted(np.bincount(ends, minlength=poly.n).tolist())


def test_diameter_graph_degrees():
    # q: an (n-1)-cycle plus one pendant; b: an (n/2+1)-cycle plus n/2-1 pendants
    assert _degrees(q_family(8)) == [1] + [2] * 6 + [3]
    assert _degrees(b_family(16)) == [1] * 7 + [2] * 2 + [3] * 7


@pytest.mark.parametrize("family,n", [("b", 2 ** s) for s in range(3, 15)]
                         + [("q", 2 ** s) for s in range(2, 15)])
def test_stride_order_equals_the_cycle_walk(family, n):
    poly = build_polygon(family, n)
    cycle, pendants, apex = diameter_cycle(poly)
    adj = diameter_graph(poly)
    assert (cycle.tolist(), apex) == cycle_walk(poly, adj)
    assert {tuple(e) for e in pendants.tolist()} == {
        (i, j) for i, nbrs in adj.items() for j in nbrs
        if i < j and 1 in (len(nbrs), len(adj[j]))}


# two unit edges from the origin and a short third side: two pendants, no cycle
ORIGIN_STAR = SmallPolygon.from_coords([(0, 0), (0.3, math.sqrt(0.91)), (-0.3, math.sqrt(0.91))])


@pytest.mark.parametrize("poly", [regular(7), regular(8), ORIGIN_STAR],
                         ids=["7-cycle", "4-diameters", "origin-star"])
def test_graph_structure_rejects_graphs_without_an_origin_pendant(poly):
    with pytest.raises(ValueError):
        _graph_structure(poly)


def _chain_sweep(poly):
    """The diameter through Andrew's monotone chain, as for non-convex input."""
    return _sweep(poly.xy, _hull(poly.xy))


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_convex_fast_path_matches_monotone_chain_on_families(family, n, m, monkeypatch):
    poly = build_polygon(family, n, m)
    fresh = SmallPolygon.from_coords(poly.xy)

    def no_hull(coords):
        raise AssertionError("the hull loop ran on a strictly convex polygon")

    monkeypatch.setattr(geometry, "_hull", no_hull)
    fast = diameter(fresh)
    monkeypatch.undo()
    assert fast == _chain_sweep(poly)


@settings(max_examples=300, deadline=None)
@given(convex_polygons())
def test_convex_fast_path_matches_monotone_chain_on_convex_polygons(poly):
    assert is_convex(poly)
    assert diameter(poly) == _chain_sweep(poly)
