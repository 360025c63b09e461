"""The caliper sweep against the all-pairs oracle, the diameter graph, and convexity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from smallpoly.cli import build_polygon
from smallpoly.constructions import diameter_cycle
from smallpoly.geometry import _antipodes, _hull, _support_width, _sweep

from _reference import (
    cycle_walk,
    diameter_graph,
    pairwise_diameter,
    pairwise_width,
    unwrap_antipodes,
)

POWERS = tuple(2 ** s for s in range(2, 13))
FAMILY_CASES = (
    [("regular", n, None) for n in (3, 5, 7, 9) + POWERS]
    + [(family, n, None) for family in ("regular-plus", "tamvakis", "q") for n in POWERS]
    + [("b", n, None) for n in POWERS if n >= 8]
    + [("reuleaux", m * 2 ** k, m) for m in (3, 5, 7) for k in (0, 3, 6, 9)]
)


def assert_same_graph(got, oracle):
    """``diameter``'s (d, edge array) is an oracle's (d, index pairs), exactly."""
    (d, edges), (want_d, want_edges) = got, oracle
    assert d == want_d
    assert edges.tolist() == [list(e) for e in want_edges]


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_sweep_matches_pairwise_oracle_on_families(family, n, m):
    poly = build_polygon(family, n, m)
    assert_same_graph(diameter(poly), pairwise_diameter(poly))
    assert width(poly) == pairwise_width(poly)


# even regular n: opposite edges are parallel, so each edge's antipode is a tie
EVEN_REGULAR = (6, 8, 10, 12, 16, 30, 62, 64, 100, 126, 1000, 1022, 1024, 2046, 4094, 4096)


@pytest.mark.parametrize("n", EVEN_REGULAR)
def test_even_regular_antipode_ties_keep_width_and_diameter(n):
    poly = regular(n)
    far, unwrapped = poly._far, unwrap_antipodes(poly.xy)
    # a tie names either end of the opposite edge, one apart
    assert set(((far - unwrapped) % n).tolist()) <= {0, 1, n - 1}
    # the +-1 slack of the width and the sweep reads both ends either way
    assert _support_width(poly.xy, far) == _support_width(poly.xy, unwrapped)
    everything = np.arange(n)
    d, edges = _sweep(poly.xy, everything, far)
    d_unwrapped, edges_unwrapped = _sweep(poly.xy, everything, unwrapped)
    assert d == d_unwrapped and np.array_equal(edges, edges_unwrapped)
    assert len(edges) == n // 2
    assert_same_graph(diameter(poly), pairwise_diameter(poly))
    assert width(poly) == pairwise_width(poly)


def test_even_regular_antipode_ties_are_broken_differently_than_unwrapped():
    # the case above is not vacuous: at these n the two searches disagree on some edges
    for n in (6, 16, 1024, 4094):
        assert np.any(regular(n)._far != unwrap_antipodes(regular(n).xy))


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
    assert_same_graph(diameter(poly), pairwise_diameter(poly))
    assert width(poly) == pairwise_width(poly)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=40))
# scaling into [-1, 1] flushes 5e-324 to 0: the hull must sort what it tests
@example([(0.0, 0.0), (0.0, 1.0), (5e-324, 0.0)])
def test_sweep_matches_pairwise_diameter_on_point_sets(points):
    poly = SmallPolygon.from_coords(points)
    if is_convex(poly):
        assert_same_graph(diameter(poly), pairwise_diameter(poly))
        assert width(poly) == pairwise_width(poly)
    else:
        assert diameter(poly)[0] == pairwise_diameter(poly)[0]


def test_b_family_builds_and_measures_at_2_to_15():
    n = 2 ** 15
    poly = b_family(n)
    report = measure(poly)
    assert is_convex(poly)
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
def test_diameter_cycle_rejects_graphs_without_an_origin_pendant(poly):
    for _ in range(2):  # nothing is cached on failure: every call raises
        with pytest.raises(ValueError):
            diameter_cycle(poly)


def _chain_sweep(poly):
    """The diameter through Andrew's monotone chain, as for non-convex input."""
    hull = _hull(poly.xy)
    d, edges = _sweep(poly.xy, hull, _antipodes(poly.xy[hull]))
    return d, edges.tolist()


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_convex_fast_path_matches_monotone_chain_on_families(family, n, m, monkeypatch):
    poly = build_polygon(family, n, m)
    fresh = SmallPolygon.from_coords(poly.xy)

    def no_hull(coords):
        raise AssertionError("the hull loop ran on a strictly convex polygon")

    monkeypatch.setattr(geometry, "_hull", no_hull)
    fast = diameter(fresh)
    monkeypatch.undo()
    assert_same_graph(fast, _chain_sweep(poly))


@settings(max_examples=300, deadline=None)
@given(convex_polygons())
def test_convex_fast_path_matches_monotone_chain_on_convex_polygons(poly):
    assert is_convex(poly)
    assert_same_graph(diameter(poly), _chain_sweep(poly))


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_cached_edge_array_is_read_only(family, n, m):
    edges = diameter(build_polygon(family, n, m))[1]
    assert edges.dtype == np.intp and edges.ndim == 2 and edges.shape[1] == 2
    assert not edges.flags.writeable
    with pytest.raises(ValueError):
        edges[0, 0] = 0


@pytest.mark.parametrize("family,n", [("b", 8), ("b", 64), ("q", 4), ("q", 64)])
def test_cached_cycle_arrays_are_read_only(family, n):
    poly = build_polygon(family, n)
    cycle, pendants, _ = diameter_cycle(poly)
    assert diameter_cycle(poly)[0] is cycle and diameter_cycle(poly)[1] is pendants
    for cached in (cycle, pendants):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0


@pytest.mark.parametrize("family,n,m", FAMILY_CASES)
def test_diameter_returns_the_same_cached_array_on_every_call(family, n, m):
    poly = build_polygon(family, n, m)
    d, edges = diameter(poly)
    assert diameter(poly)[0] == d and diameter(poly)[1] is edges
    assert edges.dtype == np.intp and not edges.flags.writeable
