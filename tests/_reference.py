"""Frozen published reference values for the classical small-polygon families.

Perimeters/widths are rounded at the last printed digit of their published
sources, so computed values must match within 5e-11 (5e-13 for the
12-decimal entries).  Optimal angles are published to six significant
digits; solver output must match within 1e-5.

``pairwise_diameter`` and ``pairwise_width`` are O(n^2) all-pairs sweeps, the
oracle for the caliper sweep in ``smallpoly.geometry``; ``unwrap_antipodes``
searches the ``np.unwrap``-ed edge angles, the former antipode search;
``pairwise_mirror_distance`` is the all-pairs oracle for the sorted pairing
in ``smallpoly.cli._mirror_distance``.

``loop_b_closure_derivatives``, ``loop_q_closure_gradient`` and
``loop_q_closure_hessian`` accumulate the closure-constraint derivatives of
the optimizer's problems one term (one dense outer product) at a time, the
oracle for the suffix sums and the phase-space Hessian diagonals in
``smallpoly.optimizer``; ``dense_phase_hessian`` expands such a diagonal
into the dense matrix in the deviations.  ``atan2_boundary_order`` is the per-vertex sort
oracle for ``smallpoly.geometry._boundary_order``.

``loop_b_vertices`` and ``loop_q_vertices`` walk the two diameter-graph
families one vertex at a time into a dict, and ``loop_extract_angles_b`` /
``loop_extract_angles_q`` measure one angle at a time with ``math.atan2``:
the oracles for the phase walk and the one-pass extraction in
``smallpoly.constructions``.  ``loop_regular`` and ``loop_reuleaux`` are the
per-vertex oracles for the regular polygon and the subdivided Reuleaux arcs.

``diameter_graph`` (adjacency lists) and ``cycle_walk`` (one vertex at a
time along them) are the oracle for the stride order of
``smallpoly.geometry.diameter_cycle``.

``row_polygon_to_json`` formats the vertices one row at a time and
``loop_render_svg`` one line per edge with a per-point pixel map: the
oracles, byte for byte, for the single-pass ``polygon_to_json`` and the
array formatting of ``smallpoly.cli.render_svg``.

``block_kkt_solve`` is the dense Newton-KKT solve in the deviations:
closure derivatives from a fresh triangle of suffix sums, dense Hessians
(``triangle_problem``), a zero angle-sum Hessian added into the Lagrangian
Hessian, the KKT matrix assembled by ``np.block`` on every iteration, and
``eigvalsh_report_parts``, which certifies a maximum by the largest
``eigvalsh`` eigenvalue of the reduced Hessian.  It keeps the
perturbed-start fallback that followed a failed first start.  From one
start its reports are bitwise those of the former dense solver, whose
second-order test ``cholesky_report_parts`` keeps: a Cholesky factor of
-Z^T W Z, with Z from an SVD.  They are the oracle for the verdicts and
angles of ``smallpoly.optimizer.solve``, for its inertia certificate, and
for the outcome of the one-start solve.
"""

import dataclasses
import math

import numpy as np

from smallpoly.bounds import perimeter_gap
from smallpoly.cli import SVG_SCALE
from smallpoly.constructions import b_angles, q_angles
from smallpoly.geometry import DIAMETER_TOL, _json17, diameter
from smallpoly.optimizer import (
    MAX_NEWTON,
    STEP_TOL,
    TOL_EQ,
    TOL_KKT,
    SolveReport,
    _evaluate,
)

_CHUNK = 256  # row block for pairwise-distance / support-distance sweeps
PERTURBATIONS = (1e-3, 1e-2)  # block_kkt_solve's fallback-start offsets, per coordinate

# n: (L_regular, L_regular_plus, L_tamvakis, L_mossinghoff, L_b, ub_L, ratio)
PERIMETER_TABLE = {
    8: (3.0614674589, 3.1181091119, 3.1190543124, 3.1209757852,
        3.1210621230, 3.1214451523, 0.1839),
    16: (3.1214451523, 3.1361407965, 3.1364381783, 3.1365320240,
         3.1365427675, 3.1365484905, 0.6524),
    32: (3.1365484905, 3.1402809876, 3.1403234211, 3.1403306141,
         3.1403310687, 3.1403311570, 0.8374),
    64: (3.1403311570, 3.1412710339, 3.1412767980, 3.1412772335,
         3.1412772496, 3.1412772509, 0.9211),
    128: (3.1412772509, 3.1415130275, 3.1415137720, 3.1415138006,
          3.141513801123, 3.141513801144, 0.9606),
}

# n: (W_regular, W_regular_plus, W_b, ub_W, ratio)
WIDTH_TABLE = {
    8: (0.9238795325, 0.9749279122, 0.9776087734, 0.9807852804, 0.4577),
    16: (0.9807852804, 0.9945218954, 0.9949956687, 0.9951847267, 0.7148),
    32: (0.9951847267, 0.9987165072, 0.9987837929, 0.9987954562, 0.8523),
    64: (0.9987954562, 0.9996891820, 0.9996980921, 0.9996988187, 0.9246),
    128: (0.9996988187, 0.9999235114, 0.9999246565, 0.9999247018, 0.9619),
}

# n: (w_regular_hat, ub_w_{n-1}, w_b_hat, ub_w, ratio)
UNIT_PERIMETER_WIDTH_TABLE = {
    8: (0.3017766953, 0.3129490191, 0.3132295145, 0.3142087183, 0.2227),
    16: (0.3142087183, 0.3171454818, 0.3172268776, 0.3172865746, 0.5769),
    32: (0.3172865746, 0.3180374156, 0.3180504765, 0.3180541816, 0.7790),
    64: (0.3180541816, 0.3182439224, 0.3182457366, 0.3182459678, 0.8870),
    128: (0.3182459678, 0.3182936544, 0.3182938926, 0.3182939071, 0.9428),
}

# Globally optimal perimeters of the two parametrized families.
OPTIMAL_PERIMETER_B = {
    8: 3.1211471341,
    16: 3.1365439563,
    32: 3.1403310858,
    64: 3.1412772498,
    128: 3.141513801127,
}
OPTIMAL_PERIMETER_Q = {
    8: 3.1195976652,
    16: 3.1364309268,
    32: 3.1403237758,
    64: 3.1412767891,
    128: 3.1415137723,
}

# Optimal angle sequences (six significant digits).
OPTIMAL_ANGLES_B = {
    8: (0.435281, 0.368535, 0.398447),
    16: (0.201226, 0.191978, 0.199873, 0.194672, 0.196525),
    32: (0.0987786, 0.0975863, 0.0987333, 0.0976772, 0.0986041, 0.0978448,
         0.0984101, 0.0980628, 0.0981803),
    64: (0.0491627, 0.0490125, 0.0491613, 0.0490154, 0.049157, 0.0490211,
         0.0491501, 0.0490293, 0.0491407, 0.0490398, 0.0491293, 0.049052,
         0.0491164, 0.0490657, 0.0491022, 0.0490802, 0.0490876),
}

# Two documented errata in the published odd-cycle angle data:
#
# * n=32 prints its last angle as 0.988561 -- a dropped leading zero.  The
#   angle-sum constraint (sum = pi/2) pins the value at 0.0988561 to six
#   digits, consistent with every neighboring angle.
# * n=16 prints its first angle as 0.172189, but that row is feasible only
#   to ~7e-7 and evaluates to an objective 1.3e-6 away from the published
#   optimal perimeter 3.1364309268.  Solving the stationarity system at
#   50-digit precision (mpmath.findroot on the KKT equations) gives
#   0.17219966482..., which reproduces the published objective to all ten
#   printed digits; the remaining seven angles agree with the published row
#   to within six-digit rounding.  The corrected first angle is used here.
OPTIMAL_ANGLES_Q = {
    8: (0.301375, 0.480058, 0.355776, 0.433588),
    16: (0.1721997, 0.219956, 0.175546, 0.216429, 0.182713, 0.210185,
         0.192054, 0.201725),
    32: (0.0920622, 0.104242, 0.0922572, 0.103986, 0.0927078, 0.103531,
         0.0933908, 0.102886, 0.0942718, 0.10207, 0.0953079, 0.101105,
         0.0964509, 0.100022, 0.0976502, 0.0988561),
    64: (0.0475548, 0.0506167, 0.0475665, 0.0505995, 0.0475937, 0.0505686,
         0.0476362, 0.0505242, 0.0476935, 0.0504667, 0.0477649, 0.0503966,
         0.0478497, 0.0503143, 0.0479468, 0.0502207, 0.0480553, 0.0501163,
         0.0481739, 0.0500023, 0.0483013, 0.0498794, 0.0484363, 0.0497487,
         0.0485773, 0.0496115, 0.048723, 0.0494689, 0.0488718, 0.0493222,
         0.0490222, 0.0491729),
}

# Figure-caption metrics (perimeter, width) rounded to four decimals.
FIGURE_METRICS = {
    ("regular", 4): (2.8284, 0.7071),
    ("regular", 6): (3.0, 0.8660),
    ("regular", 8): (3.0615, 0.9239),
    ("regular-plus", 4): (3.0353, 0.8660),
    ("regular-plus", 6): (3.0979, 0.9511),
    ("regular-plus", 8): (3.1181, 0.9749),
    ("reuleaux", 6): (3.1058, 0.9659),
    ("tamvakis", 8): (3.1191, 0.9659),
    ("tamvakis", 16): (3.1364, 0.9945),
    ("tamvakis", 32): (3.1403, 0.9986),
    ("b", 8): (3.1211, 0.9776),
    ("b", 16): (3.1365, 0.9950),
    ("b", 32): (3.1403, 0.9988),
    ("q", 4): (3.0353, 0.8660),
    ("q", 8): (3.1193, 0.9730),
    ("q", 16): (3.1364, 0.9942),
    ("q", 32): (3.1403, 0.9987),
}


def pairwise_width(p):
    """Minimum over edges of the farthest vertex's distance from the edge's line."""
    coords = p.coords()
    e = np.roll(coords, -1, axis=0) - coords
    lengths = np.hypot(e[:, 0], e[:, 1])
    w = np.inf
    for start in range(0, len(coords), _CHUNK):
        sl = slice(start, min(start + _CHUNK, len(coords)))
        # perpendicular distance of every vertex from each edge's line
        dx = coords[None, :, 0] - coords[sl, None, 0]
        dy = coords[None, :, 1] - coords[sl, None, 1]
        cross = e[sl, None, 0] * dy - e[sl, None, 1] * dx
        support = np.max(cross, axis=1) / lengths[sl]
        w = min(w, float(np.min(support)))
    return w


def unwrap_antipodes(coords):
    """Each edge's antipodal vertex, by binary search on the unwrapped edge angles."""
    e = np.roll(coords, -1, axis=0) - coords
    theta = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    ext = np.concatenate((theta, theta + 2 * math.pi))
    return np.searchsorted(ext, theta + math.pi) % len(coords)


def pairwise_diameter(p):
    """Largest vertex distance and every pair within ``DIAMETER_TOL`` of it."""
    coords = p.coords()
    n = len(coords)
    dmax = 0.0
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        dx = coords[None, :, 0] - coords[sl, None, 0]
        dy = coords[None, :, 1] - coords[sl, None, 1]
        dmax = max(dmax, float(np.max(np.hypot(dx, dy))))
    edges = []
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        dx = coords[None, :, 0] - coords[sl, None, 0]
        dy = coords[None, :, 1] - coords[sl, None, 1]
        close = np.argwhere(np.hypot(dx, dy) >= dmax - DIAMETER_TOL)
        for i, j in close:
            a, b = start + int(i), int(j)
            if a < b:
                edges.append((a, b))
    return dmax, tuple(sorted(edges))


def pairwise_mirror_distance(coords):
    """Max distance from any vertex to the nearest mirrored (x -> -x) vertex."""
    mirrored = coords * np.array([-1.0, 1.0])
    dist = np.hypot(coords[:, None, 0] - mirrored[None, :, 0],
                    coords[:, None, 1] - mirrored[None, :, 1])
    return float(np.max(np.min(dist, axis=1)))


def loop_b_closure_derivatives(n, d):
    """Gradient and Hessian of the b closure constraint, one term at a time."""
    m = n // 4
    dim = m + 1
    base = math.pi / n
    a0 = base + d[0]
    dev = d[0] + 2.0 * np.concatenate(([0.0], np.cumsum(d[1:m])))
    phi = (2.0 * np.arange(1, m + 1) - 1.0) * base + dev
    signs = np.array([-((-1.0) ** k) for k in range(2, m + 1)])
    grad = np.zeros(dim)
    grad[0] = math.cos(a0)
    cos_phi = np.cos(phi)
    for k in range(2, m + 1):
        s = signs[k - 2] * cos_phi[k - 1]
        grad[0] += s
        grad[1:k] += 2.0 * s
    H = np.zeros((dim, dim))
    H[0, 0] = -math.sin(a0)
    sin_phi = np.sin(phi)
    for k in range(2, m + 1):
        s = -((-1.0) ** k) * sin_phi[k - 1]
        v = np.zeros(dim)
        v[0] = 1.0
        v[1:k] = 2.0
        H -= s * np.outer(v, v)
    return grad, H


def loop_q_closure_gradient(n, d):
    """Gradient of the q closure constraint, one term at a time."""
    dim = n // 2
    A = np.arange(1, dim + 1) * (math.pi / n) + np.cumsum(d)
    cos_A = np.cos(A)
    grad = np.zeros(dim)
    for k in range(dim - 1):
        grad[: k + 1] += (-1.0) ** k * cos_A[k]
    return grad


def loop_q_closure_hessian(n, d):
    """Hessian of the q closure constraint, one term at a time."""
    dim = n // 2
    A = np.arange(1, dim + 1) * (math.pi / n) + np.cumsum(d)
    signs = np.array([(-1.0) ** k for k in range(dim - 1)])
    H = np.zeros((dim, dim))
    for k in range(dim - 1):
        v = np.zeros(dim)
        v[: k + 1] = 1.0
        H -= signs[k] * math.sin(A[k]) * np.outer(v, v)
    return H


def atan2_boundary_order(verts):
    """Sort vertices by angle about the centroid, starting at the origin vertex."""
    cx = math.fsum(x for x, _ in verts) / len(verts)
    cy = math.fsum(y for _, y in verts) / len(verts)
    order = sorted(range(len(verts)),
                   key=lambda i: math.atan2(verts[i][1] - cy, verts[i][0] - cx))
    first = min(order, key=lambda i: math.hypot(*verts[i]))
    k = order.index(first)
    return [verts[i] for i in order[k:] + order[:k]]


def loop_b_vertices(n, alphas):
    """Cycle-plus-pendants vertices: the right half-cycle walked step by step."""
    m = n // 4
    v = {0: (0.0, 0.0), n // 2 + 1: (0.0, 1.0)}
    run = 0.0  # 2 * sum of alphas[1..k-1]
    for k in range(1, m + 1):
        phi = alphas[0] + run
        sign = 1.0 if k % 2 == 1 else -1.0  # = -(-1)^k
        xk = v[k - 1][0] + sign * math.sin(phi)
        yk = v[k - 1][1] + sign * math.cos(phi)
        v[k] = (xk, yk)
        v[n // 2 - k + 1] = (-xk, yk)
        if k <= m - 1:
            psi = phi + alphas[k]
            xp = xk - sign * math.sin(psi)
            yp = yk - sign * math.cos(psi)
            v[k + n // 2 + 1] = (xp, yp)
            v[n - k] = (-xp, yp)
            run += 2 * alphas[k]
    return [v[i] for i in range(n)]


def loop_q_vertices(n, alphas):
    """Odd-cycle vertices: unit steps with the heading flipped each edge."""
    d = n // 2
    v = {0: (0.0, 0.0), n - 1: (0.0, 1.0)}
    run = 0.0
    for k in range(d - 1):
        run += alphas[k]
        sign = 1.0 if k % 2 == 0 else -1.0
        v[k + 1] = (v[k][0] + sign * math.sin(run),
                    v[k][1] + sign * math.cos(run))
    for j in range(d, n - 1):
        xm, ym = v[n - 1 - j]
        v[j] = (-xm, ym)
    return [v[i] for i in range(n)]


def diameter_graph(p):
    """Adjacency lists of the diameter graph; vertex i has degree ``len(adj[i])``."""
    adj = {i: [] for i in range(p.n)}
    for i, j in diameter(p)[1].tolist():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def cycle_walk(p, adj):
    """Walk the cycle of the diameter graph ``adj`` from the origin vertex back to it.

    Returns (cycle vertex indices v_0 .. v_0, apex index).  The walk starts
    toward positive x; pendant neighbors (degree one) are excluded from the cycle.
    """
    coords = p.xy
    origin = int(np.argmin(np.hypot(coords[:, 0], coords[:, 1])))
    if math.hypot(*coords[origin]) > 1e-9:
        raise ValueError("polygon has no vertex at the origin")
    pendants = [j for j in adj[origin] if len(adj[j]) == 1]
    if len(pendants) != 1:
        raise ValueError("origin vertex must carry exactly one pendant edge")
    apex = pendants[0]
    cycle_nbrs = [j for j in adj[origin] if len(adj[j]) >= 2]
    if len(cycle_nbrs) != 2:
        raise ValueError("origin vertex must lie on the diameter cycle")
    first = max(cycle_nbrs, key=lambda j: coords[j][0])
    path = [origin, first]
    while path[-1] != origin:
        here = path[-1]
        nxt = [j for j in adj[here] if len(adj[j]) >= 2 and j != path[-2]]
        if len(nxt) != 1:
            raise ValueError("diameter graph is not a simple cycle with pendants")
        path.append(nxt[0])
    return path, apex


def _angle_between(u, v):
    return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(u @ v))


def _loop_turns(p, count, halve):
    path, apex = cycle_walk(p, diameter_graph(p))
    pts = p.xy[path]
    alphas = [_angle_between(p.xy[apex] - pts[0], pts[1] - pts[0])]
    for k in range(1, count + 1):
        turn = _angle_between(pts[k - 1] - pts[k], pts[k + 1] - pts[k])
        alphas.append(0.5 * turn if halve and k < count else turn)
    return alphas


def loop_extract_angles_b(p):
    """Angles of a cycle-plus-pendants polygon, one cycle vertex at a time."""
    return _loop_turns(p, p.n // 4, halve=True)


def loop_extract_angles_q(p):
    """Angles of an odd-cycle polygon, one cycle vertex at a time."""
    return _loop_turns(p, p.n // 2 - 1, halve=False)


def loop_regular(n):
    """Vertices of the regular small n-gon, one at a time."""
    radius = 0.5 if n % 2 == 0 else 1.0 / (2.0 * math.cos(math.pi / (2 * n)))
    return [(radius * math.sin(2 * math.pi * k / n),
             radius - radius * math.cos(2 * math.pi * k / n)) for k in range(n)]


def loop_reuleaux(corners, subarcs):
    """Each corner followed by the interior points of its arc, one at a time.

    The arc leaving corner i is centered at the opposite corner, sweeps
    pi/m and is split into ``subarcs[i]`` equal subarcs.
    """
    m = len(corners)
    verts = []
    for i, count in enumerate(subarcs):
        cx, cy = corners[(i + (m + 1) // 2) % m]
        a0 = math.atan2(corners[i][1] - cy, corners[i][0] - cx)
        step = (math.pi / m) / count
        verts.append(tuple(corners[i]))
        verts.extend((cx + math.cos(a0 + j * step), cy + math.sin(a0 + j * step))
                     for j in range(1, count))
    return verts


def row_polygon_to_json(p):
    """The JSON interchange form, one f-string per vertex row."""
    vertices = ", ".join(f"[{x:.17g}, {y:.17g}]" for x, y in p.xy.tolist())
    return (f'{{"n": {p.n}, "family": {_json17(p.family.value)}, '
            f'"params": {_json17(p.params)}, "vertices": [{vertices}]}}')


def loop_render_svg(p):
    """The SVG of ``render_svg``, one formatted line per boundary and diameter edge."""
    coords = p.xy
    pad = 0.05
    _, edges = diameter(p)
    xmin, ymin = coords.min(axis=0) - pad
    xmax, ymax = coords.max(axis=0) + pad
    w = (xmax - xmin) * SVG_SCALE
    h = (ymax - ymin) * SVG_SCALE

    def to_px(x, y):
        return (x - xmin) * SVG_SCALE, (ymax - y) * SVG_SCALE

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.2f} {h:.2f}">'
    ]
    n = p.n
    for i in range(n):
        x1, y1 = to_px(coords[i, 0], coords[i, 1])
        x2, y2 = to_px(coords[(i + 1) % n, 0], coords[(i + 1) % n, 1])
        lines.append(
            f'<line class="boundary" x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="black" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
    for i, j in edges:
        x1, y1 = to_px(coords[i, 0], coords[i, 1])
        x2, y2 = to_px(coords[j, 0], coords[j, 1])
        lines.append(
            f'<line class="diameter" x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="black" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def triangle_suffix_sums(terms):
    """S[r] = 0.0 + terms[r] + ..., from a triangle built afresh on every call."""
    k = len(terms)
    rows = np.zeros((k + 1, k + 1))
    rows[:k, 1:] = np.triu(np.broadcast_to(terms, (k, k)))
    return np.cumsum(rows, axis=1)[:, -1]


def dense_phase_hessian(weights, diagonal):
    """D_w L^T diag(t) L D_w: the Hessian in the deviations d of a function
    whose Hessian in the phases psi = L D_w d is diag(t), L the
    lower-triangular matrix of ones."""
    P = np.tril(np.ones((len(weights), len(weights)))) * weights
    return P.T @ (diagonal[:, None] * P)


def triangle_problem(problem):
    """``problem`` with closure derivatives from triangle suffix sums, dense
    Hessians and a zero angle-sum Hessian matrix, the former problem
    builder's callables."""
    dim, base = problem.dim, problem.base_angle
    angle_sum, closure = problem.eq_constraints
    weights = angle_sum(np.zeros(dim))[1]
    index = np.arange(dim)
    signs = (-1.0) ** index[:-1]
    if problem.family == "b":
        odd = (2.0 * np.arange(1, dim) - 1.0) * base

        def phases(d):
            return odd + (d[0] + 2.0 * np.concatenate(([0.0], np.cumsum(d[1:dim - 1]))))
    else:
        steps = np.arange(1, dim) * base

        def phases(d):
            return steps + np.cumsum(d)[:-1]

    def triangle_closure(d):
        return closure(d)[0], weights * triangle_suffix_sums(signs * np.cos(phases(d)))

    def triangle_closure_hessian(d):
        T = triangle_suffix_sums(-signs * np.sin(phases(d)))
        return np.outer(weights, weights) * T[np.maximum.outer(index, index)]

    def angle_sum_hessian(d):
        return np.zeros((dim, dim))

    def objective_hessian(d):
        return np.diag(problem.objective_hessian(d))

    return dataclasses.replace(
        problem, objective_hessian=objective_hessian,
        eq_constraints=(angle_sum, triangle_closure),
        eq_hessians=(angle_sum_hessian, triangle_closure_hessian))


def _constraint_hess_combo(problem, d, mults):
    H = np.zeros((problem.dim, problem.dim))
    for mult, hess in zip(mults, problem.eq_hessians):
        if mult != 0.0:
            H += mult * hess(d)
    return H


def _block_newton_kkt(problem, d, lo, hi, max_iter):
    """Newton-KKT iterations with the KKT matrix assembled by ``np.block``."""
    ev = _evaluate(problem, d)
    _, gf, _, J = ev
    lam = np.linalg.lstsq(J.T, -gf, rcond=None)[0]
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
        W = -problem.objective_hessian(d) - _constraint_hess_combo(problem, d, lam)
        k = len(c)
        kkt = np.block([[W, -J.T], [J, np.zeros((k, k))]])
        rhs = np.concatenate((-r_stat, np.negative(c)))
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        step = sol[: problem.dim]
        norm = float(np.max(np.abs(step)))
        if norm > 0.05:
            step = step * (0.05 / norm)
        d = np.clip(d + step, lo, hi)
        lam = lam + sol[problem.dim:]
        iters += 1
        ev = _evaluate(problem, d)
    return best[1], iters, best[2]


def eigvalsh_report_parts(problem, d, lo, hi, ev):
    """Objective, equality residuals, KKT norm and the largest eigenvalue of
    the symmetrised reduced Hessian (-inf for an empty null space)."""
    f, gf, c, J = ev
    lam, *_ = np.linalg.lstsq(J.T, gf, rcond=None)
    proj = gf - J.T @ lam
    at_lo = d <= lo + 1e-12
    at_hi = d >= hi - 1e-12
    proj[at_lo] = np.maximum(proj[at_lo], 0.0)
    proj[at_hi] = np.minimum(proj[at_hi], 0.0)
    kkt = float(np.linalg.norm(proj))
    A = np.vstack((J, np.eye(problem.dim)[at_lo | at_hi]))
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > max(A.shape) * np.finfo(float).eps * sv[0]))
    Z = Vt[rank:].T
    curvature = -math.inf
    if Z.shape[1]:
        W = problem.objective_hessian(d) - _constraint_hess_combo(problem, d, lam)
        reduced = Z.T @ W @ Z
        curvature = float(np.max(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))))
    return f, (float(c[0]), float(c[1])), kkt, curvature


def cholesky_report_parts(problem, d, lo, hi, ev):
    """The former solver's final report parts on a ``triangle_problem``:
    objective, equality residuals, KKT norm, and whether -Z^T W Z has a
    Cholesky factor (true when the null space is empty)."""
    f, gf, c, J = ev
    lam, *_ = np.linalg.lstsq(J.T, gf, rcond=None)
    proj = gf - J.T @ lam
    at_lo = d <= lo + 1e-12
    at_hi = d >= hi - 1e-12
    proj[at_lo] = np.maximum(proj[at_lo], 0.0)
    proj[at_hi] = np.minimum(proj[at_hi], 0.0)
    kkt = float(np.linalg.norm(proj))
    A = np.vstack((J, np.eye(problem.dim)[at_lo | at_hi]))
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


def block_kkt_solve(problem, starts=None, max_outer=MAX_NEWTON, tol_eq=TOL_EQ,
                    tol_kkt=TOL_KKT):
    """The solve through triangle suffix sums, the zero angle-sum Hessian,
    the ``np.block`` KKT matrix and the ``eigvalsh`` certificate, with the
    former perturbed-start fallback: while no start has converged, up to
    ``starts`` (default 1 + 2 * dim) starts each move one warm-start
    coordinate.  Each start takes at most ``max_outer`` Newton iterations and
    converges within ``tol_eq`` and ``tol_kkt``, by default the optimizer's
    ``MAX_NEWTON``, ``TOL_EQ`` and ``TOL_KKT``.  Returns the first converged
    report whose objective is at least the analytic family member's, or else
    the best partial one."""
    problem = triangle_problem(problem)
    lo = np.zeros(problem.dim) - problem.base_angle
    hi = problem.upper - problem.base_angle
    warm_dev = np.clip(problem.warm_start - problem.base_angle, lo, hi)
    member = (b_angles if problem.family == "b" else q_angles)(problem.n)
    member_obj, _ = problem.objective(member.alphas - problem.base_angle)
    n_starts = starts if starts is not None else 1 + 2 * problem.dim
    best_partial = None
    for s in range(n_starts):
        d0 = warm_dev.copy()
        if s > 0:
            j = (s - 1) % problem.dim
            mag = PERTURBATIONS[((s - 1) // problem.dim) % len(PERTURBATIONS)]
            d0[j] += mag if j % 2 == 0 else -mag
        d, iters, ev = _block_newton_kkt(problem, np.clip(d0, lo, hi), lo, hi,
                                         max_outer)
        obj, eq_res, kkt, curvature = eigvalsh_report_parts(problem, d, lo, hi, ev)
        converged = (max(abs(eq_res[0]), abs(eq_res[1])) <= tol_eq
                     and kkt <= tol_kkt and curvature < 0.0)
        report = SolveReport(
            family=problem.family, n=problem.n,
            angles=tuple(float(a) for a in problem.base_angle + d),
            objective=obj, perimeter_gap=perimeter_gap(problem.n, ev[3][0], d),
            eq_residuals=eq_res, kkt_residual=kkt,
            iterations=iters, starts_used=s + 1, converged=converged,
        )
        if converged and obj >= member_obj:
            return report
        if best_partial is None or obj > best_partial.objective:
            best_partial = report
    return dataclasses.replace(best_partial, starts_used=n_starts)
