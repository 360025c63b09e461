"""Command-line front end: build, measure, table, render, optimize, verify.

Machine output (JSON or CSV) goes to stdout, diagnostics to stderr.  Exit
codes: 0 ok, 1 check/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .constructions import (
    b_family,
    diameter_cycle,
    extract_angles_b,
    extract_angles_q,
    from_angles_b,
    from_angles_q,
    q_family,
    regular,
    regular_plus,
    reuleaux_subdivision,
    tamvakis,
)
from .geometry import (
    InvalidPolygonError,
    NonConvexError,
    SmallPolygon,
    _json17,
    area,
    diameter,
    measure,
    perimeter,
    polygon_from_json,
    polygon_to_json,
    small_polygon_violations,
    to_unit_perimeter,
    width,
)
from .optimizer import (
    CertificationError,
    NonConvergenceError,
    SolverConfig,
    build_b_problem,
    build_q_problem,
    solve,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2

TABLE_IDS = (
    "T1_perimeters",
    "T2_widths",
    "T3_unit_perimeter_widths",
    "T4_optimal_perimeters",
    "T5_b_angles",
    "T6_q_angles",
)
DEFAULT_N_VALUES = (8, 16, 32, 64, 128)
SVG_SCALE = 400.0  # pixels per unit length


class UsageError(ValueError):
    """Bad command-line parameters."""


@dataclass(frozen=True)
class TableSpec:
    table_id: str
    n_values: tuple[int, ...] = DEFAULT_N_VALUES

    def __post_init__(self) -> None:
        if self.table_id not in TABLE_IDS:
            raise UsageError(f"unknown table id {self.table_id!r}")
        for n in self.n_values:
            if n < 4 or not bounds.is_power_of_two(n):
                raise UsageError(f"table n-values must be powers of two >= 4, got {n}")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

_BUILDERS: dict[str, Callable[..., SmallPolygon]] = {
    "regular": lambda n, m: regular(n),
    "regular-plus": lambda n, m: regular_plus(n),
    "reuleaux": lambda n, m: _reuleaux_checked(n, m),
    "tamvakis": lambda n, m: tamvakis(n),
    "b": lambda n, m: b_family(n),
    "q": lambda n, m: q_family(n),
}


def _reuleaux_checked(n: int, m: int | None) -> SmallPolygon:
    if m is None:
        raise UsageError("--family reuleaux requires --m")
    return reuleaux_subdivision(m, n)


def build_polygon(family: str, n: int, m: int | None = None) -> SmallPolygon:
    """Construct a family polygon from CLI-style parameters."""
    if family not in _BUILDERS:
        raise UsageError(f"unknown family {family!r}; choose from {sorted(_BUILDERS)}")
    try:
        return _BUILDERS[family](n, m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def render_svg(p: SmallPolygon) -> str:
    """SVG figure: dashed boundary edges, solid diameter-graph edges.

    Raises :class:`InvalidPolygonError` when the figure overflows binary64.
    """
    coords = p.xy
    pad = 0.05
    try:
        # every pixel coordinate is at most w or h, so only these can overflow
        with np.errstate(over="raise"):
            _, edges = diameter(p)
            xmin, ymin = coords.min(axis=0) - pad
            xmax, ymax = coords.max(axis=0) + pad
            w = (xmax - xmin) * SVG_SCALE
            h = (ymax - ymin) * SVG_SCALE
    except (FloatingPointError, OverflowError) as exc:
        raise InvalidPolygonError(f"SVG coordinates overflow binary64 ({exc})") from exc

    def to_px(x: float, y: float) -> tuple[float, float]:
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


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _fmt(value: float, decimals: int) -> str:
    return format(value, f".{decimals}f")


def _row_decimals(n: int, digits: int | None) -> int:
    if digits is not None:
        return digits
    return 12 if n == 128 else 10


def table_csv(spec: TableSpec, digits: int | None = None,
              config: SolverConfig | None = None) -> str:
    """Render one of the six reference tables as CSV text.

    The value columns print 10 decimals by default and 12 for the n=128
    entries that need them to stay distinguishable; ratios print 4 decimals;
    angle tables print 6 significant digits.  ``digits`` overrides the
    defaults.  The optimal-perimeter and angle tables run the optimizer.
    """
    out = []
    tid = spec.table_id
    if tid == "T1_perimeters":
        out.append("n,L_regular,L_regular_plus,L_tamvakis,L_mossinghoff,L_b,ub_L,ratio_b_vs_mossinghoff")
        for n in spec.n_values:
            dec10 = digits if digits is not None else 10
            dec = _row_decimals(n, digits)
            lr, _ = bounds.closed_form("regular", n)
            lrp, _ = bounds.closed_form("regular-plus", n)
            lt, _ = bounds.closed_form("tamvakis", n)
            lm = bounds.mossinghoff_perimeter(n)
            lb, _ = bounds.closed_form("b", n)
            ub = bounds.upper_bounds(n).ubL
            ratio = (lb - lm) / (ub - lm)
            out.append(",".join([str(n), _fmt(lr, dec10), _fmt(lrp, dec10),
                                 _fmt(lt, dec10), _fmt(lm, dec10), _fmt(lb, dec),
                                 _fmt(ub, dec), _fmt(ratio, 4)]))
    elif tid == "T2_widths":
        out.append("n,W_regular,W_regular_plus,W_b,ub_W,ratio_b_vs_regular_plus")
        for n in spec.n_values:
            dec = digits if digits is not None else 10
            _, wr = bounds.closed_form("regular", n)
            _, wrp = bounds.closed_form("regular-plus", n)
            _, wb = bounds.closed_form("b", n)
            ub = bounds.upper_bounds(n).ubW
            ratio = (wb - wrp) / (ub - wrp)
            out.append(",".join([str(n), _fmt(wr, dec), _fmt(wrp, dec),
                                 _fmt(wb, dec), _fmt(ub, dec), _fmt(ratio, 4)]))
    elif tid == "T3_unit_perimeter_widths":
        out.append("n,w_regular_hat,ub_w_prev,w_b_hat,ub_w,ratio_b_hat")
        for n in spec.n_values:
            dec = digits if digits is not None else 10
            _, wrh = bounds.closed_form("regular-hat", n)
            prev = bounds.upper_bounds(n - 1).ubw
            _, wbh = bounds.closed_form("b-hat", n)
            ub = bounds.upper_bounds(n).ubw
            ratio = (wbh - prev) / (ub - prev)
            out.append(",".join([str(n), _fmt(wrh, dec), _fmt(prev, dec),
                                 _fmt(wbh, dec), _fmt(ub, dec), _fmt(ratio, 4)]))
    elif tid == "T4_optimal_perimeters":
        out.append("n,L_q_opt,L_b,L_b_opt,ub_L,ratio_opt_gain")
        for n in spec.n_values:
            dec10 = digits if digits is not None else 10
            dec = _row_decimals(n, digits)
            lq = solve(build_q_problem(n), config).objective
            lb, _ = bounds.closed_form("b", n)
            lbo = solve(build_b_problem(n), config).objective
            ub = bounds.upper_bounds(n).ubL
            ratio = (lbo - lb) / (ub - lb)
            out.append(",".join([str(n), _fmt(lq, dec10), _fmt(lb, dec),
                                 _fmt(lbo, dec), _fmt(ub, dec), _fmt(ratio, 4)]))
    elif tid in ("T5_b_angles", "T6_q_angles"):
        sig = digits if digits is not None else 6
        out.append("n,pi_over_n,k,alpha")
        for n in spec.n_values:
            build = build_b_problem if tid == "T5_b_angles" else build_q_problem
            report = solve(build(n), config)
            for k, alpha in enumerate(report.angles):
                out.append(",".join([str(n), format(math.pi / n, f".{sig}g"),
                                     str(k), format(alpha, f".{sig}g")]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _mirror_distance(coords: np.ndarray) -> float:
    """Max distance between each vertex and its mirrored (x -> -x) partner.

    Both vertex sets are sorted lexicographically and paired row by row.  A
    pairing's distance is never below the nearest-neighbour distance, so a
    polygon that is mirror-symmetric gives 0 and one that is not cannot pass
    for symmetric.
    """
    mirrored = coords * np.array([-1.0, 1.0])
    a = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    b = mirrored[np.lexsort((mirrored[:, 1], mirrored[:, 0]))]
    return float(np.max(np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])))


def _graph_structure(p: SmallPolygon) -> tuple[int, int]:
    """(cycle length, pendant count) of the diameter graph of a b or q polygon.

    Raises ValueError when the graph is not a single cycle through the
    origin vertex plus pendants.
    """
    cycle, pendants, _ = diameter_cycle(p)
    return len(cycle) - 1, len(pendants)


def _pendant_line_miss(p: SmallPolygon, point: tuple[float, float]) -> float:
    """Largest distance from `point` to any pendant edge's supporting line."""
    _, pendants, _ = diameter_cycle(p)
    a, b = p.xy[pendants[:, 0]], p.xy[pendants[:, 1]]
    d, r = b - a, np.asarray(point) - a
    cross = np.abs(d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0])
    return float(np.max(cross / np.hypot(d[:, 0], d[:, 1]), initial=0.0))


def _powers_of_two(first: int, n_max: int):
    """first, 2 first, 4 first, ... up to n_max."""
    n = first
    while n <= n_max:
        yield n
        n *= 2


def _family_instances(n_max: int):
    for n in _powers_of_two(4, n_max):
        yield f"tamvakis n={n}", tamvakis(n), ("tamvakis", n)
        yield f"q n={n}", q_family(n), ("q", n)
        if n >= 8:
            yield f"regular n={n}", regular(n), ("regular", n)
            yield f"regular-plus n={n}", regular_plus(n), ("regular-plus", n)
            yield f"b n={n}", b_family(n), ("b", n)
    for m in (3, 5, 7):
        for mult in (2, 4):
            n = m * mult
            if n <= n_max:
                yield (f"reuleaux m={m} n={n}", reuleaux_subdivision(m, n),
                       ("reuleaux", n))


def verify_checks(n_max: int = 128,
                  polygon_paths: Sequence[str] = ()) -> list[tuple[str, bool, str]]:
    """Run the whole invariant suite; returns (name, passed, detail) rows."""
    results: list[tuple[str, bool, str]] = []

    def check(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    built: dict[tuple[str, int], SmallPolygon] = {}
    for label, poly, (fam, n) in _family_instances(n_max):
        built[(fam, n)] = poly
        check(f"invariants[{label}]", lambda p=poly: _invariants_ok(p))
        L, W = bounds.closed_form(fam, n, poly.params.get("m"))
        check(f"closed-form-agreement[{label}]",
              lambda p=poly, L=L, W=W: _closed_form_ok(p, L, W))
        check(f"unit-perimeter-scaling[{label}]", lambda p=poly: _scaling_ok(p))

    for n in _powers_of_two(8, n_max):
        poly = built[("b", n)]
        check(f"quarter-vertex[b n={n}]", lambda p=poly: _at_most(
            float(np.min(np.max(np.abs(p.xy - np.array([-0.5, 0.5])), axis=1))),
            1e-12, "closest vertex to (-1/2, 1/2) misses by"))
        check(f"pendant-lines[b n={n}]", lambda p=poly: _at_most(
            _pendant_line_miss(p, (0.0, 0.5)), 1e-10, "miss"))
        check(f"area-identity[b n={n}]", lambda p=poly, n=n: _area_ok(p, n))
        check(f"structure[b n={n}]", lambda p=poly, n=n: _structure_ok(
            p, (n // 2 + 1, n // 2 - 1)))
        check(f"mirror-symmetry[b n={n}]", lambda p=poly: _at_most(
            _mirror_distance(p.xy), 1e-12, "max miss"))
        check(f"round-trip[b n={n}]", lambda p=poly: _round_trip_ok(p, "b"))

    for n in _powers_of_two(4, n_max):
        poly = built[("q", n)]
        check(f"structure[q n={n}]", lambda p=poly, n=n: _structure_ok(p, (n - 1, 1)))
        check(f"mirror-symmetry[q n={n}]", lambda p=poly: _at_most(
            _mirror_distance(p.xy), 1e-12, "max miss"))
        check(f"round-trip[q n={n}]", lambda p=poly: _round_trip_ok(p, "q"))

    for n in _powers_of_two(8, n_max):
        check(f"orderings[n={n}]", lambda n=n: _orderings_ok(n))

    for law in ("b-perimeter", "b-width", "q-perimeter", "b-hat-width"):
        power, limit = bounds.GAP_LAWS[law]
        check(f"gap-constant[{law}]", lambda law=law, limit=limit: _gap_ok(law, limit))

    for path in polygon_paths:
        check(f"polygon-file[{path}]", lambda path=path: _file_ok(path))

    return results


def _at_most(miss: float, tol: float, label: str) -> tuple[bool, str]:
    return miss <= tol, f"{label} {miss:.2e}"


def _invariants_ok(p: SmallPolygon) -> tuple[bool, str]:
    problems = small_polygon_violations(p)
    return not problems, "; ".join(problems)


def _closed_form_ok(p: SmallPolygon, L: float, W: float) -> tuple[bool, str]:
    dL, dW = perimeter(p) - L, width(p) - W
    return abs(dL) <= 1e-10 and abs(dW) <= 1e-10, f"dL={dL:.2e} dW={dW:.2e}"


def _area_ok(p: SmallPolygon, n: int) -> tuple[bool, str]:
    delta = area(p) - (n / 8) * math.sin(2 * math.pi / n)
    return abs(delta) <= 1e-12, f"delta {delta:.2e}"


def _structure_ok(p: SmallPolygon, expected: tuple[int, int]) -> tuple[bool, str]:
    got = _graph_structure(p)
    return got == expected, f"got {got}"


def _gap_ok(law: str, limit: float) -> tuple[bool, str]:
    scaled = bounds.gap_constants(law, 4096)
    return (abs(scaled / limit - 1.0) <= 0.02,
            f"scaled gap {scaled:.6f} vs limit {limit:.6f}")


def _scaling_ok(p: SmallPolygon) -> tuple[bool, str]:
    scaled = to_unit_perimeter(p)
    wr = width(scaled) / width(p)
    dr = diameter(scaled)[0] / diameter(p)[0]
    ok = (abs(perimeter(scaled) - 1.0) <= 1e-12
          and abs(wr / dr - 1.0) <= 1e-12)
    return ok, f"width ratio {wr!r} vs diameter ratio {dr!r}"


def _round_trip_ok(p: SmallPolygon, variant: str) -> tuple[bool, str]:
    if variant == "b":
        rebuilt = from_angles_b(extract_angles_b(p))
    else:
        rebuilt = from_angles_q(extract_angles_q(p))
    err = float(np.max(np.abs(rebuilt.xy - p.xy)))
    return err <= 1e-12, f"max coordinate error {err:.2e}"


def _orderings_ok(n: int) -> tuple[bool, str]:
    lr, wr = bounds.closed_form("regular", n)
    lrp, wrp = bounds.closed_form("regular-plus", n)
    lt, wt = bounds.closed_form("tamvakis", n)
    lb, _ = bounds.closed_form("b", n)
    lq, wq = bounds.closed_form("q", n)
    ub = bounds.upper_bounds(n).ubL
    wm = bounds.mossinghoff_width(n)
    # ub - L_B is about pi^7/(32 n^6), below one ulp of pi from n = 1024 on,
    # so its sign comes from the cancellation-free gap product
    ok = (lr < lb and bounds.gap_constants("b-perimeter", n) > 0
          and lrp < lq and wq < wrp and wrp >= max(wt, wm))
    return ok, (f"L_R={lr} L_B={lb} ubL={ub} L_R+={lrp} L_Q={lq} "
                f"W_Q={wq} W_R+={wrp} W_T={wt} W_M={wm}")


def _file_ok(path: str) -> tuple[bool, str]:
    with open(path, "r", encoding="utf-8") as fh:
        poly = polygon_from_json(fh.read())
    with np.errstate(over="raise"):  # an overflowing sweep fails the check
        problems = small_polygon_violations(poly)
    return not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise UsageError(f"bad n list {text!r}") from exc


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help="override table decimal digits")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--config", default=None,
                        help="solver config: inline JSON or a path to a JSON file")

    parser = argparse.ArgumentParser(
        prog="smallpoly",
        description="Construct, measure, tabulate, render and optimize "
                    "extremal unit-diameter polygons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common],
                             help="construct a family polygon as JSON")
    p_build.add_argument("--family", required=True, choices=sorted(_BUILDERS))
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--m", type=int, default=None)

    p_measure = sub.add_parser("measure", parents=[common],
                               help="metrics report for a polygon JSON file")
    p_measure.add_argument("in_path")

    p_table = sub.add_parser("table", parents=[common],
                             help="emit one of the six reference tables as CSV")
    p_table.add_argument("--id", required=True, dest="table_id",
                         choices=TABLE_IDS + tuple(str(i) for i in range(1, 7)))
    p_table.add_argument("--n", default=None,
                         help="comma-separated vertex counts (default 8,16,32,64,128)")

    p_render = sub.add_parser("render", parents=[common],
                              help="render a polygon JSON file to SVG")
    p_render.add_argument("in_path")

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="solve a maximal-perimeter problem")
    p_opt.add_argument("--problem", required=True, choices=("b", "q"))
    p_opt.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full invariant suite")
    p_verify.add_argument("--n-max", type=int, default=128)
    p_verify.add_argument("--polygon", action="append", default=[],
                          help="also validate this polygon JSON file (repeatable)")
    return parser


def _load_config(text: str | None) -> SolverConfig | None:
    """Solver config from the file ``text`` names, or else from ``text`` as JSON."""
    if text is None:
        return None
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return SolverConfig.from_json(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config is neither a file nor valid JSON: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(args: argparse.Namespace) -> int:
    if args.command == "build":
        poly = build_polygon(args.family, args.n, args.m)
        _emit(polygon_to_json(poly) + "\n", args.out)
        return EXIT_OK
    if args.command == "measure":
        with open(args.in_path, "r", encoding="utf-8") as fh:
            poly = polygon_from_json(fh.read())
        report = measure(poly)
        _emit(_json17(report.to_json_dict()) + "\n", args.out)
        return EXIT_OK
    if args.command == "table":
        tid = args.table_id
        if tid in tuple(str(i) for i in range(1, 7)):
            tid = TABLE_IDS[int(tid) - 1]
        n_values = _parse_n_list(args.n) if args.n else DEFAULT_N_VALUES
        spec = TableSpec(tid, n_values)
        _emit(table_csv(spec, args.digits, _load_config(args.config)), args.out)
        return EXIT_OK
    if args.command == "render":
        with open(args.in_path, "r", encoding="utf-8") as fh:
            poly = polygon_from_json(fh.read())
        if args.out is None:
            raise UsageError("render requires --out")
        _emit(render_svg(poly), args.out)
        return EXIT_OK
    if args.command == "optimize":
        build = build_b_problem if args.problem == "b" else build_q_problem
        try:
            problem = build(args.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        report = solve(problem, _load_config(args.config))
        _emit(_json17(report.to_json_dict()) + "\n", args.out)
        return EXIT_OK
    if args.command == "verify":
        if args.n_max < 4 or not bounds.is_power_of_two(args.n_max):
            raise UsageError(f"--n-max must be a power of two >= 4, got {args.n_max}")
        results = verify_checks(args.n_max, args.polygon)
        lines = []
        for name, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if (detail and not ok) else ""
            lines.append(f"[{status}] {name}{suffix}")
        n_fail = sum(1 for _, ok, _ in results if not ok)
        lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK if n_fail == 0 else EXIT_CHECK
    raise UsageError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (InvalidPolygonError, NonConvexError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
