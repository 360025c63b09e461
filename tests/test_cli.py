"""End-to-end CLI tests: commands, exit codes, and output formats."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallpoly import (
    SmallPolygon,
    b_family,
    bounds,
    diameter,
    measure,
    perimeter,
    polygon_to_json,
    q_family,
)
from smallpoly.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_USAGE,
    TableSpec,
    UsageError,
    _mirror_distance,
    _orderings_ok,
    main,
    render_svg,
    verify_checks,
)
from smallpoly.constructions import diameter_cycle

from _reference import pairwise_mirror_distance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_polygon_json(tmp_path, capsys):
    out = tmp_path / "b16.json"
    code, _, _ = run(capsys, "build", "--family", "b", "--n", "16",
                     "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n"] == 16
    assert doc["family"] == "b"
    assert doc["vertices"][0] == [0, 0]
    assert len(doc["vertices"]) == 16


def test_build_reuleaux_requires_m(capsys):
    code, _, err = run(capsys, "build", "--family", "reuleaux", "--n", "6")
    assert code == EXIT_USAGE
    assert "--m" in err
    code, out, _ = run(capsys, "build", "--family", "reuleaux", "--n", "6",
                       "--m", "3")
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 6


def test_build_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "build", "--family", "b", "--n", "12")
    assert code == EXIT_USAGE
    assert "power" in err or "2^s" in err


def test_measure_round_trips_library_values(tmp_path, capsys):
    path = tmp_path / "b8.json"
    path.write_text(polygon_to_json(b_family(8)))
    code, out, _ = run(capsys, "measure", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    ref = measure(b_family(8))
    # bit-exact round trip through the 17-significant-digit JSON
    assert doc["perimeter"] == ref.perimeter
    assert doc["width"] == ref.width
    assert doc["width"] == pytest.approx(0.9776087734, abs=5e-11)
    assert len(doc["diameter_edges"]) == 8


def test_measure_q8_diameter_edges(tmp_path, capsys):
    path = tmp_path / "q8.json"
    path.write_text(polygon_to_json(q_family(8)))
    code, out, _ = run(capsys, "measure", str(path))
    assert code == EXIT_OK
    assert len(json.loads(out)["diameter_edges"]) == 8


def test_measure_rejects_non_convex_and_malformed(tmp_path, capsys):
    bad = tmp_path / "chevron.json"
    bad.write_text('{"family": "raw", "params": {}, '
                   '"vertices": [[0,0],[1,0],[0.5,0.2],[0.5,1]]}')
    code, _, err = run(capsys, "measure", str(bad))
    assert code == EXIT_CHECK
    assert "convex" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{]")
    code, _, _ = run(capsys, "measure", str(garbage))
    assert code == EXIT_CHECK
    code, _, _ = run(capsys, "measure", str(tmp_path / "missing.json"))
    assert code == EXIT_CHECK


@pytest.mark.parametrize("doc", [
    '{"vertices": [1, 2, 3]}',
    '{"vertices": [[0, 0], [1, "x"], [0, 1]]}',
])
def test_measure_rejects_malformed_vertices_as_data_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "measure", str(path))
    assert code == EXIT_CHECK
    assert out == ""
    assert err.startswith("error: 'vertices'")


def test_table_t1_golden_rows(capsys):
    code, out, _ = run(capsys, "table", "--id", "T1_perimeters")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    row32 = lines[3].split(",")
    assert row32 == ["32", "3.1365484905", "3.1402809876", "3.1403234211",
                     "3.1403306141", "3.1403310687", "3.1403311570", "0.8374"]
    row128 = lines[5].split(",")
    assert row128[5] == "3.141513801123"
    assert row128[6] == "3.141513801144"
    assert row128[7] == "0.9606"


def test_table_t3_golden_row(capsys):
    code, out, _ = run(capsys, "table", "--id", "3")
    assert code == EXIT_OK
    row64 = out.strip().splitlines()[4].split(",")
    assert row64[-1] == "0.8870"
    row128 = out.strip().splitlines()[5].split(",")
    assert row128[-1] == "0.9428"


def test_table_digits_override(capsys):
    code, out, _ = run(capsys, "table", "--id", "2", "--digits", "4",
                       "--n", "8")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "8,0.9239,0.9749,0.9776,0.9808,0.4577"


def test_table_t4_row8(capsys):
    code, out, _ = run(capsys, "table", "--id", "4", "--n", "8")
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert row == ["8", "3.1195976652", "3.1210621230", "3.1211471341",
                   "3.1214451523", "0.2219"]


def test_table_t5_t6_angle_rows(capsys):
    code, out, _ = run(capsys, "table", "--id", "5", "--n", "8")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["0.435281", "0.368535", "0.398447"]
    code, out, _ = run(capsys, "table", "--id", "6", "--n", "8")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["0.301375", "0.480058", "0.355776",
                                    "0.433588"]


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--id", "1")
    _, second, _ = run(capsys, "table", "--id", "1")
    assert first == second


def test_table_rejects_bad_n(capsys):
    code, _, _ = run(capsys, "table", "--id", "1", "--n", "12")
    assert code == EXIT_USAGE
    with pytest.raises(UsageError):
        TableSpec("T7_bogus")


def test_render_counts_segments(tmp_path, capsys):
    src = tmp_path / "b8.json"
    src.write_text(polygon_to_json(b_family(8)))
    out = tmp_path / "b8.svg"
    code, _, _ = run(capsys, "render", str(src), "--out", str(out))
    assert code == EXIT_OK
    svg = out.read_text()
    assert svg.count('class="boundary"') == 8
    assert svg.count('class="diameter"') == 8  # 5-cycle + 3 pendants
    assert svg.startswith("<svg")


def test_render_regular4_has_two_diagonals(tmp_path, capsys):
    from smallpoly import regular
    src = tmp_path / "r4.json"
    src.write_text(polygon_to_json(regular(4)))
    out = tmp_path / "r4.svg"
    code, _, _ = run(capsys, "render", str(src), "--out", str(out))
    assert code == EXIT_OK
    svg = out.read_text()
    assert svg.count('class="boundary"') == 4
    assert svg.count('class="diameter"') == 2


def test_render_q4_pendant_triangle(tmp_path, capsys):
    src = tmp_path / "q4.json"
    src.write_text(polygon_to_json(q_family(4)))
    out = tmp_path / "q4.svg"
    code, _, _ = run(capsys, "render", str(src), "--out", str(out))
    assert code == EXIT_OK
    svg = out.read_text()
    assert svg.count('class="boundary"') == 4
    assert svg.count('class="diameter"') == 4  # 3-cycle + 1 pendant


def test_render_requires_out(tmp_path, capsys):
    src = tmp_path / "q4.json"
    src.write_text(polygon_to_json(q_family(4)))
    code, _, _ = run(capsys, "render", str(src))
    assert code == EXIT_USAGE


def test_optimize_command_emits_report(capsys):
    code, out, _ = run(capsys, "optimize", "--problem", "q", "--n", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["objective"] == pytest.approx(3.1195976652, abs=1e-8)
    assert len(doc["angles"]) == 4


def test_optimize_with_config(capsys):
    code, out, _ = run(capsys, "optimize", "--problem", "b", "--n", "8",
                       "--config", '{"starts": 1}')
    assert code == EXIT_OK
    assert json.loads(out)["starts_used"] == 1
    code, _, _ = run(capsys, "optimize", "--problem", "b", "--n", "7")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("config", [
    "[1]", '{"tol_eq": "x"}', '{"starts": 0}', '{"max_outer": 0}', "no-such-file.json",
])
def test_optimize_rejects_bad_config_as_usage_error(capsys, config):
    code, out, err = run(capsys, "optimize", "--problem", "b", "--n", "8",
                         "--config", config)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


def test_optimize_reads_config_file(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text('{"starts": 2, "max_outer": 10}')
    code, out, _ = run(capsys, "optimize", "--problem", "q", "--n", "8",
                       "--config", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["starts_used"] == 1


def test_verify_passes_and_is_quick(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "16")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_flags_perturbed_polygon_file(tmp_path, capsys):
    coords = b_family(8).coords()
    coords[3] += np.array([0.01, -0.02])  # breaks convex/diameter invariants
    doc = {"n": 8, "family": "raw", "params": {},
           "vertices": [list(map(float, c)) for c in coords]}
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--n-max", "8",
                       "--polygon", str(path))
    assert code == EXIT_CHECK
    assert "FAIL" in out
    # and a pristine file keeps the suite green
    good = tmp_path / "good.json"
    good.write_text(polygon_to_json(b_family(8)))
    code, _, _ = run(capsys, "verify", "--n-max", "8", "--polygon", str(good))
    assert code == EXIT_OK


def test_verify_checks_cover_gap_laws():
    names = [name for name, _, _ in verify_checks(8)]
    assert any(name.startswith("gap-constant") for name in names)
    assert any(name.startswith("structure[b") for name in names)


def test_verify_checks_build_and_evaluate_once(monkeypatch):
    import smallpoly.cli as cli
    calls = {"b_family": 0, "q_family": 0, "small_polygon_violations": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    results = verify_checks(64)
    invariants = sum(1 for name, _, _ in results if name.startswith("invariants["))
    assert calls == {"b_family": 4, "q_family": 5,
                     "small_polygon_violations": invariants}
    assert all(ok for _, ok, _ in results)


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus-command")[0] == EXIT_USAGE
    assert run(capsys, "build", "--family", "nope", "--n", "8")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--n-max", "12")[0] == EXIT_USAGE


def test_build_measure_round_trip_bit_exact(tmp_path, capsys):
    out = tmp_path / "q16.json"
    code, _, _ = run(capsys, "build", "--family", "q", "--n", "16",
                     "--out", str(out))
    assert code == EXIT_OK
    code, text, _ = run(capsys, "measure", str(out))
    assert code == EXIT_OK
    assert json.loads(text)["perimeter"] == perimeter(q_family(16))


def test_render_svg_function_geometry():
    svg = render_svg(q_family(8))
    # 400 px per unit: the canvas spans (1 + 2*0.05) units vertically
    assert 'height="440"' in svg


def test_verify_checks_sweep_each_polygon_once(monkeypatch):
    from smallpoly import geometry
    swept = []  # the coordinate arrays swept; kept alive so their ids stay unique
    sweep = geometry._sweep

    def counted(coords, hull):
        swept.append(coords)
        return sweep(coords, hull)

    monkeypatch.setattr(geometry, "_sweep", counted)
    results = verify_checks(64)
    assert all(ok for _, ok, _ in results)
    assert swept
    assert len({id(coords) for coords in swept}) == len(swept)


@pytest.mark.parametrize("build,n_min", [(b_family, 8), (q_family, 4)], ids=["b", "q"])
def test_mirror_distance_matches_pairwise_oracle(build, n_min):
    for s in range(n_min.bit_length() - 1, 11):
        coords = build(2 ** s).xy
        assert _mirror_distance(coords) == pairwise_mirror_distance(coords) == 0.0


def test_mirror_distance_flags_a_moved_vertex():
    coords = b_family(64).coords()
    coords[5, 0] += 1e-9
    assert _mirror_distance(coords) >= pairwise_mirror_distance(coords)
    assert _mirror_distance(coords) > 1e-12


@pytest.mark.parametrize("n", [2 ** s for s in range(3, 13)])
def test_orderings_binary64_signs_match_mpmath(n):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        pi, sin, cos = mp.pi, mp.sin, mp.cos
        ub = 2 * n * sin(pi / (2 * n))
        half = pi / (2 * n - 2)
        exact = {
            "lr": n * sin(pi / n),
            "lrp": (2 * n - 2) * sin(half) + 4 * sin(pi / (4 * n - 4)) - 2 * sin(half),
            "wrp": cos(half),
            "wt": cos(pi / (2 * n - 2)) if n % 3 == 1 else cos(pi / (2 * n - 4)),
            "lb": ub * cos((pi / n - mp.asin(sin(2 * pi / n) / 2)) / 2),
            "ub": ub,
            "wm": cos(pi / (2 * n) + pi ** 2 / (4 * n ** 2) - pi ** 2 / (2 * n ** 3)),
        }
        gamma = pi / 4 - mp.asin(cos(pi / n) / mp.sqrt(2))
        exact["lq"], exact["wq"] = ub * cos(gamma / 2), cos(pi / (2 * n) + gamma / 2)
    f64 = {"ub": bounds.upper_bounds(n).ubL, "wm": bounds.mossinghoff_width(n)}
    f64["lr"], _ = bounds.closed_form("regular", n)
    f64["lrp"], f64["wrp"] = bounds.closed_form("regular-plus", n)
    _, f64["wt"] = bounds.closed_form("tamvakis", n)
    f64["lb"], _ = bounds.closed_form("b", n)
    f64["lq"], f64["wq"] = bounds.closed_form("q", n)
    for lo, hi in (("lr", "lb"), ("lrp", "lq"), ("wq", "wrp")):
        assert (f64[lo] < f64[hi]) == (exact[lo] < exact[hi]), (lo, hi)
    for lo in ("wt", "wm"):
        assert (f64["wrp"] >= f64[lo]) == (exact["wrp"] >= exact[lo]), lo
    # the one comparison binary64 cannot make from n = 1024 on
    assert (bounds.gap_constants("b-perimeter", n) > 0) == (exact["lb"] < exact["ub"])
    assert _orderings_ok(n)[0]


def test_verify_passes_at_4096(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4096")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "281/281 checks passed"


@pytest.mark.parametrize("config", [
    '{"tol_eq": Infinity, "tol_kkt": Infinity, "max_outer": 1}',
    '{"tol_kkt": 1e400}',
])
def test_optimize_rejects_infinite_tolerances_as_usage_error(capsys, config):
    code, out, err = run(capsys, "optimize", "--problem", "q", "--n", "8",
                         "--config", config)
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("vertices", ["[[0, 0], [1, 0], [NaN, 1]]",
                                      "[[0, 0], [1, 0], [true, 1]]"])
def test_measure_rejects_non_coordinates_as_data_error(tmp_path, capsys, vertices):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ' + vertices + "}")
    code, out, err = run(capsys, "measure", str(path))
    assert code == EXIT_CHECK
    assert out == ""
    assert err.startswith("error: ")


coordinate = st.floats(allow_nan=False, allow_infinity=False)
finite_polygons = st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=12)
OVERFLOWING = [(0.0, 0.0), (1e308, 0.0), (0.0, 1e308)]


def _main_on_polygon_file(vertices, *argv):
    """``main([*argv, path])`` on a polygon JSON file of ``vertices``, warnings as errors."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "polygon.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": vertices}, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([*argv, path])


@settings(max_examples=300, deadline=None)
@given(finite_polygons)
@example(OVERFLOWING)
@example([(0.0, 0.0), (1e200, 0.0), (0.0, 1e200)])
def test_measure_exits_0_or_1_without_warnings_on_any_finite_polygon(vertices):
    assert _main_on_polygon_file(vertices, "measure") in (EXIT_OK, EXIT_CHECK)


@settings(max_examples=300, deadline=None)
@given(finite_polygons)
@example(OVERFLOWING)
def test_render_exits_0_or_1_without_warnings_on_any_finite_polygon(vertices):
    code = _main_on_polygon_file(vertices, "render", "--out", os.devnull)
    assert code in (EXIT_OK, EXIT_CHECK)


@settings(max_examples=300, deadline=None)
@given(finite_polygons)
@example(OVERFLOWING)
def test_verify_polygon_exits_0_or_1_without_warnings_on_any_finite_polygon(vertices):
    code = _main_on_polygon_file(vertices, "verify", "--n-max", "4", "--polygon")
    assert code in (EXIT_OK, EXIT_CHECK)


def test_measure_reports_overflowing_metrics_as_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": [[0, 0], [1e308, 0], [0, 1e308]]}')
    code, out, err = run(capsys, "measure", str(path))
    assert code == EXIT_CHECK
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_reports_overflowing_coordinates_as_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": OVERFLOWING}))
    svg = tmp_path / "huge.svg"
    code, out, err = run(capsys, "render", str(path), "--out", str(svg))
    assert code == EXIT_CHECK
    assert out == "" and not svg.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_polygon_fails_an_overflowing_file_without_warnings(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vertices": [(-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1.0)]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--n-max", "4", "--polygon", str(path))
    assert code == EXIT_CHECK and err == "" and not caught
    assert f"[FAIL] polygon-file[{path}]" in out


def test_verify_pendant_lines_flags_a_moved_pendant_end(monkeypatch):
    import smallpoly.cli as cli
    poly = b_family(16)
    cycle, pendants, _ = diameter_cycle(poly)
    i, j = pendants[0].tolist()
    hub, free = (i, j) if i in cycle else (j, i)
    coords = poly.coords()
    dx, dy = coords[free] - coords[hub]
    coords[free] += 1e-8 * np.array([-dy, dx])  # across the unit pendant edge
    moved = SmallPolygon.from_coords(coords, poly.family, poly.params)
    assert diameter(moved)[1] == diameter(poly)[1]
    monkeypatch.setattr(cli, "b_family", lambda n: moved if n == 16 else b_family(n))
    rows = {name: (ok, detail) for name, ok, detail in verify_checks(16)}
    assert rows["pendant-lines[b n=8]"][0]
    ok, detail = rows["pendant-lines[b n=16]"]
    assert not ok and float(detail.split()[-1]) > 1e-9
