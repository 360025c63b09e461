"""Each checker accepts the program's real output and rejects a wrong one."""

import dataclasses

import numpy as np

import checks
import workloads

sp = workloads.sp


def test_t1_value_off_in_its_last_digit_is_rejected():
    text = sp.cli.table_csv(sp.cli.TableSpec("T1_perimeters"))
    assert checks.check_tables({"T1_perimeters": {"csv": text}}) == []
    wrong = text.replace("3.1210621230", "3.1210621231", 1)
    assert wrong != text
    assert checks.check_tables({"T1_perimeters": {"csv": wrong}})


def test_angle_sequence_off_by_1e_6_is_rejected():
    report = sp.solve(sp.build_b_problem(8))
    assert checks.check_solve_report(report, "b", 8) == []
    angles = list(report.angles)
    angles[1] += 1e-6
    wrong = dataclasses.replace(report, angles=tuple(angles))
    assert checks.check_solve_report(wrong, "b", 8)


def _chain(poly):
    text = sp.polygon_to_json(poly)
    parsed = sp.polygon_from_json(text)
    return {"build": poly, "to_json": text, "from_json": parsed,
            "measure": sp.measure(parsed)}


def test_polygon_with_one_vertex_moved_is_rejected():
    poly = sp.b_family(64)
    assert checks.check_polygon_chain("b_family", _chain(poly)) == []
    coords = poly.coords()
    coords[5] += np.array([1e-7, 0.0])
    moved = sp.SmallPolygon.from_coords(coords, poly.family, poly.params)
    assert checks.check_polygon_chain("b_family", _chain(moved))


def test_verify_accepts_only_the_known_fault():
    ok = ("structure[b n=8]", True, "")
    fault = (checks.KNOWN_FAULT, False, "")
    assert checks.check_verify({"verify_checks": {"run": [ok, fault]}}) == []
    other = ("structure[q n=8]", False, "")
    assert checks.check_verify({"verify_checks": {"run": [ok, fault, other]}})
