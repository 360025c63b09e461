"""Closed forms vs published tables, bound properties, and gap asymptotics."""

import math

import pytest

from smallpoly import (
    GAP_LAWS,
    AngleParamB,
    AngleParamQ,
    InfeasibleAnglesError,
    UnknownFamilyError,
    b_alternation,
    b_angles,
    b_family,
    build_b_problem,
    build_q_problem,
    closed_form,
    gap_constants,
    mossinghoff_perimeter,
    mossinghoff_width,
    q_alternation,
    q_angles,
    q_family,
    regular,
    regular_plus,
    reuleaux_subdivision,
    tamvakis,
    upper_bounds,
)
from smallpoly.cli import EXIT_USAGE, TABLE_IDS, TableSpec, UsageError, main

from _reference import (
    OPTIMAL_PERIMETER_B,
    OPTIMAL_PERIMETER_Q,
    PERIMETER_TABLE,
    UNIT_PERIMETER_WIDTH_TABLE,
    WIDTH_TABLE,
)

PI = math.pi
POWERS = (8, 16, 32, 64, 128)


# Every entry point that asks a family's n rule: (error class, call of n and m).
RULE_CALLS = {
    "b": [(ValueError, lambda n, m: closed_form("b", n)),
          (ValueError, lambda n, m: closed_form("b-hat", n)),
          (ValueError, lambda n, m: mossinghoff_width(n)),
          (ValueError, lambda n, m: gap_constants("b-width", n)),
          (ValueError, lambda n, m: gap_constants("b-hat-width", n)),
          (ValueError, lambda n, m: b_angles(n)),
          (ValueError, lambda n, m: b_family(n)),
          (ValueError, lambda n, m: build_b_problem(n)),
          (InfeasibleAnglesError, lambda n, m: AngleParamB(n, ()).validate())]
         + [(UsageError, lambda n, m, t=t: TableSpec(t, (8, n))) for t in TABLE_IDS[:5]],
    "q": [(ValueError, lambda n, m: closed_form("q", n)),
          (ValueError, lambda n, m: gap_constants("q-width", n)),
          (ValueError, lambda n, m: q_angles(n)),
          (ValueError, lambda n, m: q_family(n)),
          (ValueError, lambda n, m: build_q_problem(n)),
          (InfeasibleAnglesError, lambda n, m: AngleParamQ(n, ()).validate()),
          (UsageError, lambda n, m: TableSpec("T6_q_angles", (n,)))],
    "tamvakis": [(ValueError, lambda n, m: closed_form("tamvakis", n)),
                 (ValueError, lambda n, m: gap_constants("tamvakis-perimeter", n)),
                 (ValueError, lambda n, m: tamvakis(n))],
    "regular-plus": [(ValueError, lambda n, m: closed_form("regular-plus", n)),
                     (ValueError, lambda n, m: gap_constants("regular-plus-width", n)),
                     (ValueError, lambda n, m: regular_plus(n))],
    "reuleaux": [(ValueError, lambda n, m: closed_form("reuleaux", n, m)),
                 (ValueError, lambda n, m: reuleaux_subdivision(m, n))],
    "regular": [(ValueError, lambda n, m: closed_form("regular", n)),
                (ValueError, lambda n, m: closed_form("regular-hat", n)),
                (ValueError, lambda n, m: gap_constants("regular-hat-width", n)),
                (ValueError, lambda n, m: regular(n))],
}
# ... and every command line that does
RULE_ARGV = {
    "b": [["build", "--family", "b", "--n", "{n}"], ["optimize", "--problem", "b", "--n", "{n}"]]
         + [["table", "--id", str(k), "--n", "8,{n}"] for k in range(1, 6)],
    "q": [["build", "--family", "q", "--n", "{n}"], ["optimize", "--problem", "q", "--n", "{n}"],
          ["table", "--id", "6", "--n", "{n}"], ["verify", "--n-max", "{n}"]],
    "tamvakis": [["build", "--family", "tamvakis", "--n", "{n}"]],
    "regular-plus": [["build", "--family", "regular-plus", "--n", "{n}"]],
    "reuleaux": [["build", "--family", "reuleaux", "--n", "{n}", "--m", "{m}"]],
    "regular": [["build", "--family", "regular", "--n", "{n}"]],
}


@pytest.mark.parametrize("family,n,m,message", [
    ("b", 6, None, "b needs n = 2^s >= 8, got n=6"),
    ("b", 4, None, "b needs n = 2^s >= 8, got n=4"),
    ("q", 6, None, "q needs n = 2^s >= 4, got n=6"),
    ("q", 2, None, "q needs n = 2^s >= 4, got n=2"),
    ("tamvakis", 12, None, "tamvakis needs n = 2^s >= 4, got n=12"),
    ("regular-plus", 5, None, "regular-plus needs even n >= 4, got n=5"),
    ("regular-plus", 2, None, "regular-plus needs even n >= 4, got n=2"),
    ("reuleaux", 8, 4, "reuleaux needs odd m >= 3 dividing n >= 3, got n=8, m=4"),
    ("reuleaux", 8, 3, "reuleaux needs odd m >= 3 dividing n >= 3, got n=8, m=3"),
    ("reuleaux", 0, 3, "reuleaux needs odd m >= 3 dividing n >= 3, got n=0, m=3"),
    ("regular", 2, None, "regular needs n >= 3, got n=2"),
])
def test_every_entry_point_refuses_an_inadmissible_n_alike(capsys, family, n, m, message):
    for error, call in RULE_CALLS[family]:
        with pytest.raises(ValueError) as caught:
            call(n, m)
        assert (type(caught.value), str(caught.value)) == (error, message)
    for argv in RULE_ARGV[family]:
        code = main([arg.format(n=n, m=m) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_upper_bounds_at_8():
    bs = upper_bounds(8)
    assert bs.ubL == pytest.approx(3.1214451523, abs=5e-11)
    assert bs.ubW == pytest.approx(0.9807852804, abs=5e-11)
    assert bs.ubw == pytest.approx(0.3142087183, abs=5e-11)
    with pytest.raises(ValueError):
        upper_bounds(2)


def test_bound_set_properties():
    prev = upper_bounds(3)
    for n in range(4, 300):
        cur = upper_bounds(n)
        assert cur.ubL < PI
        assert cur.ubL > prev.ubL
        assert cur.ubW < 1.0
        assert cur.ubw < 1.0 / PI
        prev = cur


@pytest.mark.parametrize("n", POWERS)
def test_perimeter_table_reproduction(n):
    lr, lrp, lt, _, lb, ub, _ = PERIMETER_TABLE[n]
    tol_b = 5e-13 if n == 128 else 5e-11
    assert closed_form("regular", n)[0] == pytest.approx(lr, abs=5e-11)
    assert closed_form("regular-plus", n)[0] == pytest.approx(lrp, abs=5e-11)
    assert closed_form("tamvakis", n)[0] == pytest.approx(lt, abs=5e-11)
    assert closed_form("b", n)[0] == pytest.approx(lb, abs=tol_b)
    assert upper_bounds(n).ubL == pytest.approx(ub, abs=tol_b)


@pytest.mark.parametrize("n", POWERS)
def test_width_table_reproduction(n):
    wr, wrp, wb, ub, ratio = WIDTH_TABLE[n]
    assert closed_form("regular", n)[1] == pytest.approx(wr, abs=5e-11)
    assert closed_form("regular-plus", n)[1] == pytest.approx(wrp, abs=5e-11)
    assert closed_form("b", n)[1] == pytest.approx(wb, abs=5e-11)
    assert upper_bounds(n).ubW == pytest.approx(ub, abs=5e-11)
    computed = (closed_form("b", n)[1] - closed_form("regular-plus", n)[1]) \
        / (upper_bounds(n).ubW - closed_form("regular-plus", n)[1])
    assert computed == pytest.approx(ratio, abs=5e-5)


@pytest.mark.parametrize("n", POWERS)
def test_unit_perimeter_width_table_reproduction(n):
    wrh, prev, wbh, ub, ratio = UNIT_PERIMETER_WIDTH_TABLE[n]
    assert closed_form("regular-hat", n)[1] == pytest.approx(wrh, abs=5e-11)
    assert upper_bounds(n - 1).ubw == pytest.approx(prev, abs=5e-11)
    one, wbh_val = closed_form("b-hat", n)
    assert one == 1.0
    assert wbh_val == pytest.approx(wbh, abs=5e-11)
    assert upper_bounds(n).ubw == pytest.approx(ub, abs=5e-11)
    computed = (wbh_val - upper_bounds(n - 1).ubw) \
        / (upper_bounds(n).ubw - upper_bounds(n - 1).ubw)
    assert computed == pytest.approx(ratio, abs=5e-5)


def test_reuleaux_closed_form_equals_upper_bound():
    for m, n in ((3, 6), (3, 12), (5, 20), (7, 21)):
        L, W = closed_form("reuleaux", n, m)
        assert L == upper_bounds(n).ubL
        assert W == upper_bounds(n).ubW
    with pytest.raises(ValueError):
        closed_form("reuleaux", 8, 4)
    with pytest.raises(ValueError):
        closed_form("reuleaux", 8, 3)


def test_closed_form_32():
    L, W = closed_form("b", 32)
    assert L == pytest.approx(3.1403310687, abs=5e-11)
    assert W == pytest.approx(0.9987837929, abs=5e-11)
    assert closed_form("b-hat", 16)[1] == pytest.approx(0.3172268776, abs=5e-11)


def test_closed_form_rejects_unknown_family():
    with pytest.raises(UnknownFamilyError):
        closed_form("heptagonal", 8)
    with pytest.raises(UnknownFamilyError):
        gap_constants("heptagonal-width", 256)


def test_exact_width_identity_at_8():
    # W of the 8-gon member has the surd form sqrt(10 + 2 sqrt(7)) / 4
    assert closed_form("b", 8)[1] == pytest.approx(
        0.25 * math.sqrt(10 + 2 * math.sqrt(7)), abs=1e-12)


def test_exact_perimeter_identity_at_4():
    assert closed_form("q", 4)[0] == pytest.approx(
        2 + math.sqrt(6) - math.sqrt(2), abs=1e-12)


def test_alternation_offsets_match_direct_formulas():
    # the rationalized evaluations must agree with the textbook differences
    # wherever the latter are numerically trustworthy
    for n in (8, 16, 32, 64, 128, 256):
        direct_b = PI / n - math.asin(0.5 * math.sin(2 * PI / n))
        assert b_alternation(n) == pytest.approx(direct_b, rel=1e-11)
        direct_q = PI / 4 - math.asin(math.cos(PI / n) / math.sqrt(2))
        assert q_alternation(n) == pytest.approx(direct_q, rel=1e-11)


def test_gap_constants_against_limits_at_4096():
    for law in ("b-perimeter", "b-width", "q-perimeter", "b-hat-width"):
        power, limit = GAP_LAWS[law]
        assert gap_constants(law, 4096) == pytest.approx(limit, rel=0.02)


def test_gap_constants_accepts_exactly_the_gap_law_keys():
    for law, (power, limit) in GAP_LAWS.items():
        assert abs(gap_constants(law, 4096) / limit - 1.0) <= 0.02
    for key in ("b", "b-area", "b-hat-perimeter", "regular-hat-perimeter",
                "tamvakis-width", "q-hat-width", "heptagonal-width", "", "b-perimeter "):
        with pytest.raises(UnknownFamilyError):
            gap_constants(key, 4096)


def test_gap_constants_against_direct_differences_at_small_n():
    # at small n the raw differences are still well-conditioned
    for n, law, bound_value in (
        (16, "b-perimeter", None),
        (16, "q-perimeter", None),
        (16, "tamvakis-perimeter", None),
    ):
        ub = upper_bounds(n).ubL
        family = law.split("-")[0]
        direct = n ** GAP_LAWS[law][0] * (ub - closed_form(family, n)[0])
        assert gap_constants(law, n) == pytest.approx(direct, rel=1e-9)
    direct = 16 ** 4 * (upper_bounds(16).ubw - closed_form("b-hat", 16)[1])
    assert gap_constants("b-hat-width", 16) == pytest.approx(direct, rel=1e-9)
    direct = 16 ** 4 * (upper_bounds(16).ubW - closed_form("b", 16)[1])
    assert gap_constants("b-width", 16) == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize("law", sorted(GAP_LAWS))
def test_gap_convergence_is_monotone(law):
    power, limit = GAP_LAWS[law]
    errors = [abs(gap_constants(law, 2 ** s) - limit) for s in range(8, 17)]
    for a, b in zip(errors, errors[1:]):
        assert b < a
    assert errors[-1] / limit < 1e-4


@pytest.mark.parametrize("n", POWERS)
def test_perimeter_ordering_chain(n):
    lr = closed_form("regular", n)[0]
    lb = closed_form("b", n)[0]
    lq_opt = OPTIMAL_PERIMETER_Q[n]
    lb_opt = OPTIMAL_PERIMETER_B[n]
    ub = upper_bounds(n).ubL
    assert lr < lq_opt < lb < lb_opt < ub
    assert closed_form("regular-plus", n)[0] < closed_form("q", n)[0]


@pytest.mark.parametrize("n", POWERS)
def test_width_orderings(n):
    wrp = closed_form("regular-plus", n)[1]
    assert wrp >= max(closed_form("tamvakis", n)[1], mossinghoff_width(n))
    assert closed_form("q", n)[1] < wrp


def test_mossinghoff_reference_values():
    assert mossinghoff_perimeter(8) == 3.1209757852
    with pytest.raises(ValueError):
        mossinghoff_perimeter(10)
    # widths round to the published figure captions
    assert mossinghoff_width(8) == pytest.approx(0.9747, abs=5e-5)
    assert mossinghoff_width(16) == pytest.approx(0.9943, abs=5e-5)
