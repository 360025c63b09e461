"""Closed-form perimeters, widths, upper bounds and asymptotic gap constants.

Pure scalar functions of the vertex count, and the perimeter gap of an
angle sequence to its bound (:func:`perimeter_gap`).  These are the analytic
counterparts of the coordinate-level metrics in :mod:`smallpoly.geometry`;
tests require the two routes to agree to 1e-10 on every constructed family.

Family keys accepted by :func:`closed_form`, :func:`gap_constants` and
:func:`require_n` are the strings used throughout the package: ``regular``,
``regular-plus``, ``reuleaux``, ``tamvakis``, ``b``, ``q``, plus the
unit-perimeter variants ``regular-hat`` and ``b-hat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

PI = math.pi


class UnknownFamilyError(ValueError):
    """Family key not recognized by this module."""


def require_n(family: str, n: int, m: int | None = None,
              error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``family`` has a member with n vertices (over m arcs).

    The one statement of which vertex counts each family admits: b at
    n = 2^s >= 8, q and tamvakis at n = 2^s >= 4, regular-plus at even
    n >= 4, reuleaux at odd m >= 3 dividing n >= 3, every other family (and
    ``polygon``, any n-gon) at n >= 3.
    """
    least = {"b": 8, "q": 4, "tamvakis": 4}.get(family)
    if least is not None:
        rule, ok = f"n = 2^s >= {least}", n >= least and n & (n - 1) == 0
    elif family == "regular-plus":
        rule, ok = "even n >= 4", n >= 4 and n % 2 == 0
    elif family == "reuleaux":
        rule = "odd m >= 3 dividing n >= 3"
        ok = m is not None and m >= 3 and m % 2 == 1 and n >= 3 and n % m == 0
    else:
        rule, ok = "n >= 3", n >= 3
    if not ok:
        raise error(f"{family} needs {rule}, got n={n}" + ("" if m is None else f", m={m}"))


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSet:
    """The three classical upper bounds at a given vertex count.

    ``ubL`` bounds the perimeter of any convex small n-gon, ``ubW`` its
    width, and ``ubw`` the width of any unit-perimeter n-gon.
    """

    n: int
    ubL: float  # 2n sin(pi/2n)
    ubW: float  # cos(pi/2n)
    ubw: float  # cot(pi/2n) / 2n


def upper_bounds(n: int) -> BoundSet:
    """Evaluate the perimeter/width/unit-perimeter-width upper bounds."""
    require_n("polygon", n)
    half = PI / (2 * n)
    return BoundSet(n=n, ubL=2 * n * math.sin(half), ubW=math.cos(half),
                    ubw=1.0 / (2 * n * math.tan(half)))


@cache
def _xcotx_coefficient(k: int) -> Fraction:
    """c_k of x cot x = 1 - sum_{k>=1} c_k x^(2k): 1/3, 1/45, 2/945, .., exact.

    From x cot x = cos x / (sin(x)/x), term by term in x^2.
    """
    cos_k = Fraction((-1) ** k, math.factorial(2 * k))
    sinc = [Fraction((-1) ** j, math.factorial(2 * j + 1)) for j in range(k + 1)]
    return sinc[k] - cos_k - sum(sinc[j] * _xcotx_coefficient(k - j) for j in range(1, k))


def ubw_step(n: int) -> float:
    """ub_w(n) - ub_w(n-1), summed without cancellation.

    ub_w(n) = x cot(x) / pi at x = pi/2n, so the step is
    (1/pi) sum_k c_k (pi/2)^(2k) (1/(n-1)^(2k) - 1/n^(2k)) with the c_k of
    :func:`_xcotx_coefficient`.  Every term is positive, and each
    c_k (1/(n-1)^(2k) - 1/n^(2k)) is an exact ratio of integers rounded once.
    """
    require_n("polygon", n - 1)
    total, k = 0.0, 1
    while True:
        c = _xcotx_coefficient(k)
        term = (c.numerator * (n ** (2 * k) - (n - 1) ** (2 * k))
                / (c.denominator * (n * (n - 1)) ** (2 * k))) * (PI / 2) ** (2 * k)
        total += term
        if term <= 1e-17 * total:
            return total / PI
        k += 1


# ---------------------------------------------------------------------------
# Angle-sequence skews of the two diameter-graph families
# ---------------------------------------------------------------------------


def b_alternation(n: int) -> float:
    """Alternating angle offset of the cycle-plus-pendants family.

    The family's angles are pi/n + (-1)^k * b_alternation(n); the offset is
    fixed by requiring the half cycle to close at abscissa -1/2, which gives
    pi/n - arcsin(sin(2 pi/n) / 2).  Evaluated in a rationalized form,
    arcsin(sin^3(pi/n) / (sqrt(1 - sin^2(2pi/n)/4) + cos^2(pi/n))), which is
    algebraically identical but free of the catastrophic cancellation the
    direct difference suffers for large n.
    """
    s, c = math.sin(PI / n), math.cos(PI / n)
    u = s * c  # = sin(2 pi / n) / 2
    return math.asin(s ** 3 / (math.sqrt(1.0 - u * u) + c * c))


def q_alternation(n: int) -> float:
    """Alternating angle offset of the odd-cycle-plus-one-pendant family.

    Equals pi/4 - arcsin(cos(pi/n) / sqrt(2)); evaluated as
    arcsin(sin^2(pi/n) / (sqrt(1 + sin^2(pi/n)) + cos(pi/n))) to avoid
    cancellation for large n.
    """
    s, c = math.sin(PI / n), math.cos(PI / n)
    return math.asin(s * s / (math.sqrt(1.0 + s * s) + c))


# ---------------------------------------------------------------------------
# Closed-form perimeters and widths
# ---------------------------------------------------------------------------


def _regular_plus(n: int) -> tuple[float, float]:
    half = PI / (2 * n - 2)
    L = (2 * n - 2) * math.sin(half) + 4 * math.sin(PI / (4 * n - 4)) - 2 * math.sin(half)
    return L, math.cos(half)


def _tamvakis(n: int) -> tuple[float, float]:
    if n % 3 == 1:
        L = ((4 * n - 4) / 3) * math.sin(PI / (2 * n - 2)) \
            + ((2 * n + 4) / 3) * math.sin(PI / (2 * n + 4))
        W = math.cos(PI / (2 * n - 2))
    else:  # n = 3k + 2 (powers of two are never divisible by 3)
        L = ((4 * n + 4) / 3) * math.sin(PI / (2 * n + 2)) \
            + ((2 * n - 4) / 3) * math.sin(PI / (2 * n - 4))
        W = math.cos(PI / (2 * n - 4))
    return L, W


def _alternating(offset: float, n: int) -> tuple[float, float]:
    """Perimeter 2n sin(pi/2n) cos(offset/2) and width cos(pi/2n + offset/2)
    of the member with angles pi/n +- offset: b, q, and the regular and
    Reuleaux polygons (offset pi/n for the even regular n-gon, else 0)."""
    L = 2 * n * math.sin(PI / (2 * n)) * math.cos(offset / 2)
    W = math.cos(PI / (2 * n) + offset / 2)
    return L, W


_CLOSED_FORMS = {
    "regular": lambda n: _alternating(0.0 if n % 2 else PI / n, n),
    "regular-plus": _regular_plus,
    "reuleaux": lambda n: _alternating(0.0, n),
    "tamvakis": _tamvakis,
    "b": lambda n: _alternating(b_alternation(n), n),
    "q": lambda n: _alternating(q_alternation(n), n),
}
_UNIT_PERIMETER = ("regular-hat", "b-hat")


def closed_form(family: str, n: int, m: int | None = None) -> tuple[float, float]:
    """Analytic (perimeter, width) of a family member.

    The unit-perimeter variants return ``(1.0, W / L)`` of their base family.
    ``m`` only enters the ``reuleaux`` family's n rule; its perimeter and
    width depend on n alone.
    """
    key = str(family)
    base = key.removesuffix("-hat")
    if key not in _CLOSED_FORMS and key not in _UNIT_PERIMETER:
        raise UnknownFamilyError(f"no closed form for family {family!r}")
    require_n(base, n, m)
    L, W = _CLOSED_FORMS[base](n)
    return (L, W) if key == base else (1.0, W / L)


# ---------------------------------------------------------------------------
# Published reference values for the Mossinghoff family.  The construction is
# not implemented here; its perimeters are carried as constants (Mossinghoff,
# "Enumerating isodiametric and isoperimetric polygons", and follow-ups) for
# table columns, while its width has the closed form below.
# ---------------------------------------------------------------------------

MOSSINGHOFF_PERIMETERS = {
    8: 3.1209757852,
    16: 3.1365320240,
    32: 3.1403306141,
    64: 3.1412772335,
    128: 3.1415138006,
}


def mossinghoff_perimeter(n: int) -> float:
    try:
        return MOSSINGHOFF_PERIMETERS[n]
    except KeyError:
        raise ValueError(f"no stored Mossinghoff perimeter for n={n}") from None


def mossinghoff_width(n: int) -> float:
    require_n("b", n)
    return math.cos(PI / (2 * n) + PI ** 2 / (4 * n ** 2) - PI ** 2 / (2 * n ** 3))


# ---------------------------------------------------------------------------
# Scaled asymptotic gaps.
#
# Every law below states that n^p * (bound - value) tends to a constant.  The
# raw differences underflow binary64 long before the limits stabilize (for
# the cycle family's perimeter the gap is ~1e-20 at n = 2^12), so each gap is
# evaluated through an algebraically equivalent form that never subtracts
# nearly equal quantities: a product, or for the subdivided-arc perimeters a
# series whose leading parts cancel in exact rational arithmetic.
# ---------------------------------------------------------------------------

GAP_LAWS: dict[str, tuple[int, float]] = {
    # family-metric key: (power p, limit constant)
    "b-perimeter": (6, PI ** 7 / 32),
    "b-width": (4, PI ** 4 / 8),
    "q-perimeter": (4, PI ** 5 / 32),
    "q-width": (3, PI ** 3 / 8),
    "b-hat-width": (4, PI ** 3 / 8),
    "tamvakis-perimeter": (4, PI ** 3 / 4),
    "regular-perimeter": (2, PI ** 3 / 8),
    "regular-width": (2, 3 * PI ** 2 / 8),
    "regular-plus-perimeter": (3, 5 * PI ** 3 / 96),
    "regular-plus-width": (3, PI ** 2 / 4),
    "regular-hat-width": (2, PI / 4),
}

OPTIMUM_GAP_LIMITS: dict[str, tuple[int, float]] = {
    # family-metric key: (power p, limit of n^p (ub_L - L_opt))
    "b-perimeter": (6, PI ** 5 / 4),
    "q-perimeter": (4, PI ** 3 / 4),
}
"""Scaled perimeter gaps of each family's optimum, 8/pi^2 of its member's law.

L_opt is the maximum of the family's perimeter problem
(:mod:`smallpoly.optimizer`).  No closed form gives it at finite n, so these
limits are kept apart from ``GAP_LAWS``, whose entries
:func:`gap_constants` evaluates; each has its member's power p, and
pi^5/4 = (8/pi^2) pi^7/32, pi^3/4 = (8/pi^2) pi^5/32.

To second order in the deviations d = a - pi/n, on the angle-sum plane,
ub_L - L = (pi/4n) sum_k w_k d_k^2 (:func:`perimeter_gap`).  Write
d_k = (-1)^k s_k and let x_k be the family's harmonic phase (``harmonic``
of its angle class), which runs over [0, pi/2].  Summed by parts, the
closure's alternating terms leave, to first order in d, one moment fixed:
sum_k w_k s_k cos x_k.  The member meets it with the square wave
s = +-offset.  Among profiles with that moment, sum_k w_k s_k^2 is least
for the wave's fundamental harmonic, s = (4/pi) offset cos x, which has the
same moment because (4/pi) int cos^2 = int cos over [0, pi/2].  By Parseval
the fundamental carries (4/pi)^2 / 2 = 8/pi^2 of the square wave's mean
square, so the optimum's gap is 8/pi^2 of the member's.  The scaled gaps
approach these limits as O(1/n^2): tests/test_mpmath_oracle.py extrapolates
40-digit optima at n = 32 .. 256 to them.
"""


def _chord_deficits(arcs: list[tuple[Fraction, Fraction]]) -> float:
    """How far the chords fall short of arcs pi w_i cut into subarcs pi r_i.

    Order m of the series contributes (-1)^(m+1) pi^(2m+1) c_m / (4^m (2m+1)!)
    with c_m = sum_i w_i r_i^(2m) exact, so nearly equal arcs cancel unrounded.
    """
    total, m, scale = 0.0, 1, PI ** 3 / 24
    while True:
        term = scale * float(sum(w * r ** (2 * m) for w, r in arcs))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
        m += 1
        scale *= -PI * PI / (4 * (2 * m) * (2 * m + 1))


def _sine_deficits(e: np.ndarray) -> np.ndarray:
    """e - sin e for each |e| <= 1, by its series e^3/3! - e^5/5! + ...

    The direct difference cancels all but the cubic part.  The series adds
    terms until the last one added is below 1e-17 of the first at the
    largest |e|, and so at every entry.
    """
    e2 = e * e
    term = e * e2 / 6
    total, k, rel, worst = term, 2, 1.0, float(np.max(e2))
    while rel > 1e-17:
        ratio = (2 * k) * (2 * k + 1)
        term = term * (-e2 / ratio)
        total = total + term
        rel *= worst / ratio
        k += 1
    return total


def perimeter_gap(n: int, weights: np.ndarray, deviations: np.ndarray) -> float:
    """ub_L(n) - 4 sum w_k sin(a_k/2) at the angles a = pi/n + d, on the
    angle-sum plane sum w_k d_k = 0, without cancellation.

    With h = pi/2n and e = d/2, sin(h + e) = sin h cos e + cos h sin e.  The
    weights of b and q sum to n/2, so the constant terms make ub_L and the
    linear ones vanish on the plane, leaving

        4 sum w_k [sin h * 2 sin^2(e_k/2) + cos h * (e_k - sin e_k)].

    Off the plane this is ub_L - L + 2 cos h * sum w_k d_k.
    """
    half = PI / (2 * n)
    e = deviations / 2
    # two sums: adding the parts term by term would round away the smaller
    chords = 8 * math.sin(half) * weights * np.sin(e / 2) ** 2
    sines = 4 * math.cos(half) * weights * _sine_deficits(e)
    return math.fsum(chords.tolist() + sines.tolist())


def gap_constants(family: str, n: int) -> float:
    """Scaled gap n^p * (bound - value) for the family's asymptotic law.

    Compare the result against ``GAP_LAWS[family][1]``; at n = 2^12 the two
    agree within a fraction of a percent for every law.  The b and q laws
    share one form in their angle offset (:func:`_alternating`), as do the
    regular laws at even n, whose angles read as pi/n +- pi/n.
    """
    if family not in GAP_LAWS:
        raise UnknownFamilyError(f"no gap law for family {family!r}")
    kind, metric = family.rsplit("-", 1)
    require_n(kind.removesuffix("-hat"), n)
    scale, half = n ** GAP_LAWS[family][0], PI / (2 * n)
    if kind == "tamvakis":
        k, r = divmod(n, 3)
        # three pi/3 arcs of k or k + 1 subarcs, less the bound's pi in n subarcs
        arcs = [(Fraction(1, 3), Fraction(1, 3 * c))
                for c in ((k, k, k + 1) if r == 1 else (k + 1, k + 1, k))]
        return scale * _chord_deficits(arcs + [(Fraction(-1), Fraction(1, n))])
    if kind == "regular-plus":
        if metric == "perimeter":
            hs = Fraction(1, n - 1)
            return scale * _chord_deficits([(1 - hs, hs), (hs, hs / 2),
                                            (Fraction(-1), Fraction(1, n))])
        other = PI / (2 * n - 2)
        spread = PI / (2 * n * (n - 1))  # = other - half, exactly
        return scale * (2 * math.sin((half + other) / 2) * math.sin(spread / 2))
    if kind.startswith("regular"):
        if n % 2:
            raise ValueError(f"{family} gap law applies to even n")
        offset = 2 * half
    else:
        offset = q_alternation(n) if kind == "q" else b_alternation(n)
    if metric == "perimeter":  # ub_L (1 - cos(offset/2))
        return scale * (2 * n * math.sin(half) * 2 * math.sin(offset / 4) ** 2)
    if kind.endswith("-hat"):  # ub_w - w = tan(offset/2) / 2n
        return scale * math.tan(offset / 2) / (2 * n)
    # cos(pi/2n) - cos(pi/2n + offset/2)
    return scale * (2 * math.sin(half + offset / 4) * math.sin(offset / 4))
