"""Default solves against the 40-digit KKT optimum of the paper's problems.

The reference optimum comes from ``perfbench/checks.py``, which states both
perimeter problems from the paper's definitions in mpmath and solves their
KKT system to 40 digits; nothing here is computed by ``smallpoly``'s own
problem builders.  The bounds are the binary64 solve's own error: angles
within n * 4e-16 and objectives within 1e-15 of the optimum.
"""

import sys
from pathlib import Path

import pytest

from smallpoly import build_b_problem, build_q_problem, solve

mp = pytest.importorskip("mpmath")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

BUILDERS = {"b": build_b_problem, "q": build_q_problem}


@pytest.mark.parametrize("family,n", [(family, 2 ** s)
                                      for family in ("b", "q") for s in range(3, 9)])
def test_default_solve_is_within_binary64_noise_of_the_optimum(family, n):
    report = solve(BUILDERS[family](n))
    assert report.converged
    with mp.workdps(checks.DPS):
        prob = checks.problem(family, n)
        optimum = checks.kkt_optimum(prob, checks.family_angles(family, n))
        objective = checks.evaluate(prob, optimum)[0]
        angle_error = max(abs(mp.mpf(a) - x) for a, x in zip(report.angles, optimum))
        assert len(report.angles) == prob.dim
        assert angle_error <= n * 4e-16
        assert abs(mp.mpf(report.objective) - objective) <= 1e-15
