"""The benchmark's four workloads, made of calls to smallpoly's public functions.

A workload is a list of chains; a chain is a list of steps, each of which is
one timed operation.  A step receives the outputs of the earlier steps of its
chain, keyed by step name, so dependent operations (build, then serialize,
then parse, then measure) stay in order while the seed shuffles whole chains.

Every call goes through a module attribute (``sp.solve``, ``sp.cli.table_csv``)
at call time, so the spans that ``tracing`` installs on those attributes see
it.  Importing this module imports the program, which is what a set-up probe
measures.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "smallpoly", "__init__.py")):
    raise ImportError(f"no smallpoly package under {SRC}")
sys.path.insert(0, SRC)

import smallpoly as sp  # noqa: E402
import smallpoly.cli  # noqa: E402,F401  (makes sp.cli available)

SOLVE_PROBLEMS = (("b", 256), ("q", 128))
POLYGON_N = 4096
POLYGON_FAMILIES = ("regular", "tamvakis", "b_family", "q_family")
VERIFY_N_MAX = 1024


@dataclass(frozen=True)
class Step:
    name: str
    fn: Callable[[dict], Any]


@dataclass(frozen=True)
class Chain:
    name: str
    steps: tuple[Step, ...]


def _one(output) -> tuple[int, int]:
    return 1, 0


def _verify_tally(results) -> tuple[int, int]:
    return len(results), sum(1 for _, ok, _ in results if not ok)


@dataclass(frozen=True)
class Workload:
    name: str
    chains: tuple[Chain, ...]
    # (attempted, failed) operations that one step's output stands for
    tally: Callable[[Any], tuple[int, int]] = _one


def _tables() -> Workload:
    specs = [sp.cli.TableSpec(tid) for tid in sp.cli.TABLE_IDS]
    return Workload("tables", tuple(
        Chain(spec.table_id, (Step("csv", lambda o, s=spec: sp.cli.table_csv(s)),))
        for spec in specs))


def _solve() -> Workload:
    def step(family: str, n: int) -> Step:
        def run(o):
            build = sp.build_b_problem if family == "b" else sp.build_q_problem
            return sp.solve(build(n))
        return Step("solve", run)
    return Workload("solve", tuple(
        Chain(f"{family}{n}", (step(family, n),)) for family, n in SOLVE_PROBLEMS))


def _polygons() -> Workload:
    chains = []
    for family in POLYGON_FAMILIES:
        steps = [
            Step("build", lambda o, f=family: getattr(sp, f)(POLYGON_N)),
            Step("to_json", lambda o: sp.polygon_to_json(o["build"])),
            Step("from_json", lambda o: sp.polygon_from_json(o["to_json"])),
            Step("measure", lambda o: sp.measure(o["from_json"])),
        ]
        if family == "b_family":
            steps += [
                Step("extract", lambda o: sp.extract_angles_b(o["from_json"])),
                Step("from_angles", lambda o: sp.from_angles_b(o["extract"])),
            ]
        chains.append(Chain(family, tuple(steps)))
    return Workload("polygons", tuple(chains))


def _verify() -> Workload:
    return Workload("verify", (
        Chain("verify_checks",
              (Step("run", lambda o: sp.cli.verify_checks(VERIFY_N_MAX)),)),
    ), tally=_verify_tally)


BUILDERS = {"tables": _tables, "solve": _solve, "polygons": _polygons,
            "verify": _verify}


def build(name: str) -> Workload:
    """The inputs of one workload; building them is part of set-up time."""
    return BUILDERS[name]()
