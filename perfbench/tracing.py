"""Per-layer spans and counts, recorded around calls into smallpoly.

The program itself is not changed.  ``Tracer.install`` replaces each public
function listed in ``LAYERS`` with a wrapper in every smallpoly module that
refers to it, so calls from one module into another (``constructions``
calling ``validate_small_polygon``, ``cli`` calling ``diameter``) are spans
too.  A span's self time is its duration minus the time its child spans
cover; each layer metric is the sum of the self times of its spans, so the
layer metrics of a pass add up to the pass's time less what the benchmark's
own loop spends between calls.  Spans are kept in memory and written out by
the caller at the end of the run.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import defaultdict
from time import perf_counter

# defining module -> {public function: layer bucket}
LAYERS = {
    "geometry": {
        "diameter": "geometry.diameter",
        "width": "geometry.width",
        "small_polygon_violations": "geometry.validate",
        "validate_small_polygon": "geometry.validate",
        "perimeter": "geometry.metrics",
        "area": "geometry.metrics",
        "measure": "geometry.metrics",
        "to_unit_perimeter": "geometry.metrics",
        "polygon_to_json": "geometry.json_write",
        "polygon_from_json": "geometry.json_read",
    },
    "constructions": {
        "regular": "constructions.build",
        "regular_plus": "constructions.build",
        "reuleaux_subdivision": "constructions.build",
        "tamvakis": "constructions.build",
        "b_family": "constructions.build",
        "q_family": "constructions.build",
        "b_angles": "constructions.build",
        "q_angles": "constructions.build",
        "extract_angles_b": "constructions.extract",
        "extract_angles_q": "constructions.extract",
        "from_angles_b": "constructions.from_angles",
        "from_angles_q": "constructions.from_angles",
    },
    "bounds": {
        "closed_form": "bounds.closed_form",
        "upper_bounds": "bounds.closed_form",
        "b_alternation": "bounds.closed_form",
        "q_alternation": "bounds.closed_form",
        "gap_constants": "bounds.closed_form",
        "mossinghoff_perimeter": "bounds.closed_form",
        "mossinghoff_width": "bounds.closed_form",
    },
    "optimizer": {
        "build_b_problem": "optimizer.build",
        "build_q_problem": "optimizer.build",
        "solve": "optimizer.solve",
    },
    "cli": {
        "table_csv": "cli.table",
        "verify_checks": "cli.verify",
    },
}
NAMESPACES = ("smallpoly",) + tuple(f"smallpoly.{m}" for m in LAYERS)
BUCKETS = sorted({b for funcs in LAYERS.values() for b in funcs.values()})


class Tracer:
    """Records spans and per-layer self times for the passes it is installed in."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent id, name, operation, start, end)
        self.operation = ""            # set by the caller before each operation
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 1
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero the self times and counts."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, bucket: str, fn, after=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.self_s[bucket] += (t1 - t0) - frame[1]
                self.counts[bucket] += 1
                if parent is not None:
                    parent[1] += t1 - t0
                self.spans.append((frame[0], parent[0] if parent else 0, name,
                                   self.operation, t0, t1))
            return after(result) if after else result
        return traced

    def _counted(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_problem(self, problem):
        """Count evaluations through the public callables of an NlpProblem."""
        return dataclasses.replace(
            problem,
            objective=self._counted("objective_evals", problem.objective),
            objective_hessian=self._counted("hessian_evals", problem.objective_hessian),
            eq_constraints=tuple(self._counted("constraint_evals", c)
                                 for c in problem.eq_constraints),
            eq_hessians=tuple(self._counted("hessian_evals", h)
                              for h in problem.eq_hessians),
        )

    def _count_report(self, report):
        self.counts["solves"] += 1
        self.counts["starts"] += report.starts_used
        self.counts["iterations"] += report.iterations
        return report

    def _count_checks(self, results):
        self.counts["checks"] += len(results)
        self.counts["checks_failed"] += sum(1 for _, ok, _ in results if not ok)
        return results

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        afters = {"build_b_problem": self._count_problem,
                  "build_q_problem": self._count_problem,
                  "solve": self._count_report,
                  "verify_checks": self._count_checks}
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for module, funcs in LAYERS.items():
            home = importlib.import_module(f"smallpoly.{module}")
            for fname, bucket in funcs.items():
                original = getattr(home, fname)
                wrapper = self._span(f"{module}.{fname}", bucket, original,
                                     afters.get(fname))
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        setattr(ns, fname, wrapper)
                        self._patched.append((ns, fname, original))

    def uninstall(self) -> None:
        for ns, fname, original in reversed(self._patched):
            setattr(ns, fname, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass since the last ``reset``."""
        t, c = self.self_s, self.counts
        return {
            "optimizer.solve_s": t["optimizer.solve"],
            "optimizer.build_s": t["optimizer.build"],
            "optimizer.solves": c["solves"],
            "optimizer.starts": c["starts"],
            "optimizer.starts_per_solve": c["starts"] / c["solves"] if c["solves"] else 0.0,
            "optimizer.iterations": c["iterations"],
            "optimizer.objective_evals": c["objective_evals"],
            "optimizer.constraint_evals": c["constraint_evals"],
            "optimizer.hessian_evals": c["hessian_evals"],
            "geometry.diameter_s": t["geometry.diameter"],
            "geometry.diameter_calls": c["geometry.diameter"],
            "geometry.width_s": t["geometry.width"],
            "geometry.validate_s": t["geometry.validate"],
            "geometry.metrics_s": t["geometry.metrics"],
            "geometry.json_write_s": t["geometry.json_write"],
            "geometry.json_read_s": t["geometry.json_read"],
            "constructions.build_s": t["constructions.build"],
            "constructions.extract_s": t["constructions.extract"],
            "constructions.from_angles_s": t["constructions.from_angles"],
            "bounds.closed_form_s": t["bounds.closed_form"],
            "bounds.calls": c["bounds.closed_form"],
            "cli.table_s": t["cli.table"],
            "cli.verify_s": t["cli.verify"],
            "cli.checks": c["checks"],
            "cli.checks_failed": c["checks_failed"],
        }

    def layer_total_s(self) -> float:
        """Sum of all layer self times in this pass."""
        return sum(self.self_s[b] for b in BUCKETS)
