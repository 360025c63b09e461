"""Run one workload of the smallpoly benchmark and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Workloads: tables, solve, polygons, verify (see README.md).  The run repeats
passes over the workload's operations in one process and one thread, closed
loop, while the next pass is expected to end within ``--seconds`` (at least
two passes).  The seed only shuffles the order of the operations within each
pass.  After the timed passes, the last pass's outputs are checked against
computations made apart from the program (``checks.py``).

With ``--trace 0`` the metrics are set-up time, pass time and peak resident
set; with ``--trace 1`` the passes alternate between untraced and traced,
and the metrics are the per-layer self times and counts of the traced passes
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine and versions.  Full results, and the
spans of a traced run, are written under ``perfbench/results/``.
"""

import os

# One BLAS thread: the solver's matrices are at most 130 x 130, and BLAS
# threads woken on a small shared host only add variation.  Set before numpy
# is imported, here and in the set-up probes that inherit the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("tables", "solve", "polygons", "verify")
SETUP_PROBES = 9      # fresh start-ups per run, at least; set-up time is their median
PROBE_EVERY_S = 2.0   # between operations, a probe runs once this much time has passed
MIN_PASSES = 2
MAX_RUN_S = 150.0     # no pass starts that is expected to end later than this


def setup_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports smallpoly and builds inputs."""
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class SetupSampler:
    """Set-up probes spread over the whole run, between operations.

    Start-up time on a shared host drifts by tens of percent within a minute,
    so probes taken in one burst would sample a single moment.  A probe runs
    between operations once ``PROBE_EVERY_S`` has passed since the last one;
    ``finish`` tops the count up to ``SETUP_PROBES``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[float] = []
        self._last = float("-inf")

    def _sample(self) -> None:
        self.samples.append(setup_probe(self.workload))
        self._last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self._sample()
        return self.samples


def run_passes(workload, seed: int, seconds: float, tracer, between_ops):
    """Timed passes; with a tracer, every second pass is traced.

    ``between_ops`` is called before each chain, outside the timed region.
    """
    rng = random.Random(seed)
    samples = {False: defaultdict(list), True: defaultdict(list)}
    traced_passes = []          # (pass time, layer metrics, layer self-time total)
    attempted = failed = 0
    outputs: dict = {}
    errors: dict = {}
    passes = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        chains = list(workload.chains)
        rng.shuffle(chains)
        pass_time = 0.0
        try:
            for chain in chains:
                between_ops()
                outs = {}
                for step in chain.steps:
                    op = f"{chain.name}.{step.name}"
                    if len(outs) < chain.steps.index(step):  # an earlier step failed
                        attempted, failed = attempted + 1, failed + 1
                        continue
                    if tracer is not None:
                        tracer.operation = op
                    t0 = perf_counter()
                    try:
                        out = step.fn(outs)
                    except Exception:  # a failed operation is counted, not fatal
                        dt = perf_counter() - t0
                        errors.setdefault(op, traceback.format_exc())
                        attempted, failed = attempted + 1, failed + 1
                    else:
                        dt = perf_counter() - t0
                        outs[step.name] = out
                        a, f = workload.tally(out)
                        attempted, failed = attempted + a, failed + f
                    samples[traced][op].append(dt)
                    pass_time += dt
                outputs[chain.name] = outs
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_passes.append((pass_time, tracer.pass_metrics(), tracer.layer_total_s()))
        passes += 1
        elapsed = perf_counter() - start
        expected_end = elapsed * (passes + 1) / passes
        if (passes >= MIN_PASSES and expected_end > seconds) or expected_end > MAX_RUN_S:
            break
    return samples, traced_passes, attempted, failed, outputs, errors, passes


def sum_of_medians(samples: dict) -> float:
    return sum(statistics.median(v) for v in samples.values())


def machine_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)

    workload = workloads.build(args.workload)
    tracer = sampler = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        sampler = SetupSampler(args.workload)
    samples, traced_passes, attempted, failed, outputs, errors, passes = run_passes(
        workload, args.seed, args.seconds, tracer, sampler or (lambda: None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = sampler.finish() if sampler else []

    import checks
    n_steps = {chain.name: len(chain.steps) for chain in workload.chains}
    complete = {name: outs for name, outs in outputs.items() if len(outs) == n_steps[name]}
    problems = checks.CHECKS[args.workload](complete)
    for op, tb in errors.items():
        print(f"perfbench: {op} failed:\n{tb}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    pass_s = sum_of_medians(samples[False])
    if args.trace:
        layer = {k: statistics.median_low(p[1][k] for p in traced_passes)
                 for k in traced_passes[0][1]}
        traced_pass_s = sum_of_medians(samples[True])
        layer["trace.pass_s"] = traced_pass_s
        layer["trace.overhead_s"] = traced_pass_s - pass_s
        layer["trace.unaccounted_s"] = statistics.median_low(p[0] - p[2] for p in traced_passes)
        values = layer
    else:
        values = {"setup_s": statistics.median(setup), "pass_s": pass_s,
                  "peak_rss_mb": peak_rss_mb}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "machine": machine_record(),
        "setup_samples_s": setup,
        "op_median_s": {op: statistics.median(v) for op, v in samples[False].items()},
        "op_samples_s": dict(samples[False]),
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
