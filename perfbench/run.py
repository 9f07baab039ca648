"""Benchmark for staq: solve, certify and learn workloads, end to end and
per layer.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics (from a separate
traced pass) with `--trace 1`. The lines before it are a readable report.
`--workload all` runs every workload in turn. perfbench/README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_ROUND = 5
CALIBRATION_ITERATIONS = 500_000
CALIBRATION_EVERY_S = 1.0
# The calibration loop's mean time on the reference host, a 2-vCPU Intel Xeon
# VM with Python 3.11.7; end-to-end times read as seconds at that speed.
REFERENCE_CALIBRATION_S = 0.045
WORKLOAD_NAMES = ("solve", "certify_learn")
# Reported where a workload has them, but not defined on every workload, so
# they are not in BENCHMARK.json: name -> (unit, better, sample kind).
# learn_s sums its keys (all the learning of a pass); the others take the
# median over keys of each key's mean.
REPORT_ONLY = {
    "certify_s": ("s", "lower", "certify"),
    "oracle_s": ("s", "lower", "oracle"),
    "learn_s": ("s", "lower", "learn"),
}


def import_library() -> None:
    """Import staq from this checkout's src/, and nowhere else."""
    if not (SRC / "staq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import staq

    if SRC not in Path(staq.__file__).resolve().parents:
        sys.exit(f"perfbench: imported staq from {staq.__file__}, not from {SRC}")


def calibration_seconds() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


@dataclass
class HostSpeed:
    """The calibration loop, timed between operations about once a second.

    A shared host runs 10-40% slower for minutes at a time, which moves whole
    runs. The library's speed follows the loop's: in 10 s windows on the
    reference host, a solve's and a GP roster's times correlated with the
    loop's at 0.9. End-to-end times are therefore multiplied by `factor`,
    the reference loop time over this run's mean loop time.
    """

    samples: list = field(default_factory=list)
    last: float = -math.inf

    def tick(self) -> None:
        if perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.samples.append(calibration_seconds())
            self.last = perf_counter()

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / self.mean


def warm_up() -> None:
    """Finish lazy imports and first-call set-up before anything is timed."""
    import numpy as np
    from staq import instance_io, learning, search

    from generator import generate

    search.solve(instance_io.instance_from_document(generate(1)).domain)
    learning.gp_predict(learning.gp_fit(np.eye(3), np.array([0.1, 0.5, 0.9])), np.ones((2, 3)))


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}", cuts[round(p * 10) - 1]
    return "max", max(values)


@dataclass
class Run:
    workload: str
    host: HostSpeed
    setup_times: list
    tally: object  # the untraced operations
    passes: float = 0.0  # passes made, counting a last partial one by its share
    layers: Optional[dict] = None  # per-layer metrics of the traced pass
    traced_s: Optional[float] = None
    parts: Optional[dict] = None  # the traced pass's span summary of each part


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[name]
    host = HostSpeed()
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    setup_times = []

    def set_up():
        # Rounds of set-up before and between passes sample the host at
        # several moments of the run, which steadies their median. The
        # documents come out the same each time, so operations keep their
        # paths.
        for _ in range(SETUP_ROUND):
            shutil.rmtree(workdir, ignore_errors=True)
            start = perf_counter()
            workdir.mkdir(parents=True)
            inputs = workload.setup(workdir, seed)
            setup_times.append(perf_counter() - start)
        return inputs

    try:
        pieces = workload.pieces(set_up())
        ops = [op for _, part_ops in pieces for op in part_ops]
        warm_up()
        run = Run(name, host, setup_times, Tally())
        # Cycle through the operations until the time is up, after at least
        # one whole pass; every operation is then summarised by its mean.
        started = perf_counter()
        done = 0
        while True:
            host.tick()
            label, op = ops[done % len(ops)]
            run.tally.run(label, op)
            done += 1
            if done % len(ops) == 0:
                set_up()
            if done >= len(ops) and (trace or perf_counter() - started >= seconds):
                break
        run.passes = done / len(ops)

        if trace:
            tracer, traced, spans = Tracer(), Tally(), {}
            with tracer.install():
                for part, part_ops in pieces:
                    first = len(tracer)
                    for label, op in part_ops:
                        traced.run(label, op, tracer)
                    spans[part] = (first, len(tracer))
            tracer.require(workload.expected_spans)
            run.parts = {part: tracer.summary(*bounds) for part, bounds in spans.items()}
            run.traced_s = traced.busy
            run.layers = layer_metrics(tracer, traced.search)
            run.layers["host.calibration_s"] = host.mean
            run.layers["trace.overhead_s"] = traced.busy - batch_seconds(run.tally)
            run.tally.attempted += traced.attempted
            run.tally.failures += traced.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return run


def per_key(tally, kind: str) -> list:
    """The mean of each key's samples of one kind, e.g. one per instance."""
    return [statistics.fmean(v) for v in tally.samples[kind].values()]


def batch_seconds(tally) -> float:
    """One typical pass: the sum of every operation's mean library time."""
    return sum(statistics.fmean(v) for v in tally.op_busy.values())


def end_to_end(run: Run, scale: float = 1.0) -> dict:
    """The result-line metrics; times multiplied by `scale`."""
    tally = run.tally
    # an empty sample means every operation failed, which `failed` reports
    return {
        "setup_s": statistics.median(run.setup_times) * scale,
        "solve_s": statistics.median(per_key(tally, "solve") or [0.0]) * scale,
        "batch_s": batch_seconds(tally) * scale,
        "quality_mean": statistics.fmean(tally.qualities.values() or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(run: Run, spec: dict) -> None:
    tally, host = run.tally, run.host
    measured = end_to_end(run)
    print(f"== workload {run.workload}: {run.passes:.2f} untraced passes, "
          f"{tally.attempted} operations")
    print(f"  calibration loop: mean {host.mean:.6f} s over n={len(host.samples)}, reference "
          f"{REFERENCE_CALIBRATION_S} s; times below are scaled by {host.factor:.4f}, "
          f"as measured in brackets")
    samples = {"setup_s": run.setup_times, "solve_s": per_key(tally, "solve")}
    rows = [(m["name"], measured[m["name"]], m["unit"], m["better"]) for m in spec["end_to_end"]]
    for name, (unit, better, kind) in REPORT_ONLY.items():
        if tally.samples.get(kind):
            samples[name] = per_key(tally, kind)
            value = sum(samples[name]) if name == "learn_s" else statistics.median(samples[name])
            rows.append((name, value, unit, better))
    for name, value, unit, better in rows:
        scale = host.factor if unit == "s" else 1.0
        line = f"  {name:<14} {value * scale:.6g} {unit} ({better} is better)"
        if unit == "s":
            line += f" [{value:.6g} s]"
        if name == "learn_s":
            line += f"  sum over n={len(samples[name])} operations"
        elif samples.get(name):
            label, high = tail(samples[name])
            line += f"  median of n={len(samples[name])}, {label} {high * scale:.6g} {unit}"
        print(line)
    if tally.gaps:
        print(f"  {'gap_max':<14} {max(tally.gaps.values()):.6g} span (lower is better)"
              f"  largest of n={len(tally.gaps)} oracle gaps at alpha < 0.5")
    if tally.rmse:
        print(f"  {'learn_rmse':<14} {statistics.fmean(tally.rmse.values()):.6g} rmse"
              f" (lower is better)  mean of n={len(tally.rmse)} final active-learning errors")
    failed = len(tally.failures)
    print(f"  {'error_rate':<14} {failed / tally.attempted:.6g} ratio (lower is better)"
          f"  {failed} failed of {tally.attempted} operations")

    if run.layers is not None:
        layers = run.layers
        print(f"  traced pass {run.traced_s:.4f} s, untraced {measured['batch_s']:.4f} s, "
              "both as measured")
        for part, spans in run.parts.items():
            solve = spans.get("search.solve", {})
            if not solve.get("s"):
                continue
            planning = (spans.get("scheduler.refine", {}).get("self_s", 0.0)
                        + spans.get("motion.plan", {}).get("self_s", 0.0)
                        + spans.get("motion.astar", {}).get("s", 0.0))
            child, child_s = max(
                ((n, v["under_s"].get("search.solve", 0.0)) for n, v in spans.items()),
                key=lambda item: item[1],
            )
            print(f"  part {part}: refinement and planning {planning / solve['s']:.3f} of "
                  f"{solve['s']:.4f} s solve time; largest child span {child} {child_s:.4f} s")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<34} {layers[m['name']]:.6g} {m['unit']}")
    for label, problems in tally.failures:
        print(f"FAILED {run.workload} {label}:", file=sys.stderr)
        for problem in problems[:3]:
            print(f"  {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"host: nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(run, spec)
        values = run.layers if args.trace else end_to_end(run, run.host.factor)
        prefix = f"{name}." if args.workload == "all" else ""
        for m in metrics:
            result[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        attempted += run.tally.attempted
        failed += len(run.tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
