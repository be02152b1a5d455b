"""gup-mirror benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-zeta --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports the package from `src/`.  The
workload's seeded generator (workloads.py) yields configuration texts;
each is one operation (measure.py).  Every time is scaled to a fixed
reference speed of the machine by the calibration kernel (calibrate.py),
timed next to each operation.

`--trace 0` measures the end-to-end metrics, untraced: setup_s in fresh
interpreters, then operations for `--seconds` in this process, then the
dev_* metrics on the reference grid (checks.py), untimed.  `--trace 1` is
the separate traced run for the per-layer metrics: it runs operations
untraced for half the time (at most TRACE_ROWS rows), then the same
operations with every layer function wrapped (tracer.py), and reports both
throughputs.

`--ops N` runs exactly N timed operations instead of timing, so counts
repeat exactly, and sets up once instead of SETUP_REPS times.
`--workload all` runs every workload in turn.

The last line of standard output is the JSON result; the lines before it
repeat each metric with its unit, plus the operating context.  The exit
code is 0 only if every operation and check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
TAIL_PERCENTILE = 90
# The traced run stops at this many rows: a sweep row makes about 13 spans,
# and spans stay in memory until the run ends.
TRACE_ROWS = 10_000

sys.path.insert(0, str(HERE))
from calibrate import IMPORT_PROBE, REFERENCE_IMPORT_SECONDS, REFERENCE_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Runs in a fresh interpreter: the cold cost a CLI user pays before work.
_SETUP_PROBE = """
import sys, time
text = sys.stdin.read()
t0 = time.perf_counter()
import gup_mirror.runner
t1 = time.perf_counter()
gup_mirror.runner.parse_config(text)
print(t1 - t0, time.perf_counter() - t0)
"""


def _fresh_python(source: str, text: str = "") -> list[float]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source], input=text,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120, check=True)
    return [float(v) for v in proc.stdout.split()]


def measure_setup(text: str, reps: int) -> tuple[float, float]:
    """Median (import seconds, import + parse_config seconds) at reference
    speed over `reps` fresh interpreters, after one unmeasured start that
    compiles bytecode.  Each is scaled by the import probe run next to it."""
    _fresh_python(_SETUP_PROBE, text)
    samples = []
    for _ in range(reps):
        import_s, setup_s = _fresh_python(_SETUP_PROBE, text)
        scale = REFERENCE_IMPORT_SECONDS / _fresh_python(IMPORT_PROBE)[0]
        samples.append((import_s * scale, setup_s * scale))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def end_to_end(args) -> tuple[dict[str, float], int, int, list[str]]:
    import checks
    import measure

    texts = measure.texts_for(args.workload, args.seed)
    first = next(texts)
    setup_import, setup_s = measure_setup(first, _setup_reps(args))
    bench = measure.Runner(args.seed)
    bench.warm_up(first)
    bench.loop(texts, _seconds(args), args.ops or math.inf)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference, cells, problems = checks.reference_deviations()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    point_ms = bench.scaled_ms() or [0.0]
    metrics = {
        "setup_s": setup_s,
        "points_per_s": bench.points_per_s(),
        "point_ms_p50": statistics.median(point_ms),
        f"point_ms_p{TAIL_PERCENTILE}": _percentile(point_ms, TAIL_PERCENTILE),
        "peak_rss_mb": peak_rss_mb,
        "dev_eps0": reference.eps0,
        "p1_dev_gup": reference.p1_gup,
        "p2_dev_gup": reference.p2_gup,
    }
    attempted = bench.attempted + cells
    failed = bench.failed + len(problems)
    kernel_us = statistics.median([1e6 * t[2] for t in bench.times if t is not None] or [0.0])
    context = [
        f"setup import_s {setup_import:.6g} s (median of {_setup_reps(args)})",
        f"{len(bench.times)} timed operations, {bench.rows} rows; unscaled points_per_s "
        f"{bench.points_per_s(scaled=False):.6g}; calibration kernel median {kernel_us:.4g} us"
        f" (reference {1e6 * REFERENCE_SECONDS:.4g} us)",
        f"fail_rate {failed / attempted:.6g} ({failed} of {attempted}, "
        f"{cells} of them reference cells)",
        f"csv_sha256 of the first operation {bench.first_sha256}",
    ]
    if args.workload == "oracle":
        seeded = bench.seeded
        context.append(f"seeded cells, unfiltered: dev_eps0 {seeded.eps0:.3e}, "
                       f"p1_dev_gup {seeded.p1_gup:.3e}, p2_dev_gup {seeded.p2_gup:.3e}")
    return metrics, attempted, failed, context


def per_layer(args) -> tuple[dict[str, float], int, int, list[str]]:
    import measure
    from tracer import Tracer

    texts = measure.texts_for(args.workload, args.seed)
    first = next(texts)
    setup_import, _ = measure_setup(first, _setup_reps(args))
    plain = measure.Runner(args.seed)
    plain.warm_up(first)
    done = plain.loop(texts, _seconds(args) / 2.0, args.ops or math.inf, TRACE_ROWS)

    tracer = Tracer()
    traced = measure.Runner(args.seed, tracer)
    tracer.install()
    try:
        traced.loop(iter(done), math.inf, len(done))
    finally:
        tracer.uninstall()
    spans_path = measure.OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(str(spans_path))

    metrics = (tracer.layer_metrics(traced.rows, traced.csv_bytes, traced.time_scale())
               if traced.rows else {})
    metrics["setup.import_s"] = setup_import
    metrics["trace.points_per_s"] = traced.points_per_s()
    metrics["trace.untraced_points_per_s"] = plain.points_per_s()
    if metrics["trace.points_per_s"]:
        metrics["trace.overhead"] = (metrics["trace.untraced_points_per_s"]
                                     / metrics["trace.points_per_s"])
    context = [f"traced operations {len(done)}, rows {traced.rows}, "
               f"spans in {spans_path.relative_to(ROOT)}"]
    return (metrics, plain.attempted + traced.attempted,
            plain.failed + traced.failed, context)


def _seconds(args) -> float:
    """`--ops` replaces the time limit, so counts repeat exactly."""
    return math.inf if args.ops else args.seconds


def _setup_reps(args) -> int:
    """`--ops` runs are for exact counts, not times, so they set up once."""
    return 1 if args.ops else SETUP_REPS


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many timed operations instead of timing")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")

    if not (SRC / "gup_mirror" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no gup_mirror package under {SRC}, or no {SPEC.name}", file=sys.stderr)
        return 2
    if args.workload == "all":
        shared = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.ops is not None:
            shared += ["--ops", str(args.ops)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *shared]).returncode
                 for name in WORKLOADS]
        return max(codes)

    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in (spec["per_layer"] if args.trace else spec["end_to_end"])}
    values, attempted, failed, context = (per_layer if args.trace else end_to_end)(args)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"metrics missing from {SPEC.name}: {undeclared}")

    cpus = os.cpu_count() or 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {len(os.sched_getaffinity(0))}  cpu_count {cpus}  "
          f"runner default pool {min(32, cpus)}")
    for line in context:
        print(f"  {line}")
    for name, unit in units.items():
        shown = f"{values[name]:.6g}" if name in values else "absent"
        print(f"  {name:<40} {shown} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
