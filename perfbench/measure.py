"""Workload operations.

An operation is one generated configuration text: `runner.parse_config`,
`runner.run` (the timed part, with a calibration probe on each side), then
a check of the CSV it wrote.  It fails if it raises, returns a non-zero
exit code or fails its check.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
from gup_mirror import runner
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def texts_for(workload: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    return WORKLOADS[workload](seed, str(OUT_DIR / f"{workload}.csv"))


class Runner:
    """Executes and checks operations, keeping each one's run time."""

    def __init__(self, seed: int, tracer=None) -> None:
        self.tracer = tracer
        self.check_rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.csv_bytes = 0
        # per operation: (run seconds, rows written, calibration kernel
        # seconds around the run), None if it failed
        self.times: list[tuple[float, int, float] | None] = []
        self.first_sha256: str | None = None
        self.seeded = checks.Deviations()

    def op(self, text: str) -> None:
        self.attempted += 1
        self.times.append(None)
        try:
            cfg = runner.parse_config(text)
            before = calibrate.probe()
            start = time.perf_counter()
            code = runner.run(cfg)
            elapsed = time.perf_counter() - start
            kernel = 0.5 * (before + calibrate.probe())
            if code != 0:
                raise RuntimeError(f"runner.run returned {code}")
            problems = self._check(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            print(f"failed operation: {text!r}", file=sys.stderr)
            self.failed += 1
            return
        if problems:
            print(f"check failed: {problems[:5]} in {text!r}", file=sys.stderr)
            self.failed += 1
            return
        rows = cfg.sweep.count if cfg.sweep is not None else 1
        self.rows += rows
        self.times[-1] = (elapsed, rows, kernel)

    def scaled_ms(self) -> list[float]:
        """Per-row milliseconds of each passed operation, at reference speed."""
        return [1e3 * seconds * calibrate.REFERENCE_SECONDS / kernel / rows
                for seconds, rows, kernel in self._passed()]

    def points_per_s(self, scaled: bool = True) -> float:
        """Rows per second of run time, at reference speed unless unscaled."""
        done = self._passed()
        seconds = sum(t * (calibrate.REFERENCE_SECONDS / k if scaled else 1.0)
                      for t, _, k in done)
        return sum(rows for _, rows, _ in done) / seconds if seconds else 0.0

    def time_scale(self) -> float:
        """Factor from this runner's wall times to reference speed."""
        kernels = [k for _, _, k in self._passed()]
        return calibrate.REFERENCE_SECONDS / statistics.median(kernels) if kernels else 1.0

    def _passed(self) -> list[tuple[float, int, float]]:
        return [t for t in self.times if t is not None]

    def _check(self, cfg) -> list[str]:
        if self.tracer is None:
            return self._check_csv(cfg)
        with self.tracer.paused():
            return self._check_csv(cfg)

    def _check_csv(self, cfg) -> list[str]:
        data, header, rows = checks.read_csv(cfg.out)
        self.csv_bytes += len(data)
        if self.first_sha256 is None:
            self.first_sha256 = hashlib.sha256(data).hexdigest()
        if cfg.sweep is not None:
            return checks.check_sweep(header, rows, cfg.sweep.count, self.check_rng)
        problems = checks.check_verify(header, rows)
        if not problems:
            self.seeded.add(*checks.verify_deviations(header, rows[0]))
        return problems

    def loop(self, texts, seconds: float, ops: float = math.inf,
             rows: float = math.inf) -> list[str]:
        """Run operations until `seconds` have passed, `ops` of them have run
        or `rows` rows are written, whichever comes first; returns the texts
        it ran."""
        done = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and len(done) < ops and self.rows < rows:
            text = next(texts)
            self.op(text)
            done.append(text)
        return done

    def warm_up(self, text: str) -> None:
        """One checked operation left out of the timings: first-call costs
        belong to setup_s."""
        self.op(text)
        self.times.clear()
        self.rows = self.csv_bytes = 0
