"""In-memory span tracer around the package's public layer functions.

`Tracer.install` replaces each function in TARGETS in every `gup_mirror`
module namespace that binds it (`from .x import f` copies the name, so
`runner.p1_closed` and `amplitude.p1_closed` are separate bindings of one
function).  Each call records a span (id, name, parent, start, end,
thread).  Stacks and counters are per thread because the runner's pool
evaluates sweep rows on worker threads; a span opened on a worker with an
empty stack is parented to the `runner.run` call in progress.  Spans stay
in memory until `write_spans`.

A target the package no longer has is skipped, and every metric that
depends on it is reported absent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

from scipy.integrate import IntegrationWarning

from gup_mirror import QuadratureConvergenceError

TARGETS = (
    "runner.parse_config",
    "runner.run",
    "units.to_dimensionless",
    "closed_form.p1_closed",
    "closed_form.p2_closed",
    "special.gamma_phase_set",
    "special.log_gamma",
    "special.planck_factor",
    "equivalence.q_parameter",
    "amplitude.p1_numeric",
    "amplitude.p2_numeric",
    "amplitude.quad",  # scipy's quad as bound in the amplitude module
)


class _ThreadState:
    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.stack: list[int] = []
        self.spans: list[tuple[int, str, int | None, float, float, int]] = []
        self.runs_seen: set[int] = set()
        self.gamma_args: set[tuple] = set()
        self.integrand_evals = 0
        self.integration_warnings = 0
        self.worst_abserr = 0.0
        self.residual_max = 0.0
        self.convergence_errors = 0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._run_span: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.enabled = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gup_mirror" or name.startswith("gup_mirror.")]
        for target in TARGETS:
            home_name, attr = target.split(".")
            home = sys.modules.get(f"gup_mirror.{home_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            self.present.add(target)
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, value))
                        setattr(module, name, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()
        self.enabled = False

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, target: str, fn):
        call = self._quad if target == "amplitude.quad" else _plain
        is_run = target == "runner.run"
        is_numeric = target in ("amplitude.p1_numeric", "amplitude.p2_numeric")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._state()
            span = next(self._ids)
            parent = state.stack[-1] if state.stack else self._run_span
            if is_run:
                self._run_span = span
            if self._run_span is not None:
                state.runs_seen.add(self._run_span)
            state.stack.append(span)
            start = time.perf_counter()
            try:
                result = call(state, fn, args, kwargs)
            except QuadratureConvergenceError:
                state.convergence_errors += 1
                raise
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.spans.append((span, target, parent, start, end, state.slot))
                if is_run:
                    self._run_span = None
            if target == "special.gamma_phase_set":
                state.gamma_args.add(args + tuple(sorted(kwargs.items())))
            if is_numeric:
                state.residual_max = max(state.residual_max, result.extrapolation_residual)
            return result

        return wrapper

    def _quad(self, state: _ThreadState, quad, args, kwargs):
        func, *rest = args

        def integrand(*a):
            state.integrand_evals += 1
            return func(*a)

        # The amplitude module silences IntegrationWarning around each call;
        # they are counted here and not re-emitted.  Only single-threaded
        # verify runs reach quad, so the process-wide warnings state is safe.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = quad(integrand, *rest, **kwargs)
        for w in caught:
            if issubclass(w.category, IntegrationWarning):
                state.integration_warnings += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        state.worst_abserr = max(state.worst_abserr, result[1])
        return result

    # -- results -----------------------------------------------------------

    def spans(self) -> list[tuple[int, str, int | None, float, float, int]]:
        return [span for state in self._states for span in state.spans]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,parent,start,end,thread\n")
            for span, name, parent, start, end, slot in self.spans():
                handle.write(f"{span},{name},{'' if parent is None else parent},"
                             f"{start!r},{end!r},{slot}\n")

    def layer_metrics(self, rows: int, csv_bytes: int, time_scale: float) -> dict[str, float]:
        """Per-layer metrics over `rows` result rows; absent targets omitted.

        Counts and times are per result row unless the name says otherwise;
        times are multiplied by `time_scale`.  A span's self time is its
        duration minus the part of it that its child spans cover, on any
        thread.
        """
        spans = self.spans()
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, start, end, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: Counter[str] = Counter()
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        run_spans = []
        for span, name, _, start, end, _ in spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - _covered(start, end, children.get(span, ()))
            if name == "runner.run":
                run_spans.append(span)
        states = self._states
        per_row = 1.0 / rows
        seconds_per_row = time_scale / rows

        def threads() -> float:
            return max((sum(span in s.runs_seen for s in states) for span in run_spans),
                       default=0)

        def probabilities() -> int:
            return calls["amplitude.p1_numeric"] + calls["amplitude.p2_numeric"]

        table = [
            ("runner.parse_config.s", "runner.parse_config",
             lambda: time_scale * total["runner.parse_config"]
             / max(calls["runner.parse_config"], 1)),
            ("runner.run.s", "runner.run", lambda: total["runner.run"] * seconds_per_row),
            ("runner.self_s", "runner.run", lambda: self_time["runner.run"] * seconds_per_row),
            ("runner.csv_bytes", "runner.run", lambda: csv_bytes * per_row),
            ("runner.threads", "runner.run", threads),
            ("units.to_dimensionless.s", "units.to_dimensionless",
             lambda: total["units.to_dimensionless"] * seconds_per_row),
            ("special.gamma_phase_set.distinct_ratio", "special.gamma_phase_set",
             lambda: len(set().union(*(s.gamma_args for s in states)))
             / max(calls["special.gamma_phase_set"], 1)),
            ("special.log_gamma.s", "special.log_gamma",
             lambda: total["special.log_gamma"] * seconds_per_row),
            ("equivalence.q_parameter.s", "equivalence.q_parameter",
             lambda: total["equivalence.q_parameter"] * seconds_per_row),
            ("amplitude.p1_numeric.s", "amplitude.p1_numeric",
             lambda: total["amplitude.p1_numeric"] * seconds_per_row),
            ("amplitude.p2_numeric.s", "amplitude.p2_numeric",
             lambda: total["amplitude.p2_numeric"] * seconds_per_row),
            ("amplitude.quad.s", "amplitude.quad",
             lambda: total["amplitude.quad"] * seconds_per_row),
            ("amplitude.integrand.evals", "amplitude.quad",
             lambda: sum(s.integrand_evals for s in states) * per_row),
            ("amplitude.quad_per_probability", "amplitude.quad",
             lambda: calls["amplitude.quad"] / max(probabilities(), 1)),
            ("amplitude.integration_warnings", "amplitude.quad",
             lambda: sum(s.integration_warnings for s in states) * per_row),
            ("amplitude.worst_abserr", "amplitude.quad",
             lambda: max(s.worst_abserr for s in states)),
            ("amplitude.residual_max", "amplitude.p1_numeric",
             lambda: max(s.residual_max for s in states)),
            ("amplitude.convergence_errors", "amplitude.p1_numeric",
             lambda: sum(s.convergence_errors for s in states)),
        ]
        for target in ("closed_form.p1_closed", "closed_form.p2_closed",
                       "special.gamma_phase_set"):
            table.append((f"{target}.self_s", target,
                          lambda t=target: self_time[t] * seconds_per_row))
        for target in TARGETS:
            if target not in ("runner.parse_config", "runner.run"):
                table.append((f"{target}.calls", target, lambda t=target: calls[t] * per_row))
        return {name: float(value()) for name, target, value in table
                if target in self.present}


def _plain(state, fn, args, kwargs):
    return fn(*args, **kwargs)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
