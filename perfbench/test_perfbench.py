"""The benchmark's own test: every workload at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTERS = ("amplitude.quad.calls", "amplitude.integrand.evals", "special.log_gamma.calls")


# Runs the benchmark with special.planck_factor deleted, as a later change
# to the package might delete a traced function.
_WITHOUT_PLANCK_FACTOR = """
import sys
sys.path[:0] = sys.argv[1:3]
import gup_mirror.special
del gup_mirror.special.planck_factor
import run
sys.exit(run.main(sys.argv[3:]))
"""


def _run(workload: str, trace: int, seed: int = 7, without_planck_factor: bool = False):
    """The JSON result and the printed metric lines of a run at `--ops 2`."""
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace), "--ops", "2"]
    if without_planck_factor:
        command = [sys.executable, "-c", _WITHOUT_PLANCK_FACTOR,
                   str(ROOT / "src"), str(ROOT / "perfbench"), *args]
    else:
        command = [sys.executable, str(RUN), *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) == 3:
            printed[words[0]] = words[1]
    return json.loads(lines[-1]), printed


def _assert_declared(result: dict, printed: dict, declared: list[dict]) -> None:
    """Every declared metric is printed, with a value or as `absent`; the
    JSON holds exactly the ones with a value."""
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in declared}
    assert set(result["metrics"]) <= names
    for metric in declared:
        name = metric["name"]
        assert name in printed, name
        assert (printed[name] == "absent") == (name not in result["metrics"]), name
        if name in result["metrics"]:
            assert result["metrics"][name]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, printed = _run(workload, trace=0)
    _assert_declared(result, printed, SPEC["end_to_end"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counters_repeat(workload):
    first, printed = _run(workload, trace=1)
    second, _ = _run(workload, trace=1)
    _assert_declared(first, printed, SPEC["per_layer"])
    metrics = first["metrics"]
    for name in EXACT_COUNTERS:
        assert metrics.get(name) == second["metrics"].get(name), name
    if "special.log_gamma.calls" in metrics:
        assert metrics["special.log_gamma.calls"]["value"] > 0
    if "amplitude.quad.calls" in metrics:
        assert (metrics["amplitude.quad.calls"]["value"] > 0) == (workload == "oracle")


def test_missing_function_is_reported_absent():
    """A traced function the package no longer has drops only its own
    metric, which is printed as absent, and the run stays correct."""
    whole, _ = _run("sweep-si", trace=1)
    result, printed = _run("sweep-si", trace=1, without_planck_factor=True)
    _assert_declared(result, printed, SPEC["per_layer"])
    assert printed["special.planck_factor.calls"] == "absent"
    assert set(result["metrics"]) == set(whole["metrics"]) - {"special.planck_factor.calls"}


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
