"""Config parsing, run orchestration, CSV contract, exit codes."""

import errno
import math
import os
import random
import stat
import struct
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gup_mirror import (
    ConfigError,
    DimensionlessConfig,
    PhysicalConfig,
    RunConfig,
    SweepAxis,
    beta_bound,
    p1_closed,
    p2_closed,
    parse_config,
    q_parameter,
    run,
    to_dimensionless,
)
from gup_mirror import closed_form, runner, special
from gup_mirror.runner import _BATCH_ROWS
from gup_mirror.cli import main
from gup_mirror.runner import ROW_COLUMNS, _physics_rows, _write_csv


def test_parse_compare_example():
    cfg = parse_config("mode = compare\nx = 1\ny = 1\nzeta = 0.5\neps = 0.01")
    assert cfg.mode == "compare"
    assert cfg.dimensionless == {"x": 1.0, "y": 1.0, "zeta": 0.5, "eps": 0.01}
    assert cfg.physical is None
    assert cfg.sweep is None


def test_parse_unknown_key_names_key_and_line():
    text = "mode = compare\nx = 1\ny = 1\nzeta = 0.5\nepz = 0.1\n"
    with pytest.raises(ConfigError, match="epz") as err:
        parse_config(text)
    assert "line 5" in str(err.value)


def test_parse_sweep_block():
    text = (
        "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0\n"
        "sweep_param = zeta\nsweep_min = 0.1\nsweep_max = 0.9\n"
        "sweep_count = 81\nsweep_spacing = log\n"
    )
    cfg = parse_config(text)
    assert cfg.sweep is not None
    assert cfg.sweep.param == "zeta"
    assert cfg.sweep.count == 81
    values = cfg.sweep.values()
    assert len(values) == 81
    assert values[0] == pytest.approx(0.1) and values[-1] == pytest.approx(0.9)


def test_parse_rejections():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("x = 1\ny = 1\nzeta = 0.5")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("mode = compare\nx = 1\nx = 2\ny = 1\nzeta = 0.5")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("mode = compare\nx = abc\ny = 1\nzeta = 0.5")
    with pytest.raises(ConfigError, match="mixed parameter blocks"):
        parse_config("mode = compare\nx = 1\ny = 1\nzeta = 0.5\na = 9.8")
    with pytest.raises(ConfigError, match="only valid in sweep mode"):
        parse_config("mode = compare\nx = 1\ny = 1\nzeta = 0.5\nsweep_param = x")
    with pytest.raises(ConfigError, match="sweep_count"):
        parse_config(
            "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\n"
            "sweep_param = x\nsweep_min = 1\nsweep_max = 2\nsweep_count = 1"
        )
    with pytest.raises(ConfigError, match="requires keys"):
        parse_config("mode = compare\nx = 1\ny = 1")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("mode = p1\nx = 1\ny = 1\nzeta = 0.5", default_mode="p2")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("mode = compare\nx 1\ny = 1\nzeta = 0.5")
    with pytest.raises(ConfigError, match="zeta < 1"):
        parse_config("mode = p2\nx = 1\ny = 1\nzeta = 1.5")
    with pytest.raises(ConfigError, match="perturbative"):
        parse_config("mode = compare\nx = 1\ny = 1\nzeta = 0.5\neps = 0.5")


_BOUND_BLOCK = "a = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = 1e10\n"
_POINT_BLOCK = "x = 1\ny = 1\nzeta = 0.5\n"


@pytest.mark.parametrize("text, key", [
    pytest.param("mode = bound\n" + _BOUND_BLOCK + "freq_convention = ordinary",
                 "freq_convention", id="freq_convention-bound"),
    pytest.param("mode = compare\n" + _POINT_BLOCK + "freq_convention = angular",
                 "freq_convention", id="freq_convention-dimensionless"),
    pytest.param("mode = verify\ngrid = default\nfreq_convention = ordinary",
                 "freq_convention", id="freq_convention-grid"),
    pytest.param("mode = compare\n" + _POINT_BLOCK + "eta0 = 0.5", "eta0", id="eta0-compare"),
    pytest.param("mode = temperatures\n" + _BOUND_BLOCK + "eta0 = 0.5", "eta0",
                 id="eta0-temperatures"),
    pytest.param("mode = p1\n" + _POINT_BLOCK + "grid = default", "grid", id="grid-p1"),
    # g, the atom-field coupling, scales no column of any mode
    pytest.param("mode = compare\n" + _BOUND_BLOCK + "g = 1", "g", id="g-compare"),
])
def test_keys_without_effect_in_mode_rejected(text, key):
    with pytest.raises(ConfigError, match=f"'{key}'") as err:
        parse_config(text)
    assert f"line {text.count(chr(10)) + 1}:" in str(err.value)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.mode == "sweep" and cfg.out == "sweep.csv"
    assert cfg.dimensionless == {"x": 1.0, "y": 1.0, "zeta": 0.5, "eps": 0.01}
    assert (cfg.sweep.param, cfg.sweep.count, cfg.sweep.spacing) == ("zeta", 81, "log")


def test_comments_and_blanks_ignored():
    text = "# leading comment\nmode = p1   # trailing\n\nx = 1\ny = 2\nzeta = 0.5\n"
    cfg = parse_config(text)
    assert cfg.mode == "p1"
    assert cfg.dimensionless["y"] == 2.0


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_compare_symmetric_point(tmp_path):
    out = tmp_path / "row.csv"
    cfg = parse_config(f"mode = compare\nx = 1\ny = 1\nzeta = 0.5\neps = 0\nout = {out}")
    assert run(cfg) == 0
    data = read(out).decode()
    lines = data.strip().split("\n")
    assert lines[0] == ",".join(ROW_COLUMNS)
    cells = lines[1].split(",")
    row = dict(zip(ROW_COLUMNS, cells))
    assert float(row["p1_closed"]) == float(row["p2_closed"])
    assert row["p1_numeric"] == "" and row["p2_numeric"] == ""
    assert float(row["q_value"]) == 0.0 and float(row["ratio"]) == 1.0
    assert b"\r" not in read(out)


def test_float_rendering_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    cfg = parse_config(f"mode = compare\nx = 1\ny = 3\nzeta = 0.5\neps = 0\nout = {out}")
    run(cfg)
    row = read(out).decode().strip().split("\n")[1].split(",")
    values = dict(zip(ROW_COLUMNS, row))
    # round-trips to the identical double
    from gup_mirror import DimensionlessConfig, p1_closed

    expected = p1_closed(DimensionlessConfig(x=1, y=3, zeta=0.5, eps=0)).total
    assert float(values["p1_closed"]) == expected
    assert values["x"] == "1" and values["y"] == "3"


def test_sweep_deterministic_across_worker_counts(tmp_path):
    base = "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0.01\n" \
           "sweep_param = zeta\nsweep_min = 0.1\nsweep_max = 0.9\nsweep_count = 25\n"
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    assert run(parse_config(base + f"workers = 1\nout = {out1}")) == 0
    assert run(parse_config(base + f"workers = 4\nout = {out4}")) == 0
    assert read(out1) == read(out4)
    lines = read(out1).decode().strip().split("\n")
    assert len(lines) == 26


def test_workers_key_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise RuntimeError("sweep rows must be computed on the calling thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "w4.csv"
    text = "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0.01\nworkers = 4\n" \
           f"sweep_param = zeta\nsweep_min = 0.1\nsweep_max = 0.9\nsweep_count = 25\nout = {out}"
    assert run(parse_config(text)) == 0
    assert len(read(out).decode().strip().split("\n")) == 26


# Every binding through which a run reaches a Gamma-layer function:
# gamma_phase_set and log_gamma both sum the phase in special's one kernel,
# _arg_gamma, so counting the kernel counts each Gamma value computed.
_GAMMA_BINDINGS = ((closed_form, "gamma_phase_set"), (special, "_arg_gamma"),
                   (closed_form, "digamma"))


def _count_calls(monkeypatch, bindings=_GAMMA_BINDINGS):
    """Calls made through each (module, name) binding from now on, counted
    by name."""
    counts = Counter()
    for module, name in bindings:
        def counting(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def _reference_csv(header, rows):
    """The CSV contract rendered cell by cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "" if cell is None else cell if isinstance(cell, str) else f"{cell:.17g}"
            for cell in row
        ))
    return ("\n".join(lines) + "\n").encode()


def _scalar_csv(points):
    """The closed-form sweep CSV rendered from one scalar call per
    probability and point, so no value comes from an earlier row; p2's
    cells are empty from zeta = 1."""
    rows = []
    for d in points:
        one = p1_closed(d)
        two = p2_closed(d) if d.zeta < 1.0 else None
        q = q_parameter(d.eps, d.zeta)
        rows.append((d.x, d.y, d.zeta, d.eps, one.total, two and two.total, None, None,
                     one.phase_argument, two and two.phase_argument, q, 1.0 + q))
    return _reference_csv(ROW_COLUMNS, rows)


def _random_double(rng):
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]


def test_writer_matches_cell_by_cell_rendering(tmp_path):
    rng = random.Random(5)
    header = ("constant", "zeros", "negative_zeros", "mixed", "label", "random", "empty")
    rows = [
        (
            float("1.25"),  # equal cells that are distinct objects
            (0.0, -0.0)[i % 2],
            -0.0,
            None if i % 3 == 0 else float(i),
            ("a%b", "c")[i % 2],
            _random_double(rng),
            None,
        )
        for i in range(200)
    ]
    rows[7] = rows[7][:5] + (math.nan,) + rows[7][6:]
    rows[8] = rows[8][:5] + (-math.inf,) + rows[8][6:]
    rows[9] = rows[9][:5] + (5e-324,) + rows[9][6:]
    # single rows of floats only, as a one-point verify writes
    single = [[(0.0, -0.0, math.nan, -math.inf, 5e-324, _random_double(rng), math.inf)],
              [tuple(_random_double(rng) for _ in header)], [(-0.0,) * 7]]
    out = tmp_path / "cells.csv"
    for chosen in (rows, rows[:1], [rows[3]] * 3, [(0.0,) * 7, (-0.0,) * 7], *single):
        _write_csv(str(out), header, list(zip(*chosen)))  # the writer takes columns
        assert read(out) == _reference_csv(header, chosen)


def test_zeta_sweep_across_wedge_matches_cell_by_cell_rendering(tmp_path):
    # p2 cells turn empty at zeta >= 1, so that column mixes floats and None
    out = tmp_path / "across.csv"
    cfg = parse_config("mode = sweep\nx = 0.7\ny = 1.4\nzeta = 0.5\neps = 0.02\n"
                       "sweep_param = zeta\nsweep_min = 0.3\nsweep_max = 1.7\n"
                       f"sweep_count = 57\nout = {out}")
    assert run(cfg) == 0
    rows = list(zip(*_physics_rows(cfg)[1]))  # _physics_rows gives columns
    assert rows[0][5] is not None and rows[-1][5] is None
    assert read(out) == _reference_csv(ROW_COLUMNS, rows)


_SWEEP_BASE = {"x": 1.3, "y": 0.8, "zeta": 0.5, "eps": 0.005}
_SI_BLOCK = {"a": 3e20, "omega0": 8e10, "nu": 2e11, "z0": 1.8e-4, "beta": 2e57}


# Calls a 300-row run makes to (gamma_phase_set, the phase kernel, digamma).
@pytest.mark.parametrize("param, lo, hi, spacing, eps, calls", [
    # each Gamma value computed once for all 300 rows: one phase set (one
    # log Gamma value for p1), one log Gamma(i ybar) for p2, one digamma
    pytest.param("zeta", 0.05, 0.95, "log", 0.005, (1, 2, 1), id="zeta-log"),
    pytest.param("zeta", 0.05, 0.95, "linear", 0.0, (1, 2, 0), id="zeta-linear-eps0"),
    # a new x each row: a phase set and log Gamma(-i x) per row; ybar is fixed
    pytest.param("x", 0.2, 5.0, "linear", 0.005, (300, 301, 1), id="x"),
    # a new ybar each row: log Gamma(i ybar) and digamma per row
    pytest.param("y", 0.2, 5.0, "linear", 0.005, (1, 301, 300), id="y"),
    # likewise, except the eps = 0 row, which needs no digamma
    pytest.param("eps", 0.0, 0.05, "linear", 0.005, (1, 301, 299), id="eps"),
])
def test_sweep_matches_uncached_scalar_calls(tmp_path, monkeypatch, param, lo, hi, spacing,
                                             eps, calls):
    out = tmp_path / "sweep.csv"
    base = {**_SWEEP_BASE, "eps": eps}
    block = "".join(f"{key} = {value!r}\n" for key, value in base.items())
    text = f"mode = sweep\n{block}sweep_param = {param}\nsweep_min = {lo!r}\n" \
           f"sweep_max = {hi!r}\nsweep_count = 300\nsweep_spacing = {spacing}\nout = {out}"
    cfg = parse_config(text)
    counts = _count_calls(monkeypatch)
    assert run(cfg) == 0
    assert (counts["gamma_phase_set"], counts["_arg_gamma"], counts["digamma"]) == calls
    values = np.geomspace(lo, hi, 300) if spacing == "log" else np.linspace(lo, hi, 300)
    points = [DimensionlessConfig(**{**base, param: float(value)}) for value in values]
    assert read(out) == _scalar_csv(points)


@pytest.mark.parametrize("mode, text, calls", [
    # one (x, y, eps) for every row: p1's factors once, p2's once
    pytest.param("sweep", "x = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nsweep_param = zeta\n"
                          "sweep_min = 0.05\nsweep_max = 0.95\n", 2, id="zeta"),
    # z0 enters zeta alone, so SI rows share x, y and eps as well
    pytest.param("sweep", "".join(f"{key} = {value!r}\n" for key, value in _SI_BLOCK.items())
                 + "sweep_param = z0\nsweep_min = 1e-5\nsweep_max = 2.9e-4\n", 2, id="si-z0"),
    # a new x each row: p1's Planck factor per row; p2's reads ybar alone
    pytest.param("sweep", "x = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nsweep_param = x\n"
                          "sweep_min = 0.2\nsweep_max = 5\n", 301, id="x"),
    # p2's factors are never computed when no row needs p2
    pytest.param("p1", "x = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nsweep_param = zeta\n"
                       "sweep_min = 0.05\nsweep_max = 0.95\n", 1, id="p1-zeta"),
])
def test_zeta_free_factors_computed_once_per_run_of_equal_x_y_eps(monkeypatch, mode, text,
                                                                 calls):
    counted = []
    original = closed_form.planck_factor

    def counting(w):
        counted.append(w)
        return original(w)

    monkeypatch.setattr(closed_form, "planck_factor", counting)
    cfg = parse_config(f"mode = sweep\n{text}sweep_count = 300\nout = unused.csv")
    rows = list(zip(*_physics_rows(cfg._replace(mode=mode))[1]))  # columns, as rows
    assert len(rows) == 300 and len(counted) == calls


def test_cold_p1_run_evaluates_log_gamma_once(tmp_path, monkeypatch):
    # Gamma(-i x) only; p1 needs no Gamma(i ybar)
    out = tmp_path / "p1.csv"
    cfg = parse_config(f"mode = p1\nx = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nout = {out}")
    counts = _count_calls(monkeypatch)
    assert run(cfg) == 0
    assert counts["_arg_gamma"] == 1 and counts["digamma"] == 0


@pytest.mark.parametrize("convention", ["angular", "ordinary"])
# `inside` rows have zeta < 1; calls to (gamma_phase_set, the phase kernel, digamma)
# are counted as in the dimensionless sweeps
@pytest.mark.parametrize("param, lo, hi, inside, calls", [
    # x, y and zeta change every row
    pytest.param("a", 1e20, 4.5e20, 300, (300, 600, 300), id="a"),
    # zeta crosses 1 after 150 rows; p2 and its Gamma values stop there
    pytest.param("a", 1e20, 9e20, 150, (300, 450, 150), id="a-across-wedge"),
    # x alone changes
    pytest.param("omega0", 8e10, 6e11, 300, (300, 301, 1), id="omega0"),
    # y and eps change, so ybar does
    pytest.param("nu", 5e10, 6e11, 300, (1, 301, 300), id="nu"),
    # zeta alone changes
    pytest.param("z0", 1e-5, 2.9e-4, 300, (1, 2, 1), id="z0"),
    pytest.param("beta", 1e56, 2e58, 300, (1, 301, 300), id="beta"),
])
def test_si_sweep_matches_uncached_scalar_calls(tmp_path, monkeypatch, param, lo, hi, inside,
                                                calls, convention):
    out = tmp_path / "si.csv"
    block = "".join(f"{key} = {value!r}\n" for key, value in _SI_BLOCK.items())
    text = f"mode = sweep\nfreq_convention = {convention}\n{block}sweep_param = {param}\n" \
           f"sweep_min = {lo!r}\nsweep_max = {hi!r}\nsweep_count = 300\nout = {out}"
    cfg = parse_config(text)
    counts = _count_calls(monkeypatch)
    assert run(cfg) == 0
    assert (counts["gamma_phase_set"], counts["_arg_gamma"], counts["digamma"]) == calls
    scale = 2.0 * math.pi if convention == "ordinary" else 1.0
    points = []
    for value in np.linspace(lo, hi, 300):
        si = {**_SI_BLOCK, param: float(value)}
        points.append(to_dimensionless(PhysicalConfig(
            a=si["a"], omega0=si["omega0"] * scale, nu=si["nu"] * scale,
            z0=si["z0"], beta=si["beta"])))
    assert all(0.0 < d.eps < 0.1 for d in (points[0], points[-1]))
    assert [d.zeta < 1.0 for d in points] == [True] * inside + [False] * (300 - inside)
    assert read(out) == _scalar_csv(points)


@pytest.mark.parametrize("block, param, lo, hi, calls", [
    # zeta and eps are the same on every row of these: Q once for the batch
    pytest.param("freq_convention = ordinary\n" + "".join(
        f"{key} = {value!r}\n" for key, value in _SI_BLOCK.items()), "omega0", 8e10, 6e11, 1,
        id="si-omega0"),
    pytest.param("".join(f"{key} = {value!r}\n" for key, value in _SWEEP_BASE.items()),
                 "x", 0.2, 5.0, 1, id="x"),
    # a new zeta each row: Q per row
    pytest.param("".join(f"{key} = {value!r}\n" for key, value in _SWEEP_BASE.items()),
                 "zeta", 0.05, 0.95, 300, id="zeta"),
])
def test_q_computed_once_where_zeta_and_eps_are_constant(tmp_path, monkeypatch, block, param,
                                                         lo, hi, calls):
    counted = []
    original = runner.q_parameter

    def counting(eps, zeta):
        counted.append((eps, zeta))
        return original(eps, zeta)

    monkeypatch.setattr(runner, "q_parameter", counting)
    out = tmp_path / "q.csv"
    cfg = parse_config(f"mode = sweep\n{block}sweep_param = {param}\nsweep_min = {lo!r}\n"
                       f"sweep_max = {hi!r}\nsweep_count = 300\nout = {out}")
    assert run(cfg) == 0
    assert len(counted) == calls
    points = [_scalar_point(cfg, value) for value in cfg.sweep.values().tolist()]
    assert read(out) == _scalar_csv(points)


def test_sweep_past_log_gamma_overflow(tmp_path):
    # log Gamma(-i x) overflowed sin(pi z) in its reflection for x >= ~227
    out = tmp_path / "far.csv"
    text = "mode = sweep\nx = 100\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = x\n" \
           f"sweep_min = 100\nsweep_max = 400\nsweep_count = 31\nout = {out}"
    assert run(parse_config(text)) == 0
    rows = read(out).decode().strip().split("\n")[1:]
    assert len(rows) == 31
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",") if cell)


def test_sweep_rows_follow_axis_order(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = parse_config(
        "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0\n"
        f"sweep_param = x\nsweep_min = 0.5\nsweep_max = 2.5\nsweep_count = 5\nout = {out}"
    )
    run(cfg)
    lines = read(out).decode().strip().split("\n")[1:]
    xs = [float(line.split(",")[0]) for line in lines]
    assert xs == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_sweep_phase_columns_track_gup_symmetry_breaking(tmp_path):
    # at x = y the two phase columns coincide for eps = 0 and split for
    # eps > 0 by the position-dependent GUP terms
    base = (
        "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = {eps}\n"
        "sweep_param = zeta\nsweep_min = 0.2\nsweep_max = 0.9\nsweep_count = 8\n"
    )
    out0 = tmp_path / "eps0.csv"
    run(parse_config(base.format(eps=0) + f"out = {out0}"))
    for line in read(out0).decode().strip().split("\n")[1:]:
        row = dict(zip(ROW_COLUMNS, line.split(",")))
        assert row["phase1"] == row["phase2"]

    out1 = tmp_path / "eps001.csv"
    run(parse_config(base.format(eps=0.01) + f"out = {out1}"))
    for line in read(out1).decode().strip().split("\n")[1:]:
        row = dict(zip(ROW_COLUMNS, line.split(",")))
        assert row["phase1"] != row["phase2"]
        assert float(row["q_value"]) > 0.0


@pytest.mark.parametrize("mode, block, p2_present", [
    pytest.param("sweep", "x = 1\ny = 1\nzeta = 0.5\neps = 0\nsweep_param = zeta\n"
                          "sweep_min = 0.5\nsweep_max = 1.5\nsweep_count = 3\n",
                 [True, False, False], id="wedge"),  # zeta = 0.5, 1.0, 1.5
    # x^2 overflows, which p2's factors reject; no row here needs them
    pytest.param("sweep", "x = 1e200\ny = 1\nzeta = 1.5\neps = 0.01\nsweep_param = zeta\n"
                          "sweep_min = 1.5\nsweep_max = 2.5\nsweep_count = 3\n",
                 [False, False, False], id="huge-x-outside-wedge"),
    pytest.param("p1", "x = 1e200\ny = 1\nzeta = 0.5\neps = 0.01\n", [False], id="huge-x-p1"),
])
def test_p2_cells_empty_outside_wedge(tmp_path, mode, block, p2_present):
    config = tmp_path / "run.conf"
    out = tmp_path / "wedge.csv"
    config.write_text(block)
    assert main([mode, "--config", str(config), "--out", str(out)]) == 0
    lines = read(out).decode().strip().split("\n")[1:]
    rows = [dict(zip(ROW_COLUMNS, line.split(","))) for line in lines]
    assert [r["p2_closed"] != "" for r in rows] == p2_present
    assert all(r["p1_closed"] != "" for r in rows)


def test_verify_single_point(tmp_path):
    out = tmp_path / "verify.csv"
    cfg = parse_config(f"mode = verify\nx = 1\ny = 1\nzeta = 0.5\neps = 0\nout = {out}")
    assert run(cfg) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    num = float(row["p1_numeric"])
    closed = float(row["p1_closed"])
    assert abs(num - closed) / closed < 1e-3
    assert row["p2_numeric"] != ""


def test_verify_default_grid(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = parse_config(f"mode = verify\ngrid = default\nout = {out}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(cfg) == 0
    lines = read(out).decode().strip().split("\n")
    assert len(lines) == 28  # header + 27 grid points
    for line in lines[1:]:
        row = dict(zip(ROW_COLUMNS, line.split(",")))
        assert abs(float(row["p1_numeric"]) - float(row["p1_closed"])) <= (
            1e-3 * float(row["p1_closed"])
        )
        assert abs(float(row["p2_numeric"]) - float(row["p2_closed"])) <= (
            1e-3 * float(row["p2_closed"])
        )


def test_exit_code_non_convergence(tmp_path, capsys, quad_above_gate):
    # an oracle error estimate above the gate cannot be certified: exit 2,
    # one line on stderr, no CSV
    config = tmp_path / "verify.conf"
    out = tmp_path / "bad.csv"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\neps = 0\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("quadrature did not converge") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["quad_regulators", "quad_extrapolation_order", "quad_cutoff",
                                 "quad_abs_tolerance"])
def test_removed_quadrature_keys_are_unknown(tmp_path, key):
    config = tmp_path / "old.conf"
    config.write_text(f"mode = verify\nx = 1\ny = 1\nzeta = 0.5\n{key} = 3\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(config.read_text())
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 1


def test_physical_block_and_freq_convention(tmp_path):
    k_c = 299792458.0
    out = tmp_path / "phys.csv"
    text = (
        f"mode = compare\na = {k_c}\nomega0 = 1.0\nnu = 1.0\nz0 = {0.5 * k_c}\n"
        f"out = {out}"
    )
    cfg = parse_config(text)
    assert run(cfg) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    assert float(row["x"]) == pytest.approx(1.0, rel=1e-12)
    assert float(row["zeta"]) == pytest.approx(0.5, rel=1e-12)

    out2 = tmp_path / "phys2.csv"
    cfg2 = parse_config(text.replace(str(out), str(out2)) + "\nfreq_convention = ordinary")
    run(cfg2)
    row2 = dict(zip(ROW_COLUMNS, read(out2).decode().strip().split("\n")[1].split(",")))
    assert float(row2["x"]) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_bound_mode_reports_both_conventions(tmp_path):
    out = tmp_path / "bound.csv"
    k_c = 299792458.0
    cfg = parse_config(
        f"mode = bound\na = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = {k_c**2 / 9.8}\nout = {out}"
    )
    assert run(cfg) == 0
    lines = read(out).decode().strip().split("\n")
    assert lines[0].startswith("convention,")
    angular = lines[1].split(",")
    ordinary = lines[2].split(",")
    assert angular[0] == "angular" and ordinary[0] == "ordinary"
    assert float(angular[4]) == pytest.approx(3.440499457e68, rel=1e-8)
    assert float(ordinary[4]) == pytest.approx(8.714886933e66, rel=1e-8)
    rows = []
    for convention, scale in (("angular", 1.0), ("ordinary", 2.0 * math.pi)):
        bound = beta_bound(9.8, 1e9 * scale, 1e9 * scale, k_c**2 / 9.8)
        rows.append((convention, 1e9 * scale, 1e9 * scale, bound.beta_max_si,
                     bound.beta_max_planck_units, bound.tolerance_factor))
    header = ("convention", "omega0_rad_s", "nu_rad_s",
              "beta_max_si", "beta_max_planck_units", "tolerance_factor")
    assert read(out) == _reference_csv(header, rows)


def test_temperatures_mode(tmp_path):
    out = tmp_path / "temp.csv"
    cfg = parse_config(
        f"mode = temperatures\na = 9.8\nomega0 = 1.0\nnu = 1.0\nz0 = 1.0\nout = {out}"
    )
    assert run(cfg) == 0
    lines = read(out).decode().strip().split("\n")
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    assert float(values["unruh_K"]) == pytest.approx(3.9739132522903252e-20, rel=1e-12)
    assert float(values["modified_K"]) == float(values["unruh_K"])


def test_missing_out_is_config_error():
    cfg = parse_config("mode = compare\nx = 1\ny = 1\nzeta = 0.5")
    assert run(cfg) == 1


def test_cli_end_to_end(tmp_path):
    config = tmp_path / "run.conf"
    out = tmp_path / "cli.csv"
    config.write_text("mode = compare\nx = 1\ny = 1\nzeta = 0.5\neps = 0\n")
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    assert out.exists()
    # conflicting CLI mode is a config error
    assert main(["p1", "--config", str(config), "--out", str(out)]) == 1
    # missing config file
    assert main(["compare", "--config", str(tmp_path / "nope.conf"), "--out", str(out)]) == 1


def test_output_over_longer_file_matches_fresh_write(tmp_path):
    # an existing output is overwritten in place and cut to length
    sweep = tmp_path / "sweep.conf"
    sweep.write_text("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = zeta\n"
                     "sweep_min = 0.01\nsweep_max = 0.99\nsweep_count = 500\n")
    verify = tmp_path / "verify.conf"
    verify.write_text("grid = default\n")
    reused, fresh = tmp_path / "reuse.csv", tmp_path / "fresh.csv"
    assert main(["sweep", "--config", str(sweep), "--out", str(reused)]) == 0
    longer = reused.stat().st_size
    assert main(["verify", "--config", str(verify), "--out", str(reused)]) == 0
    assert main(["verify", "--config", str(verify), "--out", str(fresh)]) == 0
    assert read(reused) == read(fresh)
    assert len(read(fresh)) < longer
    # a one-point verify, one row of floats, over the longer verify output
    point = tmp_path / "point.conf"
    point.write_text("x = 1.1\ny = 1.2\nzeta = 0.55\neps = 0.01\n")
    longer = reused.stat().st_size
    assert main(["verify", "--config", str(point), "--out", str(reused)]) == 0
    assert main(["verify", "--config", str(point), "--out", str(fresh)]) == 0
    assert read(reused) == read(fresh)
    assert len(read(fresh).splitlines()) == 2 and len(read(fresh)) < longer


def test_failed_write_over_longer_file_leaves_no_old_bytes(tmp_path, monkeypatch):
    # the write fails after some rows have reached the file; the file
    # keeps only a prefix of the new output
    text = "x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = zeta\n" \
           "sweep_min = 0.01\nsweep_max = 0.99\nsweep_count = {}\n"
    longer = tmp_path / "longer.conf"
    longer.write_text(text.format(2000).replace("eps = 0.01", "eps = 0.02"))
    shorter = tmp_path / "shorter.conf"
    shorter.write_text(text.format(500))
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    assert main(["sweep", "--config", str(longer), "--out", str(out)]) == 0
    old_size = out.stat().st_size
    assert main(["sweep", "--config", str(shorter), "--out", str(fresh)]) == 0

    write, offered = os.write, []

    def fail_midway(descriptor, data):
        # the first call writes half its buffer, the next runs out of space
        offered.append(bytes(data))
        if len(offered) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(descriptor, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", fail_midway)
    assert main(["sweep", "--config", str(shorter), "--out", str(out)]) == 1
    partial, whole = out.read_bytes(), fresh.read_bytes()
    assert 0 < len(partial) < len(whole) < old_size
    assert whole.startswith(partial)
    # the retry offered the bytes that follow those written
    assert len(offered) == 2 and whole[len(partial):].startswith(offered[1])


def test_output_to_null_device(tmp_path):
    config = tmp_path / "verify.conf"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\n")
    assert main(["verify", "--config", str(config), "--out", os.devnull]) == 0


def test_new_output_file_mode_matches_open_for_writing(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\n")
    out, reference = tmp_path / "new.csv", tmp_path / "reference.csv"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    with open(reference, "w"):
        pass
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_unwritable_output_is_one_line_exit_1(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\n")
    out = tmp_path / "missing" / "o.csv"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write output file {str(out)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode, block, message", [
    # p1 damping exponent eps y^2 / (1 + x^2) = 450 at the first row
    pytest.param("sweep", "x = 1\ny = 100\nzeta = 0.5\neps = 0.09\nsweep_param = y\n"
                          "sweep_min = 100\nsweep_max = 200\nsweep_count = 11\n",
                 "perturbative regime violated", id="p1-damping"),
    pytest.param("temperatures", "a = 9.8\nomega0 = 1\nnu = 1\nz0 = 1\nbeta = 1e90\n",
                 "perturbative regime violated", id="temperature-pole"),
    # eps = 0.495, which compare on the same block rejects as well
    pytest.param("temperatures", "a = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = 1\nbeta = 4e66\n",
                 "eps=0.49496091639716444: perturbative regime violated",
                 id="temperature-eps-guard"),
    pytest.param("bound", "a = 9.8\nomega0 = 1e9\nnu = 1e110\nz0 = 1\n",
                 "nu=1e+110: nu^3 overflows", id="bound-nu-overflow"),
    pytest.param("bound", "a = 9.8\nomega0 = 1e9\nnu = 1e-110\nz0 = 1\n",
                 "nu=1e-110: hbar^2 nu^3 underflows to zero", id="bound-nu-underflow"),
    pytest.param("bound", "a = 9.8\nomega0 = 1e308\nnu = 1e9\nz0 = 1\n",
                 "omega0=1e+308", id="bound-omega0-overflow"),
    pytest.param("bound", "a = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = 1\neta0 = 1e300\n",
                 "eta0=1e+300", id="bound-eta0-overflow"),
    # eps / (2 zeta^2) overflows
    pytest.param("compare", "x = 1\ny = 1\nzeta = 1e-160\neps = 0.01\n",
                 "zeta=1e-160, eps=0.01: Q is not a finite double", id="q-tiny-zeta"),
    # p2's prefactor 2 pi ybar / x^2
    pytest.param("compare", "x = 1e300\ny = 1\nzeta = 0.5\n",
                 "x=1e+300: x^2 overflows a double or underflows to zero", id="p2-huge-x"),
    pytest.param("p2", "x = 1e-300\ny = 1\nzeta = 0.5\n",
                 "x=1e-300: x^2 overflows a double or underflows to zero", id="p2-tiny-x"),
    # p1's GUP terms need y^2 at eps > 0
    pytest.param("p1", "x = 1\ny = 1e200\nzeta = 0.5\neps = 0.01\n",
                 "y=1e+200: y^2 overflows a double", id="p1-huge-y"),
    # prefactor times Planck factor overflows: 2 pi / x^2 for p1, 2 pi ybar / x^2 for p2
    pytest.param("compare", "x = 1e-160\ny = 1\nzeta = 0.5\n",
                 "p1 is not a finite double at DimensionlessConfig(x=1e-160, y=1.0, zeta=0.5, "
                 "eps=0.0)",
                 id="p1-infinite"),
    pytest.param("p2", "x = 1e-160\ny = 1\nzeta = 0.5\n",
                 "p2 is not a finite double at DimensionlessConfig(x=1e-160, y=1.0, zeta=0.5, "
                 "eps=0.0)",
                 id="p2-infinite"),
    # the phase y (1 - eps) zeta overflows, so sin^2 has no value
    pytest.param("p1", "x = 1\ny = 1e200\nzeta = 1e200\n",
                 "p1 is not a finite double at DimensionlessConfig(x=1.0, y=1e+200, zeta=1e+200, "
                 "eps=0.0)",
                 id="p1-infinite-phase"),
    # t log t overflows in the phase of Gamma(-i x) for p1 and of Gamma(i ybar) for p2
    pytest.param("p1", "x = 1e306\ny = 1\nzeta = 0.5\n",
                 "log Gamma(-1e+306j) is not a finite double", id="p1-gamma-overflow"),
    pytest.param("p2", "x = 1\ny = 1e306\nzeta = 0.5\n",
                 "log Gamma(1e+306j) is not a finite double", id="p2-gamma-overflow"),
])
def test_domain_error_is_one_line_exit_1(tmp_path, capsys, mode, block, message):
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    assert main([mode, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _cli_subprocess(tmp_path, mode, block):
    """Run the CLI on `block` in a fresh interpreter, with a timeout that
    turns a hang into a failure; the output path does not exist before."""
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    path = os.pathsep.join(p for p in (str(Path(closed_form.__file__).resolve().parents[1]),
                                       os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "gup_mirror.cli", mode, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    return result, out


_UNSUMMABLE_L = "x = 1000\ny = 1000\nzeta = 0.5\neps = 0.001\n"


@pytest.mark.parametrize("mode, block", [
    pytest.param("p2", _UNSUMMABLE_L, id="p2"),
    pytest.param("compare", _UNSUMMABLE_L, id="compare"),
    # r = 2 zeta x = x: the rows up to x = 700 sum L, the row at x = 750 cannot
    pytest.param("sweep", _UNSUMMABLE_L + "sweep_param = x\nsweep_min = 500\nsweep_max = 1000\n"
                                          "sweep_count = 11\n", id="x-sweep"),
])
def test_unsummable_gup_series_is_one_line_exit_1(tmp_path, mode, block):
    # The bound on L's convergent-series terms overflows to inf here, and
    # the series once looped forever.
    result, out = _cli_subprocess(tmp_path, mode, block)
    assert result.returncode == 1
    assert result.stderr.startswith("configuration error: L(1 + i ybar, i r) at ybar=999.5, r=")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("mode, block", [
    pytest.param("p2", "x = 10\ny = 1e-307\nzeta = 0.9\neps = 0.01\n", id="p2"),
    pytest.param("sweep", "x = 10\ny = 1\nzeta = 0.9\neps = 0.01\nsweep_param = y\n"
                          "sweep_min = 1e-307\nsweep_max = 1\nsweep_count = 40\n"
                          "sweep_spacing = log\n", id="y-sweep"),
])
def test_overflowing_gup_series_start_is_one_line_exit_1(tmp_path, capsys, mode, block):
    # -ln ybar pushes exp(conj(log Gamma(i ybar)) + a log z) past a double;
    # this was an OverflowError traceback
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    assert main([mode, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: L(1 + i ybar, i r) at ybar=9.949999999999999e-308, r=18.0: "
        "the first term of its series overflows a double\n")
    assert not out.exists()


_UNDERFLOWING_R = "x = 1e-150\ny = 1\nzeta = 1e-300\neps = 0.01\n"


@pytest.mark.parametrize("mode, block", [
    pytest.param("p2", _UNDERFLOWING_R, id="p2"),
    pytest.param("compare", _UNDERFLOWING_R, id="compare"),
    # every row's r underflows; none reaches the batched sum
    pytest.param("sweep", _UNDERFLOWING_R + "sweep_param = zeta\nsweep_min = 1e-300\n"
                                            "sweep_max = 1e-299\nsweep_count = 5\n",
                 id="zeta-sweep"),
])
def test_underflowing_gup_series_argument_is_one_line_exit_1(tmp_path, capsys, mode, block):
    # r = 2 zeta x = 2e-450 rounds to 0, and log r was a bare "math domain error"
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    assert main([mode, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: L(1 + i ybar, i r) at ybar=0.995, r=0.0: "
        "r = 2 zeta x underflows to zero\n")
    assert not out.exists()


_DAMPING = "x = 301\ny = 200\nzeta = 0.5\neps = 1e-6\n"


@pytest.mark.parametrize("mode, block", [
    pytest.param("p2", _DAMPING, id="p2"),
    # the rows before x = 301 are summed; that row fails, in the batch as alone
    pytest.param("sweep", _DAMPING + "sweep_param = x\nsweep_min = 1\nsweep_max = 400\n"
                                     "sweep_count = 400\n", id="x-sweep"),
])
def test_overflowing_p2_damping_is_one_line_exit_1(tmp_path, mode, block):
    # L has no correct digit here (Im L is about 1e7), and exp(2 eta Im L)
    # was an OverflowError traceback
    result, out = _cli_subprocess(tmp_path, mode, block)
    assert result.returncode == 1
    assert result.stderr == (
        "configuration error: p2's damping exp(2 eta Im L) overflows a double at "
        "DimensionlessConfig(x=301.0, y=200.0, zeta=0.5, eps=1e-06), "
        "where Im L=6659366.9260901995\n")
    assert not out.exists()


def _scalar_point(cfg, value):
    """The sweep's point at `value`, built as the runner once built each
    row: an SI row from a PhysicalConfig of its own."""
    if cfg.dimensionless is not None:
        return DimensionlessConfig(**{**cfg.dimensionless, cfg.sweep.param: value})
    si = {**cfg.physical, cfg.sweep.param: value}
    scale = 2.0 * math.pi if cfg.freq_convention == "ordinary" else 1.0
    return to_dimensionless(PhysicalConfig(**{**si, "omega0": si["omega0"] * scale,
                                              "nu": si["nu"] * scale}))


def _first_scalar_error(cfg):
    """The message of the first ValueError the closed forms raise, row by
    row and one scalar call at a time, as the runner once computed them."""
    for value in cfg.sweep.values().tolist():
        try:
            d = _scalar_point(cfg, value)
            p1_closed(d)
            if d.zeta < 1.0:
                p2_closed(d)
            q_parameter(d.eps, d.zeta)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("block, first", [
    # L's bound overflows at the first row, p1's guard fails from y = 8000 on
    pytest.param("x = 750\ny = 1000\nzeta = 0.5\neps = 0.001\nsweep_param = y\n"
                 "sweep_min = 1000\nsweep_max = 10000\nsweep_count = 10\n",
                 "L(1 + i ybar, i r) at ybar=999.5, r=750.0", id="l-then-p1-guard"),
    # L's bound overflows at the first row, x^2 at the last
    pytest.param("x = 750\ny = 1000\nzeta = 0.5\neps = 0.001\nsweep_param = x\n"
                 "sweep_min = 750\nsweep_max = 1e200\nsweep_count = 3\nsweep_spacing = log\n",
                 "L(1 + i ybar, i r) at ybar=999.5, r=750.0", id="l-then-x-squared"),
    # p1's guard fails from the first row, L's bound from x = 750 on
    pytest.param("x = 1\ny = 1000\nzeta = 0.5\neps = 0.001\nsweep_param = x\n"
                 "sweep_min = 1\nsweep_max = 1000\nsweep_count = 5\n",
                 "eps y^2/(1 + x^2)=500.0", id="p1-guard-then-l"),
    # SI: x = 0.1 at the low end of omega0 (in Hz), where p1's guard reads 0.2
    pytest.param("freq_convention = ordinary\na = 3e20\nomega0 = 1.6e10\nnu = 3.2e11\n"
                 "z0 = 1.5e-4\nbeta = 1e59\nsweep_param = omega0\nsweep_min = 1.6e10\n"
                 "sweep_max = 8e11\nsweep_count = 9\n",
                 "eps y^2/(1 + x^2)=0.1999", id="si-omega0-low-end"),
    # SI: y and eps both grow with nu, and p1's guard fails from the 6th row
    pytest.param("a = 3e20\nomega0 = 1.0007e12\nnu = 1.0007e12\nz0 = 1.5e-4\nbeta = 7.17e58\n"
                 "sweep_param = nu\nsweep_min = 1.0007e12\nsweep_max = 3.0021e12\n"
                 "sweep_count = 9\n",
                 "eps y^2/(1 + x^2)=0.1138", id="si-nu-mid-sweep"),
    # p1's total overflows and p2's x^2 underflows at the first row: p1's
    # at-zeta half comes before p2's zeta-free half, as in p1_closed then p2_closed
    pytest.param("x = 1e-310\ny = 1\nzeta = 0.5\nsweep_param = x\nsweep_min = 1e-310\n"
                 "sweep_max = 1\nsweep_count = 50\nsweep_spacing = log\n",
                 "p1 is not a finite double at DimensionlessConfig(x=1e-310",
                 id="p1-total-then-x-squared"),
])
def test_sweep_reports_first_failing_row(tmp_path, capsys, block, first):
    # a sweep's L is summed for all rows before any row is assembled, yet
    # the error reported is still the first a row-by-row run meets
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    message = _first_scalar_error(parse_config("mode = sweep\n" + block))
    assert message.startswith(first)
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("block, failing, summed", [
    # p1's guard eps y^2/(1 + x^2) fails from y = 5, the 5th row
    pytest.param("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = y\nsweep_min = 1\n"
                 "sweep_max = 10\nsweep_count = 10\n", 4, 4, id="p1-guard-mid-sweep"),
    # ... and from the first row here, where all 500 rows' L once took 30 ms
    pytest.param("x = 1\ny = 200\nzeta = 0.5\neps = 0.005\nsweep_param = x\nsweep_min = 1\n"
                 "sweep_max = 400\nsweep_count = 500\n", 0, 0, id="p1-guard-first-row"),
    # p2's x^2 overflows from the 155th row, x = 5.9e154; of the rows
    # before it only x = 1 and x = 10.1 are below the asymptotic line
    pytest.param("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = x\nsweep_min = 1\n"
                 "sweep_max = 1e200\nsweep_count = 200\nsweep_spacing = log\n", 154, 2,
                 id="p2-x-squared"),
])
def test_sweep_sums_l_only_for_rows_before_first_failing_half(tmp_path, capsys, monkeypatch,
                                                              block, failing, summed):
    received, sums = [], []
    batch = closed_form.gup_coefficient_batch

    def recording(ybars, rs, *columns):
        coefficients = batch(ybars, rs, *columns)
        received.extend(zip(ybars, rs))
        sums.extend(value for value in coefficients if value is not None)
        return coefficients

    monkeypatch.setattr(closed_form, "gup_coefficient_batch", recording)
    config = tmp_path / "run.conf"
    config.write_text(block)
    cfg = parse_config("mode = sweep\n" + block)
    message = _first_scalar_error(cfg)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    # each row's (ybar, r) is its own in these sweeps
    rows = [(d.y * (1.0 - 0.5 * d.eps), 2.0 * d.zeta * d.x)
            for d in (_scalar_point(cfg, value) for value in cfg.sweep.values().tolist())]
    assert len(set(rows)) == len(rows)
    # every row before the first failing one needs L and is handed to the
    # batch, which sums those below the asymptotic line
    assert not set(received) & set(rows[failing:])
    assert sorted(received) == sorted(rows[:failing]) and len(sums) == summed


@pytest.mark.parametrize("block", [
    # p1's zeta-free half fails at the 5th row, p2's at the 155th, and p2's
    # damping (an at-zeta half) at the 301st
    pytest.param("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = y\nsweep_min = 1\n"
                 "sweep_max = 10\nsweep_count = 10\n", id="p1-guard-mid-sweep"),
    pytest.param("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = x\nsweep_min = 1\n"
                 "sweep_max = 1e200\nsweep_count = 200\nsweep_spacing = log\n", id="p2-x-squared"),
    pytest.param(_DAMPING + "sweep_param = x\nsweep_min = 1\nsweep_max = 400\nsweep_count = 400\n",
                 id="p2-damping-mid-sweep"),
])
def test_failing_sweep_evaluates_each_row_once(tmp_path, capsys, monkeypatch, block):
    # the first error a point by point run meets comes from one pass over
    # the rows, not from evaluating the rows before it again
    config = tmp_path / "run.conf"
    config.write_text(block)
    message = _first_scalar_error(parse_config("mode = sweep\n" + block))
    seen = {}
    for half in ("_p1_at_zeta", "_p2_at_zeta"):
        points = seen[half] = []

        def recording(factors, point, *rest, original=getattr(closed_form, half), points=points):
            points.append(tuple(point))
            return original(factors, point, *rest)

        monkeypatch.setattr(closed_form, half, recording)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    for half, points in seen.items():
        assert points and len(set(points)) == len(points), half


def test_failing_sweep_builds_points_one_batch_at_a_time(monkeypatch):
    # a million rows, of which the first fails p1's guard: the swept values
    # past the first batch are never converted to floats
    built = Counter()
    original = runner.DimensionlessConfig

    def counting(*args, **kwargs):
        built["points"] += 1
        return original(*args, **kwargs)

    class Axis(np.ndarray):
        def tolist(self):
            built["values"] += self.size
            return super().tolist()

    values = SweepAxis.values
    monkeypatch.setattr(SweepAxis, "values", lambda axis: values(axis).view(Axis))
    monkeypatch.setattr(runner, "DimensionlessConfig", counting)
    cfg = parse_config("mode = sweep\nx = 1\ny = 200\nzeta = 0.5\neps = 0.005\n"
                       "sweep_param = x\nsweep_min = 1\nsweep_max = 400\n"
                       "sweep_count = 1000000\nout = unused.csv")
    assert built["points"] == 3  # the base point and both endpoints
    with pytest.raises(ValueError, match=r"eps y\^2/\(1 \+ x\^2\)=100\.0"):
        _physics_rows(cfg)
    assert 0 < built["values"] <= 3 + _BATCH_ROWS
    assert built["points"] <= 3 + _BATCH_ROWS


@pytest.mark.parametrize("convention, param, lo, hi", [
    # the sign rule at the low end, on the value scaled to rad/s
    pytest.param("ordinary", "omega0", -8e10, 9e11, id="omega0-sign"),
    pytest.param("angular", "beta", -1.0, 1e58, id="beta-sign"),
    # nu^2 overflows at the high end
    pytest.param("angular", "nu", 1e9, 1e200, id="nu-squared"),
    # x = omega0 c / a is inf at the high end
    pytest.param("ordinary", "omega0", 1e9, 1e308, id="x-inf"),
    # eps passes the guard at the low end only
    pytest.param("angular", "beta", 1e56, 1e70, id="eps-guard"),
])
def test_si_sweep_endpoint_error_matches_physical_config(convention, param, lo, hi):
    # a sweep row is checked without a PhysicalConfig of its own, yet meets
    # the error one would raise
    block = "".join(f"{key} = {value!r}\n" for key, value in _SI_BLOCK.items())
    text = f"mode = sweep\nfreq_convention = {convention}\n{block}sweep_param = {param}\n" \
           f"sweep_min = {lo!r}\nsweep_max = {hi!r}\nsweep_count = 3\n"
    cfg = RunConfig(mode="sweep", physical=_SI_BLOCK, freq_convention=convention,
                    sweep=SweepAxis(param, lo, hi, 3))
    errors = []
    for value in (lo, hi):
        try:
            _scalar_point(cfg, value)
        except ValueError as exc:
            errors.append(str(exc))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == errors[0]


@pytest.mark.parametrize("block, code", [
    pytest.param("x = 1\ny = 1\nzeta = 0.5\neps = 0.01\nsweep_param = y\nsweep_min = 0.01\n"
                 "sweep_max = 4\nsweep_count = 1000\nsweep_spacing = log\n", 0, id="y"),
    # the bound on L's terms overflows at the first row, in the batch as in the scalar
    pytest.param("x = 9.5\ny = 1\nzeta = 0.9\neps = 0.01\nsweep_param = y\nsweep_min = 1e-306\n"
                 "sweep_max = 1e-290\nsweep_count = 20\nsweep_spacing = log\n", 1,
                 id="tiny-y"),
])
def test_sweep_raises_no_floating_point_warning(tmp_path, capsys, block, code):
    config = tmp_path / "run.conf"
    config.write_text(block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == code
    assert capsys.readouterr().err.count("\n") == code


def test_huge_y_at_eps0_is_finite(tmp_path):
    # p1 needs y^2 only for its GUP terms, which vanish at eps = 0
    out = tmp_path / "out.csv"
    assert run(parse_config(f"mode = compare\nx = 1\ny = 1e200\nzeta = 0.5\nout = {out}")) == 0
    header, row = read(out).decode().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    d = DimensionlessConfig(x=1.0, y=1e200, zeta=0.5)
    assert float(cells["p1_closed"]) == p1_closed(d).total
    assert float(cells["p2_closed"]) == p2_closed(d).total


@pytest.mark.parametrize("block, message", [
    # nu^2 overflows a double
    pytest.param("a = 1\nomega0 = 1\nnu = 1e308\nz0 = 1\n", "nu=1e+308", id="nu"),
    # x = omega0 c / a overflows to inf
    pytest.param("a = 1\nomega0 = 1e308\nnu = 1\nz0 = 1\n",
                 "x must be strictly positive and finite, got inf", id="omega0"),
])
def test_overflowing_si_input_is_one_line_exit_1(tmp_path, capsys, block, message):
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(block)
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error in ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_q_value_zero_at_eps0_where_zeta_squared_underflows(tmp_path):
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text("x = 1\ny = 1\nzeta = 1e-170\neps = 0\n")
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    assert (row["q_value"], row["ratio"]) == ("0", "1")


@pytest.mark.parametrize("mode, text", [
    ("compare", "x = 1\ny = 1\nzeta = 1.5\neps = -0\n"),
    ("compare", "a = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = 1e17\nbeta = -0\n"),
    ("sweep", "x = 1\ny = 1\nzeta = 1.5\neps = 0.01\nsweep_param = eps\n"
              "sweep_min = -0\nsweep_max = 0.01\nsweep_count = 3\n"),
])
def test_signed_zero_input_renders_as_zero(tmp_path, mode, text):
    # -0 passes the sign rules; it must reach the CSV as 0, not -0
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text(text)
    assert main([mode, "--config", str(config), "--out", str(out)]) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().split("\n")[1].split(",")))
    assert (row["eps"], row["q_value"]) == ("0", "0")
    assert "-0" not in row.values()


def test_config_not_utf8_is_read_error(tmp_path, capsys):
    config = tmp_path / "latin1.conf"
    config.write_bytes(b"x = 1\ny = 1\nzeta = 0.5\n# \xff\n")
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read config file {str(config)!r}: ") and "0xff" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_config_with_utf8_bom_reads_as_without(tmp_path):
    # editors on some systems prefix a byte order mark; it is not part of
    # the first key
    text = "mode = compare\nx = 1\ny = 1\nzeta = 0.5\neps = 0.01\n"
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        config = tmp_path / f"{name}.conf"
        config.write_bytes(prefix + text.encode())
        out = tmp_path / f"{name}.csv"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(read(out))
    assert outputs[0] == outputs[1]


def test_bound_mode_applies_si_sign_rule(tmp_path, capsys):
    config = tmp_path / "bound.conf"
    config.write_text("a = 0\nomega0 = 1e9\nnu = 1e9\nz0 = 1\n")
    assert main(["bound", "--config", str(config), "--out", str(tmp_path / "b.csv")]) == 1
    assert "a=0.0 violates a > 0" in capsys.readouterr().err


def test_freq_convention_read_from_config_only(tmp_path, capsys):
    # the angular reading of these SI inputs gives eps = 0.05, the ordinary
    # reading 4 pi^2 times that
    si = "a = 3e20\nomega0 = 1e11\nnu = 1e11\nz0 = 100\nbeta = 4.040723082860887e61\n"
    config = tmp_path / "si.conf"
    out = tmp_path / "si.csv"
    args = ["compare", "--config", str(config), "--out", str(out)]
    config.write_text("freq_convention = ordinary\n" + si)
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--freq-convention", "angular"])
    assert exit_.value.code == 2
    assert main(args) == 1
    assert "eps=1.97" in capsys.readouterr().err
    config.write_text("freq_convention = angular\n" + si)
    assert main(args) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    assert float(row["eps"]) == pytest.approx(0.05, rel=1e-12)


def test_cli_mode_from_command_line_only(tmp_path):
    config = tmp_path / "bare.conf"
    out = tmp_path / "bare.csv"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\n")
    assert main(["p1", "--config", str(config), "--out", str(out)]) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    assert row["p1_closed"] != "" and row["p2_closed"] == ""
