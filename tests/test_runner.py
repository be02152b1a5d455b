"""Config parsing, run orchestration, CSV contract, exit codes."""

import errno
import math
import os
import random
import stat
import struct
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from gup_mirror import (
    ConfigError,
    DimensionlessConfig,
    PhysicalConfig,
    beta_bound,
    gamma_phase_set,
    log_gamma,
    p1_closed,
    p2_closed,
    parse_config,
    q_parameter,
    run,
    to_dimensionless,
)
from gup_mirror.special import digamma
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


_MEMOS = (log_gamma, digamma, gamma_phase_set)


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
    """The closed-form sweep CSV rendered from scalar calls, caches emptied
    before each point, so no value comes from an earlier row."""
    rows = []
    for d in points:
        for cached in _MEMOS:
            cached.cache_clear()
        one, two = p1_closed(d), p2_closed(d)
        q = q_parameter(d.eps, d.zeta)
        rows.append((d.x, d.y, d.zeta, d.eps, one.total, two.total, None, None,
                     one.phase_argument, two.phase_argument, q, 1.0 + q))
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
    out = tmp_path / "cells.csv"
    for chosen in (rows, rows[:1], [rows[3]] * 3, [(0.0,) * 7, (-0.0,) * 7]):
        _write_csv(str(out), header, chosen)
        assert read(out) == _reference_csv(header, chosen)


def test_zeta_sweep_across_wedge_matches_cell_by_cell_rendering(tmp_path):
    # p2 cells turn empty at zeta >= 1, so that column mixes floats and None
    out = tmp_path / "across.csv"
    cfg = parse_config("mode = sweep\nx = 0.7\ny = 1.4\nzeta = 0.5\neps = 0.02\n"
                       "sweep_param = zeta\nsweep_min = 0.3\nsweep_max = 1.7\n"
                       f"sweep_count = 57\nout = {out}")
    assert run(cfg) == 0
    _, rows = _physics_rows(cfg)
    assert rows[0][5] is not None and rows[-1][5] is None
    assert read(out) == _reference_csv(ROW_COLUMNS, rows)


def test_zeta_sweep_matches_uncached_scalar_calls(tmp_path):
    for cached in _MEMOS:
        cached.cache_clear()
    out = tmp_path / "zeta.csv"
    text = "mode = sweep\nx = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nsweep_param = zeta\n" \
           f"sweep_min = 0.05\nsweep_max = 0.95\nsweep_count = 300\nsweep_spacing = log\nout = {out}"
    assert run(parse_config(text)) == 0
    # each Gamma value computed once for all 300 rows: one phase set (one
    # log Gamma value for p1), one log Gamma(i ybar) for p2, one digamma
    assert gamma_phase_set.cache_info().misses == 1
    assert log_gamma.cache_info().misses == 2
    assert digamma.cache_info().misses == 1
    points = [DimensionlessConfig(x=1.3, y=0.8, zeta=float(zeta), eps=0.005)
              for zeta in np.geomspace(0.05, 0.95, 300)]
    assert read(out) == _scalar_csv(points)


def test_cold_p1_run_evaluates_log_gamma_once(tmp_path):
    # Gamma(-i x) only; p1 needs no Gamma(i ybar)
    for cached in _MEMOS:
        cached.cache_clear()
    out = tmp_path / "p1.csv"
    text = f"mode = p1\nx = 1.3\ny = 0.8\nzeta = 0.5\neps = 0.005\nout = {out}"
    assert run(parse_config(text)) == 0
    assert log_gamma.cache_info().misses == 1


_SI_BLOCK = {"a": 3e20, "omega0": 8e10, "nu": 2e11, "z0": 1.8e-4, "beta": 2e57}


@pytest.mark.parametrize("convention", ["angular", "ordinary"])
@pytest.mark.parametrize("param, lo, hi", [
    pytest.param("a", 1e20, 4.5e20, id="a"),
    pytest.param("omega0", 8e10, 6e11, id="omega0"),
    pytest.param("nu", 5e10, 6e11, id="nu"),
    pytest.param("z0", 1e-5, 2.9e-4, id="z0"),
    pytest.param("beta", 1e56, 2e58, id="beta"),
])
def test_si_sweep_matches_uncached_scalar_calls(tmp_path, param, lo, hi, convention):
    out = tmp_path / "si.csv"
    block = "".join(f"{key} = {value!r}\n" for key, value in _SI_BLOCK.items())
    text = f"mode = sweep\nfreq_convention = {convention}\n{block}sweep_param = {param}\n" \
           f"sweep_min = {lo!r}\nsweep_max = {hi!r}\nsweep_count = 300\nout = {out}"
    assert run(parse_config(text)) == 0
    scale = 2.0 * math.pi if convention == "ordinary" else 1.0
    points = []
    for value in np.linspace(lo, hi, 300):
        si = {**_SI_BLOCK, param: float(value)}
        points.append(to_dimensionless(PhysicalConfig(
            a=si["a"], omega0=si["omega0"] * scale, nu=si["nu"] * scale,
            z0=si["z0"], beta=si["beta"])))
    assert all(0.0 < d.eps < 0.1 and d.zeta < 1.0 for d in (points[0], points[-1]))
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


def test_p2_cells_empty_outside_wedge(tmp_path):
    out = tmp_path / "wedge.csv"
    cfg = parse_config(
        "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0\n"
        f"sweep_param = zeta\nsweep_min = 0.5\nsweep_max = 1.5\nsweep_count = 3\nout = {out}"
    )
    run(cfg)
    lines = read(out).decode().strip().split("\n")[1:]
    rows = [dict(zip(ROW_COLUMNS, line.split(","))) for line in lines]
    assert rows[0]["p2_closed"] != ""
    assert rows[1]["p2_closed"] == ""  # zeta = 1.0
    assert rows[2]["p2_closed"] == ""  # zeta = 1.5
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
