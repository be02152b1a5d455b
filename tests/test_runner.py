"""Config parsing, run orchestration, CSV contract, exit codes."""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning

from gup_mirror import ConfigError, parse_config, run
from gup_mirror.cli import main
from gup_mirror.runner import ROW_COLUMNS


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
        warnings.simplefilter("error", IntegrationWarning)
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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_exit_code_non_convergence(tmp_path):
    # a tolerance below what double precision reaches cannot be certified
    out = tmp_path / "bad.csv"
    cfg = parse_config(
        f"mode = verify\nx = 1\ny = 1\nzeta = 0.5\neps = 0\nquad_abs_tolerance = 1e-18\n"
        f"out = {out}"
    )
    assert run(cfg) == 2


@pytest.mark.parametrize("key", ["quad_regulators", "quad_extrapolation_order", "quad_cutoff"])
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


def test_cli_mode_from_command_line_only(tmp_path):
    config = tmp_path / "bare.conf"
    out = tmp_path / "bare.csv"
    config.write_text("x = 1\ny = 1\nzeta = 0.5\n")
    assert main(["p1", "--config", str(config), "--out", str(out)]) == 0
    row = dict(zip(ROW_COLUMNS, read(out).decode().strip().split("\n")[1].split(",")))
    assert row["p1_closed"] != "" and row["p2_closed"] == ""
