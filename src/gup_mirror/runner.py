"""Run configuration, sweep orchestration, and CSV emission.

Runs are described by a line-oriented key = value file ('#' starts a
comment, unknown keys are errors) plus a mode.  Physics modes emit a CSV
with one row per evaluated point in a fixed column order; the bound and
temperatures modes emit small mode-specific tables.  Identical run
configurations produce byte-identical CSV regardless of worker count:
rows are computed by a pool but written by a single writer in axis order,
and floats are rendered with 17 significant digits.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amplitude import QuadratureConvergenceError, QuadratureSettings, p1_numeric, p2_numeric
from .closed_form import p1_closed, p2_closed, temperatures
from .equivalence import beta_bound, q_parameter
from .units import CODATA, DimensionlessConfig, PhysicalConfig, to_dimensionless

__all__ = [
    "MODES",
    "ConfigError",
    "SweepAxis",
    "RunConfig",
    "SweepResultRow",
    "parse_config",
    "run",
    "ROW_COLUMNS",
]

MODES = ("p1", "p2", "compare", "sweep", "verify", "bound", "temperatures")

ROW_COLUMNS = (
    "x", "y", "zeta", "eps",
    "p1_closed", "p2_closed", "p1_numeric", "p2_numeric",
    "phase1", "phase2", "q_value", "ratio",
)

_DIMENSIONLESS_KEYS = ("x", "y", "zeta", "eps")
_PHYSICAL_KEYS = ("a", "omega0", "nu", "z0", "g", "beta")
_SWEEP_KEYS = ("sweep_param", "sweep_min", "sweep_max", "sweep_count", "sweep_spacing")
_QUAD_KEYS = ("quad_abs_tolerance",)
_OTHER_KEYS = ("mode", "out", "freq_convention", "eta0", "workers", "grid")
_KNOWN_KEYS = frozenset(
    _DIMENSIONLESS_KEYS + _PHYSICAL_KEYS + _SWEEP_KEYS + _QUAD_KEYS + _OTHER_KEYS
)

_SWEEP_COUNT_MAX = 10**6


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class SweepAxis:
    param: str
    minimum: float
    maximum: float
    count: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one CLI run."""

    mode: str
    dimensionless: dict[str, float] | None = None
    physical: dict[str, float] | None = None
    sweep: SweepAxis | None = None
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)
    out: str | None = None
    freq_convention: str = "angular"
    eta0: float = 1.0
    workers: int | None = None
    default_grid: bool = False


@dataclass(frozen=True)
class SweepResultRow:
    """One grid point; None fields render as empty CSV cells."""

    x: float
    y: float
    zeta: float
    eps: float
    p1_closed: float | None = None
    p2_closed: float | None = None
    p1_numeric: float | None = None
    p2_numeric: float | None = None
    phase1: float | None = None
    phase2: float | None = None
    q_value: float | None = None
    ratio: float | None = None


# ---------------------------------------------------------------------------
# parsing

def _parse_float(key: str, raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': value must be finite", line)
    return value


def _parse_int(key: str, raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': not an integer: {raw!r}", line) from None


def _scan_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}' (first on line {pairs[key][1]})", lineno)
        if not value:
            raise ConfigError(f"key '{key}': empty value", lineno)
        pairs[key] = (value, lineno)
    return pairs


def parse_config(text: str, default_mode: str | None = None) -> RunConfig:
    """Parse and validate a run configuration document.

    `default_mode` supplies the mode when the document does not set one;
    a conflicting explicit mode is an error, not a silent override.
    """
    pairs = _scan_pairs(text)

    def take(key: str) -> tuple[str, int] | None:
        return pairs.get(key)

    mode_entry = take("mode")
    if mode_entry is not None:
        mode, mode_line = mode_entry
        if mode not in MODES:
            raise ConfigError(f"unknown mode '{mode}' (choose from {', '.join(MODES)})", mode_line)
        if default_mode is not None and default_mode != mode:
            raise ConfigError(
                f"mode '{mode}' conflicts with requested mode '{default_mode}'", mode_line
            )
    elif default_mode is not None:
        mode = default_mode
    else:
        raise ConfigError("mode is required (set 'mode = ...' or pass it on the command line)")

    dim_present = [k for k in _DIMENSIONLESS_KEYS if k in pairs]
    phys_present = [k for k in _PHYSICAL_KEYS if k in pairs]
    if dim_present and phys_present:
        raise ConfigError(
            f"mixed parameter blocks: dimensionless {dim_present} and physical {phys_present}; "
            "exactly one block is allowed"
        )

    grid_entry = take("grid")
    default_grid = False
    if grid_entry is not None:
        value, line = grid_entry
        if mode != "verify":
            raise ConfigError("key 'grid' is only valid in verify mode", line)
        if value != "default":
            raise ConfigError(f"key 'grid': only 'default' is supported, got {value!r}", line)
        if dim_present or phys_present:
            raise ConfigError("grid = default replaces the parameter block; remove it", line)
        default_grid = True

    convention = "angular"
    conv_entry = take("freq_convention")
    if conv_entry is not None:
        convention, line = conv_entry
        if convention not in ("angular", "ordinary"):
            raise ConfigError(
                f"key 'freq_convention': expected angular or ordinary, got {convention!r}", line
            )

    dimensionless = None
    physical = None
    if mode in ("bound", "temperatures"):
        if dim_present:
            raise ConfigError(f"mode '{mode}' takes SI inputs, not a dimensionless block")
        if mode == "bound" and "beta" in pairs:
            raise ConfigError("mode 'bound' does not take beta (it computes the bound on it)",
                              pairs["beta"][1])
        required = ("a", "omega0", "nu", "z0")
        missing = [k for k in required if k not in pairs]
        if missing:
            raise ConfigError(f"mode '{mode}' requires keys {', '.join(missing)}")
        physical = {k: _parse_float(k, *pairs[k]) for k in phys_present}
    elif default_grid:
        pass
    elif dim_present:
        missing = [k for k in ("x", "y", "zeta") if k not in pairs]
        if missing:
            raise ConfigError(f"dimensionless block requires keys {', '.join(missing)}")
        dimensionless = {k: _parse_float(k, *pairs[k]) for k in dim_present}
        dimensionless.setdefault("eps", 0.0)
    elif phys_present:
        missing = [k for k in ("a", "omega0", "nu", "z0") if k not in pairs]
        if missing:
            raise ConfigError(f"physical block requires keys {', '.join(missing)}")
        physical = {k: _parse_float(k, *pairs[k]) for k in phys_present}
        physical.setdefault("g", 1.0)
        physical.setdefault("beta", 0.0)
    else:
        raise ConfigError(f"mode '{mode}' needs a dimensionless or physical parameter block")

    sweep = None
    sweep_present = [k for k in _SWEEP_KEYS if k in pairs]
    if mode == "sweep":
        required = ("sweep_param", "sweep_min", "sweep_max", "sweep_count")
        missing = [k for k in required if k not in pairs]
        if missing:
            raise ConfigError(f"sweep mode requires keys {', '.join(missing)}")
        param, param_line = pairs["sweep_param"]
        block_keys = _DIMENSIONLESS_KEYS if dimensionless is not None else _PHYSICAL_KEYS
        if param not in block_keys:
            raise ConfigError(
                f"sweep_param '{param}' is not a parameter of the present block", param_line
            )
        minimum = _parse_float("sweep_min", *pairs["sweep_min"])
        maximum = _parse_float("sweep_max", *pairs["sweep_max"])
        count = _parse_int("sweep_count", *pairs["sweep_count"])
        spacing = "linear"
        if "sweep_spacing" in pairs:
            spacing, line = pairs["sweep_spacing"]
            if spacing not in ("linear", "log"):
                raise ConfigError(
                    f"sweep_spacing: expected linear or log, got {spacing!r}", line
                )
        if not 2 <= count <= _SWEEP_COUNT_MAX:
            raise ConfigError(
                f"sweep_count must be in [2, {_SWEEP_COUNT_MAX}]", pairs["sweep_count"][1]
            )
        if not minimum < maximum:
            raise ConfigError("sweep_min must be strictly below sweep_max",
                              pairs["sweep_min"][1])
        if spacing == "log" and not minimum > 0.0:
            raise ConfigError("log spacing requires sweep_min > 0", pairs["sweep_min"][1])
        sweep = SweepAxis(param=param, minimum=minimum, maximum=maximum,
                          count=count, spacing=spacing)
    elif sweep_present:
        raise ConfigError(
            f"sweep keys {sweep_present} are only valid in sweep mode",
            pairs[sweep_present[0]][1],
        )

    quadrature = QuadratureSettings()
    if "quad_abs_tolerance" in pairs:
        tolerance = _parse_float("quad_abs_tolerance", *pairs["quad_abs_tolerance"])
        try:
            quadrature = QuadratureSettings(abs_tolerance=tolerance)
        except ValueError as exc:
            raise ConfigError(f"quadrature settings: {exc}",
                              pairs["quad_abs_tolerance"][1]) from None

    eta0 = 1.0
    if "eta0" in pairs:
        eta0 = _parse_float("eta0", *pairs["eta0"])
        if not eta0 > 0.0:
            raise ConfigError("eta0 must be strictly positive", pairs["eta0"][1])

    workers = None
    if "workers" in pairs:
        workers = _parse_int("workers", *pairs["workers"])
        if workers < 1:
            raise ConfigError("workers must be at least 1", pairs["workers"][1])

    out = pairs["out"][0] if "out" in pairs else None

    cfg = RunConfig(
        mode=mode,
        dimensionless=dimensionless,
        physical=physical,
        sweep=sweep,
        quadrature=quadrature,
        out=out,
        freq_convention=convention,
        eta0=eta0,
        workers=workers,
        default_grid=default_grid,
    )
    _validate_base_point(cfg)
    return cfg


def _materialize(cfg: RunConfig, overrides: dict[str, float] | None = None) -> DimensionlessConfig:
    """Build the dimensionless config for one grid point."""
    overrides = overrides or {}
    if cfg.dimensionless is not None:
        values = dict(cfg.dimensionless)
        values.update(overrides)
        try:
            return DimensionlessConfig(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    values = dict(cfg.physical or {})
    values.update(overrides)
    scale = 2.0 * math.pi if cfg.freq_convention == "ordinary" else 1.0
    try:
        p = PhysicalConfig(
            a=values["a"],
            omega0=values["omega0"] * scale,
            nu=values["nu"] * scale,
            z0=values["z0"],
            g=values.get("g", 1.0),
            beta=values.get("beta", 0.0),
        )
        return to_dimensionless(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _validate_base_point(cfg: RunConfig) -> None:
    if cfg.mode in ("bound", "temperatures") or cfg.default_grid:
        if cfg.mode == "bound":
            values = cfg.physical or {}
            for key in ("a", "omega0", "nu", "z0"):
                if not values.get(key, 0.0) > 0.0:
                    raise ConfigError(f"key '{key}' must be strictly positive")
        if cfg.mode == "temperatures":
            _temperature_config(cfg)
        return
    base = _materialize(cfg)
    if cfg.mode in ("p2", "verify") and not base.zeta < 1.0:
        raise ConfigError(
            f"mode '{cfg.mode}' requires zeta < 1 (atom inside the mirror wedge); got {base.zeta!r}"
        )
    if cfg.sweep is not None:
        for endpoint in (cfg.sweep.minimum, cfg.sweep.maximum):
            _materialize(cfg, {cfg.sweep.param: endpoint})


def _temperature_config(cfg: RunConfig) -> PhysicalConfig:
    values = dict(cfg.physical or {})
    scale = 2.0 * math.pi if cfg.freq_convention == "ordinary" else 1.0
    try:
        return PhysicalConfig(
            a=values["a"],
            omega0=values["omega0"] * scale,
            nu=values["nu"] * scale,
            z0=values["z0"],
            g=values.get("g", 1.0),
            beta=values.get("beta", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# row evaluation

_DEFAULT_GRID_X = (0.5, 1.0, 2.0)
_DEFAULT_GRID_Y = (0.5, 1.0, 2.0)
_DEFAULT_GRID_ZETA = (0.3, 0.5, 0.9)


def _evaluate_row(d: DimensionlessConfig, want_p1: bool, want_p2: bool,
                  numeric: bool, settings: QuadratureSettings) -> SweepResultRow:
    one = p1_closed(d) if want_p1 else None
    two = p2_closed(d) if want_p2 and d.zeta < 1.0 else None
    num1 = p1_numeric(d, settings).probability if numeric and want_p1 else None
    num2 = (
        p2_numeric(d, settings).probability
        if numeric and want_p2 and d.zeta < 1.0
        else None
    )
    q_value = q_parameter(d.eps, d.zeta)
    return SweepResultRow(
        x=d.x,
        y=d.y,
        zeta=d.zeta,
        eps=d.eps,
        p1_closed=one.total if one else None,
        p2_closed=two.total if two else None,
        p1_numeric=num1,
        p2_numeric=num2,
        phase1=one.phase_argument if one else None,
        phase2=two.phase_argument if two else None,
        q_value=q_value,
        ratio=1.0 + q_value,
    )


def _grid_points(cfg: RunConfig) -> list[DimensionlessConfig]:
    if cfg.default_grid:
        return [
            DimensionlessConfig(x=x, y=y, zeta=zeta, eps=0.0)
            for x in _DEFAULT_GRID_X
            for y in _DEFAULT_GRID_Y
            for zeta in _DEFAULT_GRID_ZETA
        ]
    if cfg.sweep is not None:
        return [
            _materialize(cfg, {cfg.sweep.param: float(value)})
            for value in cfg.sweep.values()
        ]
    return [_materialize(cfg)]


def _format_cell(value: float | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_format_cell(cell) for cell in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc


def run(cfg: RunConfig, stderr=None) -> int:
    """Execute a validated run configuration.

    Returns 0 on success, 1 on configuration or I/O errors, 2 on
    quadrature non-convergence.  Output is written to cfg.out.
    """
    stderr = stderr if stderr is not None else sys.stderr
    try:
        if cfg.out is None:
            raise ConfigError("no output path: set 'out = ...' or pass --out")
        if cfg.mode == "bound":
            header, rows = _bound_rows(cfg)
        elif cfg.mode == "temperatures":
            header, rows = _temperature_rows(cfg)
        else:
            header, rows = _physics_rows(cfg)
        _write_csv(cfg.out, header, rows)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=stderr)
        return 1
    except QuadratureConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=stderr)
        return 1
    return 0


def _physics_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple]]:
    want_p1 = cfg.mode in ("p1", "compare", "sweep", "verify")
    want_p2 = cfg.mode in ("p2", "compare", "sweep", "verify")
    numeric = cfg.mode == "verify"
    points = _grid_points(cfg)
    max_workers = cfg.workers or min(32, os.cpu_count() or 1)

    def job(d: DimensionlessConfig) -> SweepResultRow:
        return _evaluate_row(d, want_p1, want_p2, numeric, cfg.quadrature)

    if max_workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(job, points))
    else:
        rows = [job(d) for d in points]
    return ROW_COLUMNS, [
        tuple(getattr(row, column) for column in ROW_COLUMNS) for row in rows
    ]


_BOUND_COLUMNS = (
    "convention", "omega0_rad_s", "nu_rad_s",
    "beta_max_si", "beta_max_planck_units", "tolerance_factor",
)


def _bound_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple]]:
    values = cfg.physical or {}
    rows = []
    for convention, scale in (("angular", 1.0), ("ordinary", 2.0 * math.pi)):
        omega0 = values["omega0"] * scale
        nu = values["nu"] * scale
        bound = beta_bound(values["a"], omega0, nu, values["z0"], CODATA, cfg.eta0)
        rows.append(
            (convention, omega0, nu, bound.beta_max_si,
             bound.beta_max_planck_units, bound.tolerance_factor)
        )
    return _BOUND_COLUMNS, rows


_TEMPERATURE_COLUMNS = ("a_m_s2", "eps", "unruh_K", "modified_K")


def _temperature_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple]]:
    p = _temperature_config(cfg)
    pair = temperatures(p)
    eps = p.beta * CODATA.hbar**2 * p.nu**2 / CODATA.c**2
    return _TEMPERATURE_COLUMNS, [(p.a, eps, pair.unruh, pair.modified)]
