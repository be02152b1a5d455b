"""Run configuration, sweep orchestration, and CSV emission.

Runs are described by a line-oriented key = value file ('#' starts a
comment, unknown keys are errors) plus a mode.  Physics modes emit a CSV
with one row per evaluated point in a fixed column order; the bound and
temperatures modes emit small mode-specific tables.  Rows are computed
on one thread, in axis order, and floats are rendered with 17
significant digits, so identical run configurations produce
byte-identical CSV.  The `workers` key is still accepted and validated
but has no effect: rows are pure Python and hold the interpreter lock,
so threads cannot compute them in parallel.

A run holds one parameter block, dimensionless or SI.  `_points` is the
one path from either block to the points of a physics run: the base
point and the sweep endpoints that `parse_config` checks, and every row.
It yields them as batches of at most _BATCH_ROWS rows, each four
columns, x, y, zeta and eps: a constant column repeats one value, and a
sweep's swept column is one slice of its axis, converted to floats when
the batch is taken, so a sweep that fails early converts no value past
its failing batch.  No `DimensionlessConfig` is built per row; each
batch is checked once against the constructor's rules (`_check_rows`),
and a row is built only to raise the constructor's error.
`_physical_config` is the one place an SI block becomes a
`PhysicalConfig`, with omega0 and nu scaled to rad/s by the frequency
convention; the bound and temperatures rows are built from it too.  An
SI sweep builds it once, for its base, and each row then checks only its
swept value against the sign rule and reduces the five inputs with
`units.dimensionless_groups`, the formulas `to_dimensionless` uses.

The runner computes no route of its own.  The closed-form modes (p1,
p2, compare, sweep, and the default grid) take each batch's columns
from `closed_form.closed_rows`, which owns how the pieces of each closed
form are reused from row to row and which rows have L summed together
(see `closed_form`; `special` sums L), and raises the error that point
by point evaluation meets first.  Q and R are computed once per batch
where zeta and eps are constant, and per row otherwise.  The one-point
modes never load numpy.  Each `verify` row is read from one
`amplitude.verify_pair` record, the one place where the closed forms
meet the quadrature oracle.

All rows are computed before the output file is opened, so a run that
fails writes nothing.  The writer takes the output as columns.  Each
row is written from one `%` template: a column whose cells are all
equal (and not zero) is rendered once, into the template, and the other
cells are formatted per row.  Only sweeps and
`verify` load numpy; nothing loads scipy.  The modules every mode can call
are imported here, at module level; `SweepAxis` and `RunConfig`, like
every record in the package, are NamedTuples, so nothing imports
`dataclasses`.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple

from .amplitude import QuadratureConvergenceError, verify_pair
from .closed_form import closed_rows, temperatures
from .equivalence import beta_bound, q_parameter
from .units import (
    DimensionlessConfig,
    PhysicalConfig,
    dimensionless_groups,
    gup_strength,
    sign_problem,
    to_dimensionless,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MODES",
    "ConfigError",
    "SweepAxis",
    "RunConfig",
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
_PHYSICAL_KEYS = ("a", "omega0", "nu", "z0", "beta")
_SWEEP_KEYS = ("sweep_param", "sweep_min", "sweep_max", "sweep_count", "sweep_spacing")
_OTHER_KEYS = ("mode", "out", "freq_convention", "eta0", "workers", "grid")
_KNOWN_KEYS = frozenset(_DIMENSIONLESS_KEYS + _PHYSICAL_KEYS + _SWEEP_KEYS + _OTHER_KEYS)

# Keys read in one mode only; in any other they would have no effect.
_MODE_ONLY_KEYS = {
    "grid": "verify",
    "eta0": "bound",
    **dict.fromkeys(_SWEEP_KEYS, "sweep"),
}

# freq_convention -> factor taking omega0 and nu to rad/s.
_FREQ_SCALE = {"angular": 1.0, "ordinary": 2.0 * math.pi}

_SWEEP_COUNT_MAX = 10**6


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SweepAxis(NamedTuple):
    param: str
    minimum: float
    maximum: float
    count: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        import numpy as np  # only sweeps need numpy, so it loads on their first call

        if self.spacing == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


class RunConfig(NamedTuple):
    """Fully validated description of one CLI run."""

    mode: str
    dimensionless: dict[str, float] | None = None
    physical: dict[str, float] | None = None
    sweep: SweepAxis | None = None
    out: str | None = None
    freq_convention: str = "angular"
    eta0: float = 1.0
    default_grid: bool = False


# ---------------------------------------------------------------------------
# parsing

def _parse_float(key: str, raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': value must be finite", line)
    # -0.0 passes every sign rule (-0.0 >= 0.0) and would print as -0;
    # adding 0.0 maps it to 0.0 and leaves every other double as it is
    return value + 0.0


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


def _require(pairs: dict[str, tuple[str, int]], keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in pairs]
    if missing:
        raise ConfigError(f"{what} requires keys {', '.join(missing)}")


def parse_config(text: str, default_mode: str | None = None) -> RunConfig:
    """Parse and validate a run configuration document.

    `default_mode` supplies the mode when the document does not set one;
    a conflicting explicit mode is an error, not a silent override.
    """
    pairs = _scan_pairs(text)

    mode_entry = pairs.get("mode")
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
    for key, only in _MODE_ONLY_KEYS.items():
        if key in pairs and mode != only:
            raise ConfigError(f"key '{key}' is only valid in {only} mode", pairs[key][1])

    dim_present = [k for k in _DIMENSIONLESS_KEYS if k in pairs]
    phys_present = [k for k in _PHYSICAL_KEYS if k in pairs]
    if dim_present and phys_present:
        raise ConfigError(
            f"mixed parameter blocks: dimensionless {dim_present} and physical {phys_present}; "
            "exactly one block is allowed"
        )

    grid_entry = pairs.get("grid")
    default_grid = False
    if grid_entry is not None:
        value, line = grid_entry
        if value != "default":
            raise ConfigError(f"key 'grid': only 'default' is supported, got {value!r}", line)
        if dim_present or phys_present:
            raise ConfigError("grid = default replaces the parameter block; remove it", line)
        default_grid = True

    convention = "angular"
    if "freq_convention" in pairs:
        convention, line = pairs["freq_convention"]
        if convention not in _FREQ_SCALE:
            raise ConfigError(
                f"key 'freq_convention': expected {' or '.join(_FREQ_SCALE)}, got {convention!r}",
                line,
            )
        if not phys_present or mode == "bound":
            raise ConfigError(
                "key 'freq_convention' applies only to a physical block outside bound mode "
                "(bound reports both readings)", line
            )

    si_only = mode in ("bound", "temperatures")
    if si_only and dim_present:
        raise ConfigError(f"mode '{mode}' takes SI inputs, not a dimensionless block")
    if mode == "bound" and "beta" in pairs:
        raise ConfigError("mode 'bound' does not take beta (it computes the bound on it)",
                          pairs["beta"][1])
    dimensionless = None
    physical = None
    if dim_present:
        _require(pairs, ("x", "y", "zeta"), "dimensionless block")
        dimensionless = {k: _parse_float(k, *pairs[k]) for k in dim_present}
    elif phys_present or si_only:
        _require(pairs, ("a", "omega0", "nu", "z0"), "physical block")
        physical = {k: _parse_float(k, *pairs[k]) for k in phys_present}
    elif not default_grid:
        raise ConfigError(f"mode '{mode}' needs a dimensionless or physical parameter block")

    sweep = None
    if mode == "sweep":
        _require(pairs, ("sweep_param", "sweep_min", "sweep_max", "sweep_count"), "sweep mode")
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

    eta0 = 1.0
    if "eta0" in pairs:
        eta0 = _parse_float("eta0", *pairs["eta0"])
        if not eta0 > 0.0:
            raise ConfigError("eta0 must be strictly positive", pairs["eta0"][1])

    # Accepted for existing configuration files; rows are computed on one thread.
    if "workers" in pairs:
        if _parse_int("workers", *pairs["workers"]) < 1:
            raise ConfigError("workers must be at least 1", pairs["workers"][1])

    out = pairs["out"][0] if "out" in pairs else None

    cfg = RunConfig(
        mode=mode,
        dimensionless=dimensionless,
        physical=physical,
        sweep=sweep,
        out=out,
        freq_convention=convention,
        eta0=eta0,
        default_grid=default_grid,
    )
    try:
        _validate_base_point(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _validate_base_point(cfg: RunConfig) -> None:
    """Raise ValueError for a base point, or sweep endpoint, no row can use."""
    if cfg.mode in ("bound", "temperatures"):
        _physical_config(cfg.physical, cfg.freq_convention)
        return
    if cfg.default_grid:
        return
    zeta = next(_points(cfg))[2][0]
    if cfg.mode in ("p2", "verify") and not zeta < 1.0:
        raise ValueError(
            f"mode '{cfg.mode}' requires zeta < 1 (atom inside the mirror wedge); got {zeta!r}"
        )
    if cfg.sweep is not None:
        list(_points(cfg, [[cfg.sweep.minimum, cfg.sweep.maximum]]))


def _physical_config(values: dict[str, float], convention: str) -> PhysicalConfig:
    """An SI block as a PhysicalConfig, omega0 and nu scaled to rad/s."""
    scale = _FREQ_SCALE[convention]
    return PhysicalConfig(**{**values, "omega0": values["omega0"] * scale,
                             "nu": values["nu"] * scale})


# The values of x, y, zeta and eps whose every combination is a point of
# the default grid.
_DEFAULT_GRID = ((0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (0.3, 0.5, 0.9), (0.0,))


# Rows are computed this many at a time, so the swept values converted to
# floats, the columns of a batch and the arrays of the batched L stay
# small however long the run.
_BATCH_ROWS = 4096


def _check_rows(columns: list) -> None:
    """Raise what DimensionlessConfig raises at the first row of the
    columns (x, y, zeta, eps) that it rejects.  Its rules bound each field
    to an interval, so the point of the columns' least values and the
    point of their greatest (one point if they are equal) stand for every
    row; the rows are built one by one only where one of them is rejected."""
    try:
        for point in {tuple(map(min, columns)), tuple(map(max, columns))}:
            DimensionlessConfig(*point)
    except ValueError:
        for row in zip(*columns):
            DimensionlessConfig(*row)


def _points(cfg: RunConfig, swept_batches: Iterable[list[float]] | None = None
            ) -> Iterator[list]:
    """The points of a physics run, from either block, as batches of four
    columns, x, y, zeta and eps, built as they are taken.

    Without `swept_batches`: one batch, the block as written or the
    default grid.  With them: one batch per list of swept values, whose
    column is that list; every other column repeats its one value.  Each
    batch is checked once by _check_rows.  An SI sweep validates its base
    PhysicalConfig once; each row applies the sign rule to its swept value
    alone and reduces the inputs with `dimensionless_groups`, as
    `to_dimensionless` does, so a row meets the errors a PhysicalConfig of
    its own would raise, in their order.
    """
    if cfg.default_grid:
        yield list(zip(*itertools.product(*_DEFAULT_GRID)))
        return
    if cfg.dimensionless is not None:
        if swept_batches is None:
            yield list(zip(DimensionlessConfig(**cfg.dimensionless)))
            return
        fields = {"eps": 0.0, **cfg.dimensionless}
        for values in swept_batches:
            columns = [values if key == cfg.sweep.param else [fields[key]] * len(values)
                       for key in _DIMENSIONLESS_KEYS]
            _check_rows(columns)
            yield columns
        return
    base = _physical_config(cfg.physical, cfg.freq_convention)
    if swept_batches is None:
        yield list(zip(to_dimensionless(base)))
        return
    param = cfg.sweep.param
    scale = _FREQ_SCALE[cfg.freq_convention] if param in ("omega0", "nu") else 1.0
    # dimensionless_groups' arguments, which come in _PHYSICAL_KEYS order
    inputs = [base.a, base.omega0, base.nu, base.z0, base.beta]
    swept = _PHYSICAL_KEYS.index(param)
    for values in swept_batches:
        rows = []
        try:
            for value in values:
                value *= scale
                problem = sign_problem(param, value)
                if problem is not None:
                    raise ValueError(problem)
                inputs[swept] = value
                rows.append(dimensionless_groups(*inputs))
        finally:  # where a value raised, a row before it may be no point, which comes first
            if columns := list(zip(*rows)):
                _check_rows(columns)
        yield columns


# ---------------------------------------------------------------------------
# output

def _render(cell) -> str:
    return "" if cell is None else cell if isinstance(cell, str) else f"{cell:.17g}"


# Rows are encoded and written this many at a time, so the bytes of a
# large sweep are never held at once.
_WRITE_LINES = 4096


def _write_csv(path: str, header: tuple[str, ...], columns: list) -> None:
    """Write the cells of `columns`, one sequence per header name: None as
    empty, str as is, numbers with 17 significant digits.

    Every row is written from one `%` template.  A single row whose cells
    are all floats (a one-point verify, temperatures) is one `%.17g` field
    per cell.  Otherwise a column whose cells are all equal is rendered
    once, into the template; a column of floats is a `%.17g` field; any
    other column is rendered cell by cell into a `%s` field.  0.0 and -0.0
    compare equal but render as 0 and -0, so a column of zeros is never
    taken as equal.  Both give the bytes of rendering cell by cell.

    The lines go to the file descriptor as UTF-8, _WRITE_LINES at a time,
    each chunk in as many os.write calls as it takes, so a one-row CSV
    is one write.  A new file gets mode 0o666 under the umask.  An
    existing file is overwritten in place and then, if it was longer,
    cut to the length written, which leaves the bytes of a fresh write;
    truncating it to zero first costs far more on some filesystems.  If
    the write fails partway, the file is cut where the new bytes end, so
    no old bytes remain after them.  Only a regular file is cut, so a
    device or a pipe takes the output too.
    """
    count = len(columns[0])
    if count == 1 and all(type(column[0]) is float for column in columns):
        fields, cells = ("%.17g",) * len(columns), zip(*columns)
    else:
        fields = []
        varying = []
        for column in columns:
            first = column[0]
            # a column of floats seldom ends where it starts, so count is rarely run
            if (first is None or first) and column[-1] == first and column.count(first) == count:
                fields.append(_render(first).replace("%", "%%"))
            elif set(map(type, column)) == {float}:
                fields.append("%.17g")
                varying.append(column)
            else:
                fields.append("%s")
                varying.append(map(_render, column))
        cells = zip(*varying) if varying else itertools.repeat((), count)
    template = ",".join(fields) + "\n"
    lines = itertools.chain([",".join(header) + "\n"], (template % row for row in cells))
    try:
        descriptor = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            opened = os.fstat(descriptor)
            try:
                while chunk := "".join(itertools.islice(lines, _WRITE_LINES)):
                    data = memoryview(chunk.encode())
                    while data:
                        data = data[os.write(descriptor, data):]
            finally:
                if stat.S_ISREG(opened.st_mode):
                    end = os.lseek(descriptor, 0, os.SEEK_CUR)
                    if opened.st_size > end:
                        os.ftruncate(descriptor, end)
        finally:
            os.close(descriptor)
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc


def run(cfg: RunConfig, stderr=None) -> int:
    """Execute a validated run configuration.

    Returns 0 on success, 1 on configuration or I/O errors, 2 on
    quadrature non-convergence.  A ValueError raised while computing the
    rows (an input outside a formula's domain) is a configuration error;
    no output is written then.  Output is written to cfg.out.
    """
    stderr = stderr if stderr is not None else sys.stderr
    try:
        if cfg.out is None:
            raise ConfigError("no output path: set 'out = ...' or pass --out")
        if cfg.mode == "bound":
            header, columns = _bound_rows(cfg)
        elif cfg.mode == "temperatures":
            header, columns = _temperature_rows(cfg)
        else:
            header, columns = _physics_rows(cfg)
        _write_csv(cfg.out, header, columns)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=stderr)
        return 1
    except QuadratureConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=stderr)
        return 1
    return 0


def _physics_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list]:
    """The CSV's columns, in ROW_COLUMNS order; None renders as an empty cell."""
    axis = cfg.sweep.values() if cfg.sweep is not None else None
    batches = _points(cfg, None if axis is None else (
        axis[start:start + _BATCH_ROWS].tolist() for start in range(0, len(axis), _BATCH_ROWS)))
    if cfg.mode == "verify":
        rows = []
        for batch in batches:
            for point in zip(*batch):
                r = verify_pair(DimensionlessConfig(*point))
                d, one, two = r.config, r.p1_breakdown, r.p2_breakdown
                q_value = q_parameter(d.eps, d.zeta)
                rows.append((d.x, d.y, d.zeta, d.eps, one.total, two.total, r.p1_numeric,
                             r.p2_numeric, one.phase_argument, two.phase_argument,
                             q_value, 1.0 + q_value))
        return ROW_COLUMNS, list(zip(*rows))
    want_p1 = cfg.mode in ("p1", "compare", "sweep")
    want_p2 = cfg.mode in ("p2", "compare", "sweep")
    columns = [[] for _ in ROW_COLUMNS]
    for xs, ys, zetas, epss in batches:
        ones, twos = closed_rows(xs, ys, zetas, epss, want_p1, want_p2)
        count = len(xs)
        # Q once for the batch where zeta and eps are the same on every row
        q_values = ([q_parameter(epss[0], zetas[0])] * count
                    if zetas.count(zetas[0]) == count == epss.count(epss[0])
                    else list(map(q_parameter, epss, zetas)))
        empty = [None] * count
        # the fields columns are (total, ..., phase_argument, sin2)
        for column, cells in zip(columns, (xs, ys, zetas, epss, ones[0], twos[0], empty, empty,
                                           ones[4], twos[4], q_values,
                                           [1.0 + q_value for q_value in q_values])):
            column.extend(cells)
    return ROW_COLUMNS, columns


_BOUND_COLUMNS = (
    "convention", "omega0_rad_s", "nu_rad_s",
    "beta_max_si", "beta_max_planck_units", "tolerance_factor",
)


def _bound_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list]:
    rows = []
    for convention in _FREQ_SCALE:
        p = _physical_config(cfg.physical, convention)
        bound = beta_bound(p.a, p.omega0, p.nu, p.z0, cfg.eta0)
        rows.append(
            (convention, p.omega0, p.nu, bound.beta_max_si,
             bound.beta_max_planck_units, bound.tolerance_factor)
        )
    return _BOUND_COLUMNS, list(zip(*rows))


_TEMPERATURE_COLUMNS = ("a_m_s2", "eps", "unruh_K", "modified_K")


def _temperature_rows(cfg: RunConfig) -> tuple[tuple[str, ...], list]:
    p = _physical_config(cfg.physical, cfg.freq_convention)
    pair = temperatures(p)
    return _TEMPERATURE_COLUMNS, [[p.a], [gup_strength(p)], [pair.unruh], [pair.modified]]
