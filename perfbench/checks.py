"""Output checks and the two-route agreement measure.

Every check returns a list of problems; an empty list means the output is
correct.  A run operation with any problem counts as failed.
"""

from __future__ import annotations

import math
import random

import gup_mirror
from gup_mirror.runner import ROW_COLUMNS

_NUMERIC = ("p1_numeric", "p2_numeric")
_SAMPLED_ROWS = 3

# Acceptance criterion 2's grid: fixed cells away from interference nodes.
REFERENCE_X = (0.7, 1.1, 1.9)
REFERENCE_Y = (0.7, 1.2, 2.0)
REFERENCE_ZETA = (0.35, 0.55, 0.8)
REFERENCE_EPS = (0.0, 1e-3, 1e-2)


def read_csv(path: str) -> tuple[bytes, list[str], list[list[str]]]:
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.decode("utf-8").splitlines()
    return data, lines[0].split(","), [line.split(",") for line in lines[1:]]


def _render(value: float) -> str:
    return f"{value:.17g}"


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _check_shape(header: list[str], rows: list[list[str]], count: int) -> list[str]:
    problems = []
    if tuple(header) != ROW_COLUMNS:
        problems.append(f"header {header} != {list(ROW_COLUMNS)}")
    if len(rows) != count:
        problems.append(f"{len(rows)} rows, expected {count}")
    return problems


def check_sweep(header: list[str], rows: list[list[str]], count: int,
                rng: random.Random) -> list[str]:
    """Header and row count, finite closed-form cells, empty numeric cells,
    and a seeded sample of rows equal to the scalar functions as rendered."""
    problems = _check_shape(header, rows, count)
    if problems:
        return problems
    col = {name: i for i, name in enumerate(ROW_COLUMNS)}
    for n, row in enumerate(rows):
        for name, cell in zip(ROW_COLUMNS, row):
            ok = cell == "" if name in _NUMERIC else _finite(cell)
            if not ok:
                problems.append(f"row {n}: bad {name} cell {cell!r}")
    for n in rng.sample(range(len(rows)), min(_SAMPLED_ROWS, len(rows))):
        row = rows[n]
        x, y, zeta, eps = (float(row[col[k]]) for k in ("x", "y", "zeta", "eps"))
        d = gup_mirror.DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
        expected = {
            "p1_closed": _render(gup_mirror.p1_closed(d).total),
            "p2_closed": _render(gup_mirror.p2_closed(d).total),
            "q_value": _render(gup_mirror.q_parameter(eps, zeta)),
        }
        for name, value in expected.items():
            if row[col[name]] != value:
                problems.append(f"row {n}: {name} {row[col[name]]} != scalar {value}")
    return problems


def check_verify(header: list[str], rows: list[list[str]]) -> list[str]:
    """One row with every cell, the oracle's included, finite."""
    problems = _check_shape(header, rows, 1)
    if problems:
        return problems
    return [f"bad {name} cell {cell!r}"
            for name, cell in zip(ROW_COLUMNS, rows[0]) if not _finite(cell)]


def verify_deviations(header: list[str], row: list[str]) -> tuple[float, float, float]:
    """(eps, p1 relative deviation, p2 relative deviation) of a verify row,
    with verify_pair's definition |numeric - closed| / |closed|."""
    cell = dict(zip(header, (float(c) for c in row)))
    return (
        cell["eps"],
        abs(cell["p1_numeric"] - cell["p1_closed"]) / abs(cell["p1_closed"]),
        abs(cell["p2_numeric"] - cell["p2_closed"]) / abs(cell["p2_closed"]),
    )


class Deviations:
    """Worst two-route relative deviations, split as the metrics are."""

    def __init__(self) -> None:
        self.eps0 = 0.0
        self.p1_gup = 0.0
        self.p2_gup = 0.0

    def add(self, eps: float, p1: float, p2: float) -> None:
        if eps == 0.0:
            self.eps0 = max(self.eps0, p1, p2)
        else:
            self.p1_gup = max(self.p1_gup, p1)
            self.p2_gup = max(self.p2_gup, p2)


def reference_deviations() -> tuple[Deviations, int, list[str]]:
    """Two-route agreement on the reference grid, through verify_pair.

    Returns the worst deviations, the cells attempted and the problems.
    The known p2 defect at eps > 0 is reported as measured.
    """
    worst = Deviations()
    problems = []
    cells = [(x, y, zeta, eps) for x in REFERENCE_X for y in REFERENCE_Y
             for zeta in REFERENCE_ZETA for eps in REFERENCE_EPS]
    for x, y, zeta, eps in cells:
        d = gup_mirror.DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
        try:
            record = gup_mirror.verify_pair(d)
        except gup_mirror.QuadratureConvergenceError as exc:
            problems.append(f"reference cell {(x, y, zeta, eps)}: {exc}")
            continue
        if not (math.isfinite(record.p1_rel_dev) and math.isfinite(record.p2_rel_dev)):
            problems.append(f"reference cell {(x, y, zeta, eps)}: non-finite deviation")
            continue
        worst.add(eps, record.p1_rel_dev, record.p2_rel_dev)
    return worst, len(cells), problems
