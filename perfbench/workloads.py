"""Seeded workload generators.

Each generator takes a seed and an output path and yields run
configuration documents, one per `runner.run` call, for as long as the
caller asks.  The package under test sees only this text.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

# CODATA 2018, the values the package uses; only needed to place the SI
# inputs of sweep-si inside the intended dimensionless box.
_C = 299792458.0
_HBAR = 1.054571817e-34

#: Rows per sweep call.  Small enough that a 10 s run makes well over 100
#: calls, so the 90th percentile of per-call latency has ten samples beyond it.
SWEEP_POINTS = 500


def sweep_zeta(seed: int, out: str) -> Iterator[str]:
    """Closed-form zeta sweeps sharing one (x, y, eps), on the default pool."""
    rng = random.Random(seed)
    x = rng.uniform(0.5, 2.0)
    y = rng.uniform(0.5, 2.0)
    eps = 10.0 ** rng.uniform(-3.0, -2.0)
    while True:
        # zeta >= 0.05 keeps the p2 damping exponent eps*y/(x*zeta) below 1
        lo = rng.uniform(0.05, 0.2)
        hi = rng.uniform(0.6, 0.95)
        yield (
            f"mode = sweep\nx = {x!r}\ny = {y!r}\nzeta = {lo!r}\neps = {eps!r}\n"
            f"sweep_param = zeta\nsweep_min = {lo!r}\nsweep_max = {hi!r}\n"
            f"sweep_count = {SWEEP_POINTS}\nsweep_spacing = log\nout = {out}\n"
        )


def sweep_si(seed: int, out: str) -> Iterator[str]:
    """Closed-form omega0 sweeps from SI inputs on one thread; every call
    covers a fresh omega0 range, so no two rows share their Gamma phases
    (the two probabilities of one row do)."""
    rng = random.Random(seed)
    a = 10.0 ** rng.uniform(18.0, 21.0)
    y = rng.uniform(0.5, 2.0)
    zeta = rng.uniform(0.3, 0.9)
    eps = 10.0 ** rng.uniform(-3.0, -2.0)
    hz_per_unit = a / (2.0 * math.pi * _C)  # ordinary frequency of x = 1
    nu = y * hz_per_unit
    z0 = zeta * _C**2 / a
    beta = eps * _C**2 / (_HBAR * 2.0 * math.pi * nu) ** 2
    while True:
        x_lo = rng.uniform(0.5, 2.5)
        x_hi = rng.uniform(x_lo + 1.0, 5.0)
        lo = x_lo * hz_per_unit
        yield (
            f"mode = sweep\nfreq_convention = ordinary\nworkers = 1\n"
            f"a = {a!r}\nomega0 = {lo!r}\nnu = {nu!r}\nz0 = {z0!r}\nbeta = {beta!r}\n"
            f"sweep_param = omega0\nsweep_min = {lo!r}\nsweep_max = {x_hi * hz_per_unit!r}\n"
            f"sweep_count = {SWEEP_POINTS}\nout = {out}\n"
        )


def oracle(seed: int, out: str) -> Iterator[str]:
    """Single-point verify runs in x, y in [0.5, 2], zeta in [0.3, 0.9].

    Points come in blocks of 27, one per cell of a 3x3x3 split of that box,
    and each block holds each eps in {0, 1e-3, 1e-2} nine times.  The
    oracle's cost depends strongly on x and eps, so the stratification keeps
    every run's mix of cheap and expensive points the same across seeds.
    """
    rng = random.Random(seed)
    cells = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    eps_values = [0.0, 1e-3, 1e-2] * 9
    while True:
        rng.shuffle(cells)
        rng.shuffle(eps_values)
        for (i, j, k), eps in zip(cells, eps_values):
            x = 0.5 + 0.5 * (i + rng.random())
            y = 0.5 + 0.5 * (j + rng.random())
            zeta = 0.3 + 0.2 * (k + rng.random())
            yield (
                f"mode = verify\nx = {x!r}\ny = {y!r}\nzeta = {zeta!r}\neps = {eps!r}\n"
                f"out = {out}\n"
            )


WORKLOADS = {"sweep-zeta": sweep_zeta, "sweep-si": sweep_si, "oracle": oracle}
