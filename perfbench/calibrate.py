"""Frozen calibration kernels: the machine's current speed.

Other tenants of a shared machine slow it by up to 1.6x, in stretches
from a fraction of a second to many seconds, whatever the workload.  The
benchmark times this kernel on each side of every operation and scales the
operation's time by REFERENCE_SECONDS / (kernel time), which gives its
time at a fixed reference speed.  The kernel mixes the two kinds of work the package does
(complex Lanczos log-Gamma in pure Python, and QUADPACK calling a Python
integrand) so that a slowdown affects it as it affects the package.  It
never calls the package, so no change to the package moves it.
"""

from __future__ import annotations

import cmath
import math
import time

from scipy.integrate import quad

#: Kernel time at the reference speed: about its time when no other tenant
#: is busy, on the 2-core x86-64 machine the baselines were measured on, so
#: reference-speed times read close to that machine's quiet wall times.
REFERENCE_SECONDS = 1.5e-4

#: Set-up time is scaled by this probe instead, run in its own fresh
#: interpreter next to each set-up measurement: a cold import slows under
#: load differently from compute, and importing the package's dependencies
#: slows as importing the package does.  The package is not imported, so
#: making its own import lighter still shows.
IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import numpy, scipy.integrate
print(time.perf_counter() - t0)
"""
REFERENCE_IMPORT_SECONDS = 0.5

_G = 7.0
_COEFFS = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma(z: complex) -> complex:
    z -= 1.0
    series = _COEFFS[0]
    for i, coeff in enumerate(_COEFFS[1:], start=1):
        series += coeff / (z + i)
    t = z + _G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * cmath.log(t) - t + cmath.log(series)


def _kernel() -> tuple[complex, float]:
    total = 0j
    for k in range(60):
        total += _log_gamma(complex(1.0 + 0.01 * k, 0.5))
    value, _ = quad(lambda t: math.cos(3.0 * t) * math.exp(-t * t), 0.0, 5.0,
                    epsabs=1e-10, limit=200)
    return total, value


def probe() -> float:
    """Fastest of three kernel runs, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
