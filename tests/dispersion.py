"""Roots of the GUP-modified dispersion relation.

Test support: the mode functions in `modes.py` read the first-order
root, and the tests check it against the quartic's exact root.

A plane wave e^{-i nu t} e^{n z} solves the deformed wave equation

    (1/c^2) d_t^2 - d_z^2 + 2 beta hbar^2 d_z^4 = 0

when n = i k nu / c with the dimensionless wavenumber k (units of nu/c)
satisfying the quartic

    2 eps k^4 + k^2 - 1 = 0,        eps = beta hbar^2 nu^2 / c^2.

First order in eps gives the propagating branch k = 1 - eps, which is what
all mode functions use.  The exact positive root is kept as a test oracle,
and the remaining imaginary root pair (|k| ~ 1/sqrt(2 eps), evanescent,
trans-Planckian) is exposed only as a scale, flagged nonphysical for this
model.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from gup_mirror.units import CheckedRecord, require_perturbative

__all__ = [
    "Wavenumber",
    "wavenumber_perturbative",
    "wavenumber_exact",
    "wavenumber_trans_planckian",
]

# The exact quartic has a real propagating root only for eps < 1/8.
EXACT_EPS_MAX = 0.125


class _WavenumberFields(NamedTuple):
    k: float
    eps: float


class Wavenumber(CheckedRecord, _WavenumberFields):
    """Propagating wavenumber in units of nu/c, with the eps it was computed at."""

    __slots__ = ()

    def __new__(cls, k: float, eps: float) -> Wavenumber:
        if not k > 0.0:
            raise ValueError("k must be strictly positive")
        return tuple.__new__(cls, (k, eps))


def wavenumber_perturbative(eps: float) -> Wavenumber:
    """First-order propagating root k = 1 - eps (the one the modes use)."""
    require_perturbative(eps)
    return Wavenumber(k=1.0 - eps, eps=eps)


def wavenumber_exact(eps: float) -> Wavenumber:
    """Exact positive root of 2 eps k^4 + k^2 - 1 = 0 (test oracle).

    k^2 = (-1 + sqrt(1 + 8 eps)) / (4 eps), evaluated in the rationalized
    form 2/(1 + sqrt(1 + 8 eps)) so small eps loses no precision; the
    quartic residual stays below 1e-14.
    """
    if not 0.0 < eps < EXACT_EPS_MAX:
        raise ValueError(
            f"eps={eps!r}: exact propagating root defined for 0 < eps < {EXACT_EPS_MAX}"
        )
    k_squared = 2.0 / (1.0 + math.sqrt(1.0 + 8.0 * eps))
    return Wavenumber(k=math.sqrt(k_squared), eps=eps)


def wavenumber_trans_planckian(eps: float) -> float:
    """Magnitude of the second root pair, |k| = sqrt((1 + sqrt(1+8 eps))/(4 eps)).

    This branch has k^2 < 0 (evanescent) and scales as 1/sqrt(2 eps):
    nonphysical for this model and excluded from mode construction.
    """
    if not 0.0 < eps < EXACT_EPS_MAX:
        raise ValueError(
            f"eps={eps!r}: trans-Planckian branch defined for 0 < eps < {EXACT_EPS_MAX}"
        )
    return math.sqrt((1.0 + math.sqrt(1.0 + 8.0 * eps)) / (4.0 * eps))
