"""SI inputs, physical constants, and the dimensionless reduction.

Every formula in this package collapses to four dimensionless groups,

    x    = omega0 * c / a        (atom transition frequency)
    y    = nu * c / a            (field mode frequency)
    zeta = a * z0 / c**2         (mirror / atom position)
    eps  = beta * hbar**2 * nu**2 / c**2   (GUP strength)

so SI quantities appear only at this boundary.  All downstream physics
consumes :class:`DimensionlessConfig`.

Each input rule is written here once.  The SI sign rule is
:func:`sign_problem`, one field at a time: the :class:`PhysicalConfig`
constructor applies it to every field, and an SI sweep to each row's
swept value.  The reduction to the four groups is
:func:`dimensionless_groups`; :func:`to_dimensionless` calls it, and so
does an SI sweep, which validates its base PhysicalConfig once and then
checks only each row's swept value.  The perturbative guard
0 <= eps < 0.1 is :func:`require_perturbative`, which every consumer of
eps calls: the first-order treatment of the GUP deformation is trusted
only for eps well below one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "PhysicalConfig",
    "DimensionlessConfig",
    "gup_strength",
    "dimensionless_groups",
    "to_dimensionless",
    "sign_problem",
    "require_perturbative",
    "deformed_frequencies",
    "EPS_GUARD",
    "CheckedRecord",
]

# Hard validity guard on the dimensionless GUP strength: the wavenumber and
# the closed forms are first-order in eps and not trustworthy beyond this.
EPS_GUARD = 0.1


def require_perturbative(value: float, name: str = "eps") -> None:
    """Raise ValueError unless 0 <= value < EPS_GUARD.

    `name` says which first-order quantity `value` is; it is formatted
    into the message only when the check fails.
    """
    if not 0.0 <= value < EPS_GUARD:
        raise ValueError(
            f"{name}={value!r}: perturbative regime violated (need 0 <= {name} < {EPS_GUARD})"
        )


def deformed_frequencies(y: float, eps: float) -> tuple[float, float, float]:
    """The GUP-deformed frequencies of a mode of frequency y, the one copy
    of each: the spatial frequency y (1 - eps), the photon frequency
    ybar = y (1 - eps/2) and the power-factor exponent eta = eps y / 2,
    each as the closed forms, the oracle and the tests' mode functions
    write it."""
    return y * (1.0 - eps), y * (1.0 - 0.5 * eps), 0.5 * eps * y


class CheckedRecord:
    """Base of a NamedTuple record whose ``__new__`` checks its fields.

    A NamedTuple's own ``_make``, which ``_replace`` calls, builds the
    tuple directly; here it calls the class, so no record is built
    unchecked.  Pickle and copy call ``__new__`` too.  List this base
    before the NamedTuple, whose ``_make`` it overrides.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[float]):
        return cls(*iterable)


class PhysicalConstants(NamedTuple):
    """Fundamental constants in SI units (CODATA 2018 values).

    c           speed of light, m/s
    hbar        reduced Planck constant, J*s
    k_B         Boltzmann constant, J/K
    planck_mass Planck mass M_P, kg
    """

    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    k_B: float = 1.380649e-23
    planck_mass: float = 2.176434e-8


#: The constants every SI conversion in the package reads.
CODATA = PhysicalConstants()


class _PhysicalFields(NamedTuple):
    a: float
    omega0: float
    nu: float
    z0: float
    beta: float


class PhysicalConfig(CheckedRecord, _PhysicalFields):
    """System parameters in SI units.

    a       proper acceleration, m/s^2
    omega0  atomic transition angular frequency, rad/s
    nu      field mode angular frequency, rad/s
    z0      mirror (or atom) position coordinate, m
    beta    GUP parameter, (kg*m/s)^-2
    """

    __slots__ = ()

    def __new__(cls, a: float, omega0: float, nu: float, z0: float,
                beta: float = 0.0) -> PhysicalConfig:
        values = (a, omega0, nu, z0, beta)
        # The sign rule only, first failing field first; the runner enforces
        # the wedge bound z0 < c^2/a (zeta < 1) where a mode needs it.
        for name, value in zip(cls._fields, values):
            if (problem := sign_problem(name, value)) is not None:
                raise ValueError(problem)
        return tuple.__new__(cls, values)


def sign_problem(name: str, value: float) -> str | None:
    """The SI sign rule for one field, a, omega0, nu, z0 > 0 and
    beta >= 0: the message naming the failed bound, or None if it holds."""
    if name == "beta":
        return None if value >= 0.0 else f"beta={value!r} violates beta >= 0"
    return None if value > 0.0 else f"{name}={value!r} violates {name} > 0"


class _DimensionlessFields(NamedTuple):
    x: float
    y: float
    zeta: float
    eps: float


class DimensionlessConfig(CheckedRecord, _DimensionlessFields):
    """The four dimensionless groups every probability formula reduces to."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, zeta: float, eps: float = 0.0) -> DimensionlessConfig:
        # NaN fails both comparisons
        if not 0.0 < x < math.inf:
            raise ValueError(f"x must be strictly positive and finite, got {x!r}")
        if not 0.0 < y < math.inf:
            raise ValueError(f"y must be strictly positive and finite, got {y!r}")
        if not 0.0 < zeta < math.inf:
            raise ValueError(f"zeta must be strictly positive and finite, got {zeta!r}")
        require_perturbative(eps)
        return tuple.__new__(cls, (x, y, zeta, eps))


def _gup_strength(beta: float, nu: float) -> float:
    try:
        return beta * CODATA.hbar**2 * nu**2 / CODATA.c**2
    except OverflowError:
        raise ValueError(f"nu={nu!r}: nu^2 overflows a double") from None


def gup_strength(p: PhysicalConfig) -> float:
    """Dimensionless GUP strength eps = beta hbar^2 nu^2 / c^2.

    Raises ValueError when nu^2 overflows a double (nu above about
    1.3e154 rad/s).
    """
    return _gup_strength(p.beta, p.nu)


def dimensionless_groups(a: float, omega0: float, nu: float, z0: float,
                         beta: float) -> tuple[float, float, float, float]:
    """(x, y, zeta, eps) of SI inputs that obey the sign rule, which is
    not checked here: the one copy of the reduction, shared by
    to_dimensionless and the runner's SI sweeps.

    Raises ValueError when nu^2 overflows a double.
    """
    c = CODATA.c
    return omega0 * c / a, nu * c / a, a * z0 / c**2, _gup_strength(beta, nu)


def to_dimensionless(p: PhysicalConfig) -> DimensionlessConfig:
    """Reduce SI parameters to the four dimensionless groups.

    The PhysicalConfig constructor has already applied the sign rule;
    eps >= 0.1 is rejected with a perturbative-regime error (raised by
    the DimensionlessConfig constructor).
    """
    return DimensionlessConfig(*dimensionless_groups(p.a, p.omega0, p.nu, p.z0, p.beta))
