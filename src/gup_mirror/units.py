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
constructor applies it to every field, and :func:`validate_physical`
reports it in full.  The reduction to the four groups is
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
    "physical_from_dimensionless",
    "validate_physical",
    "sign_problem",
    "require_perturbative",
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
    g: float
    beta: float


class PhysicalConfig(CheckedRecord, _PhysicalFields):
    """System parameters in SI units.

    a       proper acceleration, m/s^2
    omega0  atomic transition angular frequency, rad/s
    nu      field mode angular frequency, rad/s
    z0      mirror (or atom) position coordinate, m
    g       atom-field coupling, 1/s
    beta    GUP parameter, (kg*m/s)^-2
    """

    __slots__ = ()

    def __new__(cls, a: float, omega0: float, nu: float, z0: float,
                g: float = 1.0, beta: float = 0.0) -> PhysicalConfig:
        self = tuple.__new__(cls, (a, omega0, nu, z0, g, beta))
        # The sign rule only; the case-specific wedge bound z0 < c^2/a is
        # reported by validate_physical and enforced where it applies.
        problems = _sign_problems(self)
        if problems:
            raise ValueError(problems[0])
        return self


_SIGNED_FIELDS = ("a", "omega0", "nu", "z0", "g", "beta")


def sign_problem(name: str, value: float) -> str | None:
    """The SI sign rule for one field, a, omega0, nu, z0, g > 0 and
    beta >= 0: the message naming the failed bound, or None if it holds."""
    if name == "beta":
        return None if value >= 0.0 else f"beta={value!r} violates beta >= 0"
    return None if value > 0.0 else f"{name}={value!r} violates {name} > 0"


def _sign_problems(p: PhysicalConfig) -> list[str]:
    """The SI sign rule for every field, in field order."""
    return [problem for name in _SIGNED_FIELDS
            if (problem := sign_problem(name, getattr(p, name))) is not None]


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


def validate_physical(p: PhysicalConfig) -> list[str]:
    """Collect invariant violations of a physical configuration.

    Returns an empty list iff the configuration is valid.  Each entry names
    the offending field and the failed bound.  Total function: never raises.

    The bound z0 < c^2/a applies to the accelerating-mirror configuration,
    where the static atom must sit inside the right Rindler wedge of the
    mirror trajectory.
    """
    problems = _sign_problems(p)
    if p.a > 0.0 and p.z0 > 0.0 and not p.z0 < CODATA.c**2 / p.a:
        problems.append(
            f"z0={p.z0!r} violates z0 < c^2/a = {CODATA.c**2 / p.a!r} (mirror-accelerating case)"
        )
    return problems


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


def physical_from_dimensionless(
    d: DimensionlessConfig,
    reference_acceleration: float,
    g: float = 1.0,
) -> PhysicalConfig:
    """Instantiate SI parameters realizing the given dimensionless groups.

    The dimensionless groups fix the physics only up to one overall scale;
    `reference_acceleration` (m/s^2) pins it.  Round-trips with
    :func:`to_dimensionless` up to floating-point rounding.
    """
    if not reference_acceleration > 0.0:
        raise ValueError("reference_acceleration must be strictly positive")
    a = reference_acceleration
    nu = d.y * a / CODATA.c
    beta = d.eps * CODATA.c**2 / (CODATA.hbar**2 * nu**2) if d.eps > 0.0 else 0.0
    return PhysicalConfig(
        a=a,
        omega0=d.x * a / CODATA.c,
        nu=nu,
        z0=d.zeta * CODATA.c**2 / a,
        g=g,
        beta=beta,
    )

