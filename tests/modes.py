"""Mode functions and spacetime kinematics in dimensionless coordinates.

Test support: no command-line mode of the package calls these.  The
tests pin the field modes' boundary conditions and the Rindler
kinematics, and tie the oracle's integrands to the mode functions they
come from.

Coordinates carry units c/a (time) and c^2/a (position), which removes a
and c from every formula.  The three field modes are kept unnormalized,
exactly as incident-plus-reflected unit-amplitude waves; normalization
cancels in every probability comparison.

Mode zoo:

* static mirror at zeta0, lab frame:
    e^{-i y t} (e^{-i k y (z - zeta0)} - e^{+i k y (z - zeta0)}),  k = 1 - eps
* mirror static at zbar = 0 in the Rindler frame:
    e^{-i y tbar} (e^{+i k y zbar} - e^{-i k y zbar})
* the same mode pushed to the lab frame of a uniformly accelerating
  mirror (two step-function-supported terms, see mode_accel_mirror).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from gup_mirror.units import CheckedRecord, deformed_frequencies, require_perturbative

from dispersion import wavenumber_perturbative

__all__ = [
    "SpacetimePoint",
    "ModeSpec",
    "atom_trajectory",
    "rindler_to_minkowski",
    "minkowski_to_rindler",
    "mode_static_mirror",
    "mode_rindler",
    "mode_accel_mirror",
]


class _SpacetimeFields(NamedTuple):
    t: float
    z: float


class SpacetimePoint(CheckedRecord, _SpacetimeFields):
    """Event with time in units c/a and position in units c^2/a."""

    __slots__ = ()

    def __new__(cls, t: float, z: float) -> SpacetimePoint:
        if not (math.isfinite(t) and math.isfinite(z)):
            raise ValueError("spacetime coordinates must be finite")
        return tuple.__new__(cls, (t, z))


class _ModeFields(NamedTuple):
    y: float
    eps: float
    zeta0: float


class ModeSpec(CheckedRecord, _ModeFields):
    """Field mode parameters: frequency y = nu c / a, GUP strength eps,
    and the static-mirror position zeta0 (units c^2/a)."""

    __slots__ = ()

    def __new__(cls, y: float, eps: float = 0.0, zeta0: float = 1.0) -> ModeSpec:
        if not y > 0.0:
            raise ValueError("y must be strictly positive")
        require_perturbative(eps)
        return tuple.__new__(cls, (y, eps, zeta0))

    @property
    def y_tilde(self) -> float:
        """GUP-shifted spatial frequency y (1 - eps).

        Routed through the propagating dispersion root so every mode
        consumes the same first-order wavenumber.
        """
        return self.y * wavenumber_perturbative(self.eps).k

    @property
    def y_bar(self) -> float:
        """GUP-shifted photon frequency y (1 - eps/2)."""
        return deformed_frequencies(self.y, self.eps)[1]


def atom_trajectory(tau: float) -> SpacetimePoint:
    """Uniformly accelerated worldline t = sinh(tau), z = cosh(tau).

    tau is proper time in units c/a; the worldline is the unit hyperbola
    z^2 - t^2 = 1 (z^2 - (ct)^2 = c^4/a^2 in SI).
    """
    return SpacetimePoint(t=math.sinh(tau), z=math.cosh(tau))


def rindler_to_minkowski(p: SpacetimePoint) -> SpacetimePoint:
    """Map Rindler coordinates (tbar, zbar) to lab coordinates:
    t = e^{zbar} sinh(tbar), z = e^{zbar} cosh(tbar)."""
    scale = math.exp(p.z)
    return SpacetimePoint(t=scale * math.sinh(p.t), z=scale * math.cosh(p.t))


def minkowski_to_rindler(p: SpacetimePoint) -> SpacetimePoint:
    """Inverse map, defined on the right wedge z > |t|:
    tbar = (1/2) ln((z+t)/(z-t)), zbar = (1/2) ln(z^2 - t^2)."""
    if not p.z > abs(p.t):
        raise ValueError(f"point (t={p.t}, z={p.z}) lies outside the right Rindler wedge")
    return SpacetimePoint(
        t=0.5 * math.log((p.z + p.t) / (p.z - p.t)),
        z=0.5 * math.log((p.z - p.t) * (p.z + p.t)),
    )


def mode_static_mirror(p: SpacetimePoint, m: ModeSpec) -> complex:
    """Mode vanishing on the static mirror worldline z = zeta0."""
    spatial = m.y_tilde * (p.z - m.zeta0)
    return cmath.exp(-1j * m.y * p.t) * (cmath.exp(-1j * spatial) - cmath.exp(1j * spatial))


def mode_rindler(p: SpacetimePoint, m: ModeSpec) -> complex:
    """Mode vanishing on the Rindler-static mirror worldline zbar = 0.

    `p` holds Rindler coordinates (tbar, zbar).
    """
    spatial = m.y_tilde * p.z
    return cmath.exp(-1j * m.y * p.t) * (cmath.exp(1j * spatial) - cmath.exp(-1j * spatial))


def _log_continued(v: float, branch: float) -> complex:
    """ln(v) continued to v < 0 with the i0-prescription sign `branch`."""
    if v > 0.0:
        return complex(math.log(v), 0.0)
    return complex(math.log(-v), branch * math.pi)


def mode_accel_mirror(p: SpacetimePoint, m: ModeSpec) -> complex:
    """Accelerating-mirror mode in lab coordinates.

    Two terms with step-function supports (strict inequalities, a support
    value of exactly 0 contributes nothing):

        + e^{i ybar ln(z - t)} (z + t)^{-i eps y / 2}     for z - t > 0
        - e^{-i ybar ln(z + t)} (z - t)^{+i eps y / 2}    for z + t > 0

    Inside the right wedge this equals mode_rindler at the image point.
    Where a power-factor base goes negative (outside the wedge), its log
    is continued with the t -> t - i0 prescription, which damps both
    beyond-horizon tails by e^{-pi eps y / 2}.
    """
    u_ret = p.z - p.t
    u_adv = p.z + p.t
    _, ybar, power = deformed_frequencies(m.y, m.eps)
    value = 0j
    if u_ret > 0.0:
        value += cmath.exp(
            1j * ybar * math.log(u_ret) - 1j * power * _log_continued(u_adv, -1.0)
        )
    if u_adv > 0.0:
        value -= cmath.exp(
            -1j * ybar * math.log(u_adv) + 1j * power * _log_continued(u_ret, +1.0)
        )
    return value
