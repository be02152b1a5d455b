"""Closed-form excitation probabilities and Unruh temperatures.

Both probabilities are reported dimensionless, P a^2 / (g^2 c^2), and
factor as

    prefactor * damping * planck * sin^2(phase_argument).

Probability 1, atom accelerating past a static mirror:

    prefactor = 2 pi / x
    damping   = exp(-eps y^2 Omega cos Delta)          (Omega cos Delta < 0)
    planck    = 1 / (e^{2 pi x} - 1)
    phase     = y (1 - eps) zeta + x ln y - eps x / 2
                + theta - (eps y^2 / 2) Omega sin Delta

with theta = Arg Gamma(-i x), Omega and Delta the Gamma magnitude ratio
and phase difference at -i x - 1 versus -i x.  The thermal factor is set
by the atom frequency; the GUP enters the interference only as constant
phase shifts and a constant damping.

Probability 2, static atom facing an accelerating mirror (zeta < 1):

    prefactor = 2 pi ybar / x^2,        ybar = y (1 - eps/2)
    damping   = exp(-eps y / (x zeta))
    planck    = 1 / (e^{2 pi ybar} - 1)
    phase     = x zeta + ybar ln x + (eps y / 2) ln zeta + eps y / 2
                + eps y^2 / (2 x zeta) - kappa(ybar)

with kappa = Arg Gamma(i ybar).  Here the thermal factor is governed by
the GUP-shifted photon frequency, and the interference acquires a
position-dependent GUP term: the signature that breaks the symmetry
between the two configurations.

Sign conventions for the Gamma phases (+theta, -the Omega sin Delta term,
-kappa) are fixed by the first-principles quadrature oracle, which this
package treats as ground truth; at eps = 0 the two agree to within
4e-14 relative on the acceptance and default verify grids.  With these
conventions the x = y, eps = 0 symmetry between the two probabilities
is exact.

The first-order GUP terms of probability 2 inherit an additional
approximation from the analytic evaluation (the position-dependent power
factor is treated as a pure frequency shift); the quadrature oracle
measures their accuracy at a few times eps * y / (x zeta) in relative
terms, which the verification tooling reports rather than hides.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .special import gamma_phase_set, planck_factor
from .units import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
    PhysicalConstants,
    to_dimensionless,
)

__all__ = [
    "ProbabilityBreakdown",
    "TemperaturePair",
    "p1_closed",
    "p2_closed",
    "p1_closed_si",
    "p2_closed_si",
    "temperatures",
]


@dataclass(frozen=True)
class ProbabilityBreakdown:
    """Probability with its factor decomposition.

    total = prefactor * damping * planck * sin2 (to rounding);
    phase_argument is the raw accumulated phase, sin2 = sin(phase)^2.
    """

    total: float
    prefactor: float
    damping: float
    planck: float
    phase_argument: float
    sin2: float

    @property
    def phase_mod_pi(self) -> float:
        """Phase argument reduced to [0, pi); sin^2 has period pi."""
        return self.phase_argument % math.pi


@dataclass(frozen=True)
class TemperaturePair:
    """Unruh temperature and its GUP-modified counterpart, in kelvin."""

    unruh: float
    modified: float


def _assemble(prefactor: float, damping: float, planck: float, phase: float) -> ProbabilityBreakdown:
    sin2 = math.sin(phase) ** 2
    return ProbabilityBreakdown(
        total=prefactor * damping * planck * sin2,
        prefactor=prefactor,
        damping=damping,
        planck=planck,
        phase_argument=phase,
        sin2=sin2,
    )


def p1_closed(d: DimensionlessConfig) -> ProbabilityBreakdown:
    """Closed-form probability for the accelerating atom, static mirror."""
    phases = gamma_phase_set(d.x, d.y * (1.0 - 0.5 * d.eps))
    prefactor = 2.0 * math.pi / d.x
    damping = math.exp(-d.eps * d.y**2 * phases.omega_cos_delta)
    phase = (
        d.y * (1.0 - d.eps) * d.zeta
        + d.x * math.log(d.y)
        - 0.5 * d.eps * d.x
        + phases.theta
        - 0.5 * d.eps * d.y**2 * phases.omega_sin_delta
    )
    return _assemble(prefactor, damping, planck_factor(d.x), phase)


def p2_closed(d: DimensionlessConfig) -> ProbabilityBreakdown:
    """Closed-form probability for the static atom, accelerating mirror.

    Requires zeta < 1: the atom must sit inside the mirror's right Rindler
    wedge.  The damping exponent eps y / (x zeta) diverges as zeta -> 0;
    it is evaluated as written, with a warning once it exceeds one, since
    the first-order expression is no longer trustworthy there.
    """
    if not d.zeta < 1.0:
        raise ValueError("mirror-accelerating case requires zeta < 1")
    ybar = d.y * (1.0 - 0.5 * d.eps)
    phases = gamma_phase_set(d.x, ybar)
    damping_exponent = d.eps * d.y / (d.x * d.zeta)
    if damping_exponent > 1.0:
        warnings.warn(
            f"damping exponent eps*y/(x*zeta) = {damping_exponent:.3g} exceeds 1; "
            "the first-order expression is outside its sensible regime",
            RuntimeWarning,
            stacklevel=2,
        )
    prefactor = 2.0 * math.pi * ybar / d.x**2
    phase = (
        d.x * d.zeta
        + ybar * math.log(d.x)
        + 0.5 * d.eps * d.y * math.log(d.zeta)
        + 0.5 * d.eps * d.y
        + 0.5 * d.eps * d.y**2 / (d.x * d.zeta)
        - phases.kappa
    )
    return _assemble(prefactor, math.exp(-damping_exponent), planck_factor(ybar), phase)


def p1_closed_si(p: PhysicalConfig, k: PhysicalConstants = CODATA) -> float:
    """Accelerating-atom excitation probability from SI inputs.

    Thin wrapper restoring the dimensionful prefactor: the dimensionless
    breakdown carries P a^2 / (g^2 c^2), so the probability itself is
    (g c / a)^2 times its total.  The dimensionless form is the single
    source of truth.
    """
    scale = (p.g * k.c / p.a) ** 2
    return scale * p1_closed(to_dimensionless(p, k)).total


def p2_closed_si(p: PhysicalConfig, k: PhysicalConstants = CODATA) -> float:
    """Accelerating-mirror excitation probability from SI inputs.

    Requires z0 < c^2/a (atom inside the mirror wedge); see p1_closed_si
    for the prefactor convention.
    """
    scale = (p.g * k.c / p.a) ** 2
    return scale * p2_closed(to_dimensionless(p, k)).total


def temperatures(p: PhysicalConfig, k: PhysicalConstants = CODATA) -> TemperaturePair:
    """Unruh temperature hbar a / (2 pi k_B c) and its GUP modification.

    The modified temperature rescales by 1/(1 - eps/2) with
    eps = beta hbar^2 nu^2 / c^2; the formula has a pole at eps = 2,
    far beyond any perturbatively meaningful value, and is rejected there.
    """
    unruh = k.hbar * p.a / (2.0 * math.pi * k.k_B * k.c)
    eps = p.beta * k.hbar**2 * p.nu**2 / k.c**2
    if eps >= 2.0:
        raise ValueError(f"eps={eps!r} reaches the modified-temperature pole at 2")
    return TemperaturePair(unruh=unruh, modified=unruh / (1.0 - 0.5 * eps))
