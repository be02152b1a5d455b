"""Equivalence-violation diagnostics and the GUP-parameter bound.

At equal atom and photon frequencies (x = y) the two excitation
probabilities coincide exactly when eps = 0.  For eps > 0 their spatial
oscillations differ; the mismatch of the spatial parts is measured by

    Q(zeta, eps) = eps / (2 zeta^2) + (eps / (2 zeta)) ln(zeta)

and the ratio R = 1 + Q.  Q is strictly positive and strictly decreasing
in zeta for eps > 0 (the two terms never cancel: 1/zeta + ln zeta >= 1).

Requiring the damping correction eps y / (x zeta) to stay small bounds
the GUP parameter:  beta < eta0 * a z0 omega0 / (hbar^2 nu^3).  For
nu = omega0 = 2 pi x 1 GHz and a z0 = c^2 this lands at ~1e67 in
(M_P c)^-2 units; reading the gigahertz as an angular frequency instead
gives ~3e68, so both conventions are worth reporting.

The bound keeps the paper's condition.  The accelerating-mirror closed
form's damping exponent tends to eps y / (2 x zeta) at large x zeta, so
the condition is a factor 2 stricter than that exponent requires; the
abstract in PAPER.md does not settle which of the two to use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .closed_form import p1_closed, p2_closed
from .units import CODATA, DimensionlessConfig

__all__ = [
    "ViolationReport",
    "BetaBound",
    "q_parameter",
    "violation_parameter",
    "beta_bound",
]


class ViolationReport(NamedTuple):
    """Mismatch diagnostics between the two probabilities at x = y.

    q_value        spatial-mismatch parameter Q
    ratio          R = 1 + Q
    phase_defect   raw phase difference of the two sin^2 arguments, rad
    damping_defect ratio of the two damping factors
    planck_defect  ratio of the two Planck factors
    eps            GUP strength the report was computed at

    The three factor defects need the accelerating-mirror closed form and
    are None when zeta >= 1 places the atom outside its domain.
    """

    q_value: float
    ratio: float
    eps: float
    phase_defect: float | None
    damping_defect: float | None
    planck_defect: float | None


class BetaBound(NamedTuple):
    """Upper bound on the GUP parameter.

    beta_max_si            bound in (kg m/s)^-2
    beta_max_planck_units  the same in (M_P c)^-2 units
    tolerance_factor       the "much less than" threshold eta0 applied
    """

    beta_max_si: float
    beta_max_planck_units: float
    tolerance_factor: float


def q_parameter(eps: float, zeta: float) -> float:
    """Spatial-mismatch parameter Q(zeta, eps); exactly linear in eps.

    Q is 0 at eps = 0 for every zeta, also where zeta^2 leaves the double
    range.  For eps > 0, raises ValueError when Q is not a finite double:
    below about zeta = 5e-155 sqrt(eps), where eps / (2 zeta^2) overflows,
    and above about zeta = 1.3e154, where zeta^2 does.
    """
    if not zeta > 0.0:
        raise ValueError("zeta must be strictly positive")
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    try:
        q_value = eps / (2.0 * zeta**2) + (eps / (2.0 * zeta)) * math.log(zeta)
    except (ZeroDivisionError, OverflowError):  # zeta^2 underflows to 0 or overflows
        q_value = math.nan
    if math.isfinite(q_value):
        return q_value
    if eps == 0.0:
        return 0.0
    raise ValueError(f"zeta={zeta!r}, eps={eps!r}: Q is not a finite double")


def violation_parameter(d: DimensionlessConfig) -> ViolationReport:
    """Equivalence-violation report at equal frequencies.

    Rejects x != y: the comparison is defined at nu = omega0 only.
    """
    if d.x != d.y:
        raise ValueError("comparison defined at nu = omega0 only (need x == y)")
    q_value = q_parameter(d.eps, d.zeta)
    phase_defect = damping_defect = planck_defect = None
    if d.zeta < 1.0:
        one = p1_closed(d)
        two = p2_closed(d)
        phase_defect = two.phase_argument - one.phase_argument
        damping_defect = two.damping / one.damping
        planck_defect = two.planck / one.planck
    return ViolationReport(
        q_value=q_value,
        ratio=1.0 + q_value,
        eps=d.eps,
        phase_defect=phase_defect,
        damping_defect=damping_defect,
        planck_defect=planck_defect,
    )


def beta_bound(
    a: float,
    omega0: float,
    nu: float,
    z0: float,
    eta0: float = 1.0,
) -> BetaBound:
    """Bound beta_max = eta0 * a z0 omega0 / (hbar^2 nu^3).

    Keeps the paper's GUP damping correction eps y / (x zeta) of the
    accelerating-mirror probability below eta0.  At large x zeta that
    probability's damping exponent is eps y / (2 x zeta), half of it, so
    the bound is a factor 2 stricter than the closed form needs; it is
    kept as the paper's formula.  Frequencies are angular (rad/s); apply
    the 2 pi conversion first when inputs are ordinary frequencies.

    Raises ValueError naming the cause when nu^3 overflows, when
    hbar^2 nu^3 underflows to zero, or when the bound is not a finite
    double.
    """
    for name, value in (("a", a), ("omega0", omega0), ("nu", nu), ("z0", z0), ("eta0", eta0)):
        if not value > 0.0:
            raise ValueError(f"{name} must be strictly positive")
    try:
        denominator = CODATA.hbar**2 * nu**3
    except OverflowError:
        raise ValueError(f"nu={nu!r}: nu^3 overflows a double") from None
    if denominator == 0.0:
        raise ValueError(f"nu={nu!r}: hbar^2 nu^3 underflows to zero")
    beta_si = eta0 * a * z0 * omega0 / denominator
    beta_planck = beta_si * (CODATA.planck_mass * CODATA.c) ** 2
    if not math.isfinite(beta_planck):
        raise ValueError(
            f"eta0 a z0 omega0 / (hbar^2 nu^3) overflows a double "
            f"(eta0={eta0!r}, a={a!r}, z0={z0!r}, omega0={omega0!r}, nu={nu!r})"
        )
    return BetaBound(
        beta_max_si=beta_si,
        beta_max_planck_units=beta_planck,
        tolerance_factor=eta0,
    )
