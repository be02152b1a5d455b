"""Closed-form excitation probabilities and Unruh temperatures.

Both probabilities are reported dimensionless, P a^2 / (g^2 c^2), and
factor as

    prefactor * damping * planck * sin^2(phase_argument).

Probability 1, atom accelerating past a static mirror:

    prefactor = 2 pi / x
    damping   = exp(-eps y^2 Omega cos Delta)
    planck    = 1 / (e^{2 pi x} - 1)
    phase     = y (1 - eps) zeta + x ln y - eps x / 2
                + theta - (eps y^2 / 2) Omega sin Delta

with theta = Arg Gamma(-i x), Omega and Delta the Gamma magnitude ratio
and phase difference at -i x - 1 versus -i x.  Gamma(-i x) =
(-i x - 1) Gamma(-i x - 1) makes them rational: Omega cos Delta =
-1/(1 + x^2) and Omega sin Delta = x/(1 + x^2), which is how p1_closed
evaluates them.  The thermal factor is set by the atom frequency; the
GUP enters the interference only as constant phase shifts and a
constant damping.  The damping exponent is eps y^2 / (1 + x^2) >= 0 and
grows without bound in y, so p1_closed rejects it at EPS_GUARD or
above, where the first-order form has no meaning.

Probability 2, static atom facing an accelerating mirror (zeta < 1):

    prefactor = 2 pi ybar / x^2,        ybar = y (1 - eps/2)
    damping   = exp(2 eta Im L)
    planck    = 1 / (e^{2 pi ybar} - 1)
    phase     = x zeta + ybar ln x + eta (ln(2 zeta) + Re L) - kappa(ybar)

with eta = eps y / 2, kappa = Arg Gamma(i ybar) and

    L(a, z) = z^a dU(a, b, z)/db at b = a + 1
            = z^a / Gamma(a) int_0^inf e^{-z t} t^{a-1} ln(1 + t) dt,
    a = 1 + i ybar,   z = 2 i zeta x,

U being Tricomi's confluent hypergeometric function.  The amplitude's
core is Gamma(a) c^{a - i eta} U(a, a + 1 - i eta, c x) times unit
phases, c = 2 i zeta.  To first order in eta, U(a, a + 1 - i eta, z) =
z^{-a} (1 - i eta L), and 1 - i eta L -> exp(-i eta L) gives the damping
and the GUP phase above.  L is a special function like log Gamma and
psi, and is summed in `special` without quadrature: for
|z| < 17 + 1.5 |a| from the connection formula of U in terms of Kummer's
M (DLMF section 13.2), two polynomials in z whose coefficients read ybar
alone, each summed by Horner's rule; from its asymptotic series beyond.
This module keeps p2's formula, which reads L, and chooses the rows whose
L is summed together.

Each probability is written once, in two halves.  `_p1_zeta_free` and
`_p2_zeta_free` compute what zeta does not enter (the prefactor, the
Planck factor, p1's damping, theta or log Gamma(i ybar), x ln y or
ybar ln x) and run the checks that belong to it.  `_p1_at_zeta` and
`_p2_at_zeta` add the rest (L, p2's damping and GUP phase, the phase sum,
sin^2 and the product), in the order and with the operands the whole
formula uses, so the halves give the same bits as one pass.  The
zeta-free half is itself split by the inputs its factors read:
`_p1_x_factors(x)` holds theta, 2 pi / x, the Planck factor and
1/(1 + x^2), and `_p2_ybar_factors(y, eps)` holds ybar, eta,
log Gamma(i ybar), the Planck factor and psi(1 + i ybar), which L
reads.  `p1_closed` and `p2_closed` compute the tiers and the at-zeta
half for one point.

`closed_rows` evaluates a batch of rows given as four columns, x, y,
zeta and eps, and returns each probability's fields as columns.  It
computes each tier once per run of rows with equal inputs to it, found
by comparing floats (p1's x factors per run of x, p2's ybar factors per
run of (y, eps), the rest of each zeta-free half per run of
(x, y, eps)), so a zeta sweep computes every tier once per batch and an
omega0 sweep evaluates the Gamma values of ybar once.  Row by row it
computes p1's tiers and `_p1_at_zeta`, then p2's tiers, the order in
which `p1_closed` and then `p2_closed` meet them, and stops at the first
row where one raises.  It sums L together for the rows before that on
the convergent branch (0 < r below `special.asymptotic_line`), where a
batch has two such rows or more, with `special.gup_coefficient_batch`:
the Horner sums of all those rows on float64 arrays, with one
coefficient table where the rows share ybar, which give each row the
bits `special.gup_coefficient` gives it.  It then maps `_p2_at_zeta`
over those rows; every other row, and a row the batch declines, has L
summed the scalar way there.  The at-zeta halves are the functions
`p1_closed` and `p2_closed` call, so there is one copy of each formula.
The first error of that map is the first in point order, and only where
it raises none is the error that stopped the rows raised: a batch
raises what a point by point run meets first, and evaluates each row
once.

Limits of the GUP terms:

    x zeta -> inf:  L = a/z + O(z^-2),
                    damping -> exp(-eps y / (2 x zeta)),
                    phase   -> (eps y / 2) ln(2 zeta) + eps y ybar / (4 x zeta)
    zeta -> 0:      L = psi(a) - ln z + O(z),
                    damping -> exp(2 eta (Im psi(1 + i ybar) - pi/2)),
                    phase   -> eta (Re psi(1 + i ybar) - ln x)

Both stay finite.  The thermal factor is governed by the GUP-shifted
photon frequency, and the interference acquires a position-dependent
GUP term: the signature that breaks the symmetry between the two
configurations.

Sign conventions for the Gamma phases (+theta, -the Omega sin Delta term,
-kappa) are fixed by the first-principles quadrature oracle, which this
package treats as ground truth; at eps = 0 the two agree to within
1.2e-14 relative on the acceptance grid and 3.8e-14 on the default
verify grid, where a cell next to an interference node amplifies the
rounding of the phase sum.  With these
conventions the x = y, eps = 0 symmetry between the two probabilities
is exact.  At eps > 0 both closed forms are first order in eps; for
probability 2 the oracle measures what is left as second order, at most
6.7e-5 relative at eps = 1e-2 and 6.9e-7 at eps = 1e-3 on the acceptance
grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .special import (asymptotic_line, digamma, gamma_phase_set, gup_coefficient,
                      gup_coefficient_batch, log_gamma, planck_factor)
from .units import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
    deformed_frequencies,
    gup_strength,
    require_perturbative,
    to_dimensionless,
)

__all__ = [
    "ProbabilityBreakdown",
    "TemperaturePair",
    "closed_rows",
    "p1_closed",
    "p2_closed",
    "p1_closed_si",
    "p2_closed_si",
    "temperatures",
]


class ProbabilityBreakdown(NamedTuple):
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


class TemperaturePair(NamedTuple):
    """Unruh temperature and its GUP-modified counterpart, in kelvin."""

    unruh: float
    modified: float


def _assemble(name: str, point: tuple, prefactor: float, damping: float, planck: float,
              phase: float) -> tuple[float, ...]:
    """The ProbabilityBreakdown fields of probability `name` at `point`,
    (x, y, zeta, eps), as a plain tuple; a ValueError unless its total is
    a finite double."""
    sin2 = math.sin(phase) ** 2 if math.isfinite(phase) else math.nan
    total = prefactor * damping * planck * sin2
    if not math.isfinite(total):
        raise ValueError(f"{name} is not a finite double at {DimensionlessConfig(*point)}")
    return total, prefactor, damping, planck, phase, sin2


def _p1_x_factors(x: float) -> tuple[float, float, float, float]:
    """p1's factors that read x alone, in the order _p1_zeta_free unpacks
    them: theta = Arg Gamma(-i x), the prefactor 2 pi / x, the Planck
    factor and omega = 1/(1 + x^2).

    Raises ValueError where theta is not a finite double (x above about
    1e305).
    """
    return gamma_phase_set(x), 2.0 * math.pi / x, planck_factor(x), 1.0 / (1.0 + x * x)


def _p1_zeta_free(x: float, y: float, eps: float, x_factors: tuple) -> tuple[float, ...]:
    """p1's factors that zeta does not enter, at (x, y, eps), from
    _p1_x_factors(x), in the order _p1_at_zeta unpacks them.

    Raises ValueError when the damping exponent eps y^2 / (1 + x^2) is
    not below EPS_GUARD, or when eps > 0 and y^2 overflows a double.
    """
    theta, prefactor, planck, omega = x_factors  # -Omega cos Delta is omega
    try:  # the GUP terms vanish at eps = 0, where y^2 is not needed
        y_squared = y**2 if eps > 0.0 else 0.0
    except OverflowError:
        raise ValueError(f"y={y!r}: y^2 overflows a double") from None
    exponent = eps * y_squared * omega
    require_perturbative(exponent, "eps y^2/(1 + x^2)")
    return (
        prefactor,
        math.exp(exponent),
        planck,
        deformed_frequencies(y, eps)[0],
        x * math.log(y),
        0.5 * eps * x,
        theta,
        0.5 * eps * y_squared * x * omega,  # Omega sin Delta is x omega
    )


def _p1_at_zeta(factors: tuple[float, ...], point: tuple) -> tuple[float, ...]:
    """p1 at `point`, (x, y, zeta, eps), from _p1_zeta_free's factors at
    its (x, y, eps): the ProbabilityBreakdown fields as a plain tuple."""
    prefactor, damping, planck, drift, log_term, eps_term, theta, gup_term = factors
    phase = drift * point[2] + log_term - eps_term + theta - gup_term
    return _assemble("p1", point, prefactor, damping, planck, phase)


def p1_closed(d: DimensionlessConfig) -> ProbabilityBreakdown:
    """Closed-form probability for the accelerating atom, static mirror.

    Raises ValueError when the damping exponent eps y^2 / (1 + x^2) is
    not below EPS_GUARD, or when eps > 0 and y^2 overflows a double.
    """
    factors = _p1_zeta_free(d.x, d.y, d.eps, _p1_x_factors(d.x))
    return ProbabilityBreakdown(*_p1_at_zeta(factors, d))


def _p2_ybar_factors(y: float, eps: float) -> tuple:
    """p2's factors that read y and eps alone, in the order _p2_zeta_free
    unpacks them: ybar = y (1 - eps/2), eta = eps y / 2,
    log Gamma(i ybar), the Planck factor, and psi(1 + i ybar), which L
    reads, where eta > 0 (None where eta = 0 and no L is needed).

    Raises ValueError where log Gamma(i ybar) is not a finite double
    (ybar above about 1e305).
    """
    _, ybar, eta = deformed_frequencies(y, eps)
    log_gamma_iy = log_gamma(complex(0.0, ybar))
    psi = digamma(complex(1.0, ybar)) if eta > 0.0 else None
    return ybar, eta, log_gamma_iy, planck_factor(ybar), psi


def _p2_zeta_free(x: float, ybar_factors: tuple) -> tuple:
    """p2's factors that zeta does not enter, at x and the (y, eps) of
    ybar_factors, in the order _p2_at_zeta unpacks them.

    Raises ValueError when x^2 overflows a double or underflows to zero.
    """
    ybar, eta, log_gamma_iy, planck, psi = ybar_factors
    try:
        prefactor = 2.0 * math.pi * ybar / x**2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"x={x!r}: x^2 overflows a double or underflows to zero") from None
    return ybar, eta, log_gamma_iy, prefactor, planck, ybar * math.log(x), psi


def _p2_at_zeta(factors: tuple, point: tuple,
                coefficient: complex | None = None) -> tuple[float, ...]:
    """p2 at `point`, (x, y, zeta, eps) with zeta < 1, from _p2_zeta_free's
    factors at its (x, y, eps): the ProbabilityBreakdown fields as a plain
    tuple.  `coefficient` is L there when it is already known (closed_rows'
    batch); without it L is summed here.  closed_rows hands a row with
    zeta >= 1 no factors, and its fields are None.

    Raises ValueError when the series for L cannot be summed in doubles,
    or when the damping exp(2 eta Im L) overflows a double.
    """
    if factors is None:
        return (None,) * 6
    ybar, eta, log_gamma_iy, prefactor, planck, log_term, psi = factors
    x, _, zeta, _ = point
    damping = 1.0
    gup_phase = 0.0
    if eta > 0.0:
        if coefficient is None:
            coefficient = gup_coefficient(ybar, 2.0 * zeta * x, log_gamma_iy, psi)
        try:
            damping = math.exp(2.0 * eta * coefficient.imag)
        except OverflowError:
            raise ValueError(f"p2's damping exp(2 eta Im L) overflows a double at "
                             f"{DimensionlessConfig(*point)}, where Im L={coefficient.imag!r}"
                             ) from None
        gup_phase = eta * (math.log(2.0 * zeta) + coefficient.real)
    phase = x * zeta + log_term + gup_phase - log_gamma_iy.imag
    return _assemble("p2", point, prefactor, damping, planck, phase)


def p2_closed(d: DimensionlessConfig) -> ProbabilityBreakdown:
    """Closed-form probability for the static atom, accelerating mirror.

    Requires zeta < 1: the atom must sit inside the mirror's right Rindler
    wedge.  The GUP terms are first order in eta = eps y / 2 and stay
    finite at every zeta in (0, 1).  Raises ValueError when x^2 overflows
    a double or underflows to zero, or when the series for L cannot be
    summed in doubles.
    """
    if not d.zeta < 1.0:
        raise ValueError("mirror-accelerating case requires zeta < 1")
    return ProbabilityBreakdown(*_p2_at_zeta(_p2_zeta_free(d.x, _p2_ybar_factors(d.y, d.eps)), d))


def closed_rows(xs, ys, zetas, epss, want_p1: bool, want_p2: bool) -> tuple:
    """The closed forms at every row of the columns x, y, zeta and eps:
    (p1's fields, p2's fields), each the six ProbabilityBreakdown fields as
    columns.  A probability's cells are None where it is not wanted, and
    p2's at the rows where zeta >= 1.

    Each tier is computed once per run of equal inputs, found by float
    compares: p1's x factors per run of equal x, p2's ybar factors per run
    of equal (y, eps) with zeta < 1, and the rest of each zeta-free half
    per run of equal (x, y, eps).  Row by row, p1's tiers and its at-zeta
    half come before p2's tiers, the order in which p1_closed and then
    p2_closed meet them, up to the first row where one raises.  L is then
    summed all at once for the rows before it on the convergent branch
    (eta > 0, 0 < r below asymptotic_line), where there are two or more
    (gup_coefficient_batch, which loads numpy), and p2's at-zeta half maps
    over those rows, summing L the scalar way at every other row.  Its
    first ValueError is the first in point order; only where it raises
    none is the error that stopped the rows raised.
    """
    ones, halves2, lines = [], [], []
    x0 = y0 = eps0 = line = stop = None
    try:
        for point in zip(xs, ys, zetas, epss):
            x, y, zeta, eps = point
            if x != x0 or y != y0 or eps != eps0:  # a new run of (x, y, eps)
                if want_p1:
                    if x != x0:
                        x_factors = _p1_x_factors(x)
                    half1 = _p1_zeta_free(x, y, eps, x_factors)
                if y != y0 or eps != eps0:
                    ybar_factors = None  # computed at the run's first row with zeta < 1
                x0, y0, eps0, half2 = x, y, eps, None
            if want_p1:
                ones.append(_p1_at_zeta(half1, point))
            if want_p2 and zeta < 1.0 and half2 is None:
                if ybar_factors is None:
                    ybar_factors = _p2_ybar_factors(y, eps)
                    line = asymptotic_line(ybar_factors[0])
                half2 = _p2_zeta_free(x, ybar_factors)
            halves2.append(half2 if zeta < 1.0 else None)
            lines.append(line)
    except ValueError as error:
        stop = error
    coefficients = [None] * len(halves2)
    # (row, ybar, r, log Gamma(i ybar), psi) of each row whose L the batch sums
    chosen = [(row, half[0], 2.0 * zeta * x, half[2], half[6])
              for row, (half, x, zeta, line) in enumerate(zip(halves2, xs, zetas, lines))
              if half and half[1] > 0.0 and 0.0 < 2.0 * zeta * x < line]
    if len(chosen) > 1:
        rows, *columns = zip(*chosen)
        for row, coefficient in zip(rows, gup_coefficient_batch(*columns)):
            coefficients[row] = coefficient
    unwanted = [[None] * len(xs)] * 6
    twos = (list(zip(*map(_p2_at_zeta, halves2, zip(xs, ys, zetas, epss), coefficients)))
            if want_p2 else unwanted)
    if stop is not None:
        raise stop
    return (list(zip(*ones)) if want_p1 else unwanted), twos


def p1_closed_si(p: PhysicalConfig) -> float:
    """Accelerating-atom excitation probability from SI inputs.

    Thin wrapper restoring the dimensionful prefactor: the dimensionless
    breakdown carries P a^2 / (g^2 c^2), so the probability itself is
    (g c / a)^2 times its total.  The dimensionless form is the single
    source of truth.
    """
    scale = (p.g * CODATA.c / p.a) ** 2
    return scale * p1_closed(to_dimensionless(p)).total


def p2_closed_si(p: PhysicalConfig) -> float:
    """Accelerating-mirror excitation probability from SI inputs.

    Requires z0 < c^2/a (atom inside the mirror wedge); see p1_closed_si
    for the prefactor convention.
    """
    scale = (p.g * CODATA.c / p.a) ** 2
    return scale * p2_closed(to_dimensionless(p)).total


def temperatures(p: PhysicalConfig) -> TemperaturePair:
    """Unruh temperature hbar a / (2 pi k_B c) and its GUP modification.

    The modified temperature rescales by 1/(1 - eps/2) with
    eps = beta hbar^2 nu^2 / c^2, first order in eps like every GUP
    formula here, so eps outside the perturbative guard is rejected.
    """
    unruh = CODATA.hbar * p.a / (2.0 * math.pi * CODATA.k_B * CODATA.c)
    eps = gup_strength(p)
    require_perturbative(eps)
    return TemperaturePair(unruh=unruh, modified=unruh / (1.0 - 0.5 * eps))
