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
psi, and is summed in `special` without quadrature: from the connection
formula of U in terms of Kummer's M (DLMF section 13.2) for
|z| < 17 + 1.5 |a|, from its asymptotic series beyond.  This module keeps
p2's formula, which reads L, and chooses the rows whose L is summed
together.

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
reads.  Each zeta-free half computes its tier's factors unless it is
handed them; `p1_closed` and `p2_closed` let it.

`closed_rows` evaluates many rows, _BATCH_ROWS at a time.  It computes
each tier again only when the inputs it reads differ from those it was
last computed for (p1's x factors on x, p2's ybar factors on (y, eps),
the rest of each zeta-free half on (x, y, eps)), so a zeta sweep
computes every tier once and an omega0 sweep evaluates the Gamma values
of ybar once.  It sums L together for the rows on the convergent
branch (0 < r below `special.asymptotic_line`), with
`special.gup_coefficient_batch`, which gives each row the bits
`special.gup_coefficient` gives it, where a batch has two such rows or
more.  Every other row, and a row the batch declines, has L summed the
scalar way.

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

import itertools
import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .special import (asymptotic_line, digamma, gamma_phase_set, gup_coefficient,
                      gup_coefficient_batch, log_gamma, planck_factor)
from .units import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
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


def _assemble(name: str, d: DimensionlessConfig, prefactor: float, damping: float,
              planck: float, phase: float) -> tuple[float, ...]:
    """The ProbabilityBreakdown fields of probability `name` at d, as a plain
    tuple; a ValueError unless its total is a finite double."""
    sin2 = math.sin(phase) ** 2 if math.isfinite(phase) else math.nan
    total = prefactor * damping * planck * sin2
    if not math.isfinite(total):
        raise ValueError(f"{name} is not a finite double at {d}")
    return total, prefactor, damping, planck, phase, sin2


def _p1_x_factors(x: float) -> tuple[float, float, float, float]:
    """p1's factors that read x alone, in the order _p1_zeta_free unpacks
    them: theta = Arg Gamma(-i x), the prefactor 2 pi / x, the Planck
    factor and omega = 1/(1 + x^2).

    Raises ValueError where theta is not a finite double (x above about
    1e305).
    """
    return gamma_phase_set(x), 2.0 * math.pi / x, planck_factor(x), 1.0 / (1.0 + x * x)


def _p1_zeta_free(d: DimensionlessConfig,
                  x_factors: tuple[float, ...] | None = None) -> tuple[float, ...]:
    """p1's factors that zeta does not enter, at (d.x, d.y, d.eps), from
    _p1_x_factors(d.x) (computed here when not given), in the order
    _p1_at_zeta unpacks them.

    Raises ValueError when the damping exponent eps y^2 / (1 + x^2) is
    not below EPS_GUARD, or when eps > 0 and y^2 overflows a double.
    """
    theta, prefactor, planck, omega = x_factors or _p1_x_factors(d.x)  # -Omega cos Delta is omega
    try:  # the GUP terms vanish at eps = 0, where y^2 is not needed
        y_squared = d.y**2 if d.eps > 0.0 else 0.0
    except OverflowError:
        raise ValueError(f"y={d.y!r}: y^2 overflows a double") from None
    exponent = d.eps * y_squared * omega
    require_perturbative(exponent, "eps y^2/(1 + x^2)")
    return (
        prefactor,
        math.exp(exponent),
        planck,
        d.y * (1.0 - d.eps),
        d.x * math.log(d.y),
        0.5 * d.eps * d.x,
        theta,
        0.5 * d.eps * y_squared * d.x * omega,  # Omega sin Delta is x omega
    )


def _p1_at_zeta(factors: tuple[float, ...], d: DimensionlessConfig) -> tuple[float, ...]:
    """p1 at d from _p1_zeta_free's factors at (d.x, d.y, d.eps): the
    ProbabilityBreakdown fields as a plain tuple."""
    prefactor, damping, planck, drift, log_term, eps_term, theta, gup_term = factors
    phase = drift * d.zeta + log_term - eps_term + theta - gup_term
    return _assemble("p1", d, prefactor, damping, planck, phase)


def p1_closed(d: DimensionlessConfig) -> ProbabilityBreakdown:
    """Closed-form probability for the accelerating atom, static mirror.

    Raises ValueError when the damping exponent eps y^2 / (1 + x^2) is
    not below EPS_GUARD, or when eps > 0 and y^2 overflows a double.
    """
    return ProbabilityBreakdown(*_p1_at_zeta(_p1_zeta_free(d), d))


def _p2_ybar_factors(y: float, eps: float) -> tuple:
    """p2's factors that read y and eps alone, in the order _p2_zeta_free
    unpacks them: ybar = y (1 - eps/2), eta = eps y / 2,
    log Gamma(i ybar), the Planck factor, and psi(1 + i ybar), which L
    reads, where eta > 0 (None where eta = 0 and no L is needed).

    Raises ValueError where log Gamma(i ybar) is not a finite double
    (ybar above about 1e305).
    """
    ybar = y * (1.0 - 0.5 * eps)
    eta = 0.5 * eps * y
    log_gamma_iy = log_gamma(complex(0.0, ybar))
    psi = digamma(complex(1.0, ybar)) if eta > 0.0 else None
    return ybar, eta, log_gamma_iy, planck_factor(ybar), psi


def _p2_zeta_free(d: DimensionlessConfig, ybar_factors: tuple | None = None) -> tuple:
    """p2's factors that zeta does not enter, at (d.x, d.y, d.eps), from
    _p2_ybar_factors(d.y, d.eps) (computed here when not given), in the
    order _p2_at_zeta unpacks them.

    Raises ValueError when x^2 overflows a double or underflows to zero.
    """
    ybar, eta, log_gamma_iy, planck, psi = ybar_factors or _p2_ybar_factors(d.y, d.eps)
    try:
        prefactor = 2.0 * math.pi * ybar / d.x**2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"x={d.x!r}: x^2 overflows a double or underflows to zero") from None
    return ybar, eta, log_gamma_iy, prefactor, planck, ybar * math.log(d.x), psi


def _p2_at_zeta(factors: tuple, d: DimensionlessConfig,
                coefficient: complex | None = None) -> tuple[float, ...]:
    """p2 at d, which must have zeta < 1, from _p2_zeta_free's factors at
    (d.x, d.y, d.eps): the ProbabilityBreakdown fields as a plain tuple.
    `coefficient` is L at d when it is already known (closed_rows' batch);
    without it L is summed here.

    Raises ValueError when the series for L cannot be summed in doubles,
    or when the damping exp(2 eta Im L) overflows a double.
    """
    ybar, eta, log_gamma_iy, prefactor, planck, log_term, psi = factors
    damping = 1.0
    gup_phase = 0.0
    if eta > 0.0:
        if coefficient is None:
            coefficient = gup_coefficient(ybar, 2.0 * d.zeta * d.x, log_gamma_iy, psi)
        try:
            damping = math.exp(2.0 * eta * coefficient.imag)
        except OverflowError:
            raise ValueError(f"p2's damping exp(2 eta Im L) overflows a double at {d}, "
                             f"where Im L={coefficient.imag!r}") from None
        gup_phase = eta * (math.log(2.0 * d.zeta) + coefficient.real)
    phase = d.x * d.zeta + log_term + gup_phase - log_gamma_iy.imag
    return _assemble("p2", d, prefactor, damping, planck, phase)


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
    return ProbabilityBreakdown(*_p2_at_zeta(_p2_zeta_free(d), d))


# closed_rows takes its points this many at a time, so the points it
# holds and the arrays of its batched L stay small however long the run.
_BATCH_ROWS = 4096


def closed_rows(points: Iterable[DimensionlessConfig], want_p1: bool,
                want_p2: bool) -> Iterator[Iterator[tuple]]:
    """The closed forms at every point, _BATCH_ROWS points to a batch:
    for each batch, an iterator of (d, p1's fields, p2's fields) per
    point d, each fields tuple the ProbabilityBreakdown's, or None where
    that probability is not wanted or, for p2, where zeta >= 1.

    The first ValueError that p1_closed and p2_closed, called point by
    point, would raise is raised instead, once the batches before it are
    taken.  Each batch first computes the zeta-free halves of its points,
    up to the first point where one raises, choosing the points before
    it whose L is summed from the convergent series; then L for the
    chosen points all at once, where there are two or more
    (gup_coefficient_batch, which loads numpy); then each point in order.  The point whose half
    raised is computed alone when its turn comes, so it raises again
    after every error before it.  The per-point results are kept in
    lists rather than tuples, so a batch adds few objects for the
    garbage collector to track.
    """
    points = iter(points)
    x1 = key1 = factors1 = ybar_key2 = key2 = factors2 = None
    while batch := list(itertools.islice(points, _BATCH_ROWS)):
        halves1, halves2 = [], []
        # the row index, ybar, r, log Gamma(i ybar) and psi of each row L is summed for
        chosen, ybars, rs, log_gammas, psis = [], [], [], [], []
        try:
            for i, d in enumerate(batch):
                key = (d.x, d.y, d.eps)
                if want_p1 and key != key1:
                    if d.x != x1:
                        x_factors1, x1 = _p1_x_factors(d.x), d.x
                    factors1, key1 = _p1_zeta_free(d, x_factors1), key
                if want_p2 and d.zeta < 1.0:
                    if key != key2:
                        if key[1:] != ybar_key2:
                            ybar_factors2, ybar_key2 = _p2_ybar_factors(d.y, d.eps), key[1:]
                            line2 = asymptotic_line(ybar_factors2[0])
                        factors2, key2 = _p2_zeta_free(d, ybar_factors2), key
                    r = 2.0 * d.zeta * d.x
                    if factors2[1] > 0.0 and 0.0 < r < line2:  # eta > 0, convergent branch
                        chosen.append(i)
                        ybars.append(factors2[0])
                        rs.append(r)
                        log_gammas.append(factors2[2])
                        psis.append(factors2[6])
                halves1.append(factors1)
                halves2.append(factors2)
        except ValueError:
            unreached = [None] * (len(batch) - len(halves1))
            halves1 += unreached
            halves2 += unreached
        coefficients = [None] * len(batch)
        if len(chosen) > 1:
            for i, value in zip(chosen, gup_coefficient_batch(ybars, rs, log_gammas, psis)):
                coefficients[i] = value
        ones, twos = [], []
        for d, half1, half2, coefficient in zip(batch, halves1, halves2, coefficients):
            ones.append(_p1_at_zeta(half1 or _p1_zeta_free(d), d) if want_p1 else None)
            twos.append(_p2_at_zeta(half2 or _p2_zeta_free(d), d, coefficient)
                        if want_p2 and d.zeta < 1.0 else None)
        yield zip(batch, ones, twos)


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
