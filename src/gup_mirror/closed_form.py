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
`special` alone chooses between the two.  This module keeps p2's
formula, which reads L, and hands the rows that need it to `special`
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
reads.  `p1_closed` and `p2_closed` compute the tiers and the at-zeta
half for one point.

`closed_rows` evaluates a batch of rows given as four columns, x, y,
zeta and eps, and returns each probability's fields as columns.  A batch
of one row is the one-point computation, on floats, so the one-point
modes never load numpy.  A larger batch computes each zeta-free half
once where all its rows share (x, y, eps), as a zeta sweep's do, and
row by row otherwise, with p1's x factors computed once per run of
equal x and p2's ybar factors once per run of equal (y, eps), so an
omega0 sweep evaluates the Gamma values of ybar once.  It stops at the
first row where a zeta-free half raises.  The at-zeta halves then run
as columns over the rows before it (`_p1_at_zeta_rows`,
`_p2_at_zeta_rows`): each + - * / is one IEEE operation on float64
arrays, written once for numbers and arrays alike (`_p1_phase`,
`_p2_gup_terms`, `_p2_phase`, `_product`), and each libm call (sin,
pow, exp, log) is the scalar's own, mapped over the rows, so every row
gets the bits the one-point functions give it.  The rows that need L
(eta > 0 and zeta < 1) go to `special.gup_coefficient_batch`, which
sums those on the convergent branch on float64 arrays, with one
coefficient table where the rows share ybar, and hands back L's real
and imaginary parts as columns; each row it does not sum is summed the
scalar way.  Array masks find the rows whose L cannot be summed, whose
damping overflows or whose total is not a finite double.  Each error
is keyed by its row and by its stage in a point by point run (p1's
zeta-free half, p1 at zeta, p2's zeta-free half, p2 at zeta), and p2's
at-zeta half runs only over the rows before the first error found
before it.  The least is raised: a batch raises what a point by point
run meets first, and evaluates each row once.

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
from itertools import repeat
from typing import NamedTuple

from .special import (digamma, gamma_phase_set, gup_coefficient, gup_coefficient_batch,
                      log_gamma, planck_factor)
from .units import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
    deformed_frequencies,
    gup_strength,
    require_perturbative,
)

__all__ = [
    "ProbabilityBreakdown",
    "TemperaturePair",
    "closed_rows",
    "p1_closed",
    "p2_closed",
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


class TemperaturePair(NamedTuple):
    """Unruh temperature and its GUP-modified counterpart, in kelvin."""

    unruh: float
    modified: float


def _product(prefactor, damping, planck, sin2):
    """The total, prefactor * damping * planck * sin2; numbers, or arrays of
    one value per row."""
    return prefactor * damping * planck * sin2


def _not_finite(name: str, point) -> ValueError:
    return ValueError(f"{name} is not a finite double at {DimensionlessConfig(*point)}")


def _assemble(name: str, point: tuple, prefactor: float, damping: float, planck: float,
              phase: float) -> tuple[float, ...]:
    """The ProbabilityBreakdown fields of probability `name` at `point`,
    (x, y, zeta, eps), as a plain tuple; a ValueError unless its total is
    a finite double."""
    sin2 = math.sin(phase) ** 2 if math.isfinite(phase) else math.nan
    total = _product(prefactor, damping, planck, sin2)
    if not math.isfinite(total):
        raise _not_finite(name, point)
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
    _p1_x_factors(x), in the order _p1_phase unpacks them.

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


def _p1_phase(factors, zeta):
    """p1's phase at zeta from _p1_zeta_free's factors; numbers, or arrays
    of one value per row."""
    _, _, _, drift, log_term, eps_term, theta, gup_term = factors
    return drift * zeta + log_term - eps_term + theta - gup_term


def _p1_at_zeta(factors: tuple[float, ...], point: tuple) -> tuple[float, ...]:
    """p1 at `point`, (x, y, zeta, eps), from _p1_zeta_free's factors at
    its (x, y, eps): the ProbabilityBreakdown fields as a plain tuple."""
    prefactor, damping, planck = factors[:3]
    return _assemble("p1", point, prefactor, damping, planck, _p1_phase(factors, point[2]))


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
    ybar_factors, in the order _p2_at_zeta unpacks them; x itself is one,
    for x zeta and r = 2 zeta x.

    Raises ValueError when x^2 overflows a double or underflows to zero.
    """
    ybar, eta, log_gamma_iy, planck, psi = ybar_factors
    try:
        prefactor = 2.0 * math.pi * ybar / x**2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"x={x!r}: x^2 overflows a double or underflows to zero") from None
    return x, ybar, eta, log_gamma_iy, prefactor, planck, ybar * math.log(x), psi


def _radius(x, zeta):
    """r = 2 zeta x, where p2 reads L; numbers, or arrays of one value per row."""
    return 2.0 * zeta * x


def _p2_gup_terms(eta, log_two_zeta, l_re, l_im) -> tuple:
    """p2's damping exponent 2 eta Im L and GUP phase eta (ln(2 zeta) + Re L);
    numbers, or arrays of one value per row."""
    return 2.0 * eta * l_im, eta * (log_two_zeta + l_re)


def _p2_phase(x, zeta, log_term, gup_phase, kappa):
    """p2's phase x zeta + ybar ln x + GUP phase - kappa; numbers, or arrays
    of one value per row."""
    return x * zeta + log_term + gup_phase - kappa


def _damping_overflow(point: tuple, l_im: float) -> ValueError:
    return ValueError(f"p2's damping exp(2 eta Im L) overflows a double at "
                      f"{DimensionlessConfig(*point)}, where Im L={l_im!r}")


def _p2_at_zeta(factors: tuple, point: tuple,
                coefficient: complex | None = None) -> tuple[float, ...]:
    """p2 at `point`, (x, y, zeta, eps) with zeta < 1, from _p2_zeta_free's
    factors at its (x, y, eps): the ProbabilityBreakdown fields as a plain
    tuple.  `coefficient` is L there when it is already known; without it
    L is summed here.

    Raises ValueError when the series for L cannot be summed in doubles,
    or when the damping exp(2 eta Im L) overflows a double.
    """
    x, ybar, eta, log_gamma_iy, prefactor, planck, log_term, psi = factors
    zeta = point[2]
    damping = 1.0
    gup_phase = 0.0
    if eta > 0.0:
        if coefficient is None:
            coefficient = gup_coefficient(ybar, _radius(x, zeta), log_gamma_iy, psi)
        exponent, gup_phase = _p2_gup_terms(eta, math.log(2.0 * zeta), coefficient.real,
                                            coefficient.imag)
        try:
            damping = math.exp(exponent)
        except OverflowError:
            raise _damping_overflow(point, coefficient.imag) from None
    phase = _p2_phase(x, zeta, log_term, gup_phase, log_gamma_iy.imag)
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


def _zeta_free_halves(batch, want_p1: bool, want_p2: bool, errors: dict) -> tuple:
    """Each closed form's zeta-free half at the rows of the batch
    (x, y, zeta, eps), in point order, up to the first that raises: once
    for all rows where they share (x, y, eps), else row by row, with p1's
    x factors computed once per run of equal x and p2's ybar factors once
    per run of equal (y, eps).

    A row's p2 half, at a row with zeta < 1, comes after its p1 halves, as
    p1_closed and then p2_closed meet them; one p2 half for all rows is met
    at the first row with zeta < 1.  Returns p1's halves, p2's (None at a
    row with zeta >= 1, or for all rows where none has zeta < 1), and the
    number of rows whose p1 at-zeta half comes before the first error,
    which goes into `errors` under (row, 0) for p1's half, (row, 2) for p2's.
    """
    xs, ys, zetas, epss = batch
    count = len(xs)
    shared = xs.count(xs[0]) == ys.count(ys[0]) == epss.count(epss[0]) == count
    halves1, halves2, x1, ybar_key = [], [], None, None
    try:
        for row in range(1 if shared else count):
            x, y, eps = xs[row], ys[row], epss[row]
            at, stage, half2 = row, 0, None  # where the next half is met, and its stage
            if want_p1:
                if x != x1:
                    x_factors, x1 = _p1_x_factors(x), x
                halves1.append(_p1_zeta_free(x, y, eps, x_factors))
            inside = next((i for i in range(row, count if shared else row + 1)
                           if zetas[i] < 1.0), None)
            if want_p2 and inside is not None:
                at, stage = inside, 2
                if (y, eps) != ybar_key:
                    ybar_factors, ybar_key = _p2_ybar_factors(y, eps), (y, eps)
                half2 = _p2_zeta_free(x, ybar_factors)
            halves2.append(half2)
    except ValueError as error:
        errors[at, stage] = error
        return halves1, halves2, at + stage // 2
    return halves1, halves2, count


def _factor_columns(halves: list, rows):
    """The zeta-free factors of `rows`, an index array, from
    _zeta_free_halves: the one half itself where all rows share it, so that
    each factor is one number for every row; else an array per factor."""
    import numpy as np

    return halves[0] if len(halves) == 1 else [
        np.array(column) for column in zip(*map(halves.__getitem__, rows.tolist()))]


def _cells(value, count: int) -> list:
    """A factor of _factor_columns as a list of the cells of its `count` rows."""
    return value.tolist() if hasattr(value, "tolist") else [value] * count


def _assemble_rows(name: str, stage: int, prefactor, damping, planck, phase, batch, rows,
                   errors: dict) -> list:
    """_assemble at `rows`, an index array of the batch, from arrays or
    numbers of one value per row: the six fields as lists.  The first row
    whose total is not a finite double puts its error into `errors` under
    (row, stage), unless an error is there already."""
    import numpy as np

    # sin, then libm's pow as s ** 2 calls it, row by row; sin(NaN) is NaN
    sin2 = list(map(math.pow, map(math.sin, np.where(np.isfinite(phase), phase, math.nan).tolist()),
                    repeat(2.0)))
    total = _product(prefactor, damping, planck, np.array(sin2))
    for row in rows[~np.isfinite(total)][:1].tolist():
        errors.setdefault((row, stage), _not_finite(name, [column[row] for column in batch]))
    return [total.tolist(), *(_cells(value, rows.size) for value in (prefactor, damping, planck)),
            phase.tolist(), sin2]


def _p1_at_zeta_rows(factors, zeta, batch, rows, errors: dict) -> list:
    """_p1_at_zeta at `rows`, an index array of the batch, from their
    factors (_factor_columns) and zeta: the six fields as lists.  The first
    error goes into `errors` under (row, 1)."""
    return _assemble_rows("p1", 1, *factors[:3], _p1_phase(factors, zeta), batch, rows, errors)


def _p2_at_zeta_rows(factors, zeta, batch, rows, errors: dict) -> list:
    """_p2_at_zeta at `rows`, an index array of the batch with zeta < 1,
    from their factors (_factor_columns) and zeta: the six fields as lists.

    L is summed at once for the rows that need it, where eta > 0
    (gup_coefficient_batch), and the scalar way at each of them that the
    batch does not sum, up to the first that raises.  Elsewhere L is taken
    as 0, where the formulas give the scalar's bits without it: a damping
    of exp(0) = 1 and a GUP phase of +-0, which leaves the phase sum as it
    is, since x zeta + ybar ln x is never -0.  The first error of each kind
    goes into `errors` under (row, 3), where L's comes before the damping's
    overflow, and that before a total that is not a finite double.
    """
    import numpy as np

    x, ybar, eta, log_gamma_iy, prefactor, planck, log_term, psi = factors
    l_re = l_im = np.zeros(rows.size)  # L = 0, until it is summed
    if (positive := np.broadcast_to(eta > 0.0, rows.shape)).any():
        # r = 0 where eta = 0, a row that the batch declines and no sum reads
        rs = np.where(positive, _radius(x, zeta), 0.0).tolist()
        ybars, log_gammas, psis = (_cells(value, rows.size) for value in (ybar, log_gamma_iy, psi))
        summed, l_re, l_im = gup_coefficient_batch(ybars, rs, log_gammas, psis)
        for i in np.flatnonzero(positive & ~summed).tolist():
            try:
                value = gup_coefficient(ybars[i], rs[i], log_gammas[i], psis[i])
            except ValueError as error:  # no later row is read
                errors.setdefault((int(rows[i]), 3), error)
                break
            l_re[i], l_im[i] = value.real, value.imag
    log_two_zeta = np.fromiter(map(math.log, (2.0 * zeta).tolist()), float, rows.size)
    exponent, gup_phase = _p2_gup_terms(eta, log_two_zeta, l_re, l_im)
    damping = np.fromiter(map(math.exp, np.minimum(exponent, 709.0).tolist()), float, rows.size)
    for i in np.flatnonzero(exponent > 709.0).tolist():  # where exp may overflow
        try:
            damping[i] = math.exp(exponent[i])
        except OverflowError:  # no later row is read
            row = int(rows[i])
            errors.setdefault((row, 3), _damping_overflow([column[row] for column in batch],
                                                          float(l_im[i])))
            break
    phase = _p2_phase(x, zeta, log_term, gup_phase, log_gamma_iy.imag)
    return _assemble_rows("p2", 3, prefactor, damping, planck, phase, batch, rows, errors)


def closed_rows(xs, ys, zetas, epss, want_p1: bool, want_p2: bool) -> tuple:
    """The closed forms at every row of the columns x, y, zeta and eps:
    (p1's fields, p2's fields), each the six ProbabilityBreakdown fields as
    lists.  A probability's cells are None where it is not wanted, and
    p2's at the rows where zeta >= 1.

    One row is computed on floats, as p1_closed and then p2_closed compute
    it, without numpy.  More rows are columns: each zeta-free half is
    computed once where all rows share (x, y, eps) (_zeta_free_halves), up
    to the first row where one raises, and each at-zeta half runs on
    float64 arrays over the rows before it, p2's only over rows before
    p1's first error.  Each error found is keyed by its row and its stage
    in a point by point run (p1's tiers, p1 at zeta, p2's tiers, p2 at
    zeta), and the least is raised: a batch raises what a point by point
    run meets first, and evaluates each row once.
    """
    count = len(xs)
    if count == 1:
        x, y, zeta, eps = point = (xs[0], ys[0], zetas[0], epss[0])
        ones = (_p1_at_zeta(_p1_zeta_free(x, y, eps, _p1_x_factors(x)), point)
                if want_p1 else (None,) * 6)
        twos = (_p2_at_zeta(_p2_zeta_free(x, _p2_ybar_factors(y, eps)), point)
                if want_p2 and zeta < 1.0 else (None,) * 6)
        return [[cell] for cell in ones], [[cell] for cell in twos]
    import numpy as np

    batch, errors = (xs, ys, zetas, epss), {}
    halves1, halves2, p1_end = _zeta_free_halves(batch, want_p1, want_p2, errors)
    zeta = np.array(zetas)
    ones = twos = [[None] * count] * 6
    # Overflow and 0 * inf happen where the scalar meets them too, and leave
    # the same infinities and NaNs in the same rows.
    with np.errstate(all="ignore"):
        if want_p1 and p1_end:
            rows = np.arange(p1_end)
            ones = _p1_at_zeta_rows(_factor_columns(halves1, rows), zeta[rows], batch,
                                    rows, errors)
        rows = np.flatnonzero(zeta[:min(errors, default=(count,))[0]] < 1.0)
        if want_p2 and rows.size:
            twos = _p2_at_zeta_rows(_factor_columns(halves2, rows), zeta[rows], batch, rows,
                                    errors)
    if errors:
        raise errors[min(errors)]
    if want_p2 and 0 < rows.size < count:  # None at the rows where zeta >= 1
        spread = np.full((6, count), None)
        spread[:, rows] = twos
        twos = spread.tolist()
    return ones, twos


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
