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

Q(zeta, eps), the spatial mismatch of `equivalence`, is computed here
too (`q_parameter`), so that a batch's closed forms and Q come from one
call.

`closed_rows` is the one place that turns a batch of rows, given as
four columns, x, y, zeta and eps, into the CSV's closed-form cells and
Q: five lists, p1's total and phase, p2's total and phase, and Q.  It
picks one of two paths from the batch itself.  A batch of two or more
rows that share (x, y, eps), as a zeta sweep's do, runs as columns:
each zeta-free half is computed once, and the at-zeta halves
(`_p1_at_zeta_rows`, `_p2_at_zeta_rows`) and Q (`_q_rows`) run on
float64 arrays in which every zeta-free factor is a single number.  Each
+ - * / there is one IEEE operation, written once for numbers and arrays
alike (`_p1_phase`, `_p2_gup_terms`, `_p2_phase`, `_product`,
`_q_formula`), and each libm call (sin, pow, exp, log) is the scalar's
own, mapped over the rows, so every row gets the bits the one-point
functions give it.  L is summed for those rows by
`special.gup_coefficient_batch` with one coefficient table, and the
scalar way at each row it does not sum.  Array masks find the rows whose
L cannot be summed, whose damping overflows or whose total or Q is not a
finite double.  Each error is keyed by its row and by its stage in a
point by point run (p1's zeta-free half, p1 at zeta, p2's zeta-free
half, p2 at zeta, Q), each stage runs over the rows before the least
error known when it starts, and the least is raised.

Every other batch, a one-row batch included, runs point by point through
the one-point halves, on floats: p1's x factors once per run of equal x,
p2's ybar factors once per run of equal (y, eps), so an omega0 sweep
evaluates the Gamma values of ybar once, and Q once per run of equal
(zeta, eps).  The rows before the first error that need L are handed to
`special.gup_coefficient_batch` together, where two or more do, so a
one-point run never loads numpy.  Either way a batch raises what a point
by point run meets first, and evaluates each row once.

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
from itertools import compress, repeat
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
    "q_parameter",
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


def _q_formula(eps, zeta, zeta_squared, log_zeta):
    """Q from zeta^2 and ln zeta; numbers, or arrays of one value per row."""
    return eps / (2.0 * zeta_squared) + (eps / (2.0 * zeta)) * log_zeta


def _q_error(eps: float, zeta: float) -> ValueError:
    return ValueError(f"zeta={zeta!r}, eps={eps!r}: Q is not a finite double")


def q_parameter(eps: float, zeta: float) -> float:
    """Spatial-mismatch parameter Q(zeta, eps) of `equivalence`; exactly
    linear in eps.

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
        q_value = _q_formula(eps, zeta, zeta**2, math.log(zeta))
    except (ZeroDivisionError, OverflowError):  # zeta^2 underflows to 0 or overflows
        q_value = math.nan
    if math.isfinite(q_value):
        return q_value
    if eps == 0.0:
        return 0.0
    raise _q_error(eps, zeta)


def _square_or_nan(zeta: float) -> float:
    try:
        return zeta**2
    except OverflowError:
        return math.nan


def _q_rows(epss: list[float], zetas: list[float]) -> tuple[list[float], ValueError | None]:
    """q_parameter at each row of the columns eps and zeta, whose rows obey
    its domain (zeta > 0, eps >= 0), as _q_formula on float64 arrays, with
    zeta^2 (libm's pow) and ln zeta called row by row: the values before
    the first row where q_parameter raises, and that row's error (None if
    none)."""
    import numpy as np

    try:  # math.pow(zeta, 2.0) is the same libm pow call as zeta**2
        squares = list(map(math.pow, zetas, repeat(2.0)))
    except OverflowError:  # where q_parameter takes Q as NaN
        squares = list(map(_square_or_nan, zetas))
    eps = np.array(epss)
    q_value = _q_formula(eps, np.array(zetas), np.array(squares),
                         np.fromiter(map(math.log, zetas), float, len(zetas)))
    bad = ~np.isfinite(q_value)
    end = (np.flatnonzero(bad & (eps != 0.0)).tolist() or [len(zetas)])[0]
    q_value[bad] = 0.0  # eps = 0 at such a row before the first failing one
    return q_value[:end].tolist(), _q_error(epss[end], zetas[end]) if end < len(zetas) else None


def _assemble_rows(name: str, stage: int, prefactor, damping, planck, phase, batch, rows,
                   errors: dict) -> list:
    """_assemble at `rows`, an index array of the batch, from numbers and
    arrays of one value per row: the total and the phase as lists.  The
    first row whose total is not a finite double puts its error into
    `errors` under (row, stage), unless an error is there already."""
    import numpy as np

    # sin, then libm's pow as s ** 2 calls it, row by row; sin(NaN) is NaN
    sin2 = list(map(math.pow, map(math.sin, np.where(np.isfinite(phase), phase, math.nan).tolist()),
                    repeat(2.0)))
    total = _product(prefactor, damping, planck, np.array(sin2))
    for row in rows[~np.isfinite(total)][:1].tolist():
        errors.setdefault((row, stage), _not_finite(name, [column[row] for column in batch]))
    return [total.tolist(), phase.tolist()]


def _p1_at_zeta_rows(factors, zeta, batch, rows, errors: dict) -> list:
    """_p1_at_zeta at `rows`, an index array of the batch, from the one
    _p1_zeta_free half of their (x, y, eps) and their zeta: the total and
    the phase as lists.  The first error goes into `errors` under (row, 1)."""
    return _assemble_rows("p1", 1, *factors[:3], _p1_phase(factors, zeta), batch, rows, errors)


def _p2_at_zeta_rows(factors, zeta, batch, rows, errors: dict) -> list:
    """_p2_at_zeta at `rows`, an index array of the batch with zeta < 1,
    from the one _p2_zeta_free half of their (x, y, eps) and their zeta:
    the total and the phase as lists.

    Where eta > 0, L is summed at once for the rows (gup_coefficient_batch),
    and the scalar way at each row that the batch does not sum, up to the
    first that raises.  The first error of each kind goes into `errors`
    under (row, 3), where L's comes before the damping's overflow, and that
    before a total that is not a finite double.
    """
    import numpy as np

    x, ybar, eta, log_gamma_iy, prefactor, planck, log_term, psi = factors
    damping, gup_phase = 1.0, 0.0  # no L where eta = 0, as in _p2_at_zeta
    if eta > 0.0:
        rs = _radius(x, zeta).tolist()
        summed, l_re, l_im = gup_coefficient_batch([ybar] * len(rs), rs,
                                                   [log_gamma_iy] * len(rs), [psi] * len(rs))
        for i in np.flatnonzero(~summed).tolist():
            try:
                value = gup_coefficient(ybar, rs[i], log_gamma_iy, psi)
            except ValueError as error:  # no later row is read
                errors.setdefault((int(rows[i]), 3), error)
                break
            l_re[i], l_im[i] = value.real, value.imag
        log_two_zeta = np.fromiter(map(math.log, (2.0 * zeta).tolist()), float, len(rs))
        exponent, gup_phase = _p2_gup_terms(eta, log_two_zeta, l_re, l_im)
        damping = np.fromiter(map(math.exp, np.minimum(exponent, 709.0).tolist()), float, len(rs))
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


def _shared_rows(xs, ys, zetas, epss, want_p1: bool, want_p2: bool) -> list:
    """closed_rows at a batch of two or more rows that share (x, y, eps):
    each zeta-free half computed once, the rest as float64 columns."""
    import numpy as np

    count, x, y, eps = len(xs), xs[0], ys[0], epss[0]
    batch, errors = (xs, ys, zetas, epss), {}
    inside = next((row for row, zeta in enumerate(zetas) if zeta < 1.0), count)
    at = stage = 0  # where the next zeta-free half is met, and its stage
    try:
        if want_p1:
            half1 = _p1_zeta_free(x, y, eps, _p1_x_factors(x))
        if want_p2 and inside < count:
            at, stage = inside, 2
            half2 = _p2_zeta_free(x, _p2_ybar_factors(y, eps))
    except ValueError as error:
        errors[at, stage] = error
    zeta = np.array(zetas)
    cells = [[None] * count] * 4
    # Overflow and 0 * inf happen where the scalar meets them too, and leave
    # the same infinities and NaNs in the same rows.
    with np.errstate(all="ignore"):
        # p1 at zeta runs at the rows before the first zeta-free error, and
        # at p2's failing row too
        end = at + stage // 2 if errors else count
        if want_p1 and end:
            cells[:2] = _p1_at_zeta_rows(half1, zeta[:end], batch, np.arange(end), errors)
        end = min(errors, default=(count,))[0]
        q_values, q_error = _q_rows(epss[:end], zetas[:end])
        if q_error is not None:
            errors[len(q_values), 4] = q_error
        # p2 at zeta runs at the rows before the first error, and at Q's row
        end, stage = min(errors, default=(count, 0))
        rows = np.flatnonzero(zeta[:end + stage // 4] < 1.0)
        if want_p2 and rows.size:
            twos = _p2_at_zeta_rows(half2, zeta[rows], batch, rows, errors)
            if rows.size < count:  # None at the rows where zeta >= 1
                spread = np.full((2, count), None)
                spread[:, rows] = twos
                twos = spread.tolist()
            cells[2:] = twos
    if errors:
        raise errors[min(errors)]
    return [*cells, q_values]


def closed_rows(xs, ys, zetas, epss, want_p1: bool, want_p2: bool) -> list:
    """The closed forms and Q at every row of the columns x, y, zeta and
    eps, as five lists: p1's total, p1's phase, p2's total, p2's phase and
    Q.  A probability's cells are None where it is not wanted, and p2's at
    the rows where zeta >= 1.

    A batch of two or more rows that share (x, y, eps), as a zeta sweep's
    do, runs as columns (_shared_rows).  Any other batch, one row
    included, runs point by point through the one-point halves, on floats:
    p1's x factors once per run of equal x, p2's ybar factors once per run
    of equal (y, eps) and the rest of each zeta-free half once per run of
    equal (x, y, eps), Q once per run of equal (zeta, eps).  The rows that
    need L before the first error are summed by gup_coefficient_batch,
    which loads numpy, where two or more do, and the rest the scalar way.

    Either way each row is evaluated once, and the error raised is the
    one a point by point run (p1's tiers, p1 at zeta, p2's tiers, p2 at
    zeta, then Q) meets first.
    """
    if len(xs) > 1 and xs.count(xs[0]) == ys.count(ys[0]) == epss.count(epss[0]) == len(xs):
        return _shared_rows(xs, ys, zetas, epss, want_p1, want_p2)
    ones, halves2, q_values = [], [], []
    x0 = y0 = eps0 = q_zeta = q_eps = stop = None
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
            ones.append(_p1_at_zeta(half1, point) if want_p1 else (None,) * 6)
            if want_p2 and zeta < 1.0 and half2 is None:
                if ybar_factors is None:
                    ybar_factors = _p2_ybar_factors(y, eps)
                half2 = _p2_zeta_free(x, ybar_factors)
            halves2.append(half2 if zeta < 1.0 else None)
            if zeta != q_zeta or eps != q_eps:
                q_value, q_zeta, q_eps = q_parameter(eps, zeta), zeta, eps
            q_values.append(q_value)
    except ValueError as error:
        stop = error
    coefficients = [None] * len(halves2)
    # (row, ybar, r, log Gamma(i ybar), psi) of each row that needs L
    chosen = [(row, half[1], _radius(half[0], zeta), half[3], half[7]) for row, (half, zeta)
              in enumerate(zip(halves2, zetas)) if half and half[2] > 0.0]
    if len(chosen) > 1:
        rows, *columns = zip(*chosen)
        summed, l_re, l_im = gup_coefficient_batch(*columns)
        for row, re, im in compress(zip(rows, l_re.tolist(), l_im.tolist()), summed.tolist()):
            coefficients[row] = complex(re, im)
    twos = [(None,) * 6 if half is None else _p2_at_zeta(half, point, coefficient)
            for half, point, coefficient in zip(halves2, zip(xs, ys, zetas, epss), coefficients)]
    if stop is not None:
        raise stop
    # the fields of each row are (total, ..., phase_argument, sin2)
    (total1, *_, phase1, _), (total2, *_, phase2, _) = zip(*ones), zip(*twos)
    return [list(total1), list(phase1), list(total2), list(phase2), q_values]


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
