"""The special functions of the closed forms: log-Gamma on the imaginary axis,
digamma, the Planck factor and probability 2's GUP coefficient L.

The excitation probabilities read Gamma only on the imaginary axis:
theta = Arg Gamma(-i x) for probability 1, and kappa = Arg Gamma(i ybar)
and conj Gamma(i ybar) for probability 2.  So log_gamma takes i t with
real t != 0 and nothing else (DLMF sections 5.4 and 5.11):

* Arg Gamma(i |t|) is the Stirling series of log Gamma at 12 + i |t|,
  Bernoulli terms through B14, less the 12 terms arg(k + i |t|) of the
  recurrence Gamma(z + 1) = z Gamma(z), summed with math.fsum and reduced
  to (-pi, pi].  Against mpmath it is within 2e-15 of max(1, |Arg|) for
  |t| in [1e-3, 1e3], |Arg| taken on the continuous branch;
* log|Gamma(i t)| = (log pi - log|t| - log sinh pi|t|) / 2, with log sinh
  in a form that cannot overflow;
* Gamma(-i t) is the conjugate of Gamma(i t), to the bit, so its reduced
  phase is the negated one and lies in [-pi, pi).

One private kernel, _arg_gamma, sums the phase.  gamma_phase_set is that
kernel, the finiteness check and the reduction: theta skips the modulus,
which probability 1 never reads.  log_gamma is the same kernel plus the
modulus, so theta is log_gamma(-i x).imag to the bit.

digamma (recurrence and asymptotic series) gives psi(1 + i ybar) for
probability 2's GUP coefficient, and planck_factor the thermal
occupation 1/(e^{2 pi w} - 1).  They are implemented here so the whole
package has identical Gamma behavior everywhere, independent of platform
library quirks.

gup_coefficient sums L(a, z) = z^a dU(a, b, z)/db at b = a + 1,
a = 1 + i ybar, z = i r (U is Tricomi's function, DLMF section 13.2),
from log Gamma(i ybar) and psi(1 + i ybar): from its convergent series
for 0 < r below asymptotic_line(ybar), from its asymptotic series on and
above it.  gup_coefficient_batch sums the convergent series of many rows
together, each row with its own ybar, r, log Gamma(i ybar) and psi, on
float64 arrays, and gives every row the bits gup_coefficient gives it.
numpy's complex type cannot do that: its multiply and divide round
differently from CPython's.  So each complex * and / of the scalar loop
is repeated as the real operations CPython rounds, in CPython's order
(`_product`; `_quotient`, Smith's method with its branch picked per
row).  What is not + - * / (log r, the first term's exp and modulus) is
computed row by row with math and cmath, as the scalar does.  Only the
batch imports numpy, inside the functions that use it, so the one-point
modes, which sum L with gup_coefficient, never load it.

Nothing here is memoised.  Every function is pure, so a caller that
needs one value for many rows computes it once: closed_form.closed_rows
computes each closed form's zeta-free factors once per run of rows with
equal inputs to them, so a sweep evaluates each Gamma value it needs
once per run of rows that share those inputs.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat

__all__ = ["log_gamma", "digamma", "gamma_phase_set", "planck_factor", "asymptotic_line",
           "gup_coefficient", "gup_coefficient_batch"]

# The Stirling series runs at 12 + i|t|, where its first omitted term,
# B16 / (16 * 15 * 12^15), is below 2e-18; these are B_2k / (2k (2k - 1)).
_SHIFT = 12
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_LOG_TWO_PI = math.log(2.0 * math.pi)


def _arg_gamma(t: float) -> float:
    """Arg Gamma(i t) for t > 0 on the continuous branch, not reduced.

    Im[(z - 1/2) log z - z + series / z] at z = 12 + i t, less arg(k + i t)
    for k = 0..11, as one math.fsum of the 15 terms.  The terms are handed
    over negated and the sum subtracted from 0.0, which gives the same bits
    as the sum of the terms themselves, +0.0 included.  An overflowing term
    makes the result inf.
    """
    shifted = complex(_SHIFT, t)
    w = 1.0 / shifted
    w2 = w * w
    c0, c1, c2, c3, c4, c5, c6 = _STIRLING
    # complex(c6, 0.0) is the first Horner step, 0j * w2 + c6, to the bit
    series = ((((((complex(c6, 0.0) * w2 + c5) * w2 + c4) * w2 + c3) * w2 + c2) * w2 + c1) * w2
              + c0)
    return 0.0 - math.fsum([(0.5 - _SHIFT) * math.atan2(t, _SHIFT),
                             t * (1.0 - math.log(abs(shifted))), -(series * w).imag,
                             *map(math.atan2, repeat(t, _SHIFT), range(_SHIFT))])


def log_gamma(z: complex) -> complex:
    """log Gamma(i t) at z = i t: log|Gamma| as real part, Arg Gamma as
    imaginary part, in (-pi, pi] for t > 0 and in [-pi, pi) for t < 0.

    Raises ValueError off the imaginary axis, at the pole t = 0, and where
    the value is not a finite double (|t| above about 1e305).
    """
    t = abs(z.imag)
    if z.real != 0.0 or t == 0.0:
        raise ValueError(f"log_gamma takes i t with real t != 0, not {z}")
    phase = _arg_gamma(t)
    u = math.pi * t  # |Gamma(i t)|^2 = pi / (t sinh u) = 2 pi / (t e^u (1 - e^{-2u}))
    modulus = 0.5 * (_LOG_TWO_PI - math.log(t) - u - math.log(-math.expm1(-2.0 * u)))
    if not (math.isfinite(phase) and math.isfinite(modulus)):
        raise ValueError(f"log Gamma({z}) is not a finite double")
    phase = _principal(phase)
    return complex(modulus, phase if z.imag > 0.0 else -phase)


def digamma(z: complex) -> complex:
    """psi(z) = d log Gamma(z) / dz for Re z > 0.

    The recurrence psi(z) = psi(z + 1) - 1/z moves the argument to
    Re z >= 7, where the asymptotic series through z^-12 is accurate to
    ~2e-13 absolute.
    """
    if not z.real > 0.0:
        raise ValueError("digamma needs Re z > 0")
    shift = 0j
    while z.real < 7.0:
        shift += 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * 691.0 / 32760.0)))))
    return cmath.log(z) - 0.5 / z - tail - shift


def _principal(angle: float) -> float:
    """Reduce a phase to the principal interval (-pi, pi]."""
    reduced = math.remainder(angle, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


def gamma_phase_set(x: float) -> float:
    """theta = Arg Gamma(-i x) in [-pi, pi), the Gamma phase of the
    accelerating-atom closed form at atom frequency x: the imaginary part
    of log_gamma(-i x), to the bit, without its modulus."""
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    phase = _arg_gamma(x)
    if not math.isfinite(phase):
        raise ValueError(f"log Gamma({complex(0.0, -x)}) is not a finite double")
    return -_principal(phase)


def planck_factor(w: float) -> float:
    """Thermal occupation 1/(e^{2 pi w} - 1), overflow safe.

    Uses expm1 for small and moderate arguments and the equivalent
    e^{-2 pi w}/(1 - e^{-2 pi w}) form once e^{2 pi w} would overflow.
    Underflows gracefully to 0.0 for very large w.
    """
    if not w > 0.0:
        raise ValueError("w must be strictly positive")
    arg = 2.0 * math.pi * w
    if arg < 700.0:
        return 1.0 / math.expm1(arg)
    damped = math.exp(-arg)
    return damped / (1.0 - damped)


# L is summed from its asymptotic series once |z| >= 17 + 1.5 |a|.  The
# smallest asymptotic term shrinks like e^{-|z|} but grows with |a|; the
# convergent series lose digits to cancellation as |z| grows, fewer the
# larger |a| is.  Against mpmath at r = line -/+ 0.5, L is off by at most
# 5e-9 for 0.7 <= ybar <= 25 (4.2e-9 and 3.8e-9 at ybar = 25), and by 2e-7
# at ybar = 0.02, where it is multiplied by eta = eps y / 2 <= 1e-3.  Above
# ybar = 25 the convergent side loses more: 1.8e-8 at ybar = 30, 3.5e-7 at
# 40, 3.1e-6 at 50, and at ybar = 100 4.7e-7 at r = 150, 9.8e-3 at r = 160
# and 0.77 at r = 166 (ROADMAP item 3: choose the series by its own bound).
_ASYMPTOTIC_MIN_Z = 17.0
_ASYMPTOTIC_SLOPE = 1.5
# Size of the last term summed into L.  The first-order form is itself
# off by O(eta^2); an error of 1e-8 in L moves the probability by
# ~2 eta 1e-8 / |tan phase|, far below that for any eta > 1e-6.
_L_TOLERANCE = 1e-8


def asymptotic_line(ybar: float) -> float:
    """The r = 2 zeta x from which L(1 + i ybar, i r) is summed from its
    asymptotic series, 17 + 1.5 |1 + i ybar|; below it, and above 0, L
    is summed from its convergent series."""
    return _ASYMPTOTIC_MIN_Z + _ASYMPTOTIC_SLOPE * abs(complex(1.0, ybar))


def _unsummable(ybar: float, r: float, reason: str) -> ValueError:
    return ValueError(f"L(1 + i ybar, i r) at ybar={ybar!r}, r={r!r}: {reason}")


def gup_coefficient(ybar: float, r: float, log_gamma_iy: complex, psi: complex) -> complex:
    """L(a, z) = z^a dU(a, b, z)/db at b = a + 1, a = 1 + i ybar, z = i r.

    log_gamma_iy is log Gamma(i ybar), Gamma(-a) = -conj(Gamma(i ybar)) / a,
    and psi is psi(a).
    """
    if r == 0.0:
        raise _unsummable(ybar, r, "r = 2 zeta x underflows to zero")
    a = complex(1.0, ybar)
    z = complex(0.0, r)
    if r >= asymptotic_line(ybar):
        # sum_{n>=1} (-1)^{n+1} (a)_n / (n z^n), cut before its terms grow
        total = 0j
        term = -1.0 + 0j
        previous = math.inf
        n = 0
        while True:
            n += 1
            term *= -(a + (n - 1)) / z
            size = abs(term) / n
            if size >= previous:
                return total
            total += term / n
            if size < _L_TOLERANCE:
                return total
            previous = size
    # connection formula (DLMF section 13.2) expanded to first order in b - a - 1:
    #   L = psi(a) - ln z - sum_{n>=1} z^n / (n (1-a)_n) - Gamma(-a) z^a M(a, a+1, z),
    #   Gamma(-a) z^a M(a, a+1, z) = -conj(Gamma(i ybar)) z^a sum_{n>=0} z^n / (n! (a+n))
    log_z = complex(math.log(r), 0.5 * math.pi)
    power = 1.0 + 0j  # z^n / (1-a)_n
    try:  # kummer is conj(Gamma(i ybar)) z^a z^n / n!
        kummer = cmath.exp(log_gamma_iy.conjugate() + a * log_z)
        size = abs(kummer) + 1.0  # bounds both terms' moduli up to a factor 1/ybar
    except OverflowError:
        raise _unsummable(ybar, r, "the first term of its series overflows a double") from None
    total = kummer / a
    n = 0
    while size >= _L_TOLERANCE:
        n += 1
        power *= z / (n - a)
        kummer *= z / n
        total += kummer / (n + a) - power / n
        size *= r / n
        if size == math.inf:  # it never falls below the tolerance again
            raise _unsummable(ybar, r, "the bound on its series terms overflows a double")
    return psi - log_z + total


def _product(a: tuple, b: tuple) -> tuple:
    """a * b for (real, imaginary) pairs of floats or float64 arrays, as
    CPython's complex product rounds it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _quotient(a: tuple, b: tuple) -> tuple:
    """a / b for (real, imaginary) pairs of floats or float64 arrays, b
    finite and not 0, as CPython's complex quotient rounds it: Smith's
    method, dividing through by whichever part of b is larger in
    modulus, that choice made per element."""
    (ar, ai), (br, bi) = a, b
    by_real = abs(br) >= abs(bi)
    if not isinstance(by_real, bool) and (by_real.all() or not by_real.any()):
        by_real = bool(by_real[0])
    if by_real is not False:
        ratio = bi / br
        denom = br + bi * ratio
        real_first = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        if by_real is True:
            return real_first
    ratio = br / bi
    denom = br * ratio + bi
    imag_first = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    if by_real is False:
        return imag_first
    import numpy as np

    return (np.where(by_real, real_first[0], imag_first[0]),
            np.where(by_real, real_first[1], imag_first[1]))


def _complex_products_unfused() -> bool:
    """Whether this interpreter rounds both real products in each part of a
    complex product, as the batch does.  A build that contracts a product
    and the sum after it into one fused multiply-add (compilers may, on
    arm64 for one) rounds once where the batch rounds twice."""
    u, v = 1.0 + 2.0**-30, 1.0 + 2.0**-31  # u * u and v * v are both inexact
    return complex(u, v) * complex(u, v) == complex(u * u - v * v, u * v + v * u)


def _term_counts(size: np.ndarray, r: np.ndarray) -> np.ndarray:
    """How many terms each row's convergent series sums: the first n at
    which its bound size r^n / n! falls below _L_TOLERANCE, or 0 where
    that bound overflows first (the scalar raises there).  size is
    changed in place.  A bound that has fallen below the tolerance stays
    below: it starts at 1 or more, so it gets there only once n > r, and
    every later factor r / n is at most 1."""
    import numpy as np

    terms = np.zeros(size.size, dtype=np.intp)
    n = 0
    while True:
        summing = size >= _L_TOLERANCE
        summing &= size != math.inf
        if not summing.any():
            break
        terms += summing
        n += 1
        size *= r / n
    terms[size == math.inf] = 0
    return terms


def gup_coefficient_batch(ybars: list[float], rs: list[float], log_gammas: list[complex],
                          psis: list[complex]) -> list[complex | None]:
    """gup_coefficient(ybar, r, log_gamma_iy, psi) at many rows at once,
    bit for bit, or None at each row where gup_coefficient raises.  Never
    raises.  Every row must be on the convergent branch,
    0 < r < asymptotic_line(ybar); closed_form.closed_rows chooses the
    rows, and this function sums each row it is given.

    A row stops adding terms where its own bound falls below
    _L_TOLERANCE: the rows are sorted by their number of terms, so the
    rows still summing are always a leading slice.  On an interpreter
    whose complex products are fused every row is None.
    """
    coefficients = [None] * len(ybars)
    if not coefficients or not _complex_products_unfused():
        return coefficients
    import numpy as np

    ybar = np.array(ybars, dtype=float)
    r = np.array(rs, dtype=float)
    with np.errstate(all="ignore"):
        # Overflow and 0 * inf happen where the scalar sum meets them too,
        # and leave the same infinities and NaNs in the same rows.
        log_gamma_iy = np.array(log_gammas, dtype=complex)
        # the first Kummer term exp(conj(log Gamma(i ybar)) + a log z), as the scalar's
        log_r = np.array(list(map(math.log, rs)))
        half_pi = 0.5 * math.pi
        product = _product((1.0, ybar), (log_r, half_pi))
        kummer, size = [], []
        for exponent in map(complex, (log_gamma_iy.real + product[0]).tolist(),
                            ((-log_gamma_iy.imag) + product[1]).tolist()):
            try:
                first = cmath.exp(exponent)
                size.append(abs(first) + 1.0)
            except OverflowError:  # the scalar raises; the infinite bound declines the row
                first = 0j
                size.append(math.inf)
            kummer.append(first)
        kummer = np.array(kummer)
        kummer = kummer.real, kummer.imag
        total = _quotient(kummer, (1.0, ybar))
        terms = _term_counts(np.array(size), r)
        # psi(a) - log z
        rest = np.array(psis, dtype=complex)
        rest = rest.real - log_r, rest.imag - half_pi
        rows = np.argsort(-terms, kind="stable")
        ybar, r, terms, *parts = (
            column[rows] for column in (ybar, r, terms, *kummer, *total, *rest))
        kummer, total, rest = parts[:2], parts[2:4], parts[4:]
        if ybar.min() == ybar.max():
            ybar = float(ybar[0])  # then each divisor's parts are plain floats
        minus_ybar = 0.0 - ybar  # the imaginary part of n - a
        summing = np.cumsum(np.bincount(terms)[::-1])[::-1].tolist()  # rows with >= n terms
        power = np.ones(rows.size), np.zeros(rows.size)
        for n in range(1, len(summing)):
            k = summing[n]
            r_k = r[:k]
            ybar_k, minus_k = ((ybar, minus_ybar) if isinstance(ybar, float)
                               else (ybar[:k], minus_ybar[:k]))
            # z / (n - a) with z = i r; z / n is exactly i r / n
            power = _product((power[0][:k], power[1][:k]),
                             _quotient((0.0, r_k), (n - 1.0, minus_k)))
            kummer = _product((kummer[0][:k], kummer[1][:k]), (0.0, r_k / n))
            term = _quotient(kummer, (n + 1.0, ybar_k))
            correction = _quotient(power, (float(n), 0.0))
            total[0][:k] += term[0] - correction[0]
            total[1][:k] += term[1] - correction[1]
        kept = summing[1] if len(summing) > 1 else 0
        coefficient_re = (rest[0][:kept] + total[0][:kept]).tolist()
        coefficient_im = (rest[1][:kept] + total[1][:kept]).tolist()
    for i, re, im in zip(rows[:kept].tolist(), coefficient_re, coefficient_im):
        coefficients[i] = complex(re, im)
    return coefficients
