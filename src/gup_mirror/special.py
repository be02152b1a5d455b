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
above it.  The convergent series is two polynomials in z whose
coefficients read ybar alone, scaled by the powers of a power of two s so
that none underflows, and each is summed by Horner's rule in the real
t = -(r/s)^2, as its even part plus i r/s times its odd part.
gup_coefficient_batch sums many rows at once on float64 arrays, with one
table of coefficients where the rows share ybar and a column per row
otherwise, and gives every row the bits gup_coefficient gives it, on any
build: each + - * / of the coefficients (_coefficients), of the Horner
step acc * t + c and of the final combination (_combine) is one IEEE
operation written once for floats and arrays alike, and numpy's complex
type is never used.  The first term's exponent, exp and modulus and
log r are computed row by row in both (_first_term).  Only the batch
imports numpy, inside the functions that use it, so the one-point modes,
which sum L with gup_coefficient, never load it.

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
_HALF_PI = 0.5 * math.pi


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

    Uses expm1 for small and moderate arguments and e^{-2 pi w} once
    e^{2 pi w} would overflow: there 1 - e^{-2 pi w} rounds to 1.0, so
    e^{-2 pi w}/(1 - e^{-2 pi w}) is e^{-2 pi w} to the bit.  Underflows
    gracefully to 0.0 for very large w.
    """
    if not w > 0.0:
        raise ValueError("w must be strictly positive")
    arg = 2.0 * math.pi * w
    if arg < 700.0:
        return 1.0 / math.expm1(arg)
    return math.exp(-arg)


# L is summed from its asymptotic series once |z| >= 17 + 1.5 |a|.  The
# smallest asymptotic term shrinks like e^{-|z|} but grows with |a|; the
# convergent series lose digits to cancellation as |z| grows, fewer the
# larger |a| is.  Against mpmath at r = line -/+ 0.5, L is off by at most
# 1.3e-8 for 0.7 <= ybar <= 25 (1.2e-8 and 3.8e-9 at ybar = 25; the
# convergent side's rounding is about u times its largest term), and by
# 7e-8 at ybar = 0.02, where it is multiplied by eta = eps y / 2 <= 1e-3.
# Above ybar = 25 the convergent side loses more: 1.0e-8 at ybar = 30,
# 1.5e-7 at 40, 1.0e-6 at 50, and at ybar = 100 3.3e-6 at r = 150, 9.3e-3
# at r = 160 and 1.1 at r = 166 (ROADMAP item 3: choose the series by its
# own bound).
_ASYMPTOTIC_MIN_Z = 17.0
_ASYMPTOTIC_SLOPE = 1.5
# Size of the last term summed into L.  The first-order form is itself
# off by O(eta^2); an error of 1e-8 in L moves the probability by
# ~2 eta 1e-8 / |tan phase|, far below that for any eta > 1e-6.
_L_TOLERANCE = 1e-8
# Steps x rows in one table of per-row coefficients: its 8 float64 columns
# and the terms they are built from take about 32 MiB at most, and a table
# of 850 steps (r near 710) still serves over 300 rows.
_TABLE_CELLS = 2**18


def asymptotic_line(ybar: float) -> float:
    """The r = 2 zeta x from which L(1 + i ybar, i r) is summed from its
    asymptotic series, 17 + 1.5 |1 + i ybar|; below it, and above 0, L
    is summed from its convergent series."""
    return _ASYMPTOTIC_MIN_Z + _ASYMPTOTIC_SLOPE * abs(complex(1.0, ybar))


def _unsummable(ybar: float, r: float, reason: str) -> ValueError:
    return ValueError(f"L(1 + i ybar, i r) at ybar={ybar!r}, r={r!r}: {reason}")


def _scale(line: float) -> float:
    """The largest power of two not above line = asymptotic_line(ybar), or
    512: the convergent series' coefficients are scaled by its powers, and
    w = r / scale is exact.  The largest scaled Kummer coefficient,
    scale^n / n!, is about e^scale, so 1024 would overflow it (from ybar of
    about 671) where the terms themselves are finite."""
    return math.ldexp(1.0, min(math.frexp(line)[1] - 1, 9))


def _first_term(log_gamma_iy: complex, ybar: float, r: float) -> tuple[float, complex, float]:
    """log r; the Kummer series' first term K = conj(Gamma(i ybar)) z^a,
    exp(conj(log Gamma(i ybar)) + a log z) with a = 1 + i ybar and
    log z = log r + i pi/2; and |K| + 1, which bounds both series' terms up
    to a factor 1/ybar.  K is 0j and the bound inf where they overflow a
    double."""
    log_r = math.log(r)
    try:
        kummer = cmath.exp(complex(log_gamma_iy.real + (log_r - ybar * _HALF_PI),
                                   (_HALF_PI + ybar * log_r) - log_gamma_iy.imag))
        return log_r, kummer, abs(kummer) + 1.0
    except OverflowError:
        return log_r, 0j, math.inf


def _coefficients(ybar, scale, steps: int) -> list:
    """The two convergent series' coefficients, scaled by scale^n, as the
    8 columns their Horner sums take: the real and imaginary parts of the
    even and of the odd D_n = scale^n / (n! (a + n)), then of
    C_n = scale^n / ((n + 1) (2 - a)_n), for n < 2 steps.

    ybar and scale are floats, or float64 arrays of one value per row.
    Each complex quotient is a product with the conjugate over the
    squared modulus.
    """
    ybar2 = ybar * ybar
    minus_ybar = -ybar
    kummer = 1.0  # scale^n / n!
    power_re, power_im = 1.0 + 0.0 * ybar, 0.0 * ybar  # scale^n / (2 - a)_n, a row if ybar is
    terms = []  # D_n and C_n, n = 0, 1, ...
    for n in map(float, range(2 * steps)):
        shift = n + 1.0
        modulus = shift * shift + ybar2  # |a + n|^2 = |n + 1 - i ybar|^2
        gain = kummer / modulus
        terms += gain * shift, gain * minus_ybar, power_re / shift, power_im / shift
        kummer = kummer * scale / shift
        ratio = scale / modulus  # scale / (n + 1 - i ybar) = (n + 1 + i ybar) ratio
        re, im = shift * ratio, ybar * ratio
        power_re, power_im = power_re * re - power_im * im, power_re * im + power_im * re
    return [terms[0::8], terms[1::8], terms[4::8], terms[5::8],
            terms[2::8], terms[3::8], terms[6::8], terms[7::8]]


def _combine(sums, w, ratio, kummer, psi, log_r) -> tuple:
    """L = psi(a) - log z + K D(z) + (r / ybar) C(z) as (real, imaginary)
    parts, from the 8 Horner sums at t = -w^2 in _coefficients' order,
    ratio = r / ybar, the first Kummer term K and psi(a).  Each series is
    E(t) + i w O(t), its even part plus i w times its odd part.  The
    arguments are numbers, or numpy arrays of one value per row."""
    ed_re, ed_im, od_re, od_im, ec_re, ec_im, oc_re, oc_im = sums
    d_re, d_im = ed_re - w * od_im, ed_im + w * od_re
    return ((psi.real - log_r) + ((kummer.real * d_re - kummer.imag * d_im)
                                  + ratio * (ec_re - w * oc_im)),
            (psi.imag - _HALF_PI) + ((kummer.real * d_im + kummer.imag * d_re)
                                     + ratio * (ec_im + w * oc_re)))


def gup_coefficient(ybar: float, r: float, log_gamma_iy: complex, psi: complex) -> complex:
    """L(a, z) = z^a dU(a, b, z)/db at b = a + 1, a = 1 + i ybar, z = i r.

    log_gamma_iy is log Gamma(i ybar), Gamma(-a) = -conj(Gamma(i ybar)) / a,
    and psi is psi(a).
    """
    if r == 0.0:
        raise _unsummable(ybar, r, "r = 2 zeta x underflows to zero")
    line = asymptotic_line(ybar)
    if r >= line:
        a = complex(1.0, ybar)
        z = complex(0.0, r)
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
    #   sum_{n>=1} z^n / (n (1-a)_n) = -(r / ybar) sum_{n>=0} z^n / ((n+1) (2-a)_n),
    #   Gamma(-a) z^a M(a, a+1, z) = -conj(Gamma(i ybar)) z^a sum_{n>=0} z^n / (n! (a+n))
    log_r, kummer, size = _first_term(log_gamma_iy, ybar, r)
    if size == math.inf:
        raise _unsummable(ybar, r, "the first term of its series overflows a double")
    n = 0
    while size >= _L_TOLERANCE:
        n += 1
        size *= r / n
        if size == math.inf:  # it never falls below the tolerance again
            raise _unsummable(ybar, r, "the bound on its series terms overflows a double")
    scale = _scale(line)
    w = r / scale
    t = -(w * w)
    sums = []
    for column in _coefficients(ybar, scale, n // 2 + 1):
        total = 0.0
        for coefficient in reversed(column):
            total = total * t + coefficient
        sums.append(total)
    return complex(*_combine(sums, w, r / ybar, kummer, psi, log_r))


def _term_counts(size: np.ndarray, r: np.ndarray) -> np.ndarray:
    """How many Horner steps each row's convergent series takes: with n the
    first term at which its bound size r^n / n! falls below _L_TOLERANCE,
    n // 2 + 1, so that its terms through n are summed; or 0 where that
    bound overflows first (the scalar raises there).  size is changed in
    place.  A bound that has fallen below the tolerance stays below: it
    starts at 1 or more, so it gets there only once n > r, and every later
    factor r / n is at most 1."""
    import numpy as np

    terms = np.zeros(size.size, dtype=np.intp)
    n = 0
    while (summing := (size >= _L_TOLERANCE) & (size != math.inf)).any():
        terms += summing
        n += 1
        size *= r / n
    return np.where(size == math.inf, 0, terms // 2 + 1)


def _horner(table: np.ndarray, t: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The 8 Horner sums at t of rows sorted by their number of steps, most
    first, so that the rows still summing are always a leading slice;
    table[:, k] holds coefficient k of each row, or of all rows at once
    where its last axis has length 1."""
    import numpy as np

    sums = np.zeros((8, t.size))
    # summing[k] rows take k steps or more, and add coefficient k - 1
    summing = np.cumsum(np.bincount(steps)[::-1])[::-1].tolist()
    for k in range(len(summing) - 1, 0, -1):
        m = summing[k]
        sums[:, :m] = sums[:, :m] * t[:m] + table[:, k - 1, :m]
    return sums


def gup_coefficient_batch(ybars: list[float], rs: list[float], log_gammas: list[complex],
                          psis: list[complex]) -> list[complex | None]:
    """gup_coefficient(ybar, r, log_gamma_iy, psi) at many rows at once,
    bit for bit, or None at each row where gup_coefficient raises.  Never
    raises.  Every row must be on the convergent branch,
    0 < r < asymptotic_line(ybar); closed_form.closed_rows chooses the
    rows, and this function sums each row it is given.

    Each row takes the Horner steps gup_coefficient takes.  Where every
    row has one ybar, the coefficients are computed once, on floats;
    otherwise each row has its own column of them, built for a block of
    rows at a time, so that one table holds at most _TABLE_CELLS steps
    times rows.
    """
    coefficients = [None] * len(ybars)
    if not coefficients:
        return coefficients
    import numpy as np

    with np.errstate(all="ignore"):
        # Overflow and 0 * inf happen where the scalar sum meets them too,
        # and leave the same infinities and NaNs in the same rows.
        # an infinite bound declines the row, where the scalar raises
        log_r, kummer, size = zip(*map(_first_term, log_gammas, ybars, rs))
        r = np.array(rs, dtype=float)
        steps = _term_counts(np.array(size), r)
        kept = int(np.count_nonzero(steps))
        if not kept:
            return coefficients
        rows = np.argsort(-steps, kind="stable")[:kept]
        r, steps = r[rows], steps[rows]
        ybar = np.array(ybars, dtype=float)
        if ybar.min() == ybar.max():  # one table of floats, (8, steps, 1)
            ybar = float(ybar[0])
            scale = _scale(asymptotic_line(ybar))
            w = r / scale
            table = np.array(_coefficients(ybar, scale, int(steps[0])))[..., None]
            sums = _horner(table, -(w * w), steps)
        else:  # a table of (8, steps, rows) per block of at most _TABLE_CELLS cells
            ybar = ybar[rows]
            scale = np.array(list(map(_scale, map(asymptotic_line, ybar.tolist()))))
            w = r / scale
            t = -(w * w)
            block = _TABLE_CELLS // int(steps[0])
            parts = [slice(i, i + block) for i in range(0, kept, block)]
            sums = np.concatenate([
                _horner(np.array(_coefficients(ybar[part], scale[part], int(steps[part.start]))),
                        t[part], steps[part]) for part in parts], axis=1)
        re, im = _combine(sums, w, r / ybar, np.array(kummer)[rows],
                          np.array(psis, dtype=complex)[rows], np.array(log_r)[rows])
    for i, value in zip(rows.tolist(), map(complex, re.tolist(), im.tolist())):
        coefficients[i] = value
    return coefficients
