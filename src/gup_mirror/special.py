"""log-Gamma on the imaginary axis, digamma and the Planck factor used by the closed forms.

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

Nothing here is memoised.  Every function is pure, so a caller that
needs one value for many rows computes it once: the runner keys each
closed form's zeta-free factors on the inputs they read (see
closed_form), so a sweep evaluates each Gamma value it needs once per
run of rows that share those inputs.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat

__all__ = ["log_gamma", "digamma", "gamma_phase_set", "planck_factor"]

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
