"""Complex log-Gamma and the derived phase quantities used by the closed forms.

The excitation probabilities need Arg Gamma and |Gamma| on the imaginary
axis, the digamma function at 1 + i ybar, and the thermal occupation
factor 1/(e^{2 pi w} - 1).  log-Gamma and digamma are implemented here
(Lanczos approximation with reflection; recurrence and asymptotic
series) so the whole package has identical Gamma behavior everywhere,
independent of platform library quirks.

log_gamma, digamma and gamma_phase_set are memoised with a small
bounded LRU cache each; gamma_phase_set is keyed by x alone.  A zeta
sweep repeats the same x and ybar in every row, and an omega0 sweep the
same ybar, so most rows reuse the Gamma values of the row before.  All
three are pure functions of their float or complex arguments and return
immutable values, so a cached result is bit-identical to a fresh one;
exceptions are not cached.
Arguments that compare equal share an entry, and the only such pairs
that are different numbers are signed zeros: log_gamma and digamma
read a zero imaginary part as +0, so the entry does not depend on which
sign came first.  `cache_clear()` on each function empties its cache.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["GammaPhaseSet", "log_gamma", "digamma", "gamma_phase_set", "planck_factor"]

# Lanczos coefficients, g = 7, n = 9.  Relative accuracy ~1e-14 on the
# right half plane; reflection extends that to Re z < 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO_I = complex(math.log(2.0), 0.5 * math.pi)  # log(2i); log(-2i) is its conjugate
# Entries per cache.  A sweep row asks log_gamma for at most three distinct
# arguments and the other two for one each, so the values one row needs are
# still cached when the next row asks for them.
_CACHE_SIZE = 64


def _log_gamma_right(z: complex) -> complex:
    """Lanczos series, valid for Re z >= 0.5."""
    zm1 = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += coeff / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(series)


@lru_cache(maxsize=_CACHE_SIZE)
def log_gamma(z: complex) -> complex:
    """log Gamma(z): log|Gamma| as real part, argument as imaginary part.

    exp(log_gamma(z)) reproduces Gamma(z) to relative ~1e-12 for
    |Re z| <= 20, |Im z| <= 50.  Reflection is used for Re z < 0.5.
    The imaginary part is continuous on the right half plane; across the
    reflection seam it may differ from the principal log-Gamma branch by a
    multiple of 2*pi*i, which exp() cannot see.  Where sin(pi z) in the
    reflection overflows (|Im z| above about 226), log sin(pi z) is taken
    from its exponential form instead.

    Raises ValueError at the poles (nonpositive integers).
    """
    z = complex(z.real, z.imag + 0.0)  # -0.0 + 0.0 is +0.0
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise ValueError(f"log_gamma pole at z={z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        try:
            s = cmath.sin(cmath.pi * z)
        except OverflowError:
            return math.log(math.pi) - _log_sin_pi_far(z) - _log_gamma_right(1.0 - z)
        if s == 0:
            raise ValueError(f"log_gamma pole at z={z}")
        return math.log(math.pi) - cmath.log(s) - _log_gamma_right(1.0 - z)
    return _log_gamma_right(z)


def _log_sin_pi_far(z: complex) -> complex:
    """log sin(pi z) for large |Im z|, where sin(pi z) itself overflows.

    log sin(pi z) = +-i pi z - log(+-2i) + log1p(-e^{-+2 i pi z}), upper
    signs for Im z < 0.  The log1p term has modulus e^{-2 pi |Im z|},
    below the smallest double wherever sin overflows, so it is dropped.
    """
    w = cmath.pi * z
    if z.imag < 0.0:
        return 1j * w - _LOG_TWO_I
    return -1j * w - _LOG_TWO_I.conjugate()


@lru_cache(maxsize=_CACHE_SIZE)
def digamma(z: complex) -> complex:
    """psi(z) = d log Gamma(z) / dz for Re z > 0.

    The recurrence psi(z) = psi(z + 1) - 1/z moves the argument to
    Re z >= 7, where the asymptotic series through z^-12 is accurate to
    ~2e-13 absolute.
    """
    z = complex(z.real, z.imag + 0.0)  # -0.0 + 0.0 is +0.0
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


@dataclass(frozen=True)
class GammaPhaseSet:
    """The Gamma quantities the accelerating-atom closed form reads.

    theta           Arg Gamma(-i x)
    omega_cos_delta Omega cos Delta; equals -1/(1+x^2) analytically
    omega_sin_delta Omega sin Delta; equals x/(1+x^2) analytically

    with Omega = |Gamma(-i x - 1)| / |Gamma(-i x)| and Delta the difference
    of the principal-branch arguments of Gamma(-i x - 1) and Gamma(-i x).
    Only cos/sin of phase combinations enter probabilities, so the branch
    choice is free but must be reproducible.
    """

    theta: float
    omega_cos_delta: float
    omega_sin_delta: float


@lru_cache(maxsize=_CACHE_SIZE)
def gamma_phase_set(x: float) -> GammaPhaseSet:
    """Evaluate the Gamma phases at atom frequency x."""
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    lg_x = log_gamma(complex(0.0, -x))
    lg_x1 = log_gamma(complex(-1.0, -x))
    theta = _principal(lg_x.imag)
    delta_phase = _principal(lg_x1.imag) - theta
    omega_ratio = math.exp(lg_x1.real - lg_x.real)
    return GammaPhaseSet(theta, omega_ratio * math.cos(delta_phase),
                         omega_ratio * math.sin(delta_phase))


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
