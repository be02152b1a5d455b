"""First-principles quadrature oracle for both excitation probabilities.

Independent check of the closed forms: the transition amplitudes are
integrated numerically from the mode functions and the atom kinematics,
then squared.  Nothing here evaluates a Gamma function or a Planck factor;
agreement with the closed forms is therefore a real two-route test.

On the real axis both amplitudes are conditionally convergent oscillatory
integrals.  Their values are fixed by the t -> t - i0 prescription
(adiabatic switching), under which each integrand is analytic in the upper
half plane of its integration variable.  Each contour is therefore
rotated a quarter turn, onto the positive imaginary axis, where the
oscillation e^{i k v} becomes the decay e^{-k s}; the rotation contributes
a constant factor i^{i k} = e^{-pi k / 2}.  What is left is a short set of
absolutely convergent integrals in sigma = ln s, integrated between
limits set by the integrand's own decay: by adaptive quadrature for
probability 1, and by a trapezoid rule for probability 2.

Probability 1 (atom accelerating past a static mirror).  With proper time
T (units c/a) and u = e^T the amplitude is 2i Im of

    e^{-i C} int_0^inf u^{i x - 1} e^{i (A1 u - A2/u)} du,

where A1 = y (1 - eps/2), A2 = y eps / 2, C = y (1 - eps) zeta.  The A2/u
phase is the GUP correction.  Kept exponentiated it also excites a
spurious beyond-all-orders sector oscillating as e^{i x ln(eps y/2)}: the
mode's deformation phase winds arbitrarily fast toward the past horizon,
outside the first-order validity of the deformed dispersion relation.
The oracle therefore integrates that factor linearized in eps,
e^{-i A2/u} -> 1 - i A2/u, matching the first-order meaning of the closed
forms.  With u = i e^sigma the amplitude becomes

    2i e^{-pi x/2} Im[ e^{-i C} J ],
    J = int e^{i x sigma - A1 e^sigma} (1 - A2 e^{-sigma}) d sigma,

Its 1 part converges only conditionally as sigma -> -inf and its A2 part
diverges there, so J is taken as a Hadamard finite part.  On sigma < 0
the first Taylor term of
e^{-A1 e^sigma} is subtracted from the 1 part and the first two from the
A2 e^{-sigma} part (with expm1), and the subtracted powers contribute
their elementary continuation value 1/(i x) - A2 (1/(i x - 1) - A1/(i x)).
At eps = 0, A2 = 0 and J is the plain Mellin integral.  Only the
imaginary part of e^{-i C} J is read, so each of the two pieces,
sigma < 0 and sigma > 0, is one real quadrature of
Im(e^{-i C} e^{i x sigma}) times a real remainder.

Probability 2 (mirror accelerating away from a static atom) has no such
sector; the exact mode is integrated as-is.  The two mode terms are exact
reflection conjugates of one another, so the amplitude is -2i Im of
e^{-i x zeta} times a single core integral.  With w = zeta + t,

    core = int_0^inf e^{i x w} w^{i ybar} (2 zeta - w)^{-i eta} dw,

ybar = y (1 - eps/2), eta = eps y / 2.  The prescription continues the
power factor across w = 2 zeta with the beyond-horizon weight
e^{-pi eta}.  With w = i s

    core = i e^{-pi ybar/2} int_0^inf e^{-x s} s^{i ybar} (2 zeta - i s)^{-i eta} ds

on the principal branch: 2 zeta - i s stays in the lower half plane, so
the rotated path never meets the cut.  Since core is i times a real
factor times an integral, the amplitude reads only the real part of
e^{-i x zeta} times that integral.  With s = e^sigma that is

    int e^{sigma - x s + eta atan2(-s, 2 zeta)}
        cos(ybar sigma - x zeta - eta ln hypot(2 zeta, s)) d sigma,

whose integrand is negligible at both ends of its range and analytic in
a strip about the real sigma axis.  A plain trapezoid rule therefore
converges geometrically on it (Trefethen and Weideman, SIAM Review 56,
2014), and the oracle integrates it with one: numpy-vectorised, on the
nodes j h with h = 2^-k, each exact in binary.  One evaluation on the
nodes j/8 gives the sums for h = 1/2, 1/4 and 1/8, where every point of
the benchmark's box stops.

Error control.  Each quadrature integrates the real projection that the
amplitude reads, and returns an error estimate for it: QUADPACK's for
probability 1, and for probability 2 the trapezoid's last difference
plus a bound on its rounding (see trapezoid).  Their sum, scaled by the
factor the pieces enter the amplitude with, is the error estimate of
the amplitude itself, reported as extrapolation_residual.  An estimate
above 1e-8 (100x the amplitude's error budget of 1e-10) raises
QuadratureConvergenceError.  The budget and the gate are fixed: nothing
sets them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .closed_form import p1_closed, p2_closed
from .units import DimensionlessConfig

__all__ = [
    "AmplitudeResult",
    "VerifyRecord",
    "QuadratureConvergenceError",
    "p1_numeric",
    "p2_numeric",
    "verify_pair",
]


class QuadratureConvergenceError(RuntimeError):
    """Raised when the quadrature error estimate exceeds its gate."""


@dataclass(frozen=True)
class AmplitudeResult:
    """Oracle output for one probability evaluation.

    probability            dimensionless P a^2 / (g^2 c^2) = |amplitude|^2 / 4
    amplitude              dimensionless transition amplitude
    extrapolation_residual error estimate of the amplitude: the summed
                           error estimates of the real quadratures it is
                           assembled from, each scaled by the factor its
                           piece enters the amplitude with
    """

    probability: float
    amplitude: complex
    extrapolation_residual: float


# ---------------------------------------------------------------------------
# quadrature primitives

_QUAD_LIMIT = 400
# Integration limits follow from the integrand's decay: the small-s end is
# cut where the dropped tail is below _NEGLIGIBLE, the large-s end where
# the exponential decay has reached e^{-_DECAY}.
_NEGLIGIBLE = 1e-17
_DECAY = 60.0
# 1e-10 budgets one full amplitude, assembled from one or two quadratures,
# so each quadrature runs a decade tighter; an amplitude whose error
# estimate exceeds 100x the budget is not certified.
_PIECE_TOLERANCE = 0.1 * 1e-10
_GATE = 100.0 * 1e-10
_QUAD_OPTIONS = {"epsabs": _PIECE_TOLERANCE, "epsrel": _PIECE_TOLERANCE, "limit": _QUAD_LIMIT}


# The trapezoid rule halves its step until two successive sums agree to
# _PIECE_TOLERANCE or to its rounding term, and takes no further halving
# that would pass this many nodes; its estimate then goes to the gate as
# it stands.
_TRAPEZOID_LIMIT = 1 << 13
# 64 u h sum|g|, with unit roundoff u = 2^-53, bounds the rounding of p2's
# trapezoid sum.  Each node rounds the exponent sigma - x s and the
# phase ybar sigma - x zeta; where |g| has its bulk in the benchmark box
# (x, y up to 2) their terms stay below 10 and 13 in size, so two
# roundings of each, and one each for exp, cos and their product, come to
# 2 (10 + 13) + 3 = 49 u |g|.  Pairwise summation of at most 2^13 values
# adds 13 u sum|g|: 62 in all, rounded up to 64.  Beyond the box the node
# errors grow as |sigma| ybar but vary in sign; on 300 random points out
# to x = 1e-6 and ybar = 12 the true error stayed below 8 u h sum|g|.
_ROUNDOFF = 64.0 * 2.0 ** -53


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only the oracle integrates, so importing the package, and every
    closed-form run, leaves scipy unloaded.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def trapezoid(f, lower: float, upper: float) -> tuple[float, float]:
    """h sum g(j h) over the nodes j h in [lower, upper], and its error estimate.

    f maps an array of nodes to two arrays: the integrand g there, and a
    modulus |g| that bounds it without oscillating (for p2, g without its
    cosine).  The rule suits integrands that are
    negligible at both limits and analytic in a strip about the real axis,
    where it converges geometrically in 1/h.  The step h starts at 1/2 and
    is halved, so every node is exact in binary and each halving adds only
    the odd multiples of the new h to the earlier sum.  f is evaluated once
    on the nodes j/8, whose sub-sums over j = 0 mod 4, j = 2 mod 4 and odd
    j are the first three of these sums; only h of 1/16 and below calls f
    again.  The rule stops when two successive sums agree to
    _PIECE_TOLERANCE, absolute or relative, or to within the rounding term
    below, past which a halving resolves only rounding noise, or before a
    halving would pass _TRAPEZOID_LIMIT nodes.

    The estimate is the last difference, which bounds the error of the
    coarser sum, plus _ROUNDOFF h sum|g| (64 u h sum|g|) for rounding,
    which sets the error once the sums agree.
    """
    import numpy as np

    first = math.ceil(lower * 8.0)
    grid = f(np.arange(first, math.floor(upper * 8.0) + 1) * 0.125)
    # the nodes j/8 with j = 0 mod 4, j = 2 mod 4 and j odd, as strided views
    levels = iter([tuple(part[(offset - first) % step::step] for part in grid)
                   for offset, step in ((0, 4), (2, 4), (1, 2))])
    h = 0.5
    values, moduli = next(levels)
    count = values.size
    total, scale = float(values.sum()), float(moduli.sum())
    value = h * total
    while True:
        h *= 0.5
        values, moduli = next(levels, None) or f(
            np.arange(math.ceil(lower / h) | 1, math.floor(upper / h) + 1, 2) * h)
        count += values.size
        total += float(values.sum())
        scale += float(moduli.sum())
        previous, value = value, h * total
        difference = abs(value - previous)
        rounding = _ROUNDOFF * h * scale
        if (difference <= _PIECE_TOLERANCE * max(1.0, abs(value)) or difference <= rounding
                or 2 * count > _TRAPEZOID_LIMIT):
            return value, difference + rounding


def _check_convergence(residual: float, what: str) -> None:
    if not residual <= _GATE:
        raise QuadratureConvergenceError(
            f"{what}: quadrature error estimate {residual:.3e} exceeds {_GATE:.3e}"
        )


# ---------------------------------------------------------------------------
# probability 1: atom accelerating past a static mirror

def _rotated_mellin(x: float, a1: float, a2: float, c: float) -> tuple[float, float]:
    """Im of e^{-i c} times the finite part of
    int e^{i x sigma - a1 e^sigma} (1 - a2 e^{-sigma}) d sigma, and its error
    estimate.

    On sigma < 0 the remainder after the subtraction behaves as
    -a1 (1 + a2 a1 / 2) e^sigma, which sets the lower limit; on sigma > 0
    the integrand is below e^{-a1 e^sigma} (1 + a2), which sets the upper
    one.
    """
    lower = math.log(_NEGLIGIBLE) - math.log(a1) - math.log1p(0.5 * a2 * a1)
    upper = max(0.0, math.log(_DECAY / a1))

    def remainder(s: float) -> float:
        z = a1 * math.exp(s)
        m = math.expm1(-z)
        return math.sin(x * s - c) * (m - a2 * math.exp(-s) * (m + z))

    def tail(s: float) -> float:
        return math.sin(x * s - c) * math.exp(-a1 * math.exp(s)) * (1.0 - a2 * math.exp(-s))

    near, near_err = quad(remainder, lower, 0.0, **_QUAD_OPTIONS)
    far, far_err = quad(tail, 0.0, upper, **_QUAD_OPTIONS)
    subtracted = 1.0 / complex(0.0, x) - a2 * (1.0 / complex(-1.0, x) - a1 / complex(0.0, x))
    return near + far + (cmath.exp(-1j * c) * subtracted).imag, near_err + far_err


def p1_numeric(d: DimensionlessConfig) -> AmplitudeResult:
    """Excitation probability of an atom accelerating past a static mirror,
    by direct quadrature of the transition amplitude.

    Raises QuadratureConvergenceError when the error estimate exceeds
    the gate of 1e-8.
    """
    a1 = d.y * (1.0 - 0.5 * d.eps)
    a2 = 0.5 * d.y * d.eps
    mirror_phase = d.y * (1.0 - d.eps) * d.zeta
    rotation = math.exp(-0.5 * math.pi * d.x)
    half, error = _rotated_mellin(d.x, a1, a2, mirror_phase)
    amp = 2j * rotation * half
    residual = 2.0 * rotation * error
    _check_convergence(residual, "probability-1 amplitude")
    return AmplitudeResult(
        probability=0.25 * abs(amp) ** 2,
        amplitude=amp,
        extrapolation_residual=residual,
    )


# ---------------------------------------------------------------------------
# probability 2: mirror accelerating away from a static atom

def _accel_mirror_core(x: float, ybar: float, eta: float, zeta: float) -> tuple[float, float]:
    """Re of e^{-i x zeta} int_0^inf e^{-x s} s^{i ybar} (2 zeta - i s)^{-i eta} ds,
    the core integral rotated to w = i s without its factor i e^{-pi ybar/2},
    and its error estimate, by the trapezoid rule in sigma = ln s.

    In sigma the integrand is bounded by e^{sigma - x e^sigma}, which
    sets both limits.
    """
    import numpy as np

    atom_phase = x * zeta
    two_zeta = 2.0 * zeta

    def integrand(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.exp(sigma)
        modulus = np.exp(sigma - x * s + eta * np.arctan2(-s, two_zeta))
        phase = ybar * sigma - atom_phase - eta * np.log(np.hypot(two_zeta, s))
        return modulus * np.cos(phase), modulus

    return trapezoid(integrand, math.log(_NEGLIGIBLE), math.log(_DECAY / x))


def p2_numeric(d: DimensionlessConfig) -> AmplitudeResult:
    """Excitation probability of a static atom facing an accelerating
    mirror, by direct quadrature of the transition amplitude: the trapezoid
    rule on the nodes j 2^-k in sigma = ln s, halving the step until two
    successive sums agree.

    Requires zeta < 1 (the atom must sit inside the mirror's right Rindler
    wedge).  Raises QuadratureConvergenceError when the error estimate
    exceeds the gate of 1e-8.
    """
    if not d.zeta < 1.0:
        raise ValueError("mirror-accelerating case requires zeta < 1")
    ybar = d.y * (1.0 - 0.5 * d.eps)
    eta = 0.5 * d.eps * d.y
    rotation = math.exp(-0.5 * math.pi * ybar)
    core, core_error = _accel_mirror_core(d.x, ybar, eta, d.zeta)
    amp = -2j * rotation * core
    residual = 2.0 * rotation * core_error
    _check_convergence(residual, "probability-2 amplitude")
    return AmplitudeResult(
        probability=0.25 * abs(amp) ** 2,
        amplitude=amp,
        extrapolation_residual=residual,
    )


# ---------------------------------------------------------------------------
# two-route comparison

# Relative deviation allowed between the two routes: 1e-3 at eps = 0, and
# 1e-2 at eps > 0, where the closed forms are first order in eps.
_BOUND_EPS0 = 1e-3
_BOUND_GUP = 1e-2


@dataclass(frozen=True)
class VerifyRecord:
    """Side-by-side numeric and closed-form values with relative deviations."""

    config: DimensionlessConfig
    p1_closed: float
    p1_numeric: float
    p2_closed: float
    p2_numeric: float
    p1_rel_dev: float
    p2_rel_dev: float
    p1_bound: float
    p2_bound: float

    @property
    def p1_within(self) -> bool:
        return self.p1_rel_dev <= self.p1_bound

    @property
    def p2_within(self) -> bool:
        return self.p2_rel_dev <= self.p2_bound

    @property
    def all_within(self) -> bool:
        return self.p1_within and self.p2_within


def _relative_deviation(numeric: float, closed: float) -> float:
    # a closed form that rounds to exactly 0 (the Planck factor does from
    # x of about 118.6) is matched only by an exact 0
    if closed == 0.0:
        return 0.0 if numeric == 0.0 else math.inf
    return abs(numeric - closed) / abs(closed)


def verify_pair(d: DimensionlessConfig) -> VerifyRecord:
    """Run both routes for both probabilities and compare.

    The deviation bound is 1e-3 at eps = 0 and 1e-2 at eps > 0, for both
    probabilities.
    Where a closed form is exactly 0, its deviation is 0 if the numeric
    value is 0 too, and inf otherwise.
    Requires zeta < 1 so the accelerating-mirror case is defined.
    Quadrature non-convergence propagates.
    """
    bound = _BOUND_EPS0 if d.eps == 0.0 else _BOUND_GUP
    closed1 = p1_closed(d).total
    closed2 = p2_closed(d).total
    numeric1 = p1_numeric(d).probability
    numeric2 = p2_numeric(d).probability
    return VerifyRecord(
        config=d,
        p1_closed=closed1,
        p1_numeric=numeric1,
        p2_closed=closed2,
        p2_numeric=numeric2,
        p1_rel_dev=_relative_deviation(numeric1, closed1),
        p2_rel_dev=_relative_deviation(numeric2, closed2),
        p1_bound=bound,
        p2_bound=bound,
    )
