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
limits set by the integrand's own decay, both by one trapezoid rule.

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
diverges there, so J is taken as a Hadamard finite part.  On sigma <= 0
the first Taylor term of e^{-A1 e^sigma} is subtracted from the 1 part
and the first two from the A2 e^{-sigma} part (with expm1).  The
subtracted powers, (1 + A1 A2) e^{i x sigma} - A2 e^{(i x - 1) sigma},
are summed over the nodes in closed form: Abel sums of geometric series,
whose limit as the step goes to 0 is their finite part
1/(i x) - A2 (1/(i x - 1) - A1/(i x)).  At eps = 0, A2 = 0 and J is the
plain Mellin integral.  Only the imaginary part of e^{-i C} J is read,
so the nodes carry one real integrand, Im(e^{-i C} e^{i x sigma}) =
sin(x sigma - C) times a real remainder.

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

whose integrand is negligible at both ends of its range.

The rule.  Both integrands, p1's with its Abel sums, are analytic in a
strip about the real sigma axis, so a plain trapezoid rule converges
geometrically on them (Trefethen and Weideman, SIAM Review 56, 2014).
The oracle integrates each with one, numpy-vectorised, on the nodes j h
with h = 2^-k, each exact in binary (see quad).  The start step follows
the integrand's frequency omega (x for p1, ybar for p2): the largest
2^-k <= min(1/2, pi / (omega + 4)), so no aliased frequency lies near
zero and p1's Abel sums never meet their poles at x h = 2 pi n.  Where
the rotation e^{-pi omega/2} has underflowed to 0, from omega of about
474.4, the amplitude is 0 and no sum is taken, so h never falls below
2^-8.  One evaluation on nodes at most 1/8 apart gives the first sums,
down to h = 1/8, where every point of the benchmark's box stops.  Each
evaluation fills one array, the projection and its modulus as two rows,
and each level of the rule is one reduction of it.  Where eps = 0 the
GUP factors A2 and eta are exact zeros, and the terms they multiply are
not evaluated, since they would add exact zeros; p1's remainder takes
its sigma <= 0 form on the leading nodes and its sigma > 0 form on the
rest, so its nodes must ascend.

Error control.  The rule returns an error estimate for the real
projection it sums: its last difference plus a bound on its rounding.
Scaled by the factor the projection enters the amplitude with, that is
the error estimate of the amplitude itself, reported as
extrapolation_residual.  An estimate above 1e-8 (100x the amplitude's
error budget of 1e-10) raises QuadratureConvergenceError.  The budget
and the gate are fixed: nothing sets them.

The comparison.  verify_pair is the one place where the two routes
meet.  Its VerifyRecord holds both closed-form breakdowns, both oracle
probabilities, their relative deviations and the one bound both are
held to; the runner's verify rows are read from it.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .closed_form import ProbabilityBreakdown, p1_closed, p2_closed
from .units import DimensionlessConfig, deformed_frequencies

__all__ = [
    "AmplitudeResult",
    "VerifyRecord",
    "QuadratureConvergenceError",
    "p1_numeric",
    "p2_numeric",
    "verify_pair",
]


class QuadratureConvergenceError(RuntimeError):
    """Raised when the quadrature error estimate exceeds its gate, or where
    the integrand does not decay within the range of doubles."""


class AmplitudeResult(NamedTuple):
    """Oracle output for one probability evaluation.

    probability            dimensionless P a^2 / (g^2 c^2) = |amplitude|^2 / 4
    amplitude              dimensionless transition amplitude
    extrapolation_residual error estimate of the amplitude: the error
                           estimate of the real quadrature it is
                           assembled from, scaled by the factor that
                           enters the amplitude with
    """

    probability: float
    amplitude: complex
    extrapolation_residual: float


# ---------------------------------------------------------------------------
# quadrature primitives

# Integration limits follow from the integrand's decay: the small-s end is
# cut where the dropped tail is below _NEGLIGIBLE, the large-s end where
# the exponential decay has reached e^{-_DECAY}.
_NEGLIGIBLE = 1e-17
_DECAY = 60.0
# 1e-10 budgets one full amplitude, and its one quadrature runs a decade
# tighter; an amplitude whose error estimate exceeds 100x the budget is
# not certified.
_PIECE_TOLERANCE = 0.1 * 1e-10
_GATE = 100.0 * 1e-10
# The rule halves its step until two successive sums agree to
# _PIECE_TOLERANCE or to its rounding term, and takes no further halving
# that would pass this many nodes; its estimate then goes to the gate as
# it stands.
_TRAPEZOID_LIMIT = 1 << 13
# 64 u h sum|g|, with unit roundoff u = 2^-53, bounds the rounding of a
# sum over the nodes.  Each node rounds an exponent and a phase: p2's
# sigma - x s and ybar sigma - x zeta, p1's a1 e^sigma and x sigma - c.
# Where |g| has its bulk in the benchmark box (x, y up to 2) their terms
# stay below 10 and 13 in size, so two roundings of each, and one each
# for the exponential, the sine or cosine and their product, come to
# 2 (10 + 13) + 3 = 49 u |g|.  Pairwise summation of at most 2^13 values
# adds 13 u sum|g|: 62 in all, rounded up to 64.  Beyond the box the node
# errors grow as |sigma| times the frequency but vary in sign; on 300
# random points out to x = 1e-6 and ybar = 12 p2's true error stayed
# below 8 u h sum|g|, and from x = 30 to 300 p1's stayed within the
# estimate.
_ROUNDOFF = 64.0 * 2.0 ** -53
# 8 u bounds the rounding of p1's Abel sums relative to the moduli of
# their terms.  The power term's rounding, a tangent, its reciprocal, the
# shift 1 + a1 a2 and its product, e^{-i c}, the difference and the
# complex product, comes to 6 u of its modulus; the inverse term's, with
# a complex tanh and a complex division in place of the tangent, to about
# 10 u of its own, but for eps < 0.1 that term is below a ninth of the
# power term (a2 / (1 + a1 a2) < 0.11), so 8 u of their sum covers both.
# Against 50-digit sums the error stayed within 5.2 u on 213 points, x
# from 2e-7 to 100; at small x the power term is about 1/x, and so is the
# amplitude, whose certificate this term ends below x of about 2.7e-7.
_ABEL_ROUNDOFF = 8.0 * 2.0 ** -53


def _decay_limit(rate: float) -> float:
    """ln s at which e^{-rate s} has fallen to e^{-_DECAY}.

    Raises QuadratureConvergenceError where that s overflows a double, for
    a rate below about 3.3e-307: the integrand does not decay within the
    doubles, so no sum can meet the gate.
    """
    s = _DECAY / rate
    if s == math.inf:
        raise QuadratureConvergenceError(f"decay rate {rate!r}: the integrand does not decay "
                                         "within the range of doubles")
    return math.log(s)


def quad(f, lower: float, upper: float, omega: float, abel=None) -> tuple[float, float]:
    """h sum g(j h) over the nodes j h in [lower, upper], plus abel(h)'s sum
    if given, and its error estimate.

    f maps an ascending array of n nodes to one float64 array of shape
    (2, n): row 0 the integrand g there, row 1 a modulus |g| that bounds
    it without oscillating (g without its sine or cosine).  abel(h)
    returns the Abel sum at step h of terms that were subtracted from g
    because they do not decay (p1's, on sigma <= 0), and a bound on its
    rounding.  The rule suits integrands that are
    negligible at both limits, or made so by abel, and analytic in a strip
    about the real axis, where it converges geometrically in 1/h: its
    error is the sum of the integrand's Fourier transform at the aliased
    frequencies omega + 2 pi k / h, k != 0, which fall as
    e^{-pi |2 pi k / h - omega| / 2}.  So the step h starts at the
    largest 2^-k <= min(1/2, pi / (omega + 4)), where omega is the
    integrand's frequency; then omega h < pi, no alias lies within
    omega + 8 of zero frequency, and abel never meets its poles at
    omega h = 2 pi n.  h is halved from there, so every node is exact in
    binary and each halving adds only the odd multiples of the new h to
    the earlier sum.  f is evaluated once on the nodes j 2^-k, at most 1/8
    apart, whose strided sub-sums are the sums down to that spacing (the
    h = 1/2, 1/4 and 1/8 sums at small omega); only a finer h calls f
    again.  Each level's nodes are one strided view of f's array, summed
    in one reduction along its rows, each row numpy's pairwise sum.  The
    rule stops when two successive sums agree to _PIECE_TOLERANCE,
    absolute or relative, or to within the rounding term below, past
    which a halving resolves only rounding noise, or before a halving
    would pass _TRAPEZOID_LIMIT nodes.

    The estimate is the last difference, which bounds the error of the
    coarser sum, plus _ROUNDOFF h sum|g| and abel's bound for rounding,
    which set the error once the sums agree.
    """
    import numpy as np

    h = 0.5
    while h * (omega + 4.0) > math.pi:
        h *= 0.5
    spacing = min(h, 0.125)
    first = math.ceil(lower / spacing)
    grid = f(np.arange(first, math.floor(upper / spacing) + 1) * spacing)
    # the nodes of each h down to the spacing, as strided views (offset,
    # stride) of the grid: every multiple of the first h, then the odd
    # multiples of each halved h
    step = round(h / spacing)
    views = [(0, step)] + [(s // 2, s) for s in (step >> k for k in range(step.bit_length() - 1))]
    levels = iter([grid[:, (offset - first) % s::s] for offset, s in views])
    count, total, scale, value = 0, 0.0, 0.0, None
    while True:
        level = next(levels, None)
        if level is None:
            level = f(np.arange(math.ceil(lower / h) | 1, math.floor(upper / h) + 1, 2) * h)
        # each row's own pairwise sum, both rows in one reduction
        values_sum, moduli_sum = np.add.reduce(level, axis=1).tolist()
        count += level.shape[1]
        total += values_sum
        scale += moduli_sum
        tail, tail_rounding = abel(h) if abel else (0.0, 0.0)
        previous, value = value, h * total + tail
        if previous is not None:
            difference = abs(value - previous)
            rounding = _ROUNDOFF * h * scale + tail_rounding
            if (difference <= _PIECE_TOLERANCE * max(1.0, abs(value)) or difference <= rounding
                    or 2 * count > _TRAPEZOID_LIMIT):
                return value, difference + rounding
        h *= 0.5


def _certified(factor: complex, integral, what: str) -> AmplitudeResult:
    """The amplitude factor * value, with the error estimate |factor| error,
    where (value, error) = integral(); raises QuadratureConvergenceError when
    that exceeds the gate.

    A factor that has underflowed to 0 (the rotation e^{-pi omega / 2}
    does from omega of about 474.4) gives the amplitude 0 without a sum,
    so the rule's step, which shrinks as omega grows, stays bounded.
    """
    if factor == 0.0:
        return AmplitudeResult(probability=0.0, amplitude=0j, extrapolation_residual=0.0)
    value, error = integral()
    amp = factor * value
    residual = abs(factor) * error
    if not residual <= _GATE:
        raise QuadratureConvergenceError(
            f"{what}: quadrature error estimate {residual:.3e} exceeds {_GATE:.3e}"
        )
    return AmplitudeResult(probability=0.25 * abs(amp) ** 2, amplitude=amp,
                           extrapolation_residual=residual)


# ---------------------------------------------------------------------------
# probability 1: atom accelerating past a static mirror

def _rotated_mellin(x: float, a1: float, a2: float, c: float) -> tuple[float, float]:
    """Im of e^{-i c} times the finite part of
    int e^{i x sigma - a1 e^sigma} (1 - a2 e^{-sigma}) d sigma, and its error
    estimate, by the trapezoid rule with Abel sums.

    On sigma <= 0 the nodes carry the remainder after the subtraction,
    which behaves as -a1 (1 + a2 a1 / 2) e^sigma and sets the lower limit;
    on sigma > 0 the integrand is below e^{-a1 e^sigma} (1 + a2), which
    sets the upper one.  The subtracted terms,
    (1 + a1 a2) e^{i x sigma} - a2 e^{(i x - 1) sigma}, are summed over
    the nodes j h <= 0 in closed form: h sum e^{lambda j h} is
    (h/2) (1 + coth(lambda h / 2)), Abel-summed for lambda = i x, where it
    is (h/2) (1 - i cot(x h / 2)), and continued analytically for the
    growing lambda = i x - 1.

    The integrand takes ascending nodes: each form of the remainder is
    evaluated only on its own side of sigma = 0.  Where a2 is 0 (eps = 0)
    the terms it multiplies, in the remainder and in the Abel sums, are
    exact zeros and are skipped.
    """
    import numpy as np

    lower = math.log(_NEGLIGIBLE) - math.log(a1) - math.log1p(0.5 * a2 * a1)
    upper = max(0.0, _decay_limit(a1))
    phase = cmath.exp(-1j * c)

    def integrand(sigma: np.ndarray) -> np.ndarray:
        # -z = -a1 e^sigma; negating a1 first rounds to the same bits
        minus_z = -a1 * np.exp(sigma)
        # the nodes ascend: those up to sigma = 0 carry the subtracted form
        split = np.searchsorted(sigma, 0.0, side="right")
        out = np.empty((2, sigma.size))
        decay = out[1]
        np.expm1(minus_z[:split], out=decay[:split])
        np.exp(minus_z[split:], out=decay[split:])
        if a2:
            inverse = a2 * np.exp(-sigma)
            decay[:split] -= inverse[:split] * (decay[:split] - minus_z[:split])
            decay[split:] *= 1.0 - inverse[split:]
        np.multiply(np.sin(x * sigma - c), decay, out=out[0])
        np.abs(decay, out=decay)
        return out

    def abel(h: float) -> tuple[float, float]:
        half = 0.5 * h
        # x h / 2 rounds to 0 only for x near the smallest double, where
        # the cotangent is taken as its limit, inf, and the sum as nan
        t = x * half
        power = (1.0 + a1 * a2) * half * complex(1.0, -1.0 / math.tan(t) if t else -math.inf)
        if not a2:
            return (phase * power).imag, _ABEL_ROUNDOFF * abs(power)
        inverse = a2 * half * (1.0 + 1.0 / cmath.tanh(complex(-half, x * half)))
        return (phase * (power - inverse)).imag, _ABEL_ROUNDOFF * (abs(power) + abs(inverse))

    return quad(integrand, lower, upper, x, abel)


def p1_numeric(d: DimensionlessConfig) -> AmplitudeResult:
    """Excitation probability of an atom accelerating past a static mirror,
    by direct quadrature of the transition amplitude: the trapezoid rule
    on the nodes j 2^-k in sigma = ln s, with the Abel sums of the terms
    subtracted on sigma <= 0, halving the step until two successive sums
    agree.

    Raises QuadratureConvergenceError when the error estimate exceeds
    the gate of 1e-8.
    """
    drift, a1, a2 = deformed_frequencies(d.y, d.eps)
    mirror_phase = drift * d.zeta
    rotation = math.exp(-0.5 * math.pi * d.x)
    return _certified(2j * rotation, lambda: _rotated_mellin(d.x, a1, a2, mirror_phase),
                      "probability-1 amplitude")


# ---------------------------------------------------------------------------
# probability 2: mirror accelerating away from a static atom

def _accel_mirror_core(x: float, ybar: float, eta: float, zeta: float) -> tuple[float, float]:
    """Re of e^{-i x zeta} int_0^inf e^{-x s} s^{i ybar} (2 zeta - i s)^{-i eta} ds,
    the core integral rotated to w = i s without its factor i e^{-pi ybar/2},
    and its error estimate, by the trapezoid rule in sigma = ln s.

    In sigma the integrand is bounded by e^{sigma - x e^sigma}, which
    sets both limits.  Where eta is 0 (eps = 0) the terms it multiplies,
    eta atan2(-s, 2 zeta) and eta ln hypot(2 zeta, s), are exact zeros and
    are skipped.
    """
    import numpy as np

    atom_phase = x * zeta
    two_zeta = 2.0 * zeta

    def integrand(sigma: np.ndarray) -> np.ndarray:
        s = np.exp(sigma)
        exponent = sigma - x * s
        phase = ybar * sigma - atom_phase
        if eta:
            exponent += eta * np.arctan2(-s, two_zeta)
            phase -= eta * np.log(np.hypot(two_zeta, s))
        out = np.empty((2, sigma.size))
        np.exp(exponent, out=out[1])
        np.multiply(out[1], np.cos(phase), out=out[0])
        return out

    return quad(integrand, math.log(_NEGLIGIBLE), _decay_limit(x), ybar)


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
    _, ybar, eta = deformed_frequencies(d.y, d.eps)
    rotation = math.exp(-0.5 * math.pi * ybar)
    return _certified(-2j * rotation, lambda: _accel_mirror_core(d.x, ybar, eta, d.zeta),
                      "probability-2 amplitude")


# ---------------------------------------------------------------------------
# two-route comparison

# Relative deviation allowed between the two routes: 1e-3 at eps = 0, and
# 1e-2 at eps > 0, where the closed forms are first order in eps.
_BOUND_EPS0 = 1e-3
_BOUND_GUP = 1e-2


class VerifyRecord(NamedTuple):
    """Both routes for both probabilities at one point: the closed-form
    breakdowns, the oracle probabilities, their relative deviations, and
    the bound the deviations are held to."""

    config: DimensionlessConfig
    p1_breakdown: ProbabilityBreakdown
    p2_breakdown: ProbabilityBreakdown
    p1_numeric: float
    p2_numeric: float
    p1_rel_dev: float
    p2_rel_dev: float
    bound: float


def _relative_deviation(numeric: float, closed: float) -> float:
    # a closed form that rounds to exactly 0 (the Planck factor does from
    # x of about 118.6) is matched only by an exact 0
    if closed == 0.0:
        return 0.0 if numeric == 0.0 else math.inf
    return abs(numeric - closed) / abs(closed)


def verify_pair(d: DimensionlessConfig) -> VerifyRecord:
    """Run both routes for both probabilities and compare: the one place
    where the closed forms meet the oracle.

    The deviation bound is 1e-3 at eps = 0 and 1e-2 at eps > 0, for both
    probabilities.
    Where a closed form is exactly 0, its deviation is 0 if the numeric
    value is 0 too, and inf otherwise.
    Requires zeta < 1 so the accelerating-mirror case is defined.
    Quadrature non-convergence propagates.
    """
    closed1 = p1_closed(d)
    closed2 = p2_closed(d)
    numeric1 = p1_numeric(d).probability
    numeric2 = p2_numeric(d).probability
    return VerifyRecord(
        config=d,
        p1_breakdown=closed1,
        p2_breakdown=closed2,
        p1_numeric=numeric1,
        p2_numeric=numeric2,
        p1_rel_dev=_relative_deviation(numeric1, closed1.total),
        p2_rel_dev=_relative_deviation(numeric2, closed2.total),
        bound=_BOUND_EPS0 if d.eps == 0.0 else _BOUND_GUP,
    )
