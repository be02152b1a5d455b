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
absolutely convergent integrals in sigma = ln s, integrated by adaptive
quadrature between limits set by the integrand's own decay.

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

    2i Im[ e^{-i C} e^{-pi x/2} (J_0 - A2 J_1) ],
    J_k = int e^{(i x - k) sigma - A1 e^sigma} d sigma.

J_0 converges only conditionally and J_1 diverges as sigma -> -inf; both
are taken as Hadamard finite parts.  On sigma < 0 the first k + 1 Taylor
terms of e^{-A1 e^sigma} are subtracted (with expm1), and the subtracted
powers contribute their elementary continuation values, 1/(i x) for J_0
and 1/(i x - 1) - A1/(i x) for J_1.  At eps = 0 J_1 is not needed.

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
the rotated path never meets the cut.

Error control.  Each quadrature returns QUADPACK's error estimate.  Their
sum, each scaled by the factor its piece enters the amplitude with, is
the amplitude-scale error estimate reported as extrapolation_residual and
gated at 100x abs_tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .closed_form import p1_closed, p2_closed
from .units import DimensionlessConfig

__all__ = [
    "QuadratureSettings",
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
class QuadratureSettings:
    """Controls for the quadrature oracle.

    abs_tolerance   amplitude-scale error budget; an evaluation whose error
                    estimate exceeds 100x this raises
                    QuadratureConvergenceError
    """

    abs_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not self.abs_tolerance > 0.0:
            raise ValueError("abs_tolerance must be strictly positive")


@dataclass(frozen=True)
class AmplitudeResult:
    """Oracle output for one probability evaluation.

    probability            dimensionless P a^2 / (g^2 c^2) = |amplitude|^2 / 4
    amplitude              dimensionless transition amplitude
    extrapolation_residual amplitude-scale error estimate: the summed
                           quadrature error estimates, each scaled by the
                           factor its piece enters the amplitude with
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


def _piece_tolerance(q: QuadratureSettings) -> float:
    # abs_tolerance budgets one full amplitude, assembled from up to eight
    # quadratures, so each quadrature runs a decade tighter.
    return 0.1 * q.abs_tolerance


def _complex_quad(f, a: float, b: float, tol: float) -> tuple[complex, float]:
    """Integral of the complex function f over (a, b), and its error estimate."""
    re, re_err = quad(lambda t: f(t).real, a, b, epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT)
    im, im_err = quad(lambda t: f(t).imag, a, b, epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT)
    return complex(re, im), re_err + im_err


def _check_convergence(residual: float, q: QuadratureSettings, what: str) -> None:
    threshold = 100.0 * q.abs_tolerance
    if not residual <= threshold:
        raise QuadratureConvergenceError(
            f"{what}: quadrature error estimate {residual:.3e} exceeds {threshold:.3e}; "
            "abs_tolerance is below what double precision reaches at this point"
        )


# ---------------------------------------------------------------------------
# probability 1: atom accelerating past a static mirror

def _rotated_mellin(x: float, a1: float, k: int, tol: float) -> tuple[complex, float]:
    """Finite part of int e^{(i x - k) sigma - a1 e^sigma} d sigma, k in {0, 1},
    and its error estimate.

    On sigma < 0 the remainder after subtracting k + 1 Taylor terms behaves
    as a1^{k+1} e^sigma / (k+1)!, which sets the lower limit; on sigma > 0
    the integrand is below e^{-a1 e^sigma}, which sets the upper one.
    """
    lower = math.log(_NEGLIGIBLE / a1 ** (k + 1))
    upper = max(0.0, math.log(_DECAY / a1))

    def remainder(s: float) -> complex:
        z = a1 * math.exp(s)
        return cmath.exp(complex(-k * s, x * s)) * (math.expm1(-z) + k * z)

    near, near_err = _complex_quad(remainder, lower, 0.0, tol)
    far, far_err = _complex_quad(
        lambda s: cmath.exp(complex(-k * s - a1 * math.exp(s), x * s)), 0.0, upper, tol
    )
    subtracted = 1.0 / complex(0.0, x) if k == 0 else 1.0 / complex(-1.0, x) - a1 / complex(0.0, x)
    return near + far + subtracted, near_err + far_err


def p1_numeric(d: DimensionlessConfig, q: QuadratureSettings | None = None) -> AmplitudeResult:
    """Excitation probability of an atom accelerating past a static mirror,
    by direct quadrature of the transition amplitude.

    Raises QuadratureConvergenceError when the error estimate exceeds
    100x abs_tolerance.
    """
    q = q or QuadratureSettings()
    tol = _piece_tolerance(q)
    a1 = d.y * (1.0 - 0.5 * d.eps)
    a2 = 0.5 * d.y * d.eps
    mirror_phase = cmath.exp(-1j * d.y * (1.0 - d.eps) * d.zeta)
    rotation = math.exp(-0.5 * math.pi * d.x)
    half, error = _rotated_mellin(d.x, a1, 0, tol)
    if a2 > 0.0:
        correction, correction_error = _rotated_mellin(d.x, a1, 1, tol)
        half -= a2 * correction
        error += a2 * correction_error
    amp = 2j * (mirror_phase * rotation * half).imag
    residual = 2.0 * rotation * error
    _check_convergence(residual, q, "probability-1 amplitude")
    return AmplitudeResult(
        probability=0.25 * abs(amp) ** 2,
        amplitude=amp,
        extrapolation_residual=residual,
    )


# ---------------------------------------------------------------------------
# probability 2: mirror accelerating away from a static atom

def _accel_mirror_core(x: float, ybar: float, eta: float, zeta: float,
                       tol: float) -> tuple[complex, float]:
    """int_0^inf e^{i x w} w^{i ybar} (2 zeta - w)^{-i eta} dw, rotated to
    w = i s, and its error estimate.

    In sigma = ln s the integrand is bounded by e^{sigma - x e^sigma},
    which sets both limits.
    """

    def integrand(sigma: float) -> complex:
        s = math.exp(sigma)
        return cmath.exp(
            complex(sigma - x * s, ybar * sigma) - 1j * eta * cmath.log(complex(2.0 * zeta, -s))
        )

    rotation = math.exp(-0.5 * math.pi * ybar)
    value, error = _complex_quad(
        integrand, math.log(_NEGLIGIBLE), math.log(_DECAY / x), tol
    )
    return 1j * rotation * value, rotation * error


def p2_numeric(d: DimensionlessConfig, q: QuadratureSettings | None = None) -> AmplitudeResult:
    """Excitation probability of a static atom facing an accelerating
    mirror, by direct quadrature of the transition amplitude.

    Requires zeta < 1 (the atom must sit inside the mirror's right Rindler
    wedge).  Raises QuadratureConvergenceError when the error estimate
    exceeds 100x abs_tolerance.
    """
    q = q or QuadratureSettings()
    if not d.zeta < 1.0:
        raise ValueError("mirror-accelerating case requires zeta < 1")
    ybar = d.y * (1.0 - 0.5 * d.eps)
    eta = 0.5 * d.eps * d.y
    atom_phase = cmath.exp(-1j * d.x * d.zeta)
    core, core_error = _accel_mirror_core(d.x, ybar, eta, d.zeta, _piece_tolerance(q))
    amp = -2j * (atom_phase * core).imag
    residual = 2.0 * core_error
    _check_convergence(residual, q, "probability-2 amplitude")
    return AmplitudeResult(
        probability=0.25 * abs(amp) ** 2,
        amplitude=amp,
        extrapolation_residual=residual,
    )


# ---------------------------------------------------------------------------
# two-route comparison

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


def verify_pair(
    d: DimensionlessConfig,
    q: QuadratureSettings | None = None,
    bound_p1: float | None = None,
    bound_p2: float | None = None,
) -> VerifyRecord:
    """Run both routes for both probabilities and compare.

    Default deviation bounds are 1e-3 at eps = 0 and 1e-2 at eps > 0.
    Requires zeta < 1 so the accelerating-mirror case is defined.
    Quadrature non-convergence propagates.
    """
    default = 1e-3 if d.eps == 0.0 else 1e-2
    bound_p1 = default if bound_p1 is None else bound_p1
    bound_p2 = default if bound_p2 is None else bound_p2
    closed1 = p1_closed(d).total
    closed2 = p2_closed(d).total
    numeric1 = p1_numeric(d, q).probability
    numeric2 = p2_numeric(d, q).probability
    return VerifyRecord(
        config=d,
        p1_closed=closed1,
        p1_numeric=numeric1,
        p2_closed=closed2,
        p2_numeric=numeric2,
        p1_rel_dev=abs(numeric1 - closed1) / abs(closed1),
        p2_rel_dev=abs(numeric2 - closed2) / abs(closed2),
        p1_bound=bound_p1,
        p2_bound=bound_p2,
    )
