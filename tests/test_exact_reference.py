"""Quadrature oracle against exact amplitudes evaluated with mpmath.

The contour-rotated amplitudes have closed forms in Gamma and Tricomi
functions.  They are evaluated here at 30 digits as a third route; the
package itself never calls them.

    probability 1:  2i Im[ e^{-i C} (G_0 - i A2 G_1) ],
                    G_k = Gamma(i x - k) (-i A1)^{k - i x}
    probability 2:  -2i Im[ e^{-i x zeta} core ],
                    core = i i^{i ybar} (-i)^{-i eta} Gamma(1 + i ybar)
                           c^{1 + i ybar - i eta} U(1 + i ybar, 2 + i ybar - i eta, c x)

with A1 = ybar = y (1 - eps/2), A2 = eta = eps y / 2, C = y (1 - eps) zeta
and c = 2i zeta.  To first order in eta, U(a, a + 1 - i eta, z) =
z^{-a} (1 - i eta L) with a = 1 + i ybar, z = c x and L = z^a dU/db at
b = a + 1; that coefficient is what the closed form for probability 2
evaluates, and it is checked here against mpmath's derivative of U.

The trapezoid rule that both probabilities use is also checked against
itself evaluated one halving at a time.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from gup_mirror import (
    CODATA,
    DimensionlessConfig,
    log_gamma,
    p1_numeric,
    p2_closed,
    p2_closed_si,
    p2_numeric,
    physical_from_dimensionless,
    planck_factor,
    to_dimensionless,
)
from gup_mirror import amplitude
from gup_mirror.closed_form import _ASYMPTOTIC_MIN_Z, _ASYMPTOTIC_SLOPE, _gup_coefficient

mpmath = pytest.importorskip("mpmath")

CRITERION_2_GRID = [
    DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
    for x, y, zeta, eps in itertools.product(
        (0.7, 1.1, 1.9), (0.7, 1.2, 2.0), (0.35, 0.55, 0.8), (0.0, 1e-3, 1e-2)
    )
]
DEFAULT_GRID = [
    DimensionlessConfig(x=x, y=y, zeta=zeta, eps=0.0)
    for x, y, zeta in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (0.3, 0.5, 0.9))
]


def _parameters(d):
    x, y, zeta, eps = (mpmath.mpf(v) for v in (d.x, d.y, d.zeta, d.eps))
    return x, y, zeta, eps, y * (1 - eps / 2), eps * y / 2


def p1_reference(d) -> complex:
    with mpmath.workdps(30):
        x, y, zeta, eps, a1, a2 = _parameters(d)
        base = mpmath.gamma(1j * x) * mpmath.power(-1j * a1, -1j * x)
        correction = mpmath.gamma(1j * x - 1) * mpmath.power(-1j * a1, 1 - 1j * x)
        half = mpmath.exp(-1j * y * (1 - eps) * zeta) * (base - 1j * a2 * correction)
        return complex(2j * mpmath.im(half))


def p2_reference(d) -> complex:
    with mpmath.workdps(30):
        x, _, zeta, _, ybar, eta = _parameters(d)
        c = 2j * zeta
        core = (
            1j * mpmath.power(1j, 1j * ybar) * mpmath.power(-1j, -1j * eta)
            * mpmath.gamma(1 + 1j * ybar) * mpmath.power(c, 1 + 1j * ybar - 1j * eta)
            * mpmath.hyperu(1 + 1j * ybar, 2 + 1j * ybar - 1j * eta, c * x)
        )
        return complex(-2j * mpmath.im(mpmath.exp(-1j * x * zeta) * core))


def _rel_dev(numeric, reference: complex) -> float:
    exact = 0.25 * abs(reference) ** 2
    return abs(numeric.probability - exact) / exact


@pytest.mark.parametrize("grid", [CRITERION_2_GRID, DEFAULT_GRID], ids=["criterion-2", "default"])
def test_oracle_matches_exact_reference_on_grids(grid):
    worst1 = max(_rel_dev(p1_numeric(d), p1_reference(d)) for d in grid)
    worst2 = max(_rel_dev(p2_numeric(d), p2_reference(d)) for d in grid)
    assert worst1 <= 1e-10 and worst2 <= 1e-10, (worst1, worst2)


ESTIMATE_POINTS = [(1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 0.5, 0.01), (0.7, 2.0, 0.8, 0.01),
                   (5.0, 8.0, 0.3, 0.0)]
ESTIMATE_POINTS += [p for p in ((d.x, d.y, d.zeta, d.eps) for d in CRITERION_2_GRID + DEFAULT_GRID)
                    if p not in ESTIMATE_POINTS]


@pytest.mark.parametrize("x, y, zeta, eps", ESTIMATE_POINTS)
@pytest.mark.parametrize("oracle, reference", [(p1_numeric, p1_reference), (p2_numeric, p2_reference)],
                         ids=["p1", "p2"])
def test_error_estimate_bounds_true_error(oracle, reference, x, y, zeta, eps):
    d = DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
    result = oracle(d)
    assert result.extrapolation_residual >= 0.0
    assert abs(result.amplitude - reference(d)) <= result.extrapolation_residual


def test_benchmark_seed_610_point_converges():
    # drawn by the oracle benchmark at seed 610, where an earlier oracle
    # could not certify p1
    d = DimensionlessConfig(x=1.8513697591308413, y=0.9170572275599016,
                            zeta=0.5872387206142642, eps=0.0)
    assert _rel_dev(p1_numeric(d), p1_reference(d)) <= 1e-10
    assert _rel_dev(p2_numeric(d), p2_reference(d)) <= 1e-10


@pytest.mark.parametrize("point, bound", [((5.0, 8.0, 0.3, 0.0), 1e-6),
                                          ((10.0, 8.0, 0.3, 0.099), 1e-5)])
def test_planck_suppressed_points(point, bound):
    # the amplitudes are below the absolute tolerance of 1e-10 here, so the
    # error gate does not certify them; this checks their relative accuracy
    d = DimensionlessConfig(*point)
    assert _rel_dev(p1_numeric(d), p1_reference(d)) <= bound
    assert _rel_dev(p2_numeric(d), p2_reference(d)) <= bound


LARGE_YBAR_POINTS = [((1.0, 10.0, 0.5, 0.0), 5e-10), ((1.0, 15.0, 0.5, 0.0), 1e-6),
                     ((1e-6, 1.0, 0.5, 0.0), 2e-14), ((1.8e-6, 11.35, 0.099, 0.01), 2e-7)]


@pytest.mark.parametrize("point, bound", LARGE_YBAR_POINTS)
def test_p2_trapezoid_at_large_ybar_and_small_x(monkeypatch, point, bound):
    # measured errors 2.4e-11, 3.0e-8, 1.5e-15 and 1.7e-8, so each bound
    # has a margin of 10x or more; at y = 15 the integral's cancellation to
    # e^{-pi ybar/2} of its size already costs digits, and from y of about
    # 30 none are left.  At x = 1e-6 the amplitude is about 1.3e5 and its
    # estimate 3.1e-9, still inside the gate.  At x = 1.8e-6, y = 11.35
    # rounding keeps successive sums from agreeing to the piece tolerance;
    # the rule stops once they agree to within its rounding term, at 904
    # nodes
    nodes = []
    original = amplitude.quad
    monkeypatch.setattr(amplitude, "quad",
                        lambda f, *rest: original(lambda t: nodes.append(t.size) or f(t), *rest))
    d = DimensionlessConfig(*point)
    result = p2_numeric(d)
    reference = p2_reference(d)
    assert _rel_dev(result, reference) <= bound
    assert abs(result.amplitude - reference) <= result.extrapolation_residual <= 1e-8
    assert sum(nodes) <= 1024


def pass_by_pass_quad(f, lower, upper, omega, abel=None):
    """The rule one halving at a time: f evaluated on the nodes of the
    start step, the largest 2^-k <= min(1/2, pi / (omega + 4)), then on the
    odd multiples of each halved h, with abel's sum and rounding added at
    each h, and amplitude.quad's stopping test."""
    h = 2.0 ** -max(1, math.ceil(math.log2((omega + 4.0) / math.pi)))
    values, moduli = f(np.arange(math.ceil(lower / h), math.floor(upper / h) + 1) * h)
    count = values.size
    total, scale = float(values.sum()), float(moduli.sum())
    value = h * total + (abel(h)[0] if abel else 0.0)
    while True:
        h *= 0.5
        values, moduli = f(np.arange(math.ceil(lower / h) | 1, math.floor(upper / h) + 1, 2) * h)
        count += values.size
        total += float(values.sum())
        scale += float(moduli.sum())
        tail, tail_rounding = abel(h) if abel else (0.0, 0.0)
        previous, value = value, h * total + tail
        difference = abs(value - previous)
        rounding = amplitude._ROUNDOFF * h * scale + tail_rounding
        if (difference <= amplitude._PIECE_TOLERANCE * max(1.0, abs(value)) or difference <= rounding
                or 2 * count > amplitude._TRAPEZOID_LIMIT):
            return value, difference + rounding


# points whose start step is below 1/2 for at least one probability
FINE_START_POINTS = [DimensionlessConfig(*point) for point in (
    (4.0 * math.pi, 1.0, 0.5, 0.0), (30.0, 1.0, 0.5, 0.0), (200.0, 1.0, 0.5, 0.01),
    (10.0, 8.0, 0.3, 0.099), (1.0, 120.0, 0.5, 0.0))]


@pytest.mark.parametrize("points", [
    CRITERION_2_GRID,
    DEFAULT_GRID,
    [DimensionlessConfig(*point) for point, _ in LARGE_YBAR_POINTS],
    FINE_START_POINTS,
], ids=["criterion-2", "default", "large-ybar", "fine-start"])
def test_trapezoid_equals_pass_by_pass_rule(monkeypatch, points):
    # one evaluation on the nodes of the start step, or on those of 1/8
    # when the start step is coarser, gives the first sums to the bit, in
    # value and in estimate, for both probabilities
    original, calls = amplitude.quad, []
    monkeypatch.setattr(amplitude, "quad", lambda *args: calls.append(args) or original(*args))
    for d in points:
        for oracle in (p1_numeric, p2_numeric):
            oracle(d)
            args = calls.pop()
            expected = [v.hex() for v in pass_by_pass_quad(*args)]
            assert [v.hex() for v in original(*args)] == expected, (oracle.__name__, d)


@pytest.mark.parametrize("x, y, zeta, eps", [
    (4.0 * math.pi, 1.0, 0.5, 0.0), (30.0, 1.0, 0.5, 0.0), (200.0, 1.0, 0.5, 0.01),
    (10.0, 8.0, 0.3, 0.099), (5e-7, 1.0, 0.5, 0.0), (5e-7, 1.0, 0.5, 0.01)])
def test_p1_integrand_matches_scalar_complex_form(monkeypatch, x, y, zeta, eps):
    # the vectorised integrand and Abel sums against the complex forms they
    # project: Im e^{-i c} of e^{i x sigma - z} (1 - a2 e^{-sigma}) less
    # (1 + a1 a2) e^{i x sigma} - a2 e^{(i x - 1) sigma} on sigma <= 0,
    # and of h / (1 - e^{-i x h}) and h / (1 - e^{(1 - i x) h}), summed
    # here at 60 digits, which the GUP terms' cancellation near the lower
    # limit, from 1e17 to 1e-17, needs.  Each node is within
    # (400 + 2 |x sigma|) u of its size, a few hundred ulps plus the
    # rounding of the sine's argument, plus 4 u a1 a2: at small
    # z = a1 e^sigma, expm1(-z) + z keeps only the rounding of expm1, 2 u z,
    # which a2 e^{-sigma} scales to 2 u a1 a2
    original, captured = amplitude.quad, []
    monkeypatch.setattr(amplitude, "quad", lambda *args: captured.append(args) or original(*args))
    d = DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
    p1_numeric(d)
    f, lower, _, omega, abel = captured[0]
    assert omega == x
    a1, a2, c = y * (1.0 - 0.5 * eps), 0.5 * y * eps, y * (1.0 - eps) * zeta
    sigma = np.arange(math.ceil(2.0 * lower), 9) * 0.5
    values, moduli = f(sigma)
    with mpmath.workdps(60):
        ix = mpmath.mpc(0, x)
        phase = mpmath.exp(-mpmath.mpc(0, c))
        shift = 1 + mpmath.mpf(a1) * a2
        for t, value, modulus in zip(sigma.tolist(), values.tolist(), moduli.tolist()):
            s = mpmath.exp(t)
            exact = mpmath.exp(ix * t - a1 * s) * (1 - a2 / s)
            if t <= 0.0:
                exact -= shift * mpmath.exp(ix * t) - a2 * mpmath.exp((ix - 1) * t)
            bound = 2.0 ** -53 * ((400.0 + 2.0 * abs(x * t)) * abs(exact) + 4.0 * a1 * a2)
            assert abs(value - float(mpmath.im(phase * exact))) <= bound
            assert abs(modulus - float(abs(exact))) <= bound
        for h in (0.5 ** k for k in range(1, 8)):
            if x * h >= math.pi:
                continue
            sums = (shift * h / (1 - mpmath.exp(-ix * h))
                    - a2 * h / (1 - mpmath.exp((1 - ix) * h)))
            value, rounding = abel(h)
            assert abs(value - float(mpmath.im(phase * sums))) <= rounding


@pytest.mark.parametrize("x", [150.0, 175.0, 200.0, 300.0])
def test_p1_at_large_x_is_quiet_and_bounded(x):
    # p1's integrand oscillates as sin(x sigma - c) over about 40 units of
    # sigma; from the start step, at most pi / (x + 4), the sums converge
    # without any warning
    d = DimensionlessConfig(x=x, y=1.0, zeta=0.5, eps=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = p1_numeric(d)
    assert abs(result.amplitude - p1_reference(d)) <= result.extrapolation_residual


@pytest.mark.parametrize("x", [3e-7, 5e-7, 7e-7])
@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_p1_certified_at_small_x(x, eps):
    # the amplitude grows as 2/x, and so does the Abel sums' rounding term;
    # at 8 u of their moduli the estimate stays inside the absolute gate
    # down to x of about 2.7e-7, below p2's edge of about 3e-7, and it
    # still bounds the true error, about one ulp of the amplitude
    d = DimensionlessConfig(x=x, y=1.0, zeta=0.5, eps=eps)
    result = p1_numeric(d)
    assert abs(result.amplitude - p1_reference(d)) <= result.extrapolation_residual


@pytest.mark.parametrize("y", [20.0, 30.0, 60.0, 120.0])
def test_p2_estimate_bounds_true_error_at_large_ybar(y):
    # sums with 2 pi / h below ybar carry the same aliasing error and so
    # agree: at y = 120, h = 1/8 and 1/16 missed the true error, 9.7e-95,
    # by 50x.  From the start step, at most pi / (ybar + 4), no alias lies
    # near zero frequency
    d = DimensionlessConfig(x=1.0, y=y, zeta=0.5, eps=0.0)
    result = p2_numeric(d)
    assert abs(result.amplitude - p2_reference(d)) <= result.extrapolation_residual


def coefficient_reference(ybar: float, r: float) -> complex:
    """L = z^a dU(a, b, z)/db at b = a + 1, a = 1 + i ybar, z = i r."""
    with mpmath.workdps(30):
        a, z = mpmath.mpc(1, ybar), mpmath.mpc(0, r)
        return complex(mpmath.power(z, a) * mpmath.diff(lambda b: mpmath.hyperu(a, b, z), a + 1))


@pytest.mark.parametrize("ybar", [0.7, 2.0])
def test_gup_coefficient_matches_tricomi_derivative(ybar):
    # series below the crossover, asymptotic series above it; both are
    # summed to terms of 1e-8, and meet within 5e-9 at the crossover
    crossover = _ASYMPTOTIC_MIN_Z + _ASYMPTOTIC_SLOPE * abs(complex(1.0, ybar))
    lg = log_gamma(complex(0.0, ybar))
    for r in (0.05, 1.0, 9.0, crossover - 0.5, crossover + 0.5, 1e3):
        error = abs(_gup_coefficient(ybar, r, lg) - coefficient_reference(ybar, r))
        assert error <= 1e-8, (r, error)


def test_p2_closed_error_is_second_order_in_eps():
    # the first-order terms are exact, so what is left scales as eps^2
    def worst(eps):
        return max(
            abs(p2_closed(d).total - 0.25 * abs(p2_reference(d)) ** 2) / p2_closed(d).total
            for d in CRITERION_2_GRID
            if d.eps == eps
        )

    coarse, fine = worst(1e-2), worst(1e-3)
    assert coarse <= 1e-4
    assert 80.0 <= coarse / fine <= 120.0, (coarse, fine)


def test_p2_closed_si_at_large_atom_frequency():
    # x = 1e16 with x zeta = 1e4: L is summed asymptotically, and the
    # probability takes its large-|z| form, damping exp(-eps y/(2 x zeta))
    # and GUP phase (eps y/2) ln(2 zeta) + eps y ybar/(4 x zeta)
    d = DimensionlessConfig(x=1e16, y=1.2, zeta=1e-12, eps=0.01)
    p = physical_from_dimensionless(d, reference_acceleration=9.8)
    d = to_dimensionless(p)
    assert d.x == pytest.approx(1e16, rel=1e-12)
    value = p2_closed_si(p)
    assert math.isfinite(value) and value > 0.0

    ybar, eta = d.y * (1 - d.eps / 2), d.eps * d.y / 2
    with mpmath.workdps(30):
        kappa = float(mpmath.arg(mpmath.gamma(1j * ybar)))
    phase = (d.x * d.zeta + ybar * math.log(d.x) + eta * math.log(2 * d.zeta)
             + eta * ybar / (2 * d.x * d.zeta) - kappa)
    damping = math.exp(-d.eps * d.y / (2 * d.x * d.zeta))
    limit = 2 * math.pi * ybar / d.x**2 * damping * planck_factor(ybar) * math.sin(phase) ** 2
    scale = (p.g * CODATA.c / p.a) ** 2
    assert math.sin(phase) ** 2 > 0.1
    assert value == pytest.approx(scale * limit, rel=1e-9)
    # the next term of L, O(|a|^2 / (x zeta)^2), moves the damping by ~1e-10
    assert p2_closed(d).damping == pytest.approx(damping, rel=1e-9)


@pytest.mark.parametrize("z", [-230j, 230j])
def test_log_gamma_where_reflection_sine_overflows(z):
    # sin(pi z) overflows for |Im z| above about 226, where a reflected
    # log Gamma once failed; on the imaginary axis none is needed
    lg = log_gamma(z)
    reference = complex(mpmath.loggamma(z))
    turns = round((lg - reference).imag / (2.0 * math.pi))
    assert abs(lg - reference - 2j * math.pi * turns) <= 1e-14 * abs(reference)
