"""Gamma layer: log-Gamma identities, phase set, Planck factor."""

import cmath
import math

import numpy as np
import pytest

from gup_mirror import gamma_phase_set, log_gamma, planck_factor
from gup_mirror.special import _principal, digamma


def test_log_gamma_at_one_and_five():
    lg1 = log_gamma(1.0 + 0.0j)
    assert abs(lg1.real) < 1e-14
    assert abs(lg1.imag) < 1e-14
    lg5 = log_gamma(5.0 + 0.0j)
    assert lg5.real == pytest.approx(math.log(24.0), rel=1e-14)
    assert abs(lg5.imag) < 1e-13


def test_log_gamma_at_i():
    # |Gamma(i)|^2 = pi / sinh(pi)
    lg = log_gamma(1j)
    assert lg.real == pytest.approx(-0.65092319930185634, rel=1e-13)
    assert math.exp(2.0 * lg.real) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)
    assert math.pi / math.sinh(math.pi) == pytest.approx(0.27202905498213316, rel=1e-14)


def test_cached_value_independent_of_signed_zero():
    # -0.0 == 0.0, so both signs share a cache entry: the value stored must
    # not depend on which sign was asked for first.  On the negative real
    # axis sin(pi z) has a signed-zero imaginary part, and the two signs
    # give logs 2 pi i apart unless -0.0 is read as +0.0.
    for fn, z in ((log_gamma, complex(-0.5, 0.0)), (digamma, complex(2.5, 0.0))):
        values = []
        for imag in (0.0, -0.0):
            fn.cache_clear()
            values.append(repr(fn(complex(z.real, imag))))
        assert values[0] == values[1]


def test_log_gamma_poles():
    for z in (0.0, -1.0, -3.0, -7.0 + 0.0j):
        with pytest.raises(ValueError, match="pole"):
            log_gamma(z)


def test_modulus_identity_on_imaginary_axis():
    # |Gamma(i x)|^2 = pi / (x sinh(pi x))
    for x in np.geomspace(0.1, 10.0, 200):
        lg = log_gamma(complex(0.0, x))
        lhs = math.exp(2.0 * lg.real)
        rhs = math.pi / (x * math.sinh(math.pi * x))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_recurrence_right_half_plane():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.uniform(0.6, 19.0), rng.uniform(-49.0, 49.0))
        lhs = log_gamma(z + 1.0) - log_gamma(z)
        assert abs(lhs - cmath.log(z)) < 1e-12 * max(1.0, abs(cmath.log(z)))


def test_reflection_region_accuracy():
    # branch-free check: Gamma(z+1) = z Gamma(z) through exponentials
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = complex(rng.uniform(-15.0, 0.4), rng.uniform(0.05, 40.0) * rng.choice([-1, 1]))
        gamma_z = cmath.exp(log_gamma(z))
        gamma_z1 = cmath.exp(log_gamma(z + 1.0))
        assert abs(gamma_z1 - z * gamma_z) < 1e-12 * abs(gamma_z1)


def test_phase_set_recurrence_combinations():
    # Gamma(-i x) = (-i x - 1) Gamma(-i x - 1) pins the only combinations
    # the closed forms consume:
    #   Omega cos Delta = -1/(1+x^2),  Omega sin Delta = x/(1+x^2)
    for x in np.geomspace(0.1, 10.0, 200):
        s = gamma_phase_set(x)
        assert s.omega_cos_delta == pytest.approx(-1.0 / (1.0 + x * x), rel=1e-10)
        assert s.omega_sin_delta == pytest.approx(x / (1.0 + x * x), rel=1e-10)


def test_phase_set_at_one():
    s = gamma_phase_set(1.0)
    assert s.omega_cos_delta == pytest.approx(-0.5, rel=1e-12)
    assert s.omega_sin_delta == pytest.approx(0.5, rel=1e-12)


def test_conjugation_symmetry_and_kappa():
    for x in (0.25, 1.0, 4.0):
        # Arg Gamma(i x) = -Arg Gamma(-i x); p2 reads the left side as kappa
        kappa = _principal(log_gamma(complex(0.0, x)).imag)
        assert kappa == pytest.approx(-gamma_phase_set(x).theta, abs=1e-13)
    for x in np.geomspace(0.1, 10.0, 50):
        plus = log_gamma(complex(0.0, x)).imag
        minus = log_gamma(complex(0.0, -x)).imag
        assert plus == pytest.approx(-minus, abs=1e-12)


def test_phase_ranges():
    for x in np.geomspace(0.1, 10.0, 50):
        assert -math.pi <= gamma_phase_set(x).theta <= math.pi


def test_planck_factor_reference_value():
    # 1/(e^{2 pi} - 1), 30-digit reference
    assert planck_factor(1.0) == pytest.approx(0.0018709365986606441, rel=1e-14)


def test_planck_factor_large_arguments():
    p50 = planck_factor(50.0)
    assert 0.0 < p50 < 1e-130
    assert math.isfinite(planck_factor(100.0))
    assert planck_factor(100.0) > 0.0
    assert planck_factor(5000.0) == 0.0  # graceful underflow


def test_planck_factor_small_argument_expansion():
    # 2 pi w / (e^{2 pi w} - 1) = 1 - pi w + O(w^2)
    for w in (1e-8, 1e-6, 1e-4):
        assert planck_factor(w) * 2.0 * math.pi * w == pytest.approx(1.0, abs=4.0 * w)
    with pytest.raises(ValueError):
        planck_factor(0.0)


def test_digamma_reference_values():
    euler = 0.57721566490153286
    assert digamma(1.0) == pytest.approx(-euler, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-euler - 2.0 * math.log(2.0), abs=1e-12)
    for y in np.geomspace(0.05, 20.0, 50):
        # Im psi(1 + i y) = -1/(2y) + (pi/2) coth(pi y)
        exact = -0.5 / y + 0.5 * math.pi / math.tanh(math.pi * y)
        assert digamma(complex(1.0, y)).imag == pytest.approx(exact, abs=1e-12)


def test_digamma_is_log_gamma_derivative():
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(100):
        z = complex(rng.uniform(0.6, 19.0), rng.uniform(-40.0, 40.0))
        slope = (log_gamma(z + h) - log_gamma(z - h)) / (2.0 * h)
        assert abs(digamma(z) - slope) < 1e-8
        assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) < 1e-12


def test_digamma_domain():
    for z in (0.0, -0.5 + 1.0j, -3.0):
        with pytest.raises(ValueError, match="Re z > 0"):
            digamma(z)
