"""Gamma layer: log-Gamma on the imaginary axis, phase set, Planck factor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gup_mirror import DimensionlessConfig, gamma_phase_set, log_gamma, p1_closed, planck_factor
from gup_mirror.cli import main
from gup_mirror.special import _principal, digamma


def test_log_gamma_at_i():
    # |Gamma(i)|^2 = pi / sinh(pi)
    lg = log_gamma(1j)
    assert lg.real == pytest.approx(-0.65092319930185634, rel=1e-13)
    assert math.exp(2.0 * lg.real) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)
    assert math.pi / math.sinh(math.pi) == pytest.approx(0.27202905498213316, rel=1e-14)


def test_digamma_of_conjugate_is_conjugate():
    # psi(conj z) = conj psi(z), bit for bit: every operation of the
    # recurrence and the series is odd in the imaginary part
    rng = np.random.default_rng(3)
    for re, im in zip(rng.uniform(0.01, 20.0, 200), rng.uniform(-50.0, 50.0, 200)):
        z = complex(re, im)
        assert repr(digamma(z.conjugate())) == repr(digamma(z).conjugate())


def test_log_gamma_poles():
    # on the imaginary axis the only pole is t = 0; the poles off it are
    # off the axis log_gamma takes
    for z in (0j, complex(0.0, -0.0), complex(-0.0, 0.0), -1.0 + 0j, -3.0 + 0j, -7.0 + 0j):
        with pytest.raises(ValueError, match="t != 0"):
            log_gamma(z)


def test_log_gamma_on_the_imaginary_axis_matches_mpmath(tmp_path, capsys):
    # the phase against the continuous branch, to 4e-15 of its size, and
    # log|Gamma|, to 2e-15 of its size; t and -t give exact conjugates
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    for _ in range(600):
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        lg = log_gamma(complex(0.0, t))
        assert log_gamma(complex(0.0, -t)) == lg.conjugate()
        with mpmath.workdps(40):
            reference = mpmath.loggamma(mpmath.mpc(0, t))
            difference = lg.imag - reference.imag
            phase_error = float(abs(difference - 2 * mpmath.pi * mpmath.nint(difference / (2 * mpmath.pi))))
            modulus_error = float(abs(mpmath.mpf(lg.real) - reference.real))
        assert -math.pi < lg.imag <= math.pi
        assert phase_error <= 4e-15 * max(1.0, abs(float(reference.imag))), (t, phase_error)
        assert modulus_error <= 2e-15 * max(1.0, abs(float(reference.real))), (t, modulus_error)
    # off the axis, at the pole, and where t log t overflows
    for z in (complex(0.5, 1.0), complex(-1.0, -230.0), 0j, complex(0.0, 1.7e308)):
        with pytest.raises(ValueError):
            log_gamma(z)
    config = tmp_path / "far.conf"
    config.write_text("x = 1.7e308\ny = 1\nzeta = 0.5\n")
    assert main(["p1", "--config", str(config), "--out", str(tmp_path / "far.csv")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


# log Gamma(i t) as the Gamma layer first computed it: the Horner loop over
# the Stirling coefficients, the recurrence terms from a generator inside
# one fsum, and its own reduction.  The layer must keep these bits.
_SHIFT = 12
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _reference_principal(angle):
    reduced = math.remainder(angle, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


def _reference_log_gamma(z):
    t = abs(z.imag)
    if z.real != 0.0 or t == 0.0:
        raise ValueError(f"log_gamma takes i t with real t != 0, not {z}")
    shifted = complex(_SHIFT, t)
    w = 1.0 / shifted
    w2 = w * w
    series = 0j
    for coeff in reversed(_STIRLING):
        series = series * w2 + coeff
    phase = math.fsum([(_SHIFT - 0.5) * math.atan2(t, _SHIFT),
                       t * (math.log(abs(shifted)) - 1.0), (series * w).imag,
                       *(-math.atan2(t, k) for k in range(_SHIFT))])
    u = math.pi * t
    modulus = 0.5 * (math.log(2.0 * math.pi) - math.log(t) - u - math.log(-math.expm1(-2.0 * u)))
    if not (math.isfinite(phase) and math.isfinite(modulus)):
        raise ValueError(f"log Gamma({z}) is not a finite double")
    phase = _reference_principal(phase)
    return complex(modulus, phase if z.imag > 0.0 else -phase)


def _reference_phase_set(x):
    if not x > 0.0:
        raise ValueError("x must be strictly positive")
    return _reference_log_gamma(complex(0.0, -x)).imag


def _outcome(f, *args):
    """repr of f(*args), or the ValueError it raises, as text."""
    try:
        return repr(f(*args))
    except ValueError as error:
        return f"ValueError: {error}"


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(st.floats(-300.0, 306.0).map(lambda e: 10.0 ** e))
@example(5e-324)
@example(2.6e305)
@example(1e306)
@example(1.7e308)
@example(math.inf)
@example(math.nan)
def test_log_gamma_and_phase_set_keep_the_reference_bits(t):
    # values, signed zeros and error messages alike, on both half-axes; t log t
    # overflows from t of about 2.6e305
    for z in (complex(0.0, t), complex(0.0, -t)):
        assert _outcome(log_gamma, z) == _outcome(_reference_log_gamma, z)
    assert _outcome(gamma_phase_set, t) == _outcome(_reference_phase_set, t)


def test_modulus_identity_on_imaginary_axis():
    # |Gamma(i x)|^2 = pi / (x sinh(pi x))
    for x in np.geomspace(0.1, 10.0, 200):
        lg = log_gamma(complex(0.0, x))
        lhs = math.exp(2.0 * lg.real)
        rhs = math.pi / (x * math.sinh(math.pi * x))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_phase_set_recurrence_combinations():
    # Gamma(-i x) = (-i x - 1) Gamma(-i x - 1) pins the only combinations
    # of Gamma(-i x - 1) the accelerating-atom closed form consumes,
    #   Omega cos Delta = -1/(1+x^2),  Omega sin Delta = x/(1+x^2),
    # which p1_closed reads in this rational form
    mpmath = pytest.importorskip("mpmath")
    for x in np.geomspace(0.1, 10.0, 200):
        with mpmath.workdps(30):
            ratio = complex(mpmath.gamma(-1j * x - 1) / mpmath.gamma(-1j * x))
        assert ratio.real == pytest.approx(-1.0 / (1.0 + x * x), rel=1e-15)
        assert ratio.imag == pytest.approx(x / (1.0 + x * x), rel=1e-15)
        d = DimensionlessConfig(x=float(x), y=2.0, zeta=0.5, eps=0.01)
        assert p1_closed(d).damping == pytest.approx(math.exp(-0.04 * ratio.real), rel=1e-15)


def test_phase_set_at_one():
    # theta = Arg Gamma(-i) = 1.8724366472624298171..., to 2 ulp
    assert gamma_phase_set(1.0) == pytest.approx(1.8724366472624299, abs=4.5e-16)


def test_conjugation_symmetry_and_kappa():
    for x in (0.25, 1.0, 4.0):
        # Arg Gamma(i x) = -Arg Gamma(-i x); p2 reads the left side as kappa
        kappa = _principal(log_gamma(complex(0.0, x)).imag)
        assert kappa == -gamma_phase_set(x)
    for x in np.geomspace(0.1, 10.0, 50):
        plus = log_gamma(complex(0.0, x)).imag
        minus = log_gamma(complex(0.0, -x)).imag
        assert plus == -minus


def test_phase_ranges():
    for x in np.geomspace(0.1, 10.0, 50):
        assert -math.pi <= gamma_phase_set(x) <= math.pi


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
    # psi = (log Gamma)', against mpmath's digamma at the same points
    # (measured error 7.6e-14)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = complex(rng.uniform(0.6, 19.0), rng.uniform(-40.0, 40.0))
        assert abs(digamma(z) - complex(mpmath.digamma(z))) < 1e-12
        assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) < 1e-12


def test_digamma_domain():
    for z in (0.0, -0.5 + 1.0j, -3.0):
        with pytest.raises(ValueError, match="Re z > 0"):
            digamma(z)
