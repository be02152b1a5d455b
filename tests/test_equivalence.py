"""Equivalence-violation diagnostics and the GUP-parameter bound."""

import math

import pytest

from gup_mirror import (
    CODATA,
    DimensionlessConfig,
    beta_bound,
    q_parameter,
    violation_parameter,
)


def test_neutral_report_at_eps_zero():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    report = violation_parameter(d)
    assert report.q_value == 0.0
    assert report.ratio == 1.0
    assert report.phase_defect == pytest.approx(0.0, abs=1e-13)
    assert report.damping_defect == pytest.approx(1.0, rel=1e-14)
    assert report.planck_defect == pytest.approx(1.0, rel=1e-14)


def test_q_at_unit_zeta():
    # ln(1) = 0 kills the second term
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=1.0, eps=0.02)
    report = violation_parameter(d)
    assert report.q_value == pytest.approx(0.01, rel=1e-15)
    # closed-form defects need the wedge; unavailable at zeta >= 1
    assert report.phase_defect is None
    assert report.damping_defect is None
    assert report.planck_defect is None


def test_q_reference_value_and_si_consistency():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    report = violation_parameter(d)
    assert report.q_value == pytest.approx(0.013068528194400547, rel=1e-12)
    assert report.ratio == 1.0 + report.q_value

    # same quantity assembled from an SI instantiation
    k = CODATA
    a = 9.8
    nu = d.y * a / k.c
    z0 = d.zeta * k.c**2 / a
    beta = d.eps * k.c**2 / (k.hbar**2 * nu**2)
    q_si = (beta * k.hbar**2 * nu**2 * k.c**2) / (2.0 * a**2 * z0**2) + (
        beta * k.hbar**2 * nu**2
    ) / (2.0 * a * z0) * math.log(a * z0 / k.c**2)
    assert q_si == pytest.approx(report.q_value, rel=1e-12)


def test_q_exactly_linear_in_eps():
    for zeta in (0.3, 0.5, 0.9, 1.5, 3.0):
        base = q_parameter(1e-3, zeta)
        assert q_parameter(2e-3, zeta) == pytest.approx(2.0 * base, rel=1e-12)
        assert q_parameter(4e-3, zeta) == pytest.approx(4.0 * base, rel=1e-12)


def test_q_sign_structure():
    # Q > 0 everywhere for eps > 0 (1/zeta + ln zeta >= 1), strictly
    # decreasing in zeta, and bounded below by eps/(2 zeta^2) for zeta >= 1
    eps = 0.01
    previous = math.inf
    for zeta in [0.05 * j for j in range(1, 100)]:
        q = q_parameter(eps, zeta)
        assert q > 0.0
        assert q < previous
        previous = q
        if zeta >= 1.0:
            assert q >= eps / (2.0 * zeta**2)


def test_violation_rejects_unequal_frequencies():
    d = DimensionlessConfig(x=1.0, y=2.0, zeta=0.5, eps=0.01)
    with pytest.raises(ValueError, match="nu = omega0"):
        violation_parameter(d)


def test_defect_scan():
    def scan(eps_values):
        return [violation_parameter(DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps))
                for eps in eps_values]

    reports = scan([0.0])
    assert len(reports) == 1 and reports[0].q_value == 0.0

    reports = scan([1e-3, 2e-3])
    assert reports[0].eps == 1e-3 and reports[1].eps == 2e-3
    assert reports[1].q_value / reports[0].q_value == pytest.approx(2.0, rel=1e-12)

    report = scan([1e-2])[0]
    assert report.q_value == pytest.approx(0.013068528194400547, rel=1e-12)


def test_bound_reproduces_target_order_of_magnitude():
    # nu = omega0 read as ordinary gigahertz, a z0 = c^2
    k = CODATA
    omega = 2.0 * math.pi * 1.0e9
    bound = beta_bound(a=9.8, omega0=omega, nu=omega, z0=k.c**2 / 9.8)
    assert 1e66 <= bound.beta_max_planck_units <= 1e68
    assert bound.beta_max_planck_units == pytest.approx(8.714886933e66, rel=1e-8)
    assert bound.beta_max_si == pytest.approx(2.047054228e65, rel=1e-8)
    # planck-units value is the SI value times (M_P c)^2
    assert bound.beta_max_planck_units == pytest.approx(
        bound.beta_max_si * (k.planck_mass * k.c) ** 2, rel=1e-14
    )


def test_bound_angular_reading():
    # the angular reading of the same gigahertz lands ~40x higher
    k = CODATA
    bound = beta_bound(a=9.8, omega0=1.0e9, nu=1.0e9, z0=k.c**2 / 9.8)
    assert bound.beta_max_planck_units == pytest.approx(3.440499457e68, rel=1e-8)


def test_bound_scalings():
    base = beta_bound(a=1.0, omega0=3.0, nu=2.0, z0=10.0)
    assert beta_bound(a=1.0, omega0=3.0, nu=2.0, z0=20.0).beta_max_si == pytest.approx(
        2.0 * base.beta_max_si, rel=1e-14
    )
    assert beta_bound(a=1.0, omega0=3.0, nu=4.0, z0=10.0).beta_max_si == pytest.approx(
        base.beta_max_si / 8.0, rel=1e-14
    )
    assert beta_bound(a=1.0, omega0=3.0, nu=2.0, z0=10.0, eta0=0.1).beta_max_si == (
        pytest.approx(0.1 * base.beta_max_si, rel=1e-14)
    )
    assert base.tolerance_factor == 1.0


def test_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_bound(a=0.0, omega0=1.0, nu=1.0, z0=1.0)
    with pytest.raises(ValueError):
        beta_bound(a=1.0, omega0=1.0, nu=1.0, z0=1.0, eta0=0.0)
