"""Deformed dispersion relation: perturbative and exact roots."""

import pytest

from dispersion import wavenumber_exact, wavenumber_perturbative, wavenumber_trans_planckian


def quartic_residual(k: float, eps: float) -> float:
    return 2.0 * eps * k**4 + k**2 - 1.0


def test_perturbative_values():
    assert wavenumber_perturbative(0.0).k == 1.0
    assert wavenumber_perturbative(0.01).k == pytest.approx(0.99, rel=1e-15)
    assert wavenumber_perturbative(0.05).k == pytest.approx(0.95, rel=1e-15)


def test_perturbative_guard():
    with pytest.raises(ValueError):
        wavenumber_perturbative(-1e-3)
    with pytest.raises(ValueError):
        wavenumber_perturbative(0.1)


def test_exact_root_value():
    # k^2 = (-1 + sqrt(1.08)) / 0.04; 30-digit reference for k
    w = wavenumber_exact(0.01)
    assert w.k == pytest.approx(0.99033434431668551, rel=1e-14)
    assert w.eps == 0.01


def test_exact_root_residual_and_difference():
    w = wavenumber_exact(0.01)
    assert abs(quartic_residual(w.k, 0.01)) < 1e-14
    assert abs(w.k - wavenumber_perturbative(0.01).k) == pytest.approx(3.3434e-4, rel=1e-3)


def test_exact_continuity_with_heisenberg_limit():
    assert wavenumber_exact(1e-12).k == pytest.approx(1.0, abs=1e-11)


def test_perturbative_consistency_bound():
    for eps in (1e-4, 1e-3, 1e-2):
        k = wavenumber_exact(eps).k
        assert abs(k - (1.0 - eps)) <= 5.0 * eps**2
        assert abs(quartic_residual(k, eps)) < 1e-14


def test_exact_monotone_decreasing():
    eps_grid = [1e-5 * 1.5**j for j in range(24) if 1e-5 * 1.5**j < 0.125]
    ks = [wavenumber_exact(e).k for e in eps_grid]
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_exact_domain_guard():
    for eps in (0.0, -0.01, 0.125, 0.2):
        with pytest.raises(ValueError):
            wavenumber_exact(eps)


def test_trans_planckian_branch_scale():
    # |k| ~ 1/sqrt(2 eps); nonphysical branch, exposed only as a scale
    scale = wavenumber_trans_planckian(0.01)
    assert scale == pytest.approx((0.5 / 0.01) ** 0.5, rel=0.02)
    # its squared value solves the quartic with k^2 < 0:
    k2 = -((1.0 + (1.0 + 8.0 * 0.01) ** 0.5) / (4.0 * 0.01))
    assert 2.0 * 0.01 * k2**2 + k2 - 1.0 == pytest.approx(0.0, abs=1e-12)
    assert scale**2 == pytest.approx(-k2, rel=1e-12)
