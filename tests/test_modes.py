"""Mode functions, trajectories, and coordinate transforms."""

import cmath
import math

import numpy as np
import pytest

from modes import (
    ModeSpec,
    SpacetimePoint,
    atom_trajectory,
    minkowski_to_rindler,
    mode_accel_mirror,
    mode_rindler,
    mode_static_mirror,
    rindler_to_minkowski,
)


def test_trajectory_at_rest_point():
    p = atom_trajectory(0.0)
    assert p.t == 0.0
    assert p.z == 1.0


def test_trajectory_hyperbola_identity():
    rng = np.random.default_rng(3)
    for tau in rng.uniform(-3.0, 3.0, size=100):
        p = atom_trajectory(tau)
        assert p.z**2 - p.t**2 == pytest.approx(1.0, rel=1e-12)


def test_trajectory_reference_point():
    p = atom_trajectory(1.0)
    assert p.t == pytest.approx(1.1752011936438015, rel=1e-15)
    assert p.z == pytest.approx(1.5430806348152438, rel=1e-15)


def test_rindler_to_minkowski_origin_and_worldline():
    p = rindler_to_minkowski(SpacetimePoint(t=0.0, z=0.0))
    assert p.t == 0.0 and p.z == 1.0
    for tbar in (-1.5, -0.2, 0.7, 2.0):
        mapped = rindler_to_minkowski(SpacetimePoint(t=tbar, z=0.0))
        traj = atom_trajectory(tbar)
        assert mapped.t == pytest.approx(traj.t, rel=1e-15)
        assert mapped.z == pytest.approx(traj.z, rel=1e-15)


def test_rindler_to_minkowski_reference_point():
    p = rindler_to_minkowski(SpacetimePoint(t=0.5, z=0.2))
    assert p.t == pytest.approx(0.63646724339437933, rel=1e-14)
    assert p.z == pytest.approx(1.3772854640760972, rel=1e-14)


def test_minkowski_to_rindler_values_and_domain():
    q = minkowski_to_rindler(SpacetimePoint(t=0.0, z=1.0))
    assert q.t == 0.0 and q.z == 0.0
    q = minkowski_to_rindler(SpacetimePoint(t=0.9, z=1.0))
    assert q.t == pytest.approx(1.4722194895832202, rel=1e-13)
    assert q.z == pytest.approx(-0.83036560341082545, rel=1e-13)
    with pytest.raises(ValueError, match="wedge"):
        minkowski_to_rindler(SpacetimePoint(t=1.0, z=0.5))


def test_transform_round_trips():
    rng = np.random.default_rng(5)
    for _ in range(200):
        bar = SpacetimePoint(t=rng.uniform(-2, 2), z=rng.uniform(-2, 2))
        back = minkowski_to_rindler(rindler_to_minkowski(bar))
        assert back.t == pytest.approx(bar.t, abs=1e-13)
        assert back.z == pytest.approx(bar.z, abs=1e-13)


def test_static_mirror_boundary_zero():
    rng = np.random.default_rng(9)
    m = ModeSpec(y=1.3, eps=0.02, zeta0=0.8)
    for t in rng.uniform(-10, 10, size=100):
        assert abs(mode_static_mirror(SpacetimePoint(t=t, z=m.zeta0), m)) < 1e-12


def test_static_mirror_heisenberg_limit_plane_waves():
    m = ModeSpec(y=2.0, eps=0.0, zeta0=1.0)
    p = SpacetimePoint(t=0.7, z=1.9)
    expected = cmath.exp(-1j * m.y * p.t) * (
        cmath.exp(-1j * m.y * (p.z - m.zeta0)) - cmath.exp(1j * m.y * (p.z - m.zeta0))
    )
    assert mode_static_mirror(p, m) == pytest.approx(expected, rel=1e-14)


def test_static_mirror_antinode_magnitude():
    m = ModeSpec(y=1.7, eps=0.01, zeta0=0.6)
    z = m.zeta0 + math.pi / (2.0 * m.y * (1.0 - m.eps))
    value = mode_static_mirror(SpacetimePoint(t=0.0, z=z), m)
    assert abs(value) == pytest.approx(2.0, rel=1e-12)


def test_rindler_mode_boundary_and_expansion():
    m = ModeSpec(y=1.0, eps=0.02)
    rng = np.random.default_rng(13)
    for tbar in rng.uniform(-10, 10, size=100):
        assert abs(mode_rindler(SpacetimePoint(t=tbar, z=0.0), m)) < 1e-12
    # leading small-zbar expansion: 2 i y zbar e^{-i y tbar} at eps = 0
    m0 = ModeSpec(y=1.0, eps=0.0)
    zbar = 1e-4
    value = mode_rindler(SpacetimePoint(t=0.3, z=zbar), m0)
    lead = 2j * m0.y * zbar * cmath.exp(-1j * m0.y * 0.3)
    assert value == pytest.approx(lead, rel=1e-6)


def test_rindler_mode_reference_value():
    m = ModeSpec(y=2.0, eps=0.01)
    p = SpacetimePoint(t=0.3, z=0.4)
    spatial = m.y * (1.0 - m.eps) * p.z
    expected = cmath.exp(-1j * m.y * p.t) * (2j * math.sin(spatial))
    assert mode_rindler(p, m) == pytest.approx(expected, rel=1e-14)


def test_accel_mirror_vanishes_on_worldline():
    m = ModeSpec(y=1.4, eps=0.03)
    for tau in (-2.0, -0.5, 0.0, 0.9, 2.3):
        p = atom_trajectory(tau)
        assert abs(mode_accel_mirror(p, m)) < 1e-12


def test_accel_mirror_heisenberg_reduction():
    m = ModeSpec(y=1.1, eps=0.0)
    p = SpacetimePoint(t=0.4, z=1.2)
    expected = cmath.exp(1j * m.y * math.log(p.z - p.t)) - cmath.exp(
        -1j * m.y * math.log(p.z + p.t)
    )
    assert mode_accel_mirror(p, m) == pytest.approx(expected, rel=1e-14)
    # single-support region: only the advanced term survives
    p_left = SpacetimePoint(t=2.0, z=1.0)
    expected_left = -cmath.exp(-1j * m.y * math.log(p_left.z + p_left.t))
    assert mode_accel_mirror(p_left, m) == pytest.approx(expected_left, rel=1e-14)


def test_accel_mirror_wedge_consistency():
    rng = np.random.default_rng(17)
    m = ModeSpec(y=1.7, eps=0.04)
    checked = 0
    while checked < 1000:
        z = rng.uniform(0.05, 3.0)
        t = rng.uniform(-z, z)
        if not z > abs(t):
            continue
        p = SpacetimePoint(t=t, z=z)
        direct = mode_accel_mirror(p, m)
        via_rindler = mode_rindler(minkowski_to_rindler(p), m)
        assert direct == pytest.approx(via_rindler, rel=1e-12)
        checked += 1


def test_accel_mirror_outside_both_supports():
    m = ModeSpec(y=1.0, eps=0.02)
    assert mode_accel_mirror(SpacetimePoint(t=0.0, z=-1.0), m) == 0j
    assert mode_accel_mirror(SpacetimePoint(t=-2.0, z=1.0), m) != 0j


def test_mode_magnitudes_bounded_by_two():
    rng = np.random.default_rng(23)
    m = ModeSpec(y=2.2, eps=0.05, zeta0=0.7)
    for _ in range(500):
        p = SpacetimePoint(t=rng.uniform(-4, 4), z=rng.uniform(-4, 4))
        assert abs(mode_accel_mirror(p, m)) <= 2.0 + 1e-12
        assert abs(mode_static_mirror(p, m)) <= 2.0 + 1e-12
        assert abs(mode_rindler(p, m)) <= 2.0 + 1e-12


def test_spacetime_point_requires_finite():
    with pytest.raises(ValueError):
        SpacetimePoint(t=math.inf, z=0.0)
    with pytest.raises(ValueError):
        ModeSpec(y=-1.0)
    with pytest.raises(ValueError, match="perturbative"):
        ModeSpec(y=1.0, eps=0.5)


# (y, zeta, eps) at which the oracle's real-axis integrands are checked
# against the mode functions.  The atom factor e^{i x tau} (e^{i x w} for
# probability 2) multiplies both sides alike, so x does not enter.
_ORACLE_POINTS = [(1.2, 0.55, 0.0), (0.7, 0.35, 0.01), (2.0, 0.8, 0.05)]


@pytest.mark.parametrize("y, zeta, eps", _ORACLE_POINTS)
def test_p1_oracle_integrand_is_static_mirror_mode_on_worldline(y, zeta, eps):
    # amplitude docstring: on the worldline t = sinh tau, z = cosh tau the
    # probability-1 integrand is e^{i x tau} (f(tau) - conj(f(-tau))), with
    # f(tau) = e^{-i C} exp(i (A1 e^tau - A2 e^-tau))
    a1 = y * (1.0 - 0.5 * eps)
    a2 = 0.5 * y * eps
    c = y * (1.0 - eps) * zeta

    def f(tau):
        return cmath.exp(-1j * c) * cmath.exp(1j * (a1 * math.exp(tau) - a2 * math.exp(-tau)))

    m = ModeSpec(y=y, eps=eps, zeta0=zeta)
    for tau in np.linspace(-3.0, 3.0, 61):
        mode = mode_static_mirror(atom_trajectory(tau), m).conjugate()
        assert abs(mode - (f(tau) - f(-tau).conjugate())) <= 1e-13


@pytest.mark.parametrize("y, zeta, eps", _ORACLE_POINTS)
def test_p2_oracle_integrand_is_accel_mirror_mode_at_atom(y, zeta, eps):
    # amplitude docstring: at the atom, z = zeta, with w = zeta + t the
    # probability-2 integrand is e^{i x w} (conj(h(2 zeta - w)) - h(w)), with
    # h(w) = w^{i ybar} (2 zeta - w)^{-i eta}, the core integrand
    ybar = y * (1.0 - 0.5 * eps)
    eta = 0.5 * eps * y

    def h(w):
        return cmath.exp(1j * ybar * math.log(w) - 1j * eta * math.log(2.0 * zeta - w))

    m = ModeSpec(y=y, eps=eps)
    for t in np.linspace(-zeta, zeta, 43)[1:-1]:
        w = zeta + t
        mode = mode_accel_mirror(SpacetimePoint(t=t, z=zeta), m).conjugate()
        assert abs(mode - (h(2.0 * zeta - w).conjugate() - h(w))) <= 1e-13
