"""Quadrature oracle: two-route agreement, regression values, error control."""

import itertools
import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning

from gup_mirror import (
    DimensionlessConfig,
    QuadratureConvergenceError,
    QuadratureSettings,
    p1_closed,
    p1_numeric,
    p2_closed,
    p2_numeric,
    verify_pair,
)


def test_p1_matches_closed_form_at_eps_zero():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=2.0, eps=0.0)
    result = p1_numeric(d)
    closed = p1_closed(d).total
    assert abs(result.probability - closed) / closed < 1e-3
    # actual agreement is far tighter; pin the regression value
    assert result.probability == pytest.approx(0.005237683995685951, rel=1e-9)


def test_p1_matches_closed_form_at_small_eps():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=2.0, eps=0.01)
    result = p1_numeric(d)
    closed = p1_closed(d).total
    assert abs(result.probability - closed) / closed < 1e-2
    assert result.probability == pytest.approx(0.004942058225033963, rel=1e-8)


def test_p1_planck_suppression_ratio_at_large_x():
    # P1 at x = 5 is suppressed by planck(5)/planck(1); the ratio removes
    # prefactor sensitivity
    base = DimensionlessConfig(x=1.0, y=1.0, zeta=2.0, eps=0.0)
    high = DimensionlessConfig(x=5.0, y=1.0, zeta=2.0, eps=0.0)
    num_ratio = p1_numeric(high).probability / p1_numeric(base).probability
    closed_ratio = p1_closed(high).total / p1_closed(base).total
    assert num_ratio == pytest.approx(closed_ratio, rel=1e-2)
    assert p1_numeric(high).probability == pytest.approx(1.6804522191809643e-15, rel=1e-5)


def test_p2_matches_closed_form_at_eps_zero():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    result = p2_numeric(d)
    closed = p2_closed(d).total
    assert abs(result.probability - closed) / closed < 1e-3
    assert result.probability == pytest.approx(0.005686820527277144, rel=1e-9)


def test_symmetry_end_to_end_through_both_oracles():
    # x = y, eps = 0: the two entirely different integral representations
    # must produce the same probability
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    one = p1_numeric(d).probability
    two = p2_numeric(d).probability
    assert abs(one - two) / one < 1e-3


def test_p2_regression_at_small_eps():
    # The closed form's first-order GUP terms carry an extra analytic
    # approximation; the oracle value is the reference here.  Measured
    # relative gap to the closed form at this point: 3.3e-2.
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    result = p2_numeric(d)
    assert result.probability == pytest.approx(0.005766970303978038, rel=1e-8)
    closed = p2_closed(d).total
    assert abs(result.probability - closed) / closed == pytest.approx(0.033, abs=0.01)


def test_defect_scales_linearly_in_eps():
    # for x = y the probability defect p2 - p1 is first order in eps
    defects = []
    for eps in (5e-3, 1e-2):
        d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps)
        defects.append(p2_numeric(d).probability - p1_numeric(d).probability)
    assert defects[1] / defects[0] == pytest.approx(2.0, rel=0.2)


def test_mirror_phase_gauge_invariance():
    # shifting the mirror by a full interference period leaves the
    # probability unchanged; probabilities depend only on |amplitude|^2
    d = DimensionlessConfig(x=1.0, y=1.25, zeta=0.4, eps=0.01)
    period = 2.0 * math.pi / (d.y * (1.0 - d.eps))
    shifted = DimensionlessConfig(x=d.x, y=d.y, zeta=d.zeta + period, eps=d.eps)
    a = p1_numeric(d)
    b = p1_numeric(shifted)
    assert b.probability == pytest.approx(a.probability, rel=1e-9)
    assert a.probability == pytest.approx(0.25 * abs(a.amplitude) ** 2, rel=1e-15)


def test_residual_decreases_with_tolerance():
    # the error estimate follows the requested tolerance, and stays under
    # the gate of 100x abs_tolerance at each step
    for point, oracle in (((1.0, 1.0, 0.5, 0.0), p1_numeric), ((1.0, 1.0, 0.5, 0.01), p1_numeric),
                          ((1.0, 1.0, 0.5, 0.0), p2_numeric)):
        d = DimensionlessConfig(*point)
        residuals = [
            oracle(d, QuadratureSettings(abs_tolerance=tol)).extrapolation_residual
            for tol in (1e-4, 1e-8, 1e-12)
        ]
        assert residuals[0] > residuals[1] > residuals[2] >= 0.0


def test_determinism():
    d = DimensionlessConfig(x=1.3, y=0.8, zeta=0.6, eps=0.005)
    first = p1_numeric(d)
    second = p1_numeric(d)
    assert first.probability == second.probability
    assert first.amplitude == second.amplitude


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_unreachable_tolerance_flags_non_convergence():
    # double precision leaves an error estimate of a few 1e-15 on the
    # amplitude, far above the gate of 1e-16 this tolerance sets
    q = QuadratureSettings(abs_tolerance=1e-18)
    for eps in (0.0, 0.01):
        d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps)
        with pytest.raises(QuadratureConvergenceError, match="error estimate"):
            p1_numeric(d, q)
        with pytest.raises(QuadratureConvergenceError, match="error estimate"):
            p2_numeric(d, q)


def test_p2_requires_wedge():
    with pytest.raises(ValueError, match="zeta < 1"):
        p2_numeric(DimensionlessConfig(x=1.0, y=1.0, zeta=1.2, eps=0.0))


def test_settings_validation():
    assert QuadratureSettings().abs_tolerance == 1e-10
    for bad in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tolerance=bad)


def test_verify_pair_at_eps_zero():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    record = verify_pair(d)
    assert record.p1_bound == 1e-3 and record.p2_bound == 1e-3
    assert record.p1_rel_dev < 1e-3 and record.p2_rel_dev < 1e-3
    assert record.all_within
    assert record.p1_rel_dev == abs(record.p1_numeric - record.p1_closed) / record.p1_closed


def test_verify_pair_reports_honest_deviations_at_eps():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    record = verify_pair(d)
    assert record.p1_bound == 1e-2 and record.p2_bound == 1e-2
    assert record.p1_within
    # the first-order closed form misses the oracle by ~3e-2 here, and the
    # record must say so rather than hide it
    assert not record.p2_within
    assert record.p2_rel_dev == pytest.approx(0.033, abs=0.01)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_verify_pair_propagates_non_convergence():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    with pytest.raises(QuadratureConvergenceError):
        verify_pair(d, QuadratureSettings(abs_tolerance=1e-18))
    with pytest.raises(ValueError, match="zeta < 1"):
        verify_pair(DimensionlessConfig(x=1.0, y=1.0, zeta=1.5, eps=0.0))


def test_no_integration_warning_on_criterion_2_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for x, y, zeta, eps in itertools.product(
            (0.7, 1.1, 1.9), (0.7, 1.2, 2.0), (0.35, 0.55, 0.8), (0.0, 1e-3, 1e-2)
        ):
            d = DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
            p1_numeric(d)
            p2_numeric(d)
