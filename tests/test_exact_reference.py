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
and c = 2i zeta.
"""

import itertools

import pytest

from gup_mirror import DimensionlessConfig, p1_numeric, p2_numeric

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


def test_error_estimate_bounds_true_error():
    points = [(1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 0.5, 0.01), (0.7, 2.0, 0.8, 0.01), (5.0, 8.0, 0.3, 0.0)]
    for oracle, reference in ((p1_numeric, p1_reference), (p2_numeric, p2_reference)):
        for point in points:
            d = DimensionlessConfig(*point)
            result = oracle(d)
            assert result.extrapolation_residual >= 0.0
            assert abs(result.amplitude - reference(d)) <= result.extrapolation_residual, point


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
