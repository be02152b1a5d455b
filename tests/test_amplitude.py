"""Quadrature oracle: two-route agreement, regression values, error control."""

import cmath
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gup_mirror
from gup_mirror import amplitude
from gup_mirror import (
    DimensionlessConfig,
    QuadratureConvergenceError,
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
    # The closed form is first order in eps; the oracle value is the
    # reference here.  Measured relative gap to the closed form at this
    # point: 4.1e-6, second order in eps.
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    result = p2_numeric(d)
    assert result.probability == pytest.approx(0.005766970303978038, rel=1e-8)
    closed = p2_closed(d).total
    assert abs(result.probability - closed) / closed == pytest.approx(4.1e-6, abs=1e-6)


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


def test_determinism():
    d = DimensionlessConfig(x=1.3, y=0.8, zeta=0.6, eps=0.005)
    first = p1_numeric(d)
    second = p1_numeric(d)
    assert first.probability == second.probability
    assert first.amplitude == second.amplitude


def test_unreachable_tolerance_flags_non_convergence(quad_above_gate):
    # an amplitude whose error estimate is above the gate of 1e-8 is not
    # certified, whatever its value
    for eps in (0.0, 0.01):
        d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps)
        with pytest.raises(QuadratureConvergenceError, match="error estimate"):
            p1_numeric(d)
        with pytest.raises(QuadratureConvergenceError, match="error estimate"):
            p2_numeric(d)


def test_p2_requires_wedge():
    with pytest.raises(ValueError, match="zeta < 1"):
        p2_numeric(DimensionlessConfig(x=1.0, y=1.0, zeta=1.2, eps=0.0))


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
    assert record.p1_within and record.p2_within
    # the deviation is reported as measured, not clipped to the bound
    numeric = p2_numeric(d).probability
    closed = p2_closed(d).total
    gap = abs(numeric - closed) / closed
    assert record.p2_rel_dev == gap


def test_verify_pair_propagates_non_convergence(quad_above_gate):
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    with pytest.raises(QuadratureConvergenceError):
        verify_pair(d)
    with pytest.raises(ValueError, match="zeta < 1"):
        verify_pair(DimensionlessConfig(x=1.0, y=1.0, zeta=1.5, eps=0.0))


def test_verify_pair_where_closed_form_underflows_to_zero():
    # the Planck factor rounds to 0 from x of about 118.6, so p1_closed is
    # exactly 0 at x = 120 while the oracle leaves a tiny nonzero value
    d = DimensionlessConfig(x=120.0, y=1.0, zeta=0.5, eps=0.0)
    record = verify_pair(d)
    assert record.p1_closed == 0.0 and record.p1_numeric > 0.0
    assert record.p1_rel_dev == math.inf
    assert not record.p1_within and not record.all_within
    assert record.p2_within
    # from x of about 474.4 the oracle's rotation factor rounds to 0 as
    # well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = verify_pair(DimensionlessConfig(x=500.0, y=1.0, zeta=0.5, eps=0.0))
    assert far.p1_closed == far.p1_numeric == 0.0
    assert far.p1_rel_dev == 0.0 and far.p1_within
    # p2's Planck factor in y rounds to 0 at y = 120; the oracle gives
    # 2.35e-189 there, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = verify_pair(DimensionlessConfig(x=1.0, y=120.0, zeta=0.5, eps=0.0))
    assert wide.p2_closed == 0.0 and wide.p2_numeric > 0.0
    assert wide.p2_rel_dev == math.inf
    assert not wide.p2_within and not wide.all_within
    assert wide.p1_within


@pytest.mark.parametrize("point, zeroed", [
    ((1e7, 1.0, 0.5, 0.0), p1_numeric), ((1.0, 1e7, 0.5, 0.0), p2_numeric),
    ((474.0, 474.0, 0.5, 0.01), None),
], ids=["x-1e7", "y-1e7", "omega-474"])
def test_oracle_node_count_bounded_at_large_frequency(monkeypatch, point, zeroed):
    # the start step shrinks as pi / (omega + 4), but once the rotation
    # e^{-pi omega / 2} has underflowed, from omega of about 474.4, the
    # amplitude is 0 without a sum; below that the step is at least 2^-8
    # and two evaluations of about 11k nodes each end the rule
    original, nodes = amplitude.quad, []
    monkeypatch.setattr(amplitude, "quad",
                        lambda f, *rest: original(lambda t: nodes.append(t.size) or f(t), *rest))
    d = DimensionlessConfig(*point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for oracle in (p1_numeric, p2_numeric):
            nodes.clear()
            result = oracle(d)
            if oracle is zeroed:
                assert nodes == []
                assert result.amplitude == 0.0 and result.extrapolation_residual == 0.0
            assert sum(nodes) <= 1 << 15


def test_no_integration_warning_on_criterion_2_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y, zeta, eps in itertools.product(
            (0.7, 1.1, 1.9), (0.7, 1.2, 2.0), (0.35, 0.55, 0.8), (0.0, 1e-3, 1e-2)
        ):
            d = DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
            p1_numeric(d)
            p2_numeric(d)


@pytest.mark.parametrize("oracle, point, evaluations, first_k", [
    (p1_numeric, (1.0, 1.0, 0.5, 0.0), 1, 3),
    (p1_numeric, (1.0, 1.0, 0.5, 0.01), 1, 3),
    (p2_numeric, (1.0, 1.0, 0.5, 0.0), 1, 3),
    (p2_numeric, (1.0, 1.0, 0.5, 0.01), 1, 3),
    (p2_numeric, (1.0, 15.0, 0.5, 0.0), 2, 3),
    (p1_numeric, (30.0, 1.0, 0.5, 0.0), 2, 4),
    (p2_numeric, (1.0, 120.0, 0.5, 0.0), 2, 6),
], ids=["p1-eps0", "p1-eps", "p2-eps0", "p2-eps", "p2-halved", "p1-large-x", "p2-large-ybar"])
def test_one_real_quadrature_per_contour_piece(monkeypatch, oracle, point, evaluations, first_k):
    # each probability is one real integral of the projection the
    # amplitude reads, whatever eps is: one trapezoid sum on nodes that are
    # exact in binary, from this many evaluations of its real integrand.
    # The first evaluation is on the nodes j 2^-first_k, at most 1/8 apart
    # and finer where the frequency needs a smaller start step
    original = amplitude.quad
    calls = []

    def counted(f, lower, upper, *rest):
        nodes = []

        def recorded(t):
            values, moduli = f(t)
            assert values.dtype == moduli.dtype == np.float64
            assert values.shape == moduli.shape == t.shape
            assert (np.abs(values) <= moduli).all()
            nodes.append(t)
            return values, moduli

        result = original(recorded, lower, upper, *rest)
        calls.append((nodes, lower, upper))
        return result

    monkeypatch.setattr(amplitude, "quad", counted)
    oracle(DimensionlessConfig(*point))
    assert len(calls) == 1
    nodes, lower, upper = calls[0]
    assert len(nodes) == evaluations
    # the first evaluation holds every multiple of 2^-first_k in [lower, upper]
    scale = 2.0 ** first_k
    first = nodes[0] * scale
    assert first.size >= 2 and (first == np.round(first)).all()
    assert (np.diff(first) == 1.0).all()
    assert first[0] - 1.0 < scale * lower <= first[0]
    assert first[-1] <= scale * upper < first[-1] + 1.0
    # each later one, for h = 2^-k with k = first_k + 1, ..., only the odd
    # multiples of h, which the earlier ones lack
    for k, sigma in enumerate(nodes[1:], start=first_k + 1):
        scaled = sigma * 2.0 ** k
        assert sigma.size and (scaled == np.round(scaled)).all()
        assert (np.round(scaled) % 2 == 1).all()
    every = np.concatenate(nodes)
    assert np.unique(every).size == every.size


@pytest.mark.parametrize("point", [(1.0, 1.0, 0.5, 0.0), (0.7, 2.0, 0.8, 0.01),
                                   (1e-3, 0.1, 0.999, 0.05)])
def test_p2_integrand_matches_scalar_complex_form(monkeypatch, point):
    # the vectorised integrand against the scalar complex form it replaced,
    # Re exp(sigma - x s + i (ybar sigma - x zeta) - i eta log(2 zeta - i s)),
    # on the nodes j/2 from -39 to 4; the tolerance, 1e-13 of the modulus,
    # is a few hundred ulps, set for arguments up to 40 in size
    original = amplitude.quad
    integrands = []

    def captured(f, *args):
        integrands.append(f)
        return original(f, *args)

    monkeypatch.setattr(amplitude, "quad", captured)
    d = DimensionlessConfig(*point)
    p2_numeric(d)
    ybar, eta = d.y * (1.0 - 0.5 * d.eps), 0.5 * d.eps * d.y
    sigma = np.arange(-78, 9) * 0.5
    values, moduli = integrands[0](sigma)
    for t, value, modulus in zip(sigma.tolist(), values.tolist(), moduli.tolist()):
        s = math.exp(t)
        exact = cmath.exp(complex(t - d.x * s, ybar * t - d.x * d.zeta)
                          - 1j * eta * cmath.log(complex(2.0 * d.zeta, -s)))
        assert abs(value - exact.real) <= 1e-13 * abs(exact)
        assert abs(modulus - abs(exact)) <= 1e-13 * abs(exact)


def test_import_leaves_scipy_unloaded(tmp_path):
    # the package never imports scipy, a single-point closed-form run never
    # pays for numpy, and the oracle runs with scipy unimportable
    compare = f"mode = compare\nx = 1\ny = 1\nzeta = 0.5\nout = {tmp_path / 'c.csv'}"
    path = os.pathsep.join(p for p in (str(Path(gup_mirror.__file__).resolve().parents[1]),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for module, code in (("scipy", "import gup_mirror"),
                         ("numpy", f"import gup_mirror; gup_mirror.run(gup_mirror.parse_config({compare!r}))")):
        result = subprocess.run([sys.executable, "-c", f"import sys; {code}; print({module!r} in sys.modules)"],
                                capture_output=True, text=True, env=env, timeout=60, check=True)
        assert result.stdout.strip() == "False", module
    assert (tmp_path / "c.csv").read_text().count("\n") == 2
    config, out = tmp_path / "verify.conf", tmp_path / "verify.csv"
    config.write_text("grid = default\n")
    verify = ('import sys; sys.modules["scipy"] = None; from gup_mirror.cli import main; '
              f'sys.exit(main(["verify", "--config", {str(config)!r}, "--out", {str(out)!r}]))')
    result = subprocess.run([sys.executable, "-c", verify], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    assert out.read_text().count("\n") == 28
