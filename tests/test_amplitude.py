"""Quadrature oracle: two-route agreement, regression values, error control."""

import cmath
import itertools
import math
import os
import random
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


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, 3.2e-307])
@pytest.mark.parametrize("oracle", [p1_numeric, p2_numeric])
def test_oracle_at_tiny_x_raises_convergence_error(oracle, x):
    # below x of about 3.3e-307 p2's decay limit ln(60 / x) is inf, and at
    # 5e-324 p1's x h / 2 rounds to 0 inside a cotangent; like x = 1e-306,
    # these points are not certified, and say so without another error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureConvergenceError):
            oracle(DimensionlessConfig(x=x, y=1.0, zeta=0.5, eps=0.0))


def test_p1_at_tiny_y_raises_convergence_error():
    # p1's upper limit is ln(60 / a1), with a1 = y (1 - eps / 2)
    with pytest.raises(QuadratureConvergenceError, match="does not decay"):
        p1_numeric(DimensionlessConfig(x=1.0, y=1e-320, zeta=0.5, eps=0.0))


def test_p2_requires_wedge():
    with pytest.raises(ValueError, match="zeta < 1"):
        p2_numeric(DimensionlessConfig(x=1.0, y=1.0, zeta=1.2, eps=0.0))


def test_verify_pair_at_eps_zero():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    record = verify_pair(d)
    assert record.bound == 1e-3
    assert record.p1_rel_dev < 1e-3 and record.p2_rel_dev < 1e-3
    assert record.p1_breakdown == p1_closed(d) and record.p2_breakdown == p2_closed(d)
    closed = record.p1_breakdown.total
    assert record.p1_rel_dev == abs(record.p1_numeric - closed) / closed


def test_verify_pair_reports_honest_deviations_at_eps():
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    record = verify_pair(d)
    assert record.bound == 1e-2
    assert record.p1_rel_dev <= record.bound and record.p2_rel_dev <= record.bound
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
    assert record.p1_breakdown.total == 0.0 and record.p1_numeric > 0.0
    assert record.p1_rel_dev == math.inf
    assert record.p2_rel_dev <= record.bound
    # from x of about 474.4 the oracle's rotation factor rounds to 0 as
    # well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = verify_pair(DimensionlessConfig(x=500.0, y=1.0, zeta=0.5, eps=0.0))
    assert far.p1_breakdown.total == far.p1_numeric == 0.0
    assert far.p1_rel_dev == 0.0
    # p2's Planck factor in y rounds to 0 at y = 120; the oracle gives
    # 2.35e-189 there, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = verify_pair(DimensionlessConfig(x=1.0, y=120.0, zeta=0.5, eps=0.0))
    assert wide.p2_breakdown.total == 0.0 and wide.p2_numeric > 0.0
    assert wide.p2_rel_dev == math.inf
    assert wide.p1_rel_dev <= wide.bound


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
            result = f(t)
            values, moduli = result
            assert values.dtype == moduli.dtype == np.float64
            assert values.shape == moduli.shape == t.shape
            assert (np.abs(values) <= moduli).all()
            nodes.append(t)
            return result

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


def _oracle_box(seed, blocks):
    """Points of the benchmark's oracle box, x and y in [0.5, 2], zeta in
    [0.3, 0.9]: each block holds one point in each cell of its 3x3x3
    split, and each eps in {0, 1e-3, 1e-2} at nine of them."""
    rng = random.Random(seed)
    cells = list(itertools.product(range(3), repeat=3))
    for _ in range(blocks):
        eps_values = [0.0, 1e-3, 1e-2] * 9
        rng.shuffle(eps_values)
        for (i, j, k), eps in zip(cells, eps_values):
            yield DimensionlessConfig(0.5 + 0.5 * (i + rng.random()), 0.5 + 0.5 * (j + rng.random()),
                                      0.3 + 0.2 * (k + rng.random()), eps)


# p1 points of the box whose sums already agree at h = 1/4
BOX_QUARTER_STOPS = [DimensionlessConfig(0.51857261673, 1.5056174585358963, 0.35500987356991065, 0.0),
                     DimensionlessConfig(0.9137659673981344, 1.0843579317514365, 0.4263989729908987, 0.0)]


def test_oracle_box_takes_one_evaluation_per_probability(monkeypatch):
    # the work of a benchmark oracle point: per probability one quad call
    # and one evaluation, on every multiple of 1/8 between the rule's own
    # limits, which gives every sum down to h = 1/8.  p1's sums stop there
    # or, at a few points, at h = 1/4, one level earlier
    original, calls = amplitude.quad, []

    def recorded(f, lower, upper, omega, abel=None):
        sizes, steps = [], []
        calls.append((lower, upper, sizes, steps))
        return original(lambda t: sizes.append(t.size) or f(t), lower, upper, omega,
                        abel and (lambda h: steps.append(h) or abel(h)))

    monkeypatch.setattr(amplitude, "quad", recorded)
    for d in itertools.chain(_oracle_box(32, 12), BOX_QUARTER_STOPS):
        for oracle in (p1_numeric, p2_numeric):
            oracle(d)
            (lower, upper, sizes, steps), = calls
            calls.clear()
            assert sizes == [math.floor(8.0 * upper) - math.ceil(8.0 * lower) + 1], (oracle.__name__, d)
            if oracle is p1_numeric:
                stops = [[0.5, 0.25]] if d in BOX_QUARTER_STOPS else [[0.5, 0.25], [0.5, 0.25, 0.125]]
                assert steps in stops, d


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
    # pays for numpy, L's series summed (eps > 0) or not, and the oracle runs
    # with scipy unimportable; a CLI run, and the runner alone, load neither
    # dataclasses nor a module that no mode calls, and only verify loads the
    # oracle
    point = "x = 1\ny = 1\nzeta = 0.5\n"
    env = _package_env()
    runs = [(("scipy",), "import gup_mirror")]
    for name, text, unloaded in (
            ("c", f"mode = compare\n{point}", ("numpy",)),
            ("c-gup", f"mode = compare\n{point}eps = 0.01\n", ("numpy",)),
            ("p1", f"mode = p1\n{point}", ()),
            ("s", f"mode = sweep\n{point}sweep_param = x\nsweep_min = 0.5\nsweep_max = 2\n"
                  "sweep_count = 3\n", ())):
        text = f"{text}out = {tmp_path / name}.csv"
        runs.append(((*unloaded, "gup_mirror.amplitude"), "import gup_mirror; "
                     f"gup_mirror.run(gup_mirror.parse_config({text!r}))"))
    for module in ("gup_mirror.cli", "gup_mirror.runner"):
        runs.append((("dataclasses", "gup_mirror.dispersion", "gup_mirror.modes",
                      "gup_mirror.amplitude"), f"import {module}"))
    for modules, code in runs:
        result = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; print([m for m in {modules!r} if m in sys.modules])"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        assert result.stdout.strip() == "[]", (code, result.stdout)
    for name, lines in (("c", 2), ("c-gup", 2), ("p1", 2), ("s", 4)):
        assert (tmp_path / f"{name}.csv").read_text().count("\n") == lines
    config, out = tmp_path / "verify.conf", tmp_path / "verify.csv"
    config.write_text("grid = default\n")
    verify = ('import sys; sys.modules["scipy"] = None; from gup_mirror.cli import main; '
              f'sys.exit(main(["verify", "--config", {str(config)!r}, "--out", {str(out)!r}]))')
    result = subprocess.run([sys.executable, "-c", verify], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    assert out.read_text().count("\n") == 28


def _package_env() -> dict[str, str]:
    """The environment with this package first on PYTHONPATH, for a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(Path(gup_mirror.__file__).resolve().parents[1]),
                                       os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_first_verify_maps_non_convergence_to_exit_2(tmp_path):
    # the runner loads the oracle only inside a verify run, and still maps
    # the oracle's non-convergence error to exit 2 with one stderr line and
    # no CSV; in this interpreter nothing has loaded the oracle beforehand
    config, out = tmp_path / "x7.conf", tmp_path / "x7.csv"
    config.write_text("x = 1e-7\ny = 1\nzeta = 0.5\neps = 0\n")
    code = ('import sys; from gup_mirror.cli import main; '
            'assert "gup_mirror.amplitude" not in sys.modules; '
            f'status = main(["verify", "--config", {str(config)!r}, "--out", {str(out)!r}]); '
            'import gup_mirror; '
            'assert gup_mirror.QuadratureConvergenceError is '
            'gup_mirror.amplitude.QuadratureConvergenceError; '
            'sys.exit(status)')
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_package_env(), timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stderr == ("quadrature did not converge: probability-1 amplitude: quadrature "
                             "error estimate 2.521e-08 exceeds 1.000e-08\n")
    assert not out.exists()
