"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 (oracle agreement) compares the quadrature oracle against the
closed forms on a fixed 3x3x3 grid.  The grid values are chosen away from
interference nodes (all compared cells have sin^2 of the phase above
1e-2) so the relative comparison is well conditioned; a conditioning
precondition guards that choice explicitly.
"""

import math
import time

import numpy as np
import pytest

from gup_mirror import (
    CODATA,
    DimensionlessConfig,
    beta_bound,
    gamma_phase_set,
    log_gamma,
    p1_closed,
    p1_numeric,
    p2_closed,
    p2_numeric,
    parse_config,
    q_parameter,
    run,
)
from gup_mirror.special import _principal

from dispersion import wavenumber_exact
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

GRID_X = (0.7, 1.1, 1.9)
GRID_Y = (0.7, 1.2, 2.0)
GRID_ZETA = (0.35, 0.55, 0.8)
EPS_VALUES = (0.0, 1e-3, 1e-2)


def report(number: int, label: str, failures: list[str], elapsed: float, budget: float):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} "
          f"(runtime {elapsed:.3f}s / budget {budget:g}s)")
    for line in failures[:20]:
        print(f"    {line}")
    if len(failures) > 20:
        print(f"    ... and {len(failures) - 20} more")
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"
    assert not failures, f"criterion {number}: {len(failures)} violations"


def test_criterion_1_heisenberg_equivalence():
    start = time.perf_counter()
    failures = []
    for x in (0.5, 1.0, 2.0):
        for zeta in (0.3, 0.5, 0.9):
            d = DimensionlessConfig(x=x, y=x, zeta=zeta, eps=0.0)
            one = p1_closed(d).total
            two = p2_closed(d).total
            rel = abs(one - two) / one
            if not rel < 1e-12:
                failures.append(f"x=y={x} zeta={zeta}: rel={rel:.2e}")
    elapsed = time.perf_counter() - start
    report(1, "closed-form equivalence at eps=0, x=y", failures, elapsed, 1.0)


def test_criterion_2_oracle_agreement():
    start = time.perf_counter()
    failures = []
    for x in GRID_X:
        for y in GRID_Y:
            for zeta in GRID_ZETA:
                for eps in EPS_VALUES:
                    tolerance = 1e-3 if eps == 0.0 else 1e-2
                    d = DimensionlessConfig(x=x, y=y, zeta=zeta, eps=eps)
                    closed1 = p1_closed(d)
                    closed2 = p2_closed(d)
                    if eps > 0.0 and min(closed1.sin2, closed2.sin2) < 1e-3:
                        raise RuntimeError(
                            f"grid cell ({x},{y},{zeta},{eps}) sits on an "
                            "interference node; comparison ill-conditioned"
                        )
                    rel1 = abs(p1_numeric(d).probability - closed1.total) / closed1.total
                    rel2 = abs(p2_numeric(d).probability - closed2.total) / closed2.total
                    if not rel1 < tolerance:
                        failures.append(
                            f"p1 ({x},{y},{zeta},eps={eps}): rel={rel1:.2e} > {tolerance:g}"
                        )
                    if not rel2 < tolerance:
                        failures.append(
                            f"p2 ({x},{y},{zeta},eps={eps}): rel={rel2:.2e} > {tolerance:g}"
                        )
    elapsed = time.perf_counter() - start
    report(2, "oracle vs closed forms on 3x3x3 grid", failures, elapsed, 60.0)


def test_criterion_3_gup_bound():
    omega = 2.0 * math.pi * 1.0e9
    z0 = CODATA.c**2 / 9.8
    beta_bound(a=9.8, omega0=omega, nu=omega, z0=z0)  # warm any lazy setup
    start = time.perf_counter()
    bound = beta_bound(a=9.8, omega0=omega, nu=omega, z0=z0)
    elapsed = time.perf_counter() - start
    failures = []
    if not 1e66 <= bound.beta_max_planck_units <= 1e68:
        failures.append(f"beta_max = {bound.beta_max_planck_units:.3e} outside [1e66, 1e68]")
    report(3, "GUP-parameter bound bracketing 1e67 (M_P c)^-2", failures, elapsed, 1e-3)


def test_criterion_4_gamma_layer_identities():
    start = time.perf_counter()
    failures = []
    for x in np.geomspace(0.1, 10.0, 200):
        modulus_sq = math.exp(2.0 * log_gamma(complex(0.0, x)).real)
        target = math.pi / (x * math.sinh(math.pi * x))
        checks = {
            "modulus": (modulus_sq, target),
            "kappa": (_principal(log_gamma(complex(0.0, x)).imag), -gamma_phase_set(x)),
        }
        for name, (got, want) in checks.items():
            scale = max(abs(want), 1e-300)
            if not abs(got - want) / scale < 1e-10:
                failures.append(f"{name} at x={x:.4f}: got {got!r}, want {want!r}")
    elapsed = time.perf_counter() - start
    report(4, "Gamma-layer identities on 200 log-spaced points", failures, elapsed, 1.0)


def test_criterion_5_dispersion_consistency():
    start = time.perf_counter()
    failures = []
    for eps in (1e-4, 1e-3, 1e-2):
        k = wavenumber_exact(eps).k
        if not abs(k - (1.0 - eps)) <= 5.0 * eps**2:
            failures.append(f"eps={eps}: |k_exact - (1-eps)| = {abs(k - (1 - eps)):.2e}")
        residual = 2.0 * eps * k**4 + k**2 - 1.0
        if not abs(residual) < 1e-14:
            failures.append(f"eps={eps}: quartic residual {residual:.2e}")
    elapsed = time.perf_counter() - start
    report(5, "dispersion roots: perturbative consistency and residual", failures, elapsed, 1e-3)


def test_criterion_6_mode_boundary_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    mode = ModeSpec(y=1.3, eps=0.02, zeta0=0.7)

    for t in rng.uniform(-10.0, 10.0, size=100):
        if not abs(mode_static_mirror(SpacetimePoint(t=t, z=mode.zeta0), mode)) < 1e-12:
            failures.append(f"static-mirror boundary at t={t}")
        if not abs(mode_rindler(SpacetimePoint(t=t, z=0.0), mode)) < 1e-12:
            failures.append(f"rindler boundary at t={t}")

    checked = 0
    while checked < 1000:
        z = rng.uniform(0.05, 3.0)
        t = rng.uniform(-z, z)
        if not z > abs(t):
            continue
        p = SpacetimePoint(t=t, z=z)
        direct = mode_accel_mirror(p, mode)
        via = mode_rindler(minkowski_to_rindler(p), mode)
        if not abs(direct - via) <= 1e-12 * abs(via):
            failures.append(f"wedge consistency at (t={t:.4f}, z={z:.4f})")
        checked += 1

    for _ in range(200):
        bar = SpacetimePoint(t=rng.uniform(-2, 2), z=rng.uniform(-2, 2))
        back = minkowski_to_rindler(rindler_to_minkowski(bar))
        if not (abs(back.t - bar.t) < 1e-13 and abs(back.z - bar.z) < 1e-13):
            failures.append(f"round trip at (t={bar.t:.4f}, z={bar.z:.4f})")
        worldline = atom_trajectory(bar.t)
        if not abs(worldline.z**2 - worldline.t**2 - 1.0) < 1e-12:
            failures.append(f"worldline hyperbola at tau={bar.t:.4f}")
    elapsed = time.perf_counter() - start
    report(6, "mode boundaries, wedge consistency, transform round trips",
           failures, elapsed, 1.0)


def test_criterion_7_violation_linearity():
    start = time.perf_counter()
    failures = []
    for zeta in (0.3, 0.5, 0.9, 2.0):
        for eps in (1e-4, 1e-3, 1e-2):
            lhs = q_parameter(2.0 * eps, zeta)
            rhs = 2.0 * q_parameter(eps, zeta)
            if not abs(lhs - rhs) <= 1e-12 * abs(rhs):
                failures.append(f"Q linearity at zeta={zeta}, eps={eps}")

    d0 = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    defect0 = p2_closed(d0).phase_argument - p1_closed(d0).phase_argument
    if not abs(defect0) < 1e-13:
        failures.append(f"phase defect nonzero at eps=0: {defect0:.2e}")
    for eps in (1e-3, 5e-3, 1e-2):
        d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps)
        d2 = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=2.0 * eps)
        defect = p2_closed(d).phase_argument - p1_closed(d).phase_argument
        defect2 = p2_closed(d2).phase_argument - p1_closed(d2).phase_argument
        if defect == 0.0:
            failures.append(f"phase defect vanishes at eps={eps}")
        elif not abs(defect2 / defect - 2.0) < 0.1 * 2.0:
            failures.append(f"defect ratio at eps={eps}: {defect2 / defect:.4f}")
    elapsed = time.perf_counter() - start
    report(7, "violation parameter linearity and phase defect", failures, elapsed, 1.0)


def test_criterion_8_deterministic_sweeps(tmp_path):
    start = time.perf_counter()
    base = (
        "mode = sweep\nx = 1\ny = 1\nzeta = 0.5\neps = 0.01\n"
        "sweep_param = zeta\nsweep_min = 0.1\nsweep_max = 0.9\nsweep_count = 40\n"
    )
    outputs = []
    for index, workers in enumerate((1, 4, 2, 1)):
        out = tmp_path / f"sweep{index}.csv"
        code = run(parse_config(base + f"workers = {workers}\nout = {out}"))
        assert code == 0
        outputs.append(out.read_bytes())
    failures = []
    if not all(data == outputs[0] for data in outputs[1:]):
        failures.append("CSV output differs across worker counts / repetitions")
    elapsed = time.perf_counter() - start
    report(8, "byte-identical sweep CSV across worker counts", failures, elapsed, 30.0)
