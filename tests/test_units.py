"""Unit-system boundary: constants, validation, dimensionless reduction."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from gup_mirror import CODATA, DimensionlessConfig, PhysicalConfig, to_dimensionless

from dispersion import Wavenumber, wavenumber_perturbative
from modes import ModeSpec, SpacetimePoint
from si_support import physical_from_dimensionless


def test_constants_positive_and_frozen():
    assert CODATA.c == 299792458.0
    assert CODATA.hbar == 1.054571817e-34
    assert CODATA.k_B == 1.380649e-23
    assert CODATA.planck_mass == 2.176434e-8
    with pytest.raises(AttributeError):
        CODATA.c = 1.0


def test_identity_scaling_point():
    # a = c (in m/s^2) makes c/a = 1 s; z0 = c^2/a makes zeta = 1
    k = CODATA
    p = PhysicalConfig(a=k.c, omega0=1.0, nu=1.0, z0=k.c, beta=0.0)
    # z0 == c^2/a exactly: relax the wedge bound by choosing z0 slightly inside
    d = to_dimensionless(p)
    assert d.x == 1.0
    assert d.y == 1.0
    assert d.zeta == 1.0
    assert d.eps == 0.0


def test_beta_zero_gives_eps_zero():
    p = PhysicalConfig(a=9.8, omega0=3.0e9, nu=1.0e9, z0=1.0e3, beta=0.0)
    assert to_dimensionless(p).eps == 0.0


def test_si_reduction_against_independent_arithmetic():
    # a = 9.8, omega0 = nu = 2 pi GHz, z0 = c^2/a, beta = 1e60 (M_P c)^-2
    k = CODATA
    omega = 2.0 * math.pi * 1.0e9
    beta = 1.0e60 / (k.planck_mass * k.c) ** 2
    p = PhysicalConfig(a=9.8, omega0=omega, nu=omega, z0=k.c**2 / 9.8, beta=beta)
    d = to_dimensionless(p)
    # frozen from 30-digit evaluation of the same expressions
    assert d.x == pytest.approx(1.9220934360294421e17, rel=1e-14)
    assert d.y == pytest.approx(1.9220934360294421e17, rel=1e-14)
    assert d.zeta == pytest.approx(1.0, rel=1e-14)
    assert abs(d.eps) == pytest.approx(1.1474618175484555e-7, rel=1e-12)
    # independent arithmetic path: exact rationals for the ratio structure
    x_frac = Fraction(omega) * Fraction(k.c) / Fraction(9.8)
    assert d.x == pytest.approx(float(x_frac), rel=1e-14)


def test_constructor_rejects_invalid():
    with pytest.raises(ValueError, match="omega0"):
        PhysicalConfig(a=1.0, omega0=-2.0, nu=1.0, z0=1.0)
    with pytest.raises(ValueError, match="perturbative"):
        DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.2)
    with pytest.raises(ValueError):
        DimensionlessConfig(x=0.0, y=1.0, zeta=0.5)
    with pytest.raises(ValueError):
        DimensionlessConfig(x=1.0, y=1.0, zeta=-0.5)
    for name in ("x", "y", "zeta"):
        for value in (math.inf, math.nan):
            values = {"x": 1.0, "y": 1.0, "zeta": 0.5, name: value}
            with pytest.raises(ValueError, match=f"{name} must be strictly positive and finite"):
                DimensionlessConfig(**values)


# (record, its repr, one invalid field, the constructor's message for it);
# each repr is the one the records printed as frozen dataclasses
_CHECKED_RECORDS = [
    pytest.param(DimensionlessConfig(1.0, 1.0, 0.5),
                 "DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)",
                 {"x": -1.0}, "x must be strictly positive and finite, got -1.0",
                 id="DimensionlessConfig"),
    pytest.param(PhysicalConfig(a=9.8, omega0=1e9, nu=1e9, z0=1e10),
                 "PhysicalConfig(a=9.8, omega0=1000000000.0, nu=1000000000.0, "
                 "z0=10000000000.0, beta=0.0)",
                 {"nu": 0.0}, "nu=0.0 violates nu > 0", id="PhysicalConfig"),
    pytest.param(Wavenumber(k=0.99, eps=0.01), "Wavenumber(k=0.99, eps=0.01)",
                 {"k": 0.0}, "k must be strictly positive", id="Wavenumber"),
    pytest.param(SpacetimePoint(t=0.5, z=1.25), "SpacetimePoint(t=0.5, z=1.25)",
                 {"t": math.inf}, "spacetime coordinates must be finite", id="SpacetimePoint"),
    pytest.param(ModeSpec(y=2.0, eps=0.01, zeta0=0.5), "ModeSpec(y=2.0, eps=0.01, zeta0=0.5)",
                 {"eps": 0.2}, "eps=0.2: perturbative regime violated (need 0 <= eps < 0.1)",
                 id="ModeSpec"),
]


@pytest.mark.parametrize("record, text, invalid, message", _CHECKED_RECORDS)
def test_checked_records_cannot_be_built_unchecked(record, text, invalid, message):
    cls = type(record)
    assert repr(record) == str(record) == text
    fields = {**record._asdict(), **invalid}
    with pytest.raises(ValueError) as err:
        cls(**fields)
    assert str(err.value) == message
    for build in (lambda: record._replace(**invalid), lambda: cls._make(fields.values())):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    for twin in (record._replace(), cls._make(record), pickle.loads(pickle.dumps(record)),
                 copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls and twin == record


def test_constructor_raises_first_sign_problem():
    fields = {"a": -1.0, "omega0": 1.0, "nu": 0.0, "z0": 1.0, "beta": -2.0}
    bad = tuple.__new__(PhysicalConfig, tuple(fields.values()))
    # each problem in field order, the next once the one before is mended
    for name, mended, message in (("a", 1.0, "a=-1.0 violates a > 0"),
                                  ("nu", 1.0, "nu=0.0 violates nu > 0"),
                                  ("beta", 0.0, "beta=-2.0 violates beta >= 0")):
        with pytest.raises(ValueError) as err:
            PhysicalConfig(**fields)
        assert str(err.value) == message
        fields[name] = mended
    PhysicalConfig(**fields)
    # an unchecked instance still cannot pass the reduction
    with pytest.raises(ValueError, match="x must be strictly positive"):
        to_dimensionless(bad)


@pytest.mark.parametrize("build", [
    lambda eps: DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=eps),
    lambda eps: ModeSpec(y=1.0, eps=eps),
    wavenumber_perturbative,
], ids=["DimensionlessConfig", "ModeSpec", "wavenumber_perturbative"])
@pytest.mark.parametrize("eps", [0.1, 0.5, -1e-3, math.nan])
def test_eps_guard_shared(build, eps):
    with pytest.raises(ValueError) as err:
        build(eps)
    assert str(err.value) == f"eps={eps!r}: perturbative regime violated (need 0 <= eps < 0.1)"


def test_eps_guard_message():
    k = CODATA
    nu = 1.0e9
    beta = 0.11 * k.c**2 / (k.hbar**2 * nu**2)
    p = PhysicalConfig(a=9.8, omega0=1.0e9, nu=nu, z0=1.0, beta=beta)
    with pytest.raises(ValueError, match="perturbative regime violated"):
        to_dimensionless(p)


def test_scale_invariance_of_reduction():
    rng = np.random.default_rng(42)
    k = CODATA
    base = PhysicalConfig(a=50.0, omega0=3.0, nu=2.0, z0=1.0e12, beta=1.0e52)
    d0 = to_dimensionless(base)
    for lam in rng.uniform(0.1, 10.0, size=20):
        scaled = PhysicalConfig(
            a=base.a * lam,
            omega0=base.omega0 * lam,
            nu=base.nu * lam,
            z0=base.z0 / lam,
            beta=base.beta / lam**2,
        )
        d = to_dimensionless(scaled)
        assert d.x == pytest.approx(d0.x, rel=1e-12)
        assert d.y == pytest.approx(d0.y, rel=1e-12)
        assert d.zeta == pytest.approx(d0.zeta, rel=1e-12)
        assert d.eps == pytest.approx(d0.eps, rel=1e-12)


def test_round_trip_through_si():
    d0 = DimensionlessConfig(x=1.7, y=0.9, zeta=0.55, eps=3.2e-3)
    p = physical_from_dimensionless(d0, reference_acceleration=9.8)
    d1 = to_dimensionless(p)
    assert d1.x == pytest.approx(d0.x, rel=1e-14)
    assert d1.y == pytest.approx(d0.y, rel=1e-14)
    assert d1.zeta == pytest.approx(d0.zeta, rel=1e-14)
    assert d1.eps == pytest.approx(d0.eps, rel=1e-14)
