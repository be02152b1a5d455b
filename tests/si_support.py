"""SI parameters for a dimensionless point: test set-up for the SI boundary."""

from gup_mirror.units import CODATA, DimensionlessConfig, PhysicalConfig


def physical_from_dimensionless(d: DimensionlessConfig,
                                reference_acceleration: float) -> PhysicalConfig:
    """Instantiate SI parameters realizing the given dimensionless groups.

    The dimensionless groups fix the physics only up to one overall scale;
    `reference_acceleration` (m/s^2) pins it.  Round-trips with
    `to_dimensionless` up to floating-point rounding.
    """
    if not reference_acceleration > 0.0:
        raise ValueError("reference_acceleration must be strictly positive")
    a = reference_acceleration
    nu = d.y * a / CODATA.c
    beta = d.eps * CODATA.c**2 / (CODATA.hbar**2 * nu**2) if d.eps > 0.0 else 0.0
    return PhysicalConfig(
        a=a,
        omega0=d.x * a / CODATA.c,
        nu=nu,
        z0=d.zeta * CODATA.c**2 / a,
        beta=beta,
    )
