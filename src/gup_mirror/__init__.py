"""Excitation probabilities of a relatively accelerating atom-mirror system
with a GUP-deformed scalar field.

Two configurations of the same two-level atom and perfect mirror:

* probability 1: the atom uniformly accelerates past a static mirror;
* probability 2: the atom is static and the mirror accelerates away.

Both are computed from closed forms and, independently, by direct
oscillatory quadrature of the transition amplitudes.  At vanishing GUP
strength and equal atom/photon frequencies the two probabilities
coincide; the GUP deformation breaks that symmetry, which this package
quantifies along with the resulting bound on the GUP parameter.
"""

from .amplitude import (
    AmplitudeResult,
    QuadratureConvergenceError,
    VerifyRecord,
    p1_numeric,
    p2_numeric,
    verify_pair,
)
from .closed_form import (
    ProbabilityBreakdown,
    TemperaturePair,
    p1_closed,
    p1_closed_si,
    p2_closed,
    p2_closed_si,
    temperatures,
)
from .dispersion import (
    Wavenumber,
    wavenumber_exact,
    wavenumber_perturbative,
    wavenumber_trans_planckian,
)
from .equivalence import (
    BetaBound,
    ViolationReport,
    beta_bound,
    q_parameter,
    symmetry_defect_scan,
    violation_parameter,
)
from .modes import (
    ModeSpec,
    SpacetimePoint,
    atom_trajectory,
    minkowski_to_rindler,
    mode_accel_mirror,
    mode_rindler,
    mode_static_mirror,
    rindler_to_minkowski,
)
from .runner import ConfigError, RunConfig, SweepAxis, parse_config, run
from .special import gamma_phase_set, log_gamma, planck_factor
from .units import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
    PhysicalConstants,
    physical_from_dimensionless,
    to_dimensionless,
    validate_physical,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeResult",
    "BetaBound",
    "CODATA",
    "ConfigError",
    "DimensionlessConfig",
    "ModeSpec",
    "PhysicalConfig",
    "PhysicalConstants",
    "ProbabilityBreakdown",
    "QuadratureConvergenceError",
    "RunConfig",
    "SpacetimePoint",
    "SweepAxis",
    "TemperaturePair",
    "VerifyRecord",
    "ViolationReport",
    "Wavenumber",
    "atom_trajectory",
    "beta_bound",
    "gamma_phase_set",
    "log_gamma",
    "minkowski_to_rindler",
    "mode_accel_mirror",
    "mode_rindler",
    "mode_static_mirror",
    "p1_closed",
    "p1_closed_si",
    "p1_numeric",
    "p2_closed",
    "p2_closed_si",
    "p2_numeric",
    "parse_config",
    "physical_from_dimensionless",
    "planck_factor",
    "q_parameter",
    "rindler_to_minkowski",
    "run",
    "symmetry_defect_scan",
    "temperatures",
    "to_dimensionless",
    "validate_physical",
    "verify_pair",
    "violation_parameter",
    "wavenumber_exact",
    "wavenumber_perturbative",
    "wavenumber_trans_planckian",
    "__version__",
]
