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

The package namespace is lazy: each public name is looked up in its
home module on first access (PEP 562).  Importing the package loads the
runner and every module the closed-form, bound and temperatures modes
call.  The quadrature oracle, ``amplitude``, loads on the first
``verify`` run or on first access to one of its names.  Every module
of the package is one that some mode loads; the mode functions and the
dispersion roots, which no mode calls, live with the tests.  The
records are NamedTuples; no module imports ``dataclasses``.
"""

import importlib

# The modules a closed-form, bound or temperatures run calls load with the
# package, as they did when it bound every public name on import: code
# that imports one of them and then replaces or deletes a function there
# (a tracer, a test) finds the modules that copied the function already
# holding the original.  ``amplitude`` is the exception: it loads on the
# first ``verify`` run or on first access to one of its names, and then
# copies ``p1_closed``, ``p2_closed``, ``DimensionlessConfig`` and
# ``deformed_frequencies`` as they stand at that moment, so code that
# replaces one of those must load ``amplitude`` first (perfbench's tracer
# does, by importing ``QuadratureConvergenceError`` before it installs).
from . import runner  # noqa: F401

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    "amplitude": ("AmplitudeResult", "QuadratureConvergenceError", "VerifyRecord",
                  "p1_numeric", "p2_numeric", "verify_pair"),
    "closed_form": ("ProbabilityBreakdown", "TemperaturePair", "p1_closed", "p2_closed",
                    "q_parameter", "temperatures"),
    "equivalence": ("BetaBound", "ViolationReport", "beta_bound", "violation_parameter"),
    "runner": ("ConfigError", "RunConfig", "SweepAxis", "parse_config", "run"),
    "special": ("gamma_phase_set", "log_gamma", "planck_factor"),
    "units": ("CODATA", "DimensionlessConfig", "PhysicalConfig", "PhysicalConstants",
              "to_dimensionless"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """The public name's current binding in its home module.  It is not
    cached here, so a function replaced there (a tracer's wrapper) is
    what the package hands out too."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
