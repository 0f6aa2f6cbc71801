"""Nonlocal-dispersal epidemic fronts: eigenvalues, steady states, moving
boundaries, semi-wave speeds, and spreading criteria."""

from .model import (
    DerivedConstants,
    Kernel,
    ModelError,
    ModelParams,
    NoPositiveEquilibrium,
    Nonlinearity,
    derived_constants,
    equilibrium,
    first_moment,
    initial_profile,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants",
    "Kernel",
    "ModelError",
    "ModelParams",
    "NoPositiveEquilibrium",
    "Nonlinearity",
    "derived_constants",
    "equilibrium",
    "first_moment",
    "initial_profile",
    "__version__",
]
