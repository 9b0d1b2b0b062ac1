"""Asymptotic entropy and rate of escape for transient random walks on
regular languages over a finite alphabet."""

__version__ = "0.1.0"

from .model import (AssumptionError, parse_model, load_model,
                    check_weak_symmetry, check_suffix_irreducibility,
                    check_relaxed_condition)
from .genfun import solve_all
from .cones import classify_types
from . import cli, cones, entropy, genfun, lastentry, model, pipeline, simulate  # noqa: F401

# the names the tests, the benchmark and the README read from the package
__all__ = [
    "AssumptionError", "parse_model", "load_model", "check_weak_symmetry",
    "check_suffix_irreducibility", "check_relaxed_condition",
    "classify_types", "solve_all", "__version__",
]
