"""Asymptotic entropy and rate of escape for transient random walks on
regular languages over a finite alphabet."""

__version__ = "0.1.0"

from .model import (AssumptionError, parse_model, load_model,
                    check_weak_symmetry, check_suffix_irreducibility,
                    check_relaxed_condition)
from .genfun import solve_all
from .cones import classify_types
from . import cones, entropy, genfun, lastentry, model, pipeline, simulate  # noqa: F401

# the names the tests, the benchmark and the README read from the package
__all__ = [
    "AssumptionError", "parse_model", "load_model", "check_weak_symmetry",
    "check_suffix_irreducibility", "check_relaxed_condition",
    "classify_types", "solve_all", "__version__",
]


def __getattr__(name):
    # PEP 562: ``cli`` loads on first use, so ``python -m rlentropy.cli``
    # does not find it imported by the package
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
