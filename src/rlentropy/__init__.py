"""Asymptotic entropy and rate of escape for transient random walks on
regular languages over a finite alphabet."""

__version__ = "0.1.0"

from .model import (WalkModel, Rule, ModelError, AssumptionError,
                    parse_model, load_model, check_weak_symmetry,
                    check_suffix_irreducibility, check_relaxed_condition)
from .genfun import (solve_H, compute_xi, is_transient, solve_Gbar,
                     compute_Lbar, solve_green_short, solve_all, L_word,
                     LWordEvaluator, GenFunTables, NonConvergenceError,
                     SingularSystemError)
from .cones import (saturate_supports, reachable_sets, classify_types,
                    build_atlas, build_covering, in_cone, cones_disjoint,
                    is_expanding, limit_words, ConeAtlas)
from .lastentry import (build_chain, enumerate_W0, mathL, stationary,
                        stationary_power, EntryChain)
from .entropy import (HiddenChain, WState, hidden_symbol,
                      sandwich_bounds, unambiguous_exact, regeneration_mc,
                      build_qhat,
                      check_marginal_equality, assemble_report,
                      continuity_sweep, interpolate_models, EntropyBounds,
                      EntropyReport)
from .simulate import (SimConfig, SimReport, run_trajectories,
                       greenian_rate, exact_pi_n,
                       empirical_entropy_check, verify_ell,
                       absorption_frequencies, trajectory_rng)
from . import cli, cones, entropy, genfun, lastentry, model, pipeline, simulate  # noqa: F401

# the names the command line and the tests use from the package itself
__all__ = [
    "AssumptionError", "ModelError", "parse_model", "load_model",
    "check_weak_symmetry", "check_suffix_irreducibility",
    "check_relaxed_condition", "classify_types", "is_expanding", "solve_all",
    "__version__",
]
