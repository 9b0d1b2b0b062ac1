"""End-to-end orchestration: validation, structure, chain, report."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import cones, entropy, genfun, lastentry, model as model_mod
from .model import AssumptionError


@dataclass
class ValidationResult:
    weak_symmetry: object
    suffix_irreducible: object
    relaxed_condition: object
    transient: bool
    xi: dict
    usable: bool
    reasons: list = field(default_factory=list)


def solve(model, tol=genfun.DEFAULT_TOL, xi_tol=genfun.RECURRENCE_XI_TOL):
    """The generating-function tables, with derivatives, solved once per
    model and tolerances: they are cached on the (immutable) model, so the
    validation and the analysis of one command share them."""
    cached = getattr(model, "_tables", None)
    if cached is None or cached[0] != (tol, xi_tol):
        model._tables = ((tol, xi_tol),
                         genfun.solve_all(model, tol=tol, xi_tol=xi_tol))
    return model._tables[1]


def validate(model, tol=genfun.DEFAULT_TOL, xi_tol=genfun.RECURRENCE_XI_TOL):
    """Run the standing structural checks and decide usability.

    A model is usable when it is weakly symmetric and either recurrent
    (entropy is zero without further structure) or satisfies the escape
    condition; trapping cones (escape fails on some but not all suffixes)
    make the analysis inapplicable.
    """
    ws = model_mod.check_weak_symmetry(model)
    gf = solve(model, tol=tol, xi_tol=xi_tol)
    si = model_mod.check_suffix_irreducibility(model)
    rc = model_mod.check_relaxed_condition(model, gf)
    transient = gf.transient
    reasons = []
    if not ws.ok:
        reasons.append("weak symmetry fails: " + str(ws.violations[:5]))
    mixed = (not transient) and max(gf.xi.values()) > 1e-6
    if mixed:
        reasons.append("trapping cones: escape probability vanishes on "
                       + str([s for s, v in gf.xi.items() if v <= xi_tol]))
    return ValidationResult(ws, si, rc, transient, gf.xi,
                            usable=ws.ok and not mixed, reasons=reasons)


@dataclass
class AnalysisResult:
    model: object
    gf: object
    atlas: object | None
    chain: object | None
    report: object


def analyze(model, n_max=16, gap_tol=1e-6, budget=entropy.SANDWICH_BUDGET,
            order_key=None, level_bump=0, covering_method="auto",
            check_marginals=False, tol=genfun.DEFAULT_TOL,
            xi_tol=genfun.RECURRENCE_XI_TOL):
    """Full analytic pipeline; raises AssumptionError for unusable models."""
    ws = model_mod.check_weak_symmetry(model)
    if not ws.ok:
        raise AssumptionError(f"weak symmetry fails: {ws.violations[:5]}")
    gf = solve(model, tol=tol, xi_tol=xi_tol)
    if not gf.transient:
        report = entropy.assemble_report(model, gf)
        return AnalysisResult(model, gf, None, None, report)
    atlas = cones.build_atlas(model, order_key=order_key,
                              method=covering_method, level_bump=level_bump)
    chain = lastentry.build_chain(model, gf, atlas)
    mc_note = None
    if chain.ell is None:
        mc_note = _mc_ell_fallback(model, chain)
    report = entropy.assemble_report(model, gf, atlas, chain, n_max=n_max,
                                     gap_tol=gap_tol, budget=budget,
                                     check_marginals=check_marginals)
    if mc_note:
        report.notes.append(mc_note)
    return AnalysisResult(model, gf, atlas, chain, report)


def _mc_ell_fallback(model, chain, steps=20000, trajectories=50, seed=12345):
    """Drift from simulation when the derivative tables are unavailable
    (critical regime); widened uncertainty travels with the report."""
    from . import simulate
    if len(chain.classes) != 1:
        raise AssumptionError(
            "derivative tables unavailable and the increment chain is "
            "reducible; no per-class Monte Carlo drift fallback")
    rep = simulate.run_trajectories(
        model, simulate.SimConfig(steps, trajectories, seed))
    chain.ell = rep.speed_mean
    chain.classes[0].ell = rep.speed_mean
    chain.expected_time = (chain.lambda_ / chain.ell) if chain.ell > 0 else None
    return (f"drift from Monte Carlo fallback: {rep.speed_mean:.6f} "
            f"+- {rep.speed_se:.6f} (derivative system near-singular)")
