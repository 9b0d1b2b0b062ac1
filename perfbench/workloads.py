"""The benchmark's workloads: one operation each, with its correctness gate.

An operation takes a generated model file to a finished report through the
public surface of ``rlentropy`` (``cli.main`` or ``pipeline.analyze``).  Its
gate returns a list of problems; an empty list means the operation passed.
Module attributes are looked up at call time, so a traced run sees the
wrappers the tracer installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import models

EXACT_TOL = 1e-9          # h and ell against their closed forms
MARGINAL_TOL = 1e-12      # fg2 marginal-equality check
GAP_TOL = 1e-6            # default --gap-tol of the entropy command
SIM_STEPS = 10_000
SIM_TRAJECTORIES = 40


@dataclass
class Context:
    """Inputs of one run, made from the workload seed."""
    seed: int
    model_path: str
    exact: tuple                      # closed-form (ell, h)
    first_csv: list | None = None     # CSV of the first simulate operation


def _run_cli(argv):
    """Call ``rlentropy.cli.main`` in-process; return (exit code, stdout,
    stderr)."""
    import rlentropy
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = rlentropy.cli.main(argv)
        except SystemExit as exc:     # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _near(value, target, tol=EXACT_TOL):
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def check_report(rep, exact):
    """Gate on a finished entropy report given as a mapping with the keys of
    the CLI's JSON report."""
    ell, h = exact
    problems = []
    if not _near(rep.get("ell"), ell):
        problems.append(f"ell {rep.get('ell')!r} != {ell!r}")
    if not _near(rep.get("h"), h):
        problems.append(f"h {rep.get('h')!r} != {h!r}")
    gap, hy, lam = rep.get("hy_gap"), rep.get("hy"), rep.get("lambda")
    if gap is None or not gap < GAP_TOL:
        problems.append(f"hidden entropy gap {gap!r} not below {GAP_TOL}")
    if hy is None or not lam or not _near(rep.get("h"), ell * hy / lam):
        problems.append(f"h != ell * hy / lambda (hy={hy!r}, lambda={lam!r})")
    for key in ("transient", "expanding", "inequality_h_le_ell_log_alphabet",
                "positivity_matches_expansion"):
        if rep.get(key) is not True:
            problems.append(f"{key} is {rep.get(key)!r}")
    return problems


def _report_fields(report):
    """The report's numbers and flags under the CLI's JSON keys; flags may
    be numpy booleans, so they are converted."""
    return {"ell": report.ell, "h": report.h, "hy": report.hy,
            "hy_gap": report.hy_gap, "lambda": report.lambda_,
            "transient": bool(report.transient),
            "expanding": bool(report.expanding),
            "inequality_h_le_ell_log_alphabet": bool(report.inequality_ok),
            "positivity_matches_expansion": bool(report.sign_ok)}


def fg2_entropy(ctx):
    rc, out, err = _run_cli(["--format", "json", "entropy", ctx.model_path])
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"]
    rep = json.loads(out)
    problems = check_report(rep, ctx.exact)
    diff = rep.get("marginal_equality_max_diff")
    if diff is None or not diff <= MARGINAL_TOL:
        problems.append(f"marginal_equality_max_diff {diff!r} > {MARGINAL_TOL}")
    return problems


def f3_analyze(ctx):
    import rlentropy
    model = rlentropy.model.load_model(ctx.model_path)
    result = rlentropy.pipeline.analyze(model)
    return check_report(_report_fields(result.report), ctx.exact)


def fg2_simulate(ctx):
    rc, out, err = _run_cli([
        "--format", "json", "simulate", ctx.model_path, "--crosscheck",
        "--steps", str(SIM_STEPS), "--trajectories", str(SIM_TRAJECTORIES),
        "--seed", str(ctx.seed)])
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"]
    payload = json.loads(out)
    problems = []
    if payload.get("ell_consistent_3se") is not True:
        problems.append("pooled speed not within 3 SE of the analytic drift")
    if not _near(payload.get("ell_analytic"), ctx.exact[0]):
        problems.append(f"ell_analytic {payload.get('ell_analytic')!r} "
                        f"!= {ctx.exact[0]!r}")
    csv = payload.get("csv")
    if not csv or len(csv) != 1 + SIM_TRAJECTORIES * 10:
        problems.append("CSV series missing or of the wrong length")
    if ctx.first_csv is None:
        ctx.first_csv = csv
    elif csv != ctx.first_csv:
        problems.append("CSV differs from the first operation with this seed")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    run: object                 # Context -> list of problems
    rank: int                   # the model is the free group F_rank
    sim_steps: int = 0          # simulated steps per operation


WORKLOADS = {w.name: w for w in (
    Workload("fg2-entropy", fg2_entropy, 2),
    Workload("f3-analyze", f3_analyze, 3),
    Workload("fg2-simulate", fg2_simulate, 2,
             sim_steps=SIM_STEPS * SIM_TRAJECTORIES),
)}


def make_context(workload, seed, workdir):
    """Write the seeded model file and return the run's context.  The seed
    shuffles the alphabet declaration and the rule lines; the walk, and so
    every reported number, stays the same."""
    text = models.free_group(workload.rank, random.Random(seed))
    path = workdir / f"{workload.name}-seed{seed}.rw"
    path.write_text(text, encoding="utf-8")
    return Context(seed, str(path), models.free_group_exact(workload.rank))
