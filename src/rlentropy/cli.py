"""Command-line surface: validate | analyze | entropy | simulate | sweep.

Every report embeds the manifest that produced it (command, input digests,
effective parameters, versions); reports are deterministic byte-for-byte
for identical manifests, so no wall-clock data is included unless asked.

Exit codes: 0 success, 1 domain failure (assumptions or requested
computation inapplicable, or out of memory) or closed output, 2 input error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__, cones, entropy, genfun, pipeline, simulate
from .model import AssumptionError, ModelError, load_model


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_manifest(command, paths, params, timestamp=False):
    return {
        "command": command,
        "models": [{"path": str(p), "sha256": _digest(p)} for p in paths],
        "parameters": dict(sorted(params.items())),
        "versions": {
            "rlentropy": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if timestamp else None,
    }


def _plain(obj):
    """Recursively strip numpy scalar types for stable serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    return obj


def emit(payload, fmt, stream=None):
    stream = stream if stream is not None else sys.stdout
    payload = _plain(payload)
    if fmt == "json":
        json.dump(payload, stream, sort_keys=True, indent=1)
        stream.write("\n")
    elif fmt == "csv":
        for line in payload.get("csv", []):
            stream.write(line + "\n")
    else:
        _emit_text(payload, stream)
    stream.flush()


def _emit_text(payload, stream, prefix=""):
    for key, val in payload.items():
        if key in ("manifest", "csv"):
            continue
        if isinstance(val, dict):
            stream.write(f"{prefix}{key}:\n")
            _emit_text(val, stream, prefix + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            stream.write(f"{prefix}{key}:\n")
            for item in val:
                _emit_text(item, stream, prefix + "  ")
                stream.write(prefix + "  -\n")
        else:
            stream.write(f"{prefix}{key}: {val}\n")


def _report_dict(rep):
    out = {
        "transient": rep.transient,
        "expanding": rep.expanding,
        "method": rep.method,
        "ell": rep.ell,
        "lambda": rep.lambda_,
        "hy": rep.hy,
        "hy_gap": rep.hy_gap,
        "hy_n": rep.hy_n,
        "h": rep.h,
        "inequality_h_le_ell_log_alphabet": rep.inequality_ok,
        "positivity_matches_expansion": rep.sign_ok,
    }
    if rep.limit_words is not None:
        out["limit_words"] = [{"prefix": p, "cycle": c}
                              for p, c in rep.limit_words]
    if rep.classes:
        out["classes"] = [{
            "weight": c.weight, "expanding": c.expanding, "ell": c.ell,
            "lambda": c.lambda_, "hy": c.hy, "hy_gap": c.hy_gap, "h": c.h,
            "hy_exact": c.hy_exact,
        } for c in rep.classes]
    if rep.marginal_check is not None:
        out["marginal_equality_max_diff"] = rep.marginal_check
    if rep.notes:
        out["notes"] = list(rep.notes)
    return out


def cmd_validate(args):
    model = load_model(args.model)
    res = pipeline.validate(model, tol=args.tol, xi_tol=args.tol_recurrence)
    payload = {
        "manifest": make_manifest("validate", [args.model],
                                  {"tol": args.tol,
                                   "tol_recurrence": args.tol_recurrence},
                                  args.timestamp),
        "weak_symmetry": res.weak_symmetry.ok,
        "weak_symmetry_violations": [list(v) for v in
                                     res.weak_symmetry.violations[:10]],
        "suffix_irreducible": res.suffix_irreducible.ok,
        "relaxed_condition": res.relaxed_condition.ok,
        "relaxed_condition_failures": list(res.relaxed_condition.violations),
        "transient": res.transient,
        "xi": {k: v for k, v in sorted(res.xi.items())},
        "usable": res.usable,
        "reasons": res.reasons,
    }
    emit(payload, args.format)
    return 0 if res.usable else 1


def cmd_analyze(args):
    model = load_model(args.model)
    val = pipeline.validate(model, tol=args.tol, xi_tol=args.tol_recurrence)
    if not val.usable:
        emit({"error": "model not usable", "reasons": val.reasons},
             args.format)
        return 1
    payload = {
        "manifest": make_manifest("analyze", [args.model],
                                  {"tol": args.tol,
                                   "tol_recurrence": args.tol_recurrence},
                                  args.timestamp),
        "transient": val.transient,
        "xi": {k: v for k, v in sorted(val.xi.items())},
    }
    if not val.transient:
        payload["note"] = "recurrent walk: entropy and drift are zero"
        emit(payload, args.format)
        return 0
    atlas = cones.build_atlas(model)
    payload.update({
        "cone_types": len(atlas.types),
        "types": [{
            "representative": t.representative,
            "members": list(t.members),
            "boundary_suffixes": list(t.boundary_suffixes),
            "unambiguous": t.unambiguous,
        } for t in atlas.types],
        "expanding": atlas.expanding,
        "coverings": [{
            "type": atlas.types[tid].representative,
            "method": cov.method,
            "slots": len(cov.slots),
            "depth_bound": cov.depth_bound,
            "slot_roots": [s.root for s in cov.slots],
        } for tid, cov in sorted(atlas.coverings.items())],
    })
    if not atlas.expanding:
        payload["limit_words"] = [{"prefix": p, "cycle": c}
                                  for p, c in cones.limit_words(model, atlas)]
    emit(payload, args.format)
    return 0


def cmd_entropy(args):
    model = load_model(args.model)
    val = pipeline.validate(model, tol=args.tol, xi_tol=args.tol_recurrence)
    if not val.usable:
        emit({"error": "model not usable", "reasons": val.reasons},
             args.format)
        return 1
    res = pipeline.analyze(model, n_max=args.n_max, gap_tol=args.gap_tol,
                           budget=args.budget, check_marginals=True,
                           tol=args.tol, xi_tol=args.tol_recurrence)
    payload = {"manifest": make_manifest(
        "entropy", [args.model],
        {"n_max": args.n_max, "gap_tol": args.gap_tol, "budget": args.budget,
         "tol": args.tol, "tol_recurrence": args.tol_recurrence},
        args.timestamp)}
    payload.update(_report_dict(res.report))
    emit(payload, args.format)
    return 0


def cmd_simulate(args):
    model = load_model(args.model)
    val = pipeline.validate(model, tol=args.tol, xi_tol=args.tol_recurrence)
    if not val.usable:
        emit({"error": "model not usable", "reasons": val.reasons},
             args.format)
        return 1
    gf = pipeline.solve(model, tol=args.tol, xi_tol=args.tol_recurrence)
    cfg = simulate.SimConfig(args.steps, args.trajectories, args.seed)
    rep = simulate.run_trajectories(model, cfg, gf=gf if gf.transient else None)
    payload = {
        "manifest": make_manifest(
            "simulate", [args.model],
            {"steps": args.steps, "trajectories": args.trajectories,
             "seed": args.seed, "tol": args.tol,
             "tol_recurrence": args.tol_recurrence}, args.timestamp),
        "speed_mean": rep.speed_mean,
        "speed_se": rep.speed_se,
        "l_rate_mean": rep.l_rate_mean,
        "l_rate_se": rep.l_rate_se,
        "green_rate_mean": rep.green_rate_mean,
        "green_rate_se": rep.green_rate_se,
        "csv": list(rep.csv_lines()),
    }
    if gf.transient and args.crosscheck:
        analytic = pipeline.analyze(model, tol=args.tol,
                                    xi_tol=args.tol_recurrence)
        ell = analytic.report.ell
        se = max(rep.speed_se, 1e-12)
        payload["ell_analytic"] = ell
        payload["ell_consistent_3se"] = abs(rep.speed_mean - ell) <= 3 * se
    emit(payload, args.format)
    return 0


def cmd_sweep(args):
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    try:
        sweep = entropy.continuity_sweep(model_a, model_b, grid=args.grid,
                                         n_max=args.n_max,
                                         gap_tol=args.gap_tol, tol=args.tol,
                                         xi_tol=args.tol_recurrence)
    except ValueError as exc:
        emit({"error": str(exc)}, args.format)
        return 1
    csv = ["t,ell,hy,h,skipped"]
    for row in sweep["rows"]:
        csv.append(",".join("" if row.get(k) is None else repr(row[k])
                            for k in ("t", "ell", "hy", "h"))
                   + f",{int(row['skipped'])}")
    d2 = sweep["second_differences"]
    payload = {
        "manifest": make_manifest(
            "sweep", [args.model_a, args.model_b],
            {"grid": args.grid, "n_max": args.n_max, "gap_tol": args.gap_tol,
             "tol": args.tol, "tol_recurrence": args.tol_recurrence},
            args.timestamp),
        "rows": sweep["rows"],
        "second_difference_max_abs": max((abs(x) for x in d2), default=0.0),
        "csv": csv,
    }
    emit(payload, args.format)
    return 0


def _int_at_least(low, below=None):
    """argparse type: an integer no smaller than ``low`` and, if ``below``
    is given, smaller than it."""
    def parse(text):
        value = int(text)
        if value < low or (below is not None and value >= below):
            bound = f">= {low}" if below is None else f">= {low} and < {below}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _positive_float(text):
    """argparse type: a finite float greater than zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {value}")
    return value


_positive_float.__name__ = "float"


@functools.cache        # one parser per process, built on first use
def build_parser():
    parser = argparse.ArgumentParser(
        prog="rlentropy",
        description="Entropy and drift of random walks on regular languages")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--timestamp", action="store_true",
                        help="embed wall-clock time (breaks byte-for-byte "
                             "reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_positive_float, default=genfun.DEFAULT_TOL)
        p.add_argument("--tol-recurrence", type=_positive_float,
                       default=genfun.RECURRENCE_XI_TOL)

    p = sub.add_parser("validate", help="structural checks")
    p.add_argument("model")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="escape table, cone types, coverings")
    p.add_argument("model")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("entropy", help="drift, hidden entropy, h")
    p.add_argument("model")
    common(p)
    p.add_argument("--n-max", type=_int_at_least(2), default=16)
    p.add_argument("--gap-tol", type=_positive_float, default=1e-6)
    p.add_argument("--budget", type=_int_at_least(0),
                   default=entropy.SANDWICH_BUDGET,
                   help="sandwich expansions before Monte Carlo substitutes: "
                        "per distinct belief, the symbols out of its rows")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("simulate", help="trajectory sampling and rates")
    p.add_argument("model")
    common(p)
    p.add_argument("--steps", type=_int_at_least(1), default=10000)
    # two trajectories at least: the standard errors divide by n - 1
    p.add_argument("--trajectories", type=_int_at_least(2), default=100)
    # the Philox key of each trajectory is (seed << 64) + index
    p.add_argument("--seed", type=_int_at_least(0, 2 ** 64), default=0)
    p.add_argument("--crosscheck", action="store_true",
                   help="compare pooled speed against the analytic drift")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="entropy along a same-support segment")
    p.add_argument("model_a")
    p.add_argument("model_b")
    common(p)
    p.add_argument("--grid", type=_int_at_least(1), default=11)
    p.add_argument("--n-max", type=_int_at_least(2), default=16)
    p.add_argument("--gap-tol", type=_positive_float, default=1e-6)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:    # reader gone: flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ModelError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionError, genfun.NonConvergenceError,
            genfun.SingularSystemError) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"domain failure: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
