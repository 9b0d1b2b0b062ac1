"""Benchmark of rlentropy: time to h, peak memory and set-up time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One process, one operation at a time (a closed loop with one client).  The
seed makes the workload's model file; operations run back to back until the
next one would end after ``--seconds`` (at least one operation runs).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations (the first, cold operation is untraced and
left out of the comparison) and reports per-layer self time, call counts
and structural counts from the tracer in ``spans.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Diagnostics go to
standard error; spans are written under ``.perfbench/`` at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import COUNT_NAMES, ROOT as ROOT_SPAN, TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 5
MAX_OPS = 1000
# Pinned for steady timings: simulation threads (RLE_THREADS) and BLAS.
PINNED_ENV = {"RLE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Import rlentropy and parse the model files named on the command line,
# timed inside a fresh interpreter.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rlentropy
for path in sys.argv[2:]:
    rlentropy.load_model(path)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def measure_setup(model_paths):
    """Median over fresh interpreters of import + parse seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC),
             *model_paths],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def import_program():
    sys.path.insert(0, str(SRC))
    import rlentropy
    where = Path(rlentropy.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"rlentropy imported from {where}, not {SRC}")
    return rlentropy


def environment(rlentropy):
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "rlentropy": rlentropy.__version__}
    env.update({k: os.environ.get(k) for k in PINNED_ENV})
    return env


def run_op(workload, ctx, tracer, op_id):
    """One operation; returns (wall seconds, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            problems = workload.run(ctx)
        else:
            tracer.install()
            try:
                with tracer.operation(op_id):
                    problems = workload.run(ctx)
            finally:
                tracer.uninstall()
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        problems = ["raised an exception"]
    return time.perf_counter() - t0, problems


def closed_loop(workload, ctx, seconds, tracer):
    """Run operations back to back.  Untraced: stop once the next operation
    would end after ``seconds``.  Traced: U, T, U, T, ..., at least three
    operations, always ending on an untraced one."""
    walls, traced_flags, failed = [], [], 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        wall, problems = run_op(workload, ctx, tracer if traced else None,
                                len(walls))
        walls.append(wall)
        traced_flags.append(traced)
        if problems:
            failed += 1
            print(f"operation {len(walls) - 1} failed: {problems}",
                  file=sys.stderr)
        elapsed = time.perf_counter() - start
        done = (len(walls) >= (3 if tracer else 1)
                and (tracer is None or len(walls) % 2 == 1)
                and elapsed + statistics.median(walls) > seconds)
        if done or len(walls) >= MAX_OPS:
            return walls, traced_flags, failed


def end_to_end(walls, setup_s):
    return {
        "time_to_h_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def check_counts(workload, tracer):
    """Structural counts must repeat exactly: between the traced operations
    of this run and against the previous traced run in this checkout."""
    problems = []
    seqs = tracer.count_sequences()
    first = next(iter(seqs.values()), ())
    if any(seq != first for seq in seqs.values()):
        problems.append(f"structural counts differ between operations: {seqs}")
    counts = {name: max((v for k, v in first if k == name), default=0)
              for name in COUNT_NAMES}
    record = WORK / f"counts-{workload.name}.json"
    if record.exists():
        previous = json.loads(record.read_text())
        if previous != counts:
            problems.append(f"structural counts {counts} differ from the "
                            f"previous traced run {previous} ({record})")
    else:
        record.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return counts, problems


def sampler_rate(rlentropy, ctx):
    """Drift-only sampler throughput: run_trajectories without the
    L-evaluator (gf=None), untraced."""
    model = rlentropy.model.load_model(ctx.model_path)
    cfg = rlentropy.simulate.SimConfig(10_000, 20, ctx.seed)
    t0 = time.perf_counter()
    rlentropy.simulate.run_trajectories(model, cfg, gf=None)
    return cfg.steps * cfg.trajectories / (time.perf_counter() - t0)


def per_layer(tracer, walls, traced_flags, counts, sampler_steps_per_s):
    n = sum(traced_flags)
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = {"value": self_s[name] / n, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls[name] / n, "unit": "count"}
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    metrics["simulate.sampler_steps_per_s"] = {"value": sampler_steps_per_s,
                                               "unit": "1/s"}
    traced = [w for w, t in zip(walls, traced_flags) if t]
    untraced = [w for w, t in zip(walls, traced_flags) if not t][1:]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced),
        "unit": "s"}
    metrics["trace.root_self_pct"] = {
        "value": 100 * self_s[ROOT_SPAN] / sum(tracer.op_walls()), "unit": "%"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rlentropy" / "__init__.py").is_file():
        print(f"no program source at {SRC}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    from workloads import WORKLOADS, make_context
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    ctx = make_context(workload, args.seed, WORK)

    setup_s, setup_samples = measure_setup([ctx.model_path])
    rlentropy = import_program()
    env = environment(rlentropy)
    print(json.dumps({"environment": env}), file=sys.stderr)

    tracer = Tracer() if args.trace else None
    walls, traced_flags, failed = closed_loop(workload, ctx, args.seconds,
                                              tracer)
    info = {"workload": workload.name, "seed": args.seed,
            "op_walls_s": walls, "traced": traced_flags,
            "setup_samples_s": setup_samples}
    untraced = [w for w, t in zip(walls, traced_flags) if not t]
    if workload.sim_steps:
        info["sim_steps_per_s"] = workload.sim_steps / statistics.median(untraced)
    problems = []
    if tracer is None:
        metrics = end_to_end(untraced, setup_s)
    else:
        counts, problems = check_counts(workload, tracer)
        metrics = per_layer(tracer, walls, traced_flags, counts,
                            sampler_rate(rlentropy, ctx))
        spans_file = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"environment": env, "run": info, "spans": tracer.spans,
             "counts": tracer.counts}))
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(walls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
