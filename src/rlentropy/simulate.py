"""Trajectory sampling and pathwise estimators cross-validating the analytic
tables.

Reproducibility contract: trajectory ``i`` of a run with seed ``s`` uses a
Philox counter-based generator keyed with ``(s << 64) + i``; pooled results
are merged in trajectory-index order, so identical configurations produce
byte-identical reports.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .genfun import LWordEvaluator


@dataclass
class SimConfig:
    steps: int
    trajectories: int
    seed: int = 0
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.steps < 1 or self.trajectories < 1:
            raise ValueError("steps and trajectories must be >= 1")
        if not self.checkpoints:
            k = max(1, self.steps // 10)
            self.checkpoints = tuple(range(k, self.steps + 1, k))


def trajectory_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


class _Sampler:
    """Cumulative-probability row sampler over the rule table."""

    def __init__(self, model):
        self.rows = {}
        for lhs, rules in model.rules.items():
            rhs = [r.rhs for r in rules]
            cum = list(accumulate(r.prob for r in rules))
            cum[-1] = max(cum[-1], 1.0)
            self.rows[lhs] = (rhs, cum)

    def step(self, word, u):
        lhs = "".join(word[-2:]) if len(word) >= 2 else "".join(word)
        rhs, cum = self.rows[lhs]
        choice = rhs[bisect_right(cum, u)]
        if lhs:
            del word[-len(lhs):]
        word.extend(choice)


@dataclass
class Trajectory:
    index: int
    series: list                    # rows (n, word_len, l_rate, green_rate)
    final_len: int
    first_letter: str | None
    early_words: dict               # step -> word, for small-n spot checks


@dataclass
class SimReport:
    config: SimConfig
    trajectories: list
    speed_mean: float
    speed_se: float
    l_rate_mean: float | None
    l_rate_se: float | None
    green_rate_mean: float | None
    green_rate_se: float | None

    def csv_lines(self):
        yield "trajectory,n,wordLength,lRate,greenRate"
        for tr in self.trajectories:
            for n, wl, lr, gr in tr.series:
                lrs = "" if lr is None else repr(lr)
                grs = "" if gr is None else repr(gr)
                yield f"{tr.index},{n},{wl},{lrs},{grs}"


def _rates(gf, evaluator, n):
    """-(1/n) log L(o, X_n) and -(1/n) log F(o, X_n) at the evaluator's word,
    with F = G(o,o) L / G(X_n, X_n) (G(w, w) suffix-local past |w| = 3)."""
    w = "".join(evaluator.word)
    g_ww = (gf.green_short.value(w, w) if len(w) <= 3
            else gf.gbar.value(w[-2:], w[-2:]))
    log_l = evaluator.log_value()
    log_f = math.log(gf.green_short.value("", "")) + log_l - math.log(g_ww)
    return -log_l / n, -log_f / n


def _run_one(model, gf, cfg, index, early_steps):
    rng = trajectory_rng(cfg.seed, index)
    sampler = _Sampler(model)
    evaluator = LWordEvaluator(model, gf) if gf is not None else None
    word = []
    series = []
    checkpoints = set(cfg.checkpoints)
    early = {}
    buf = rng.random(4096)
    bi = 0
    for n in range(1, cfg.steps + 1):
        if bi == len(buf):
            buf = rng.random(4096)
            bi = 0
        sampler.step(word, buf[bi])
        bi += 1
        if n in early_steps:
            early[n] = "".join(word)
        if evaluator is not None:
            evaluator.step(word)
        if n in checkpoints:
            rates = _rates(gf, evaluator, n) if evaluator else (None, None)
            series.append((n, len(word), *rates))
    return Trajectory(index, series, len(word),
                      word[0] if word else None, early)


def run_trajectories(model, cfg, gf=None, early_steps=()):
    """Sample trajectories exactly per the rule table, in index order."""
    early_steps = frozenset(early_steps)
    trajs = [_run_one(model, gf, cfg, i, early_steps)
             for i in range(cfg.trajectories)]

    speeds = np.array([tr.series[-1][1] / tr.series[-1][0] for tr in trajs])

    def pooled(idx):
        vals = np.array([tr.series[-1][idx] for tr in trajs], dtype=float)
        if np.isnan(vals).any() or gf is None:
            return None, None
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))

    l_mean, l_se = pooled(2) if gf is not None else (None, None)
    g_mean, g_se = pooled(3) if gf is not None else (None, None)
    return SimReport(cfg, trajs, float(speeds.mean()),
                     float(speeds.std(ddof=1) / math.sqrt(len(speeds))),
                     l_mean, l_se, g_mean, g_se)


def greenian_rate(model, gf, words, checkpoints=None):
    """Series -log F(o, X_n)/n with the hitting value F = G(o,o) L / G(w,w)
    along the steps of a walk (step n is words[n-1])."""
    ev = LWordEvaluator(model, gf)
    out = []
    checkpoints = set(checkpoints or range(1, len(words) + 1))
    for n, w in enumerate(words, start=1):
        ev.step(w)
        if n in checkpoints:
            out.append((n, _rates(gf, ev, n)[1]))
    return out


def exact_pi_n(model, n_max, state_budget=500_000):
    """Exact step distributions by forward dynamic programming; returns a
    list whose m-th entry maps words to their probability at step m."""
    dists = [{"": 1.0}]
    for _ in range(n_max):
        cur = dists[-1]
        nxt = {}
        for w, p in cur.items():
            for succ, q in model.successors(w):
                nxt[succ] = nxt.get(succ, 0.0) + p * q
        if len(nxt) > state_budget:
            raise MemoryError(f"state budget {state_budget} exceeded at "
                              f"step {len(dists)}")
        dists.append(nxt)
    return dists


@dataclass
class EmpiricalVerdict:
    fraction_within: float
    eps: float
    n: int
    small_n_rates: list
    ok: bool
    detail: str = ""


def empirical_entropy_check(model, gf, report, h, eps=0.05, small_n=8,
                            max_small_paths=50):
    """Statistical convergence check of the pathwise rates against h.

    The fraction of trajectories whose final l-rate sits within ``eps`` of h
    is the headline number; the exact small-n step distributions supply a
    spot check of the per-path surprisal rates.  Soft verdict only.
    """
    finals = [tr.series[-1] for tr in report.trajectories]
    n = finals[0][0]
    within = sum(1 for row in finals if abs(row[2] - h) < eps) / len(finals)

    rates = []
    dists = exact_pi_n(model, small_n)
    for tr in report.trajectories[:max_small_paths]:
        w = tr.early_words.get(small_n)
        if w is None:
            continue
        p = dists[small_n].get(w, 0.0)
        if p > 0:
            rates.append(-math.log(p) / small_n)
    ok = within >= 0.5 or h == 0.0
    return EmpiricalVerdict(within, eps, n, rates, ok)


def verify_ell(model, gf, ell, steps=10_000, trajectories=100, seed=0,
               sigmas=3.0):
    """Mandatory cross-check of the analytic drift against pooled |X_n|/n."""
    cfg = SimConfig(steps, trajectories, seed)
    rep = run_trajectories(model, cfg, gf=None)
    diff = abs(rep.speed_mean - ell)
    ok = diff <= sigmas * max(rep.speed_se, 1e-12)
    return ok, rep.speed_mean, rep.speed_se


def absorption_frequencies(report, families):
    """Fraction of trajectories whose stabilized first letter falls in each
    letter family (cross-check for class weights)."""
    counts = {name: 0 for name in families}
    for tr in report.trajectories:
        for name, letters in families.items():
            if tr.first_letter in letters:
                counts[name] += 1
    total = len(report.trajectories)
    return {name: c / total for name, c in counts.items()}
