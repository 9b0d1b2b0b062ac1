"""Trajectory sampling and the pathwise rates that cross-validate the
analytic tables: pooled |X_n|/n against ell, and the surprisal and
hitting-probability rates against h.

Reproducibility contract: trajectory ``i`` of a run with seed ``s`` uses a
Philox counter-based generator keyed with ``(s << 64) + i``; pooled results
are merged in trajectory-index order, so identical configurations produce
byte-identical reports.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
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


def _run_one(model, gf, cfg, index):
    rng = trajectory_rng(cfg.seed, index)
    sampler = _Sampler(model)
    evaluator = LWordEvaluator(model, gf) if gf is not None else None
    word = []
    series = []
    checkpoints = set(cfg.checkpoints)
    buf = rng.random(4096)
    bi = 0
    for n in range(1, cfg.steps + 1):
        if bi == len(buf):
            buf = rng.random(4096)
            bi = 0
        sampler.step(word, buf[bi])
        bi += 1
        if evaluator is not None:
            evaluator.step(word)
        if n in checkpoints:
            rates = _rates(gf, evaluator, n) if evaluator else (None, None)
            series.append((n, len(word), *rates))
    return Trajectory(index, series)


def run_trajectories(model, cfg, gf=None):
    """Sample trajectories exactly per the rule table, in index order."""
    trajs = [_run_one(model, gf, cfg, i) for i in range(cfg.trajectories)]

    speeds = np.array([tr.series[-1][1] / tr.series[-1][0] for tr in trajs])

    def pooled(idx):
        vals = np.array([tr.series[-1][idx] for tr in trajs], dtype=float)
        if np.isnan(vals).any():
            return None, None
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))

    l_mean, l_se = pooled(2) if gf is not None else (None, None)
    g_mean, g_se = pooled(3) if gf is not None else (None, None)
    return SimReport(cfg, trajs, float(speeds.mean()),
                     float(speeds.std(ddof=1) / math.sqrt(len(speeds))),
                     l_mean, l_se, g_mean, g_se)
