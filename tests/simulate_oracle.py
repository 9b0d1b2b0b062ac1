"""The per-trajectory, per-step simulator: each trajectory in turn, a Python
row sampler on its word and a single-row contraction evaluator stepped with
the walk.  It is the reference for the lockstep sampler and the checkpoint
replay of ``simulate.run_trajectories``, which must give the same series
bit for bit."""
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from rlentropy.genfun import LWordEvaluator
from rlentropy.simulate import SimReport, Trajectory, _rates, trajectory_rng


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


def checkpoint_words(model, cfg, index):
    """The word of trajectory ``index`` at each checkpoint, as text."""
    rng = trajectory_rng(cfg.seed, index)
    sampler = _Sampler(model)
    word, words = [], []
    u = rng.random(cfg.steps)
    for n in range(1, cfg.steps + 1):
        sampler.step(word, u[n - 1])
        if n in cfg.checkpoints:
            words.append("".join(word))
    return words
