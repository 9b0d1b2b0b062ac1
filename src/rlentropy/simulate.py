"""Trajectory sampling and the pathwise rates that cross-validate the
analytic tables: pooled |X_n|/n against ell, and the surprisal and
hitting-probability rates against h.

A run makes two passes.  The lockstep sampler advances all trajectories
together on letter ids, taking each step's rule from one table indexed by
the word's last two letters and the bucket of the step's uniform.  It
records, at each checkpoint and per trajectory, the word length, ``keep``
(the number of leading letters no step has touched since the previous
checkpoint: the least ``length - 2`` over the segment) and the letters
after ``keep``.  One row evaluator then replays these records for all
trajectories at once, and the rates are read from its rows.

Reproducibility contract: trajectory ``i`` of a run with seed ``s`` uses a
Philox counter-based generator keyed with ``(s << 64) + i`` and takes one
uniform per step, in stream order.  The stream does not depend on the size
of the chunks it is drawn in, so a trajectory's series does not depend on
how many trajectories run beside it.  Pooled results are merged in
trajectory-index order, so identical configurations produce byte-identical
reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .genfun import LWordEvaluator

DRAW_CHUNK = 256       # uniforms drawn per trajectory at a time


@dataclass
class SimConfig:
    steps: int
    trajectories: int
    seed: int = 0
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.steps < 1 or self.trajectories < 2:
            raise ValueError("steps must be >= 1 and trajectories >= 2 "
                             "(the standard errors divide by n - 1)")
        if not self.checkpoints:      # every steps // 10 steps, and steps
            k = max(1, self.steps // 10)
            self.checkpoints = (*range(k, self.steps, k), self.steps)
        self.checkpoints = tuple(sorted(set(self.checkpoints)))
        outside = [c for c in self.checkpoints if not 1 <= c <= self.steps]
        if outside:
            raise ValueError(f"checkpoints {outside} outside [1, "
                             f"{self.steps}]")


def trajectory_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


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


@dataclass
class _Checkpoint:
    n: int
    lengths: np.ndarray
    keep: np.ndarray
    tails: list | None              # bytes of letter ids past keep


def _rule_table(model):
    """``(thresholds, table)``: the sorted distinct cumulated rule
    probabilities of all rows (each row's last raised to 1.0), and one row
    per left-hand side (``model.rules`` order) by one column per distinct
    threshold plus one.  ``table[row, searchsorted(thresholds, u, "right")]``
    is the id (rules numbered row after row) of the rule ``bisect_right``
    picks for u in [0, 1): between adjacent thresholds a row's count of
    entries <= u is constant."""
    cums = [list(accumulate(r.prob for r in rules))
            for rules in model.rules.values()]
    for cum in cums:
        cum[-1] = max(cum[-1], 1.0)
    thresholds = np.array(sorted({c for cum in cums for c in cum}))
    lows = np.concatenate(([0.0], thresholds))     # each column's least u
    first = np.cumsum([0] + [len(cum) for cum in cums])
    return thresholds, np.array([f + np.searchsorted(cum, lows, side="right")
                                 for f, cum in zip(first, cums)])


def _lockstep(model, cfg, tails=True):
    """Sample all trajectories together, one step of each at a time, and
    record every checkpoint (with the letters past ``keep`` if ``tails``).

    Words are rows of letter ids behind two slots that hold the id |A|, "no
    letter".  A step reads the last two slots as one pair code through a
    byte-stride ``'<u2'`` view, takes the rule from ``_rule_table`` at the
    pair's row and the uniform's bucket, and stores the right-hand side,
    behind and padded with "no letter", through a ``'<u4'`` view at the
    second-last slot (the first two slots stand in for missing letters)."""
    ids = {c: i for i, c in enumerate(model.alphabet)}
    none = len(ids)
    if none > 255:
        raise ValueError("the sampler stores letter ids as bytes: at most "
                         "255 letters")
    thresholds, table = _rule_table(model)
    compact = np.zeros(1 << 16, dtype=np.intp)  # pair code -> row's first
    rhs, grow = [], []                              # per rule id
    for row, (lhs, rules) in enumerate(model.rules.items()):
        p2, p1 = ([none, none] + [ids[c] for c in lhs])[-2:]
        compact[p2 | p1 << 8] = row * table.shape[1]
        for r in rules:
            rhs.append(bytes([none] * (2 - len(lhs)) + [ids[c] for c in r.rhs])
                       .ljust(4, bytes([none])))
            grow.append(len(r.rhs) - len(lhs))
    # per (row, bucket); the last column (u >= 1.0, never drawn) may name
    # one past the last rule
    rhs = np.frombuffer(b"".join(rhs), "<u4").take(table.ravel(), mode="clip")
    grow = np.array(grow, dtype=np.intp).take(table.ravel(), mode="clip")

    n_traj = cfg.trajectories
    rngs = [trajectory_rng(cfg.seed, i) for i in range(n_traj)]
    words = np.empty((n_traj, 0), dtype=np.uint8)
    length = np.zeros(n_traj, dtype=np.intp)
    low = length.copy()         # least length since the last checkpoint
    checkpoints = iter(cfg.checkpoints)
    target = next(checkpoints)
    records = []
    n = 0
    while n < cfg.steps:
        chunk = min(DRAW_CHUNK, cfg.steps - n)
        u = np.empty((chunk, n_traj))
        for i, rng in enumerate(rngs):
            u[:, i] = rng.random(chunk)
        # a step grows a word by at most one letter and stores four slots
        need = 2 + int(length.max()) + chunk + 4
        if need > words.shape[1]:
            grown = np.full((n_traj, max(need, 2 * words.shape[1])), none,
                            dtype=np.uint8)
            grown[:, :words.shape[1]] = words
            words, flat = grown, grown.reshape(-1)
            pairs = np.ndarray(flat.size - 1, "<u2", flat, strides=(1,))
            quads = np.ndarray(flat.size - 3, "<u4", flat, strides=(1,))
            start = np.arange(n_traj) * words.shape[1] + 2  # first letters
        pos, low = start - 2 + length, start - 2 + low  # second-last slots
        for bucket in np.searchsorted(thresholds, u, side="right"):
            k = compact[pairs[pos]] + bucket
            quads[pos] = rhs[k]
            pos += grow[k]
            np.minimum(low, pos, out=low)
            n += 1
            if n == target:
                length = pos - start + 2
                keep = np.maximum(low - start, 0)
                records.append(_Checkpoint(n, length, keep, [
                    words[i, 2 + k:2 + m].tobytes()
                    for i, (k, m) in enumerate(zip(keep, length))]
                    if tails else None))
                low = pos.copy()
                target = next(checkpoints, None)
        length, low = pos - start + 2, low - start + 2
    return records


def _rates(gf, evaluator, n, row=None):
    """-(1/n) log L(o, X_n) and -(1/n) log F(o, X_n) at the evaluator's word
    (row ``row``'s, with rows), with F = G(o,o) L / G(X_n, X_n) (G(w, w)
    suffix-local past |w| = 3)."""
    w = evaluator.word if row is None else evaluator.word[row]
    if len(w) <= 3:
        w = "".join(w)
        g_ww = gf.green_short.value(w, w)
    else:
        ab = "".join(w[-2:])
        g_ww = gf.gbar.value(ab, ab)
    log_l = evaluator.log_value(row=row)
    log_f = math.log(gf.green_short.value("", "")) + log_l - math.log(g_ww)
    return -log_l / n, -log_f / n


def _saves(keeps):
    """Per checkpoint, the depths one trajectory's replay must save: the
    later keeps that no replay in between recomputes, i.e. the running
    minima of the later keeps that lie above this checkpoint's keep.  A
    backward pass keeps those minima on a stack, largest on top."""
    saves, minima = [], []
    for k in reversed(keeps):
        above = []
        while minima and minima[-1] >= k:
            d = minima.pop()
            if d > k:
                above.append(d)
        saves.append(above)
        minima.append(k)
    return saves[::-1]


def run_trajectories(model, cfg, gf=None):
    """Sample trajectories exactly per the rule table, in lockstep; with
    ``gf``, replay the checkpoints through one row evaluator for the
    rates."""
    records = _lockstep(model, cfg, tails=gf is not None)
    n_traj = cfg.trajectories
    rates = [[(None, None)] * n_traj] * len(records)
    if gf is not None:
        keeps = np.array([rec.keep for rec in records]).T.tolist()
        saves = zip(*map(_saves, keeps))
        evaluator = LWordEvaluator(model, gf, rows=n_traj)
        rates = []
        for rec, save in zip(records, saves):
            evaluator.replay(rec.keep.tolist(), rec.tails, save)
            rec.tails = None
            rates.append([_rates(gf, evaluator, rec.n, r)
                          for r in range(n_traj)])
    trajs = [Trajectory(i, [(rec.n, int(rec.lengths[i]), *at[i])
                            for rec, at in zip(records, rates)])
             for i in range(n_traj)]

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
