"""Trajectory sampling and the pathwise rates that cross-validate the
analytic tables: pooled |X_n|/n against ell, and the surprisal and
hitting-probability rates against h.

A run makes two passes.  The lockstep sampler advances all trajectories
together on letter ids and records, at each checkpoint and per trajectory,
the word length, ``keep`` (the number of leading letters no step has touched
since the previous checkpoint: the least ``length - 2`` over the segment)
and the letters after ``keep``.  One row evaluator then replays these
records for all trajectories at once, and the rates are read from its rows.

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
        if self.steps < 1 or self.trajectories < 1:
            raise ValueError("steps and trajectories must be >= 1")
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


def _lockstep(model, cfg, tails=True):
    """Sample all trajectories together, one step of each at a time, and
    record every checkpoint (with the letters past ``keep`` if ``tails``).

    Words are rows of letter ids behind two slots that hold the id |A|, "no
    letter"; a word's last two slots (letters, or these markers for the root
    and one-letter words) give the code of its rule row.  The row's
    cumulated probabilities, padded with inf, choose the rule by counting
    the entries at or below the step's uniform, as a bisection would."""
    alphabet = model.alphabet
    ids = {c: i for i, c in enumerate(alphabet)}
    none = len(alphabet)
    if none > 255:
        raise ValueError("the sampler stores letter ids as bytes: at most "
                         "255 letters")
    width = max(len(rules) for rules in model.rules.values())
    n_codes = (none + 1) ** 2
    cum = np.full((n_codes, width), np.inf)
    shift = np.zeros(n_codes, dtype=np.intp)    # first rewritten slot - L
    rhs = np.full((n_codes * width, 3), none, dtype=np.uint8)
    grow = np.zeros(n_codes * width, dtype=np.intp)
    for lhs, rules in model.rules.items():
        p2, p1 = ([none, none] + [ids[c] for c in lhs])[-2:]
        code = p2 * (none + 1) + p1
        row = list(accumulate(r.prob for r in rules))
        row[-1] = max(row[-1], 1.0)
        cum[code, :len(row)] = row
        shift[code] = 2 - len(lhs)
        for k, r in enumerate(rules):
            rhs[code * width + k, :len(r.rhs)] = [ids[c] for c in r.rhs]
            grow[code * width + k] = len(r.rhs) - len(lhs)

    n_traj = cfg.trajectories
    rngs = [trajectory_rng(cfg.seed, i) for i in range(n_traj)]
    radix, window = np.intp(none + 1), np.arange(3)
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
        # a step grows a word by at most one letter and writes three slots
        need = 2 + int(length.max()) + chunk + 3
        if need > words.shape[1]:
            grown = np.full((n_traj, max(need, 2 * words.shape[1])), none,
                            dtype=np.uint8)
            grown[:, :words.shape[1]] = words
            words, flat = grown, grown.reshape(-1)
            base = np.arange(n_traj) * words.shape[1]
        for draws in u:
            pos = base + length             # slot of the second-last letter
            code = flat[pos] * radix + flat[pos + 1]
            below = cum[code] <= draws[:, None]     # bisect_right, per row
            rule = code * width + np.add.reduce(below, axis=1)
            flat[(pos + shift[code])[:, None] + window] = rhs[rule]
            length += grow[rule]
            np.minimum(low, length, out=low)
            n += 1
            if n == target:
                keep = np.maximum(low - 2, 0)
                records.append(_Checkpoint(n, length.copy(), keep, [
                    words[i, 2 + k:2 + m].tobytes()
                    for i, (k, m) in enumerate(zip(keep, length))]
                    if tails else None))
                low = length.copy()
                target = next(checkpoints, None)
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
