import math
from bisect import bisect_right

import numpy as np
import pytest

import rlentropy as rle
from rlentropy import simulate
from rlentropy.genfun import L_word
from rlentropy.model import Rule, WalkModel

from conftest import free_group_text, get_gf, get_model
from simulate_oracle import _Sampler, checkpoint_words
from simulate_oracle import run_trajectories as oracle_run

MODELS = ("a2", "fg2", "fg2_biased", "glued", "line", "ne", "t3", "multi",
          "twotype", "mixed")


def test_determinism_and_seed_sensitivity(fg2):
    gf = get_gf("fg2")
    cfg = simulate.SimConfig(steps=500, trajectories=5, seed=9)
    a = simulate.run_trajectories(fg2, cfg, gf=gf)
    b = simulate.run_trajectories(fg2, cfg, gf=gf)
    assert list(a.csv_lines()) == list(b.csv_lines())
    c = simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=500, trajectories=5, seed=10), gf=gf)
    assert list(a.csv_lines()) != list(c.csv_lines())


def test_rerun_gives_identical_csv(fg2):
    gf = get_gf("fg2")
    cfg = simulate.SimConfig(steps=300, trajectories=6, seed=4)
    seq = simulate.run_trajectories(fg2, cfg, gf=gf)
    par = simulate.run_trajectories(fg2, cfg, gf=gf)
    assert list(seq.csv_lines()) == list(par.csv_lines())


def _sim_gf(name):
    """The tables the simulate command passes: none for a walk that is not
    transient."""
    gf = get_gf(name)
    return gf if gf.transient else None


def _assert_same_as_oracle(name, cfg):
    model, gf = get_model(name), _sim_gf(name)
    rep = simulate.run_trajectories(model, cfg, gf=gf)
    ref = oracle_run(model, cfg, gf=gf)
    assert list(rep.csv_lines()) == list(ref.csv_lines()), name
    for key in ("speed_mean", "speed_se", "l_rate_mean", "l_rate_se",
                "green_rate_mean", "green_rate_se"):
        assert getattr(rep, key) == getattr(ref, key), (name, key)


@pytest.mark.parametrize("name", MODELS)
def test_lockstep_replay_matches_per_step_oracle(name):
    _assert_same_as_oracle(
        name, simulate.SimConfig(steps=800, trajectories=4, seed=42))


@pytest.mark.parametrize("cfg", [
    simulate.SimConfig(steps=300, trajectories=3, seed=0),
    simulate.SimConfig(steps=300, trajectories=3, seed=7),
    simulate.SimConfig(steps=300, trajectories=3, seed=2 ** 64 - 1),
    simulate.SimConfig(steps=1, trajectories=2, seed=3),
    simulate.SimConfig(steps=150, trajectories=2, seed=5,
                       checkpoints=range(1, 151)),
], ids=["seed0", "seed7", "seedmax", "one-step", "every-step"])
def test_lockstep_replay_matches_oracle_on_edge_configs(cfg):
    for name in MODELS:
        _assert_same_as_oracle(name, cfg)


@pytest.mark.parametrize("name", ["line", "ne", "fg2_biased"])
def test_checkpoint_records_rebuild_every_word(name):
    # each record keeps a prefix of the word before it and appends its
    # tail; on the null-drift line a word shrinks below the prefix that an
    # earlier checkpoint kept
    model = get_model(name)
    cfg = simulate.SimConfig(steps=2000, trajectories=3, seed=11)
    records = simulate._lockstep(model, cfg)
    for i in range(cfg.trajectories):
        word = ""
        for rec, ref in zip(records, checkpoint_words(model, cfg, i)):
            word = word[:rec.keep[i]] + "".join(
                model.alphabet[c] for c in rec.tails[i])
            assert word == ref and len(word) == rec.lengths[i]
    if name == "line":
        keeps = np.array([rec.keep for rec in records])
        assert (keeps[2:] < keeps[1:-1]).any()
        _assert_same_as_oracle(name, cfg)


@pytest.mark.parametrize("name, shape", [
    ("fg2_biased", (17, 23)), ("glued", (53, 17)), ("mixed", (7, 6)),
    ("F3", (37, 7)), ("F5", (101, 11))])
def test_rule_table_agrees_with_bisect_at_thresholds(name, shape):
    # a Philox stream almost never hits a threshold exactly, so the oracle
    # comparisons cannot see an off-by-one there
    model = (rle.parse_model(free_group_text(int(name[1])))
             if name[0] == "F" else get_model(name))
    thresholds, table = simulate._rule_table(model)
    assert table.shape == shape == (len(model.rules), len(thresholds) + 1)
    points = [0.0, np.nextafter(1.0, 0.0)]
    for t in thresholds:
        points += [np.nextafter(t, 0.0), t, np.nextafter(t, 2.0)]
    points = [u for u in points if 0.0 <= u < 1.0]
    first = 0
    for row, (lhs, (rhs, cum)) in enumerate(_Sampler(model).rows.items()):
        for u in points:
            bucket = np.searchsorted(thresholds, u, side="right")
            assert table[row, bucket] == first + bisect_right(cum, u), (
                lhs, u)
        first += len(rhs)


def _successor_walk(n_letters):
    """Words x s(x) s(s(x)) ... with s(x) the next letter, cyclically: the
    root jumps to any letter, a letter goes back or on, a pair drops its
    last letter or grows by the next one."""
    letters = [chr(0x100 + i) for i in range(n_letters)]
    nxt = dict(zip(letters, letters[1:] + letters[:1]))
    rules = [Rule("", x, 1 / n_letters) for x in letters]
    for x, y in nxt.items():
        rules += [Rule(x, "", 0.5), Rule(x, x + y, 0.5),
                  Rule(x + y, x, 0.25),
                  Rule(x + y, x + y + nxt[y], 0.75)]
    return WalkModel(letters, rules, check_stochastic=False)


def test_lockstep_rebuilds_words_over_255_letters():
    # the "no letter" id is 255 and the root's pair code is 0xFFFF
    model = _successor_walk(255)
    cfg = simulate.SimConfig(steps=600, trajectories=3, seed=19,
                             checkpoints=(1, 2, 3, 50, 300, 301, 600))
    records = simulate._lockstep(model, cfg, tails=True)
    for i in range(cfg.trajectories):
        word = ""
        for rec, ref in zip(records, checkpoint_words(model, cfg, i)):
            word = word[:rec.keep[i]] + "".join(
                model.alphabet[c] for c in rec.tails[i])
            assert word == ref and len(word) == rec.lengths[i]
    assert max(rec.lengths.max() for rec in records) > 100


def test_lockstep_rejects_256_letters_before_drawing(monkeypatch):
    def drawn(*args):
        raise AssertionError("a uniform was drawn")
    monkeypatch.setattr(simulate, "trajectory_rng", drawn)
    with pytest.raises(ValueError, match="at most 255 letters"):
        simulate._lockstep(_successor_walk(256),
                           simulate.SimConfig(steps=10, trajectories=2))


def test_saves_are_the_later_running_minima_above_the_keep():
    # replay 2 restarts at 3 and pushes past 4, which replay 3 reads;
    # replay 0 saves 5, 3 and 2, which replays 1, 2 and 4 read
    assert simulate._saves([0, 5, 3, 4, 2]) == [[5, 3, 2], [], [4], [], []]
    assert simulate._saves([0, 2, 2, 1]) == [[2, 1], [], [], []]


def test_series_independent_of_batch_size(fg2):
    gf = get_gf("fg2")
    small, large = (simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=500, trajectories=k, seed=8), gf=gf)
        for k in (3, 8))
    for i in range(3):
        assert small.trajectories[i] == large.trajectories[i]


def test_philox_stream_independent_of_chunk_size():
    whole = simulate.trajectory_rng(17, 3).random(10_000)
    for chunk in (1, 7, 256, 4096):
        rng = simulate.trajectory_rng(17, 3)
        parts = [rng.random(min(chunk, 10_000 - a))
                 for a in range(0, 10_000, chunk)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_config_checkpoints_sorted_and_in_range():
    cfg = simulate.SimConfig(10, 2, checkpoints=(7, 3, 7, 10))
    assert cfg.checkpoints == (3, 7, 10)
    for bad in ((20,), (0,), (3, 11), (-1,)):
        with pytest.raises(ValueError):
            simulate.SimConfig(10, 2, checkpoints=bad)
    # the standard errors divide by trajectories - 1
    for steps, trajectories in ((0, 2), (10, 1), (10, 0)):
        with pytest.raises(ValueError):
            simulate.SimConfig(steps, trajectories)


def test_default_checkpoints_end_at_steps():
    # every steps // 10 steps, then steps itself when 10 does not divide it
    assert simulate.SimConfig(25, 2).checkpoints == (*range(2, 25, 2), 25)
    assert simulate.SimConfig(5, 2).checkpoints == (1, 2, 3, 4, 5)
    for steps in (10, 3000, 10_000):
        k = steps // 10
        assert simulate.SimConfig(steps, 2).checkpoints == tuple(
            range(k, steps + 1, k))


def test_last_row_reads_the_last_step(fg2):
    rep = simulate.run_trajectories(fg2, simulate.SimConfig(25, 2, seed=3))
    for tr in rep.trajectories:
        assert [row[0] for row in tr.series][-2:] == [24, 25]
    lengths = [tr.series[-1][1] for tr in rep.trajectories]
    assert rep.speed_mean == pytest.approx(np.mean(lengths) / 25, rel=1e-12)


def test_stacked_push_bit_identical_to_single_rows():
    from rlentropy.genfun import _push
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, rows = int(rng.integers(1, 91)), int(rng.integers(1, 65))
        ms = rng.random((3, n, n)) * (rng.random((3, n, n)) < 0.5)
        alpha = rng.random((rows, n))
        alpha[rng.random(rows) < 0.1] = 0.0        # zero rows stay zero
        scale = -100 * rng.random(rows)
        letter = rng.integers(0, 3, rows)
        out, _, out_scale = _push(alpha[:, None, :], None, scale[:, None],
                                  ms[letter], None)
        for r in range(rows):
            one, _, one_scale = _push(alpha[r], None, scale[r],
                                      ms[letter[r]], None)
            assert np.array_equal(out[r, 0], one)
            assert out_scale[r, 0] == one_scale


def test_fg2_drift_three_se(fg2):
    rep = simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=4000, trajectories=30, seed=2))
    assert abs(rep.speed_mean - 0.5) <= 3 * rep.speed_se


def test_ne_drift_three_se(ne):
    rep = simulate.run_trajectories(
        ne, simulate.SimConfig(steps=4000, trajectories=30, seed=2))
    assert abs(rep.speed_mean - 5 / 12) <= 3 * rep.speed_se


def test_line_null_drift(line):
    rep = simulate.run_trajectories(
        line, simulate.SimConfig(steps=4000, trajectories=30, seed=2))
    assert abs(rep.speed_mean) <= max(3 * rep.speed_se, 0.05)


def test_l_rate_converges_to_h(fg2):
    gf = get_gf("fg2")
    rep = simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=4000, trajectories=30, seed=6), gf=gf)
    h = 0.5 * math.log(3)
    assert abs(rep.l_rate_mean - h) <= 3 * rep.l_rate_se


def test_ne_l_rate_vanishes(ne):
    gf = get_gf("ne")
    rep = simulate.run_trajectories(
        ne, simulate.SimConfig(steps=4000, trajectories=20, seed=6), gf=gf)
    assert abs(rep.l_rate_mean) <= max(3 * rep.l_rate_se, 5e-3)


def test_incremental_evaluator_matches_direct(fg2):
    gf = get_gf("fg2")
    rng = simulate.trajectory_rng(123, 0)
    sampler = _Sampler(fg2)
    ev = rle.genfun.LWordEvaluator(fg2, gf)
    word = []
    for n in range(1, 201):
        sampler.step(word, float(rng.random()))
        ev.step(word)
        if n % 25 == 0:
            direct = L_word(fg2, gf, "".join(word))
            assert ev.log_value() == pytest.approx(math.log(direct),
                                                   abs=1e-9)


def test_log_value_on_long_words(fg2):
    # on F_2, L(o, w) = 3^-|w|; a plain product underflows to 0.0 past
    # about 680 letters, the normalized stack does not
    gf = get_gf("fg2")
    rng = simulate.trajectory_rng(5, 0)
    sampler = _Sampler(fg2)
    ev = rle.genfun.LWordEvaluator(fg2, gf)
    word = []
    for _ in range(6000):
        sampler.step(word, float(rng.random()))
        ev.step(word)
        assert ev.log_value() == pytest.approx(-len(word) * math.log(3),
                                               rel=1e-12, abs=1e-15)
    assert len(word) > 2500


def test_green_rate_within_c_over_n():
    for name in ("fg2", "ne", "multi"):
        model, gf = get_model(name), get_gf(name)
        rep = simulate.run_trajectories(
            model, simulate.SimConfig(steps=2000, trajectories=5, seed=1),
            gf=gf)
        for tr in rep.trajectories:
            cs = [abs(l - g) * n for n, _, l, g in tr.series]
            assert max(cs) < 5.0, name


def test_green_rate_finite_at_one(fg2):
    rep = simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=1, trajectories=2), gf=get_gf("fg2"))
    for tr in rep.trajectories:
        (n, _, _, green), = tr.series
        assert n == 1 and math.isfinite(green)
        # one-step hitting value at least the minimal rule probability
        assert green <= -math.log(fg2.min_prob()) + 1e-9


def test_pooled_speed_matches_analytic_drift_everywhere():
    # one-step drift oracles: trees (d-2)/d; swap walks 1/4 by direct count
    from conftest import get_chain
    for name, oracle in (("t3", 1 / 3), ("multi", 0.25), ("twotype", 0.25)):
        chain = get_chain(name)
        assert chain.ell == pytest.approx(oracle, abs=1e-9), name
        rep = simulate.run_trajectories(
            get_model(name), simulate.SimConfig(steps=3000, trajectories=30,
                                                seed=13))
        assert abs(rep.speed_mean - chain.ell) <= 3 * rep.speed_se, name
