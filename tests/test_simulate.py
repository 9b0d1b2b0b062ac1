import math

import numpy as np
import pytest

import rlentropy as rle
from rlentropy import simulate
from rlentropy.genfun import L_word

from conftest import get_gf, get_model


def test_determinism_and_seed_sensitivity(fg2):
    gf = get_gf("fg2")
    cfg = simulate.SimConfig(steps=500, trajectories=5, seed=9)
    a = simulate.run_trajectories(fg2, cfg, gf=gf)
    b = simulate.run_trajectories(fg2, cfg, gf=gf)
    assert list(a.csv_lines()) == list(b.csv_lines())
    c = simulate.run_trajectories(
        fg2, simulate.SimConfig(steps=500, trajectories=5, seed=10), gf=gf)
    assert list(a.csv_lines()) != list(c.csv_lines())


def test_threaded_merge_deterministic(fg2, monkeypatch):
    gf = get_gf("fg2")
    cfg = simulate.SimConfig(steps=300, trajectories=6, seed=4)
    seq = simulate.run_trajectories(fg2, cfg, gf=gf)
    monkeypatch.setenv("RLE_THREADS", "3")
    par = simulate.run_trajectories(fg2, cfg, gf=gf)
    assert list(seq.csv_lines()) == list(par.csv_lines())


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
    sampler = simulate._Sampler(fg2)
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
    sampler = simulate._Sampler(fg2)
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
