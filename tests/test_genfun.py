import math

import numpy as np
import pytest

import rlentropy as rle
from rlentropy.genfun import L_word, solve_Gbar, solve_H, _HSystem
from rlentropy.lastentry import mathL

from conftest import get_gf, get_model


# -- independent oracles -------------------------------------------------------

def ne_descent_oracle():
    """Least solution of x = 1/3 + (2/3)xy, y = 1/4 + (3/4)xy by plain
    iteration from zero."""
    x = y = 0.0
    for _ in range(2000):
        x, y = 1 / 3 + 2 / 3 * x * y, 1 / 4 + 3 / 4 * x * y
    return x, y


def fg2_descent_oracle():
    """Least root of F = 1/4 + (3/4) F^2."""
    f = 0.0
    for _ in range(2000):
        f = 0.25 + 0.75 * f * f
    return f


def test_ne_H_values(ne):
    gf = get_gf("ne")
    x, y = ne_descent_oracle()
    assert x == pytest.approx(4 / 9, abs=1e-12)
    assert y == pytest.approx(3 / 8, abs=1e-12)
    assert gf.h.value("ab", "a") == pytest.approx(4 / 9, abs=1e-10)
    assert gf.h.value("ba", "b") == pytest.approx(3 / 8, abs=1e-10)
    assert gf.h.value("ab", "b") == 0.0


def test_ne_quadratic_has_spurious_root_not_selected():
    # x = y = 1 also solves the system; iteration from zero must not land there
    assert abs(1 - (1 / 3 + 2 / 3)) < 1e-15
    gf = get_gf("ne")
    assert gf.h.value("ab", "a") < 0.5


def test_fg2_H_values(fg2):
    gf = get_gf("fg2")
    f = fg2_descent_oracle()
    assert f == pytest.approx(1 / 3, abs=1e-12)
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for xy in fg2.reachable_suffixes:
        for c in fg2.alphabet:
            expect = 1 / 3 if c == xy[0] else 0.0
            assert gf.h.value(xy, c) == pytest.approx(expect, abs=1e-10), (xy, c)


def test_line_recurrent(line):
    gf = get_gf("line")
    assert gf.h.value("aa", "a") == pytest.approx(1.0, abs=1e-7)
    assert gf.xi["aa"] == pytest.approx(0.0, abs=1e-7)
    assert not gf.transient
    assert gf.gbar is None


def test_xi_values():
    assert get_gf("fg2").xi["ab"] == pytest.approx(2 / 3, abs=1e-10)
    assert get_gf("ne").xi["ab"] == pytest.approx(5 / 9, abs=1e-10)
    assert get_gf("ne").xi["ba"] == pytest.approx(5 / 8, abs=1e-10)


def test_transience_verdicts():
    assert get_gf("fg2").transient
    assert get_gf("ne").transient
    assert get_gf("glued").transient
    assert not get_gf("line").transient
    assert not get_gf("a2").transient  # trapping half-lines


def test_H_row_sums_at_most_one():
    for name in ("fg2", "t3", "ne", "line", "glued", "multi"):
        gf = get_gf(name)
        sums = gf.h.values.sum(axis=1)
        assert (sums <= 1 + 1e-12).all()
        for ab in get_model(name).reachable_suffixes:
            i = gf.h.pairs.index(ab)
            recurrent_here = gf.xi[ab] <= 1e-7
            assert (abs(sums[i] - 1) <= 1e-7) == recurrent_here


def test_monotone_iteration(ne):
    sys_ = _HSystem(ne)
    x = np.zeros_like(sys_.base)
    prev = x
    for k in range(1, 301):
        x = sys_.apply(x, 1.0)
        assert (x >= prev - 1e-15).all()
        if k % 100 == 0:
            prev = x
    gf = get_gf("ne")
    assert np.max(np.abs(x - gf.h.values)) < 1e-6


def test_gbar_ne_oracle():
    gf = get_gf("ne")
    # returns to ab at level 2: one ascent (2/3), one descent ending at b (3/8)
    assert gf.gbar.value("ab", "ab") == pytest.approx(1 / (1 - 2 / 3 * 3 / 8),
                                                      abs=1e-10)
    assert gf.gbar.value("ab", "ab") == pytest.approx(4 / 3, abs=1e-10)
    assert gf.gbar.value("ab", "ba") == 0.0
    assert gf.gbar.value("ba", "ba") == pytest.approx(3 / 2, abs=1e-10)


def test_gbar_fg2_oracle():
    gf = get_gf("fg2")
    # three ascents at 1/4 each, each returning with descent value 1/3
    assert gf.gbar.value("ab", "ab") == pytest.approx(
        1 / (1 - 3 * 0.25 * (1 / 3)), abs=1e-10)
    assert gf.gbar.value("ab", "ab") >= 1.0


def test_gbar_diagonal_at_least_one():
    for name in ("fg2", "t3", "ne", "glued", "multi"):
        gf = get_gf(name)
        assert (np.diag(gf.gbar.values) >= 1 - 1e-12).all()


def test_lbar_values():
    # one level up: the last-entry value of a three-letter word
    gf = get_gf("ne")
    assert mathL(gf, "ab", "aba") == pytest.approx(8 / 9, abs=1e-10)
    assert mathL(gf, "ba", "bab") == pytest.approx(9 / 8, abs=1e-10)
    assert mathL(gf, "ab", "bab") == 0.0
    gf2 = get_gf("fg2")
    for z in "abA":
        assert mathL(gf2, "ab", "ab" + z) == pytest.approx(1 / 3, abs=1e-10)


def test_green_short_fg2():
    gf = get_gf("fg2")
    assert gf.green_short.value("", "") == pytest.approx(1.5, abs=1e-10)
    assert gf.green_short.l_value("a") == pytest.approx(1 / 3, abs=1e-10)
    # hitting identity check
    assert gf.green_short.value("", "a") == pytest.approx(0.5, abs=1e-10)


def test_green_diagonal_at_least_one():
    for name in ("fg2", "ne", "multi"):
        gf = get_gf(name)
        assert (np.diag(gf.green_short.values) >= 1 - 1e-12).all()


def test_L_word_two_routes_agree():
    # last-visit factorization: expansion route vs short Green system
    for name in ("fg2", "ne", "t3", "multi"):
        model, gf = get_model(name), get_gf(name)
        for w in model.reachable_short_words:
            if len(w) < 2:
                continue
            a = L_word(model, gf, w, force_expansion=True)
            b = gf.green_short.l_value(w)
            assert a == pytest.approx(b, abs=1e-9), (name, w)


def test_L_oo_is_one():
    assert get_gf("ne").green_short.l_value("") == 1.0


def _brute_L(model, w, descent_bound, max_steps=40, headroom=6):
    """Truncated path-sum oracle for L(o, w): forward DP over words avoiding
    a return to the empty word, every visit to w counted.

    Truncation is sound: the DP value is a lower bound, and every unit of
    dropped or still-alive mass at length l can contribute future visits only
    after descending l - |w| levels, each level costing at most
    ``descent_bound`` in probability; repeat visits are geometrically bounded
    the same way (factor 10 slop covers the multiplicities)."""
    len_cap = len(w) + headroom
    cur = {"": 1.0}
    total = 0.0
    tail = 0.0
    for _ in range(max_steps):
        nxt = {}
        for word, p in cur.items():
            for succ, q in model.successors(word):
                if succ == "":
                    continue
                if len(succ) > len_cap:
                    tail += p * q * descent_bound ** (len(succ) - len(w)) * 10
                    continue
                nxt[succ] = nxt.get(succ, 0.0) + p * q
        total += nxt.get(w, 0.0)
        cur = nxt
    for word, p in cur.items():
        drop = max(len(word) - len(w), 0)
        tail += p * descent_bound ** drop * 10
    return total, tail


def _multi_descent_bound():
    # scalar majorant of the one-level descent probability for the swap walk:
    # f = 1/4 + f/4 + f^2/2, least root (independent of the solver tables)
    f = 0.0
    for _ in range(1000):
        f = 0.25 + 0.25 * f + 0.5 * f * f
    return f + 1e-9


def test_L_word_against_truncated_path_sum():
    x, y = ne_descent_oracle()
    cases = [("ne", "abab", max(x, y)), ("ne", "ab", max(x, y)),
             ("fg2", "aba", 1 / 3 + 1e-9), ("fg2", "ab", 1 / 3 + 1e-9),
             ("t3", "ab", 0.5 + 1e-9),
             ("multi", "ab", _multi_descent_bound()),
             ("multi", "aab", _multi_descent_bound())]
    for name, w, bound in cases:
        model, gf = get_model(name), get_gf(name)
        brute, tail = _brute_L(model, w, bound)
        got = L_word(model, gf, w)
        assert got >= brute - 1e-12, (name, w)
        assert got - brute <= tail + 1e-12, (name, w, got, brute, tail)


def test_ne_L_abab_tight():
    x, y = ne_descent_oracle()
    model, gf = get_model("ne"), get_gf("ne")
    brute, tail = _brute_L(model, "abab", max(x, y), max_steps=200,
                           headroom=26)
    assert tail < 1e-6
    assert L_word(model, gf, "abab") == pytest.approx(brute, abs=tail + 1e-9)


def test_derivatives_against_finite_differences():
    eps = 1e-5
    for name in ("fg2", "ne", "multi"):
        model = get_model(name)
        gf = get_gf(name)
        hp = solve_H(model, z=1 + eps, want_derivs=False)
        hm = solve_H(model, z=1 - eps, want_derivs=False)
        fd = (hp.values - hm.values) / (2 * eps)
        mask = np.abs(fd) > 1e-8
        rel = np.abs(gf.h.derivs - fd)[mask] / np.abs(fd)[mask]
        assert rel.max() < 1e-4, name

        gp = solve_Gbar(model, hp, z=1 + eps)
        gm = solve_Gbar(model, hm, z=1 - eps)
        fdg = (gp.values - gm.values) / (2 * eps)
        maskg = np.abs(fdg) > 1e-8
        relg = np.abs(gf.gbar.derivs - fdg)[maskg] / np.abs(fdg)[maskg]
        assert relg.max() < 1e-4, name


def test_h_solve_reports_iterations():
    gf = get_gf("fg2")
    assert gf.h.iterations >= 1
    assert gf.h.residual < 1e-12
