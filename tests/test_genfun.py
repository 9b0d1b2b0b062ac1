import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rlentropy as rle
from rlentropy import pipeline
from rlentropy.cones import saturate_supports
from rlentropy.genfun import (L_word, SingularSystemError, solve_all,
                              solve_Gbar, solve_H, _checked_inverse, _HSystem)

from contraction_oracle import mathL
from conftest import (fixture_path, free_group_text, free_product_text,
                      get_gf, get_model, tree_text)
import descent_oracle

# every model the suite builds: the seven fixtures, the models written out
# in conftest, then the generated free products
ALL_MODELS = ("fg2", "fg2_biased", "t3", "ne", "line", "glued", "a2", "multi",
              "twotype", "mixed", "z2z3", "z3z3")


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
        for w in get_model(name).reachable_short_words:
            assert gf.green_short.value(w, w) >= 1 - 1e-12, (name, w)


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


@pytest.mark.parametrize("name", ALL_MODELS)
def test_descent_system_matches_rule_loops(name):
    """The scattered Jacobian and the stacked evaluation give the bits of
    the loops over the rules, at the solution and away from it; the
    Jacobian on the entries of supp_h, which at a table supported there
    no entry off it depends on."""
    model = get_model(name)
    sys_ = _HSystem(model)
    S = sys_.supp
    assert np.array_equal(S, np.flatnonzero(saturate_supports(model).supp_h))
    x_solved = get_gf(name).h.values
    assert not x_solved.flat[np.setdiff1d(np.arange(x_solved.size), S)].any()
    x_random = np.random.default_rng(15).random(x_solved.shape)
    for x, z in ((x_solved, 1.0), (x_random, 0.9)):
        assert np.array_equal(sys_.apply(x, z),
                              descent_oracle.apply(model, x, z))
        full = descent_oracle.jacobian(model, x, z)
        assert np.array_equal(sys_.jacobian(x, z), full[np.ix_(S, S)])
    off = np.setdiff1d(np.arange(x_solved.size), S)
    assert not descent_oracle.jacobian(model, x_solved, 1.0)[
        np.ix_(off, S)].any()


def test_descent_oracle_covers_level_rules():
    from rlentropy.cones import saturate_supports
    with_level = [n for n in ALL_MODELS if saturate_supports(get_model(n)).level]
    assert with_level == ["multi", "twotype", "mixed", "z2z3", "z3z3"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_solve_H_unchanged_under_rule_loops(name, monkeypatch):
    model = get_model(name)
    fast = solve_H(model)
    monkeypatch.setattr(_HSystem, "apply", lambda self, x, z:
                        descent_oracle.apply(model, x, z))
    monkeypatch.setattr(_HSystem, "jacobian", lambda self, x, z:
                        descent_oracle.jacobian(model, x, z)[
                            np.ix_(self.supp, self.supp)])
    slow = solve_H(model)
    assert np.array_equal(fast.values, slow.values)
    assert (fast.derivs is None) == (slow.derivs is None)
    if fast.derivs is not None:
        assert np.array_equal(fast.derivs, slow.derivs)
    assert fast.iterations == slow.iterations
    assert fast.residual == slow.residual


# the fixtures and conftest models, the free groups F_2 - F_5, the trees
# T_3 - T_5 and Z_2 * Z_3 * Z_4 (every covering method and level rules)
DENSE_MODELS = {**{name: None for name in ALL_MODELS},
                **{f"F{k}": free_group_text(k) for k in range(2, 6)},
                **{f"T{d}": tree_text(d) for d in range(3, 6)},
                "z2z3z4": free_product_text((2, 3, 4))}


def _random_law_models():
    """Seeded random step laws on Z_2 * Z_3, Z_3 * Z_3, Z_2 * Z_4 and
    Z_2 * Z_3 * Z_4, with weights in thousandths."""
    rng = np.random.default_rng(2022)
    out = {}
    for orders in [(2, 3), (3, 3), (2, 4), (2, 3, 4)]:
        n = sum(m - 1 for m in orders)
        for rep in range(3):
            w = [Fraction(int(x), 1000) for x in
                 rng.multinomial(1000 - n, np.ones(n) / n) + 1]
            out[f"{orders}-{rep}"] = rle.parse_model(free_product_text(
                orders, w))
    return out


def _dense_model(name):
    text = DENSE_MODELS[name]
    return get_model(name) if text is None else rle.parse_model(text)


def _assert_derivs_close(fast, dense):
    assert fast is not None
    scale = np.maximum(np.abs(dense), np.abs(dense).max() * 1e-3)
    assert (np.abs(fast - dense) <= 1e-13 * scale).all()


@pytest.mark.parametrize("name", DENSE_MODELS)
def test_solve_H_on_support_matches_dense_newton(name):
    # the Newton steps on the entries of supp_h give the table of the steps
    # on every (pair, letter) entry bit for bit, and its z-derivatives to
    # rounding
    model = _dense_model(name)
    fast = solve_H(model)
    values, derivs = descent_oracle.solve_H_dense(model)
    assert np.array_equal(fast.values, values)
    if name in ("line", "a2"):      # recurrent: no derivative table
        assert fast.derivs is None
        return
    _assert_derivs_close(fast.derivs, derivs)


def test_solve_H_on_support_matches_dense_newton_on_random_laws():
    # on random laws the two solves agree to rounding, not bit for bit: the
    # dense LU solve orders its arithmetic differently (a few ulps)
    for name, model in _random_law_models().items():
        fast = solve_H(model)
        values, derivs = descent_oracle.solve_H_dense(model)
        assert (np.abs(fast.values - values) <= 1e-13 * values).all(), name
        _assert_derivs_close(fast.derivs, derivs)


@pytest.mark.parametrize("name", [n for n in DENSE_MODELS
                                  if n not in ("line", "a2")])
def test_level_one_green_matches_length3_system(name):
    # G(o, .) and the other values between the root and the letters from
    # the trace on level <= 1 agree with the whole length-3 system; longer
    # words read that system, solved on their first query, bit for bit
    model = _dense_model(name)
    gf = solve_all(model)
    gs = gf.green_short
    index, inverse = descent_oracle.green_short_system(model, gf.h)
    low = [w for w in model.reachable_short_words if len(w) <= 1]
    assert list(gs.index) == low
    for v in low:
        for w in low:
            want = inverse[index[v], index[w]]
            assert abs(gs.value(v, w) - want) <= 1e-13 * abs(want), (v, w)
    assert "_long" not in vars(gs)
    for w in model.reachable_short_words:
        if len(w) >= 2:
            assert gs.value("", w) == inverse[index[""], index[w]]
            assert gs.value(w, w) == inverse[index[w], index[w]]


def test_analysis_reads_no_length3_green_value():
    # the analysis reads G(o, .) only at level <= 1, and L(o, w) for |w| in
    # {2, 3} through the last-entry contraction; L_word's direct route
    # solves the length-3 system
    for model in (rle.load_model(fixture_path("fg2")),
                  rle.load_model(fixture_path("glued")),
                  rle.parse_model(free_product_text((2, 3))),
                  rle.parse_model(free_group_text(3))):
        gf = pipeline.analyze(model).gf
        assert "_long" not in vars(gf.green_short), model.source
        L_word(model, gf, model.reachable_short_words[-1])
        assert "_long" in vars(gf.green_short), model.source


def _near_singular(kind, n, seed, decades):
    """An n x n matrix about ``decades`` decades from singular: singular
    values spread between two random orthogonal factors, a first-step
    system I - (1 - eps) P with P row-stochastic, or a rank-deficient matrix
    plus a small perturbation."""
    rng = np.random.default_rng(seed)
    if kind == "spread":
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (u * np.logspace(0, -decades, n)) @ v.T
    if kind == "stochastic":
        P = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        P[:, 0] += 1e-3
        P /= P.sum(axis=1, keepdims=True)
        return np.eye(n) - (1 - 10.0 ** -decades) * P
    B = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
    return B + 10.0 ** -decades * rng.standard_normal((n, n))


@given(st.sampled_from(["spread", "stochastic", "rank"]), st.integers(2, 40),
       st.integers(0, 2 ** 32 - 1), st.floats(12.0, 18.0))
@settings(max_examples=300, deadline=None)
def test_norm_check_refuses_every_system_the_svd_check_refused(
        kind, n, seed, decades):
    # kappa_2 <= n kappa_1, so a 2-norm condition number above 1e14 puts the
    # 1-norm one above 1e14 / n
    A = _near_singular(kind, n, seed, decades)
    assume(np.linalg.cond(A) > 1e14)
    with pytest.raises(SingularSystemError, match="test system is singular"):
        _checked_inverse(A, "test")


def test_checked_inverse_accepts_large_well_conditioned_systems():
    # det(0.5 I) = 2^-1100 underflows, yet kappa_1 = 1: the system is
    # accepted and inverted exactly
    A = 0.5 * np.eye(1100)
    assert np.array_equal(_checked_inverse(A, "test"), 2.0 * np.eye(1100))


@pytest.mark.parametrize("A", [np.zeros((3, 3)), np.ones((4, 4)),
                               np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-4)])
def test_checked_inverse_refuses_exactly_singular_systems(A):
    with pytest.raises(SingularSystemError, match="test system is singular"):
        _checked_inverse(A, "test")
