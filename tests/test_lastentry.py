import math
import random

import numpy as np
import pytest

import rlentropy as rle
from rlentropy.lastentry import (_entries, enumerate_W0, mathL, stationary,
                                 stationary_power)

from chain_oracle import dense_decomposition
from contraction_oracle import UnnormalizedContraction
from conftest import get_atlas, get_chain, get_gf, get_model


def test_W0_ne():
    words, slot_of = enumerate_W0(get_atlas("ne"), get_gf("ne"))
    assert words == ["aba", "bab"]
    assert all(len(w) >= 3 for w in words)


def test_W0_fg2_finite_unambiguous_arrivals():
    atlas = get_atlas("fg2")
    words, slot_of = enumerate_W0(atlas, get_gf("fg2"))
    assert 0 < len(words) < 10000
    assert all(len(w) >= 3 for w in words)
    # singleton boundaries: each slot contributes exactly its root
    for (t, w), slot in slot_of.items():
        assert w == slot.root


def test_mathL_values():
    gf = get_gf("ne")
    assert mathL(gf, "ab", "aba") == pytest.approx(8 / 9, abs=1e-10)
    assert mathL(gf, "ba", "bab") == pytest.approx(9 / 8, abs=1e-10)
    assert mathL(gf, "ab", "abab") == pytest.approx(1.0, abs=1e-10)


def test_mathL_prefix_independent():
    gf = get_gf("ne")
    assert mathL(gf, "ab", "abab") == mathL(gf, "babab", "abab")
    gf2 = get_gf("fg2")
    assert mathL(gf2, "ab", "aba") == mathL(gf2, "BBab", "aba")


@pytest.mark.parametrize("name", ["fg2", "t3", "glued", "multi", "twotype"])
def test_contraction_matches_unnormalized_oracle(name):
    # every suffix row's targets, sorted and shuffled, so that the stack
    # keeps prefixes of different lengths between consecutive targets
    gf, chain = get_gf(name), get_chain(name)
    rng = random.Random(17)
    for ab, row in chain.suffix_rows.items():
        oracle = UnnormalizedContraction(gf, ab)
        expected = {y: oracle.value(y) for y in row.targets}
        shuffled = list(row.targets)
        rng.shuffle(shuffled)
        for order in (row.targets, shuffled):
            got = {y: (v, d) for y, _, v, d in _entries(gf, ab, order, True)}
            assert list(got) == order
            for y, (v, d) in got.items():
                assert v == pytest.approx(expected[y][0], rel=1e-12), (ab, y)
                assert d == pytest.approx(expected[y][1], rel=1e-12), (ab, y)


def test_mathL_decomposition_identity():
    # splitting at the boundary of an intermediate cone
    for name in ("ne", "fg2", "multi"):
        model, gf, atlas = get_model(name), get_gf(name), get_atlas(name)
        chain = get_chain(name)
        checked = 0
        for x2 in chain.states[:6]:
            t2 = atlas.type_of[x2[-2:]]
            mates = [x2[:-2] + cd
                     for cd in atlas.types[t2].boundary_suffixes]
            for slot in atlas.coverings[t2].slots[:3]:
                for y3 in atlas.boundary_words(slot)[:2]:
                    x3 = x2[:-2] + y3
                    start = chain.states[0][-2:]
                    lhs = mathL(gf, start, x3)
                    rhs = sum(mathL(gf, start, y) * mathL(gf, y, y3)
                              for y in mates)
                    assert lhs == pytest.approx(rhs, abs=1e-10), (name, x2, y3)
                    checked += 1
        assert checked


def test_q_rows_stochastic():
    for name in ("ne", "fg2", "t3", "multi", "glued"):
        chain = get_chain(name)
        for ab, row in chain.suffix_rows.items():
            assert row.probs.sum() == pytest.approx(1.0, abs=1e-10), (name, ab)
            assert row.renormalized < 1e-8


def test_q_ne_unit_cycle():
    chain = get_chain("ne")
    assert chain.states == ["aba", "bab"]
    assert chain.q("aba", "bab") == pytest.approx(1.0, abs=1e-10)
    assert chain.q("bab", "aba") == pytest.approx(1.0, abs=1e-10)
    # the ratio identity behind the unit row
    gf = get_gf("ne")
    assert gf.xi["ba"] / gf.xi["ab"] * mathL(gf, "ab", "aba") \
        == pytest.approx(1.0, abs=1e-10)


def test_q_support_condition():
    chain = get_chain("fg2")
    atlas = get_atlas("fg2")
    for x in chain.states[:20]:
        t = atlas.type_of[x[-2:]]
        slot_words = {w for s in atlas.coverings[t].slots
                      for w in atlas.boundary_words(s)}
        row = chain.suffix_rows[x[-2:]]
        assert set(row.targets) <= slot_words


def test_stationary_ne():
    chain = get_chain("ne")
    assert chain.nu0 == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_doubly_stochastic_uniform():
    rng = np.random.default_rng(5)
    # random doubly stochastic matrix by Sinkhorn scaling
    q = rng.random((6, 6)) + 0.1
    for _ in range(2000):
        q /= q.sum(axis=1, keepdims=True)
        q /= q.sum(axis=0, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    nu = stationary(q)
    assert nu == pytest.approx(np.full(6, 1 / 6), abs=1e-9)


def test_stationary_direct_vs_power():
    for name in ("ne", "fg2", "multi"):
        chain = get_chain(name)
        q = chain.q_matrix().toarray()
        direct = stationary(q)
        power = stationary_power(q)
        assert np.max(np.abs(direct - power)) < 1e-9
        assert np.max(np.abs(direct @ q - direct)) < 1e-10


def test_fg2_nu0_constant_on_relabeling_orbits():
    chain = get_chain("fg2")
    mapping = {"a": "b", "b": "a", "A": "B", "B": "A"}

    def relabel(word):
        return "".join(mapping[ch] for ch in word)

    # the letter swap (a A)<->(b B) preserves the rule table, so the
    # stationary mass is constant on its orbits
    idx = chain.state_index
    for w in chain.states:
        assert chain.nu0[idx[w]] == pytest.approx(
            chain.nu0[idx[relabel(w)]], abs=1e-12)


def test_lambda_values():
    assert get_chain("ne").lambda_ == pytest.approx(1.0, abs=1e-12)
    assert get_chain("multi").lambda_ == pytest.approx(1.0, abs=1e-12)
    assert get_chain("fg2").lambda_ == pytest.approx(3.0, abs=1e-9)


def test_ell_oracles():
    # regular trees: drift (degree - 2) / degree; alternating walk: 5/12
    assert get_chain("fg2").ell == pytest.approx(0.5, abs=1e-9)
    assert get_chain("t3").ell == pytest.approx(1 / 3, abs=1e-9)
    assert get_chain("ne").ell == pytest.approx(5 / 12, abs=1e-9)


def test_essential_classes_counts():
    assert len(get_chain("fg2").classes) == 1
    assert get_chain("fg2").classes[0].weight == pytest.approx(1.0, abs=1e-12)
    assert len(get_chain("ne").classes) == 1
    assert len(get_chain("glued").classes) == 2


def test_glued_class_weights_against_escape_oracle():
    # escape probabilities per tree from the scalar descent fixed points
    f1 = 0.0
    for _ in range(500):
        f1 = 1 / 4 + 3 / 4 * f1 * f1          # degree 4
    f2 = 0.0
    for _ in range(500):
        f2 = 1 / 6 + 5 / 6 * f2 * f2          # degree 6
    esc1, esc2 = 1 - f1, 1 - f2
    w2 = 6 * esc2 / (6 * esc2 + 4 * esc1)
    chain = get_chain("glued")
    weights = sorted(c.weight for c in chain.classes)
    assert weights[1] == pytest.approx(w2, abs=1e-9)
    assert weights[0] == pytest.approx(1 - w2, abs=1e-9)
    assert w2 == pytest.approx(9 / 14, abs=1e-12)


def test_glued_per_class_drift():
    chain = get_chain("glued")
    ells = sorted(c.ell for c in chain.classes)
    assert ells[0] == pytest.approx(0.5, abs=1e-9)     # degree 4 tree
    assert ells[1] == pytest.approx(2 / 3, abs=1e-9)   # degree 6 tree


def test_entry_and_initial_masses_normalized():
    for name in ("ne", "fg2", "glued", "multi"):
        chain = get_chain(name)
        assert sum(chain.entry_mass.values()) == pytest.approx(1.0, abs=1e-9)
        assert chain.mu0.sum() == pytest.approx(1.0, abs=1e-12)
        assert sum(chain.mu1_w.values()) == pytest.approx(1.0, abs=1e-12)


def test_expected_time_and_ell_relation():
    for name in ("ne", "fg2", "t3", "multi"):
        chain = get_chain(name)
        assert chain.ell == pytest.approx(chain.lambda_ / chain.expected_time,
                                          rel=1e-12)
        assert 0 < chain.ell <= 1
        assert chain.lambda_ > 0


@pytest.mark.parametrize("name", ["fg2", "t3", "ne", "multi", "twotype",
                                  "glued"])
def test_suffix_quotient_matches_dense_solve(name):
    _assert_matches_dense(get_chain(name))


def _assert_matches_dense(chain):
    dense = dense_decomposition(chain)
    assert len(chain.classes) == len(dense)
    for cls, (ids, weight, nu, lam, T) in zip(chain.classes, dense):
        assert cls.state_ids == ids
        assert abs(cls.weight - weight) <= 1e-12
        assert np.max(np.abs(cls.nu0 - nu)) <= 1e-12
        assert abs(cls.lambda_ - lam) <= 1e-12
        assert abs(cls.expected_time - T) <= 1e-12


def test_suffix_quotient_with_transient_states():
    # suffix ab is transient; {cd, dc} and {ef} are closed; state zcd has an
    # essential suffix but no state reaches it
    from rlentropy.lastentry import EntryChain, SuffixRow, _decompose
    rows = {"ab": (["xab", "xcd", "xef"], [0.2, 0.3, 0.5]),
            "cd": (["xdc", "ycd"], [0.6, 0.4]),
            "dc": (["xcd", "ycd"], [0.7, 0.3]),
            "ef": (["xef", "yef"], [0.5, 0.5])}
    suffix_rows = {s: SuffixRow(s, t, np.array(p), np.array(p) * (1 + len(s)))
                   for s, (t, p) in rows.items()}
    states = ["xab", "xcd", "xdc", "xef", "ycd", "yef", "zcd"]
    chain = EntryChain(None, None, None, states,
                       {w: i for i, w in enumerate(states)}, [0] * 7,
                       suffix_rows, {}, {},
                       np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]))
    _decompose(chain)
    assert [c.state_ids for c in chain.classes] == [[1, 2, 4], [3, 5]]
    _assert_matches_dense(chain)
