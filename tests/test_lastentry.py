import functools
import math
import random

import numpy as np
import pytest

import rlentropy as rle
from rlentropy.lastentry import _entries, stationary

from chain_oracle import (dense_decomposition, folded, initial_law, lifted,
                          q_matrix, slot_map, stationary_power, word_table)
from contraction_oracle import UnnormalizedContraction, mathL
from conftest import (free_group_text, free_product_text, get_atlas,
                      get_chain, get_gf, get_model)


def test_W0_ne():
    words = sorted({w for _, w in slot_map(get_atlas("ne"), get_gf("ne"))})
    assert words == ["aba", "bab"] == get_chain("ne").states
    assert all(len(w) >= 3 for w in words)


def test_W0_fg2_finite_unambiguous_arrivals():
    atlas = get_atlas("fg2")
    slot_of = slot_map(atlas, get_gf("fg2"))
    words = sorted({w for _, w in slot_of})
    assert 0 < len(words) < 10000
    assert words == get_chain("fg2").states
    assert all(len(w) >= 3 for w in words)
    # singleton boundaries: each slot contributes exactly its root
    for (t, w), slot in slot_of.items():
        assert w == slot.root


# chains built from generated text, beside the conftest models
GENERATED = {"F3": (free_group_text, 3), "z2z3z4": (free_product_text,
                                                    (2, 3, 4))}


@functools.lru_cache(maxsize=None)
def _chain(name):
    if name not in GENERATED:
        return get_chain(name)
    from rlentropy import pipeline
    make, arg = GENERATED[name]
    return pipeline.analyze(rle.parse_model(make(arg))).chain


@pytest.mark.parametrize("name", ["fg2", "t3", "ne", "multi", "twotype",
                                  "glued", "mixed", *GENERATED])
def test_slot_tables_match_covering_words(name):
    # each type's slot table holds the words of the word-by-word slot map
    # in word order, and its columns (suffix id, length, slot type, local
    # index) are those of the map's slots; every suffix row's targets lie
    # in its own type's table
    chain = _chain(name)
    index = chain.gf.gbar.index
    slot_of = slot_map(chain.atlas, chain.gf)
    for t, table in enumerate(chain.slot_tables):
        words = [w for (m, w) in slot_of if m == t]
        assert table.words == sorted(words)
        slots = [slot_of[t, w] for w in table.words]
        assert table.sfx.tolist() == [index[w[-2:]] for w in table.words]
        assert table.length.tolist() == [len(w) for w in table.words]
        assert table.slot_type.tolist() == [s.type_id for s in slots]
        assert table.local.tolist() == [s.local_index for s in slots]
    for ab, row in chain.suffix_rows.items():
        t = chain.atlas.type_of[ab]
        assert row.table is chain.slot_tables[t]
        assert np.all(np.diff(row.at) > 0)
        for k, y in zip(row.at.tolist(), row.targets):
            slot = slot_of[t, y]
            assert (row.table.slot_type[k], row.table.local[k]) == \
                (slot.type_id, slot.local_index), (name, ab, y)
            assert chain.gf.gbar.rpairs[row.table.sfx[k]] == y[-2:]


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
            at, vals, dvals = _entries(gf, ab, word_table(gf, order), True)
            got = dict(zip([order[k] for k in at], zip(vals, dvals)))
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
    for x, y in (("aba", "bab"), ("bab", "aba")):
        row = chain.suffix_rows[x[-2:]]
        assert row.probs[row.targets.index(y)] == pytest.approx(1.0,
                                                                abs=1e-10)
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
    cls, = get_chain("ne").classes
    assert cls.rows == ["ab", "ba"]
    assert cls.pi == pytest.approx([0.5, 0.5], abs=1e-12)


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
        q = q_matrix(chain).toarray()
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
    # stationary mass, lifted from the rows to the states, is constant on
    # its orbits
    cls, = chain.classes
    nu = dict(zip(chain.states, lifted(chain, cls)))
    for w in chain.states:
        assert nu[w] == pytest.approx(nu[relabel(w)], abs=1e-12)


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


def test_single_class_weight_is_exactly_one():
    # the absorption weights are divided by their sum, so a single class
    # weighs 1.0 however the first-increment law rounds
    for name in ("fg2", "fg2_biased", "t3", "ne", "multi"):
        assert [c.weight for c in get_chain(name).classes] == [1.0], name


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
        assert sum(chain.mu1.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(c.weight for c in chain.classes) == pytest.approx(
            1.0, abs=1e-12)
        for cls in chain.classes:
            assert cls.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_expected_time_and_ell_relation():
    for name in ("ne", "fg2", "t3", "multi"):
        chain = get_chain(name)
        assert chain.ell == pytest.approx(chain.lambda_ / chain.expected_time,
                                          rel=1e-12)
        assert 0 < chain.ell <= 1
        assert chain.lambda_ > 0


@pytest.mark.parametrize("name", ["fg2", "t3", "ne", "multi", "twotype",
                                  "glued", "mixed", *GENERATED])
def test_suffix_quotient_matches_dense_solve(name):
    _assert_matches_dense(_chain(name))


def _assert_matches_dense(chain, mu0=None):
    """The classes on the suffix rows against the state-level solve: the
    rows are the suffixes of the class's states, and pi is the stationary
    law folded per suffix."""
    dense = dense_decomposition(chain, mu0)
    assert len(chain.classes) == len(dense)
    for cls, (ids, weight, nu, lam, T) in zip(chain.classes, dense):
        pi = folded(chain, ids, nu)
        assert cls.rows == sorted(pi)
        assert abs(cls.weight - weight) <= 1e-12
        assert max(abs(p - pi[ab]) for ab, p in zip(cls.rows, cls.pi)) <= 1e-12
        assert abs(cls.lambda_ - lam) <= 1e-12
        assert abs(cls.expected_time - T) <= 1e-12


def test_suffix_quotient_with_transient_states():
    # suffix ab is transient; {cd, dc} and {ef} are closed; state zcd has an
    # essential suffix but no row reaches it, so it carries no mass
    from types import SimpleNamespace
    from rlentropy.lastentry import EntryChain, SuffixRow, _decompose
    rows = {"ab": (["xab", "xcd", "xef"], [0.2, 0.3, 0.5]),
            "cd": (["xdc", "ycd"], [0.6, 0.4]),
            "dc": (["xcd", "ycd"], [0.7, 0.3]),
            "ef": (["xef", "yef"], [0.5, 0.5])}
    states = ["xab", "xcd", "xdc", "xef", "ycd", "yef", "zcd"]
    gf = SimpleNamespace(gbar=SimpleNamespace(index={s: i for i, s in
                                                     enumerate(rows)}))
    table = SimpleNamespace(words=states, sfx=word_table(gf, states).sfx,
                            length=np.full(len(states), 3))
    suffix_rows = {s: SuffixRow(s, table, np.array([states.index(y)
                                                    for y in t]),
                                np.array(p), sum(p) * (1 + len(s)))
                   for s, (t, p) in rows.items()}
    mu0 = np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    mu1 = {}
    for w, m in zip(states, mu0):
        mu1[0, w[-2:]] = mu1.get((0, w[-2:]), 0.0) + m
    chain = EntryChain(None, gf, SimpleNamespace(type_of=dict.fromkeys(
        rows, 0)), suffix_rows, [table], mu1)
    _decompose(chain)
    assert [c.rows for c in chain.classes] == [["cd", "dc"], ["ef"]]
    support = [np.flatnonzero(lifted(chain, c)).tolist()
               for c in chain.classes]
    assert support == [[1, 2, 4], [3, 5]]
    _assert_matches_dense(chain, mu0)


@pytest.mark.parametrize("name", ["fg2", "fg2_biased", "t3", "ne", "glued",
                                  "z2z3", *GENERATED])
def test_initial_law_matches_recontraction(name):
    """The first-increment law read from the suffix rows agrees with the
    one contracted afresh from every root-covering word."""
    chain = _chain(name)
    want = {}
    for (t, y), m in initial_law(chain)[1].items():
        want[t, y[-2:]] = want.get((t, y[-2:]), 0.0) + m
    assert list(chain.mu1) == list(want)
    assert max(abs(chain.mu1[k] - v) for k, v in want.items()) <= 1e-15


def test_initial_law_builds_missing_root_rows():
    """A root word whose suffix row is not in the chain gets the same row
    from its own contraction."""
    import copy
    from rlentropy.lastentry import _initial_distribution
    chain = get_chain("multi")
    root = [w for s in chain.atlas.root_covering.slots
            for w in chain.atlas.boundary_words(s)]
    bare = copy.copy(chain)
    bare.suffix_rows = {ab: r for ab, r in chain.suffix_rows.items()
                        if ab not in root}
    assert len(bare.suffix_rows) < len(chain.suffix_rows)
    _initial_distribution(bare)
    assert bare.mu1 == chain.mu1
