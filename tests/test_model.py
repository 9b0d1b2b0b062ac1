import itertools
import random

import pytest

import rlentropy as rle
from rlentropy.model import ModelError

from conftest import (fixture_path, free_group_text, free_product_text,
                      get_gf, get_model, tree_text)
from weak_symmetry_oracle import ball_violations, window_violations


def test_fg2_reachable_suffixes(fg2):
    # reduced two-letter pairs: xy with y != x^-1
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    expected = {x + y for x in "aAbB" for y in "aAbB" if y != inv[x]}
    assert set(fg2.reachable_suffixes) == expected
    assert len(expected) == 12


def test_ne_reachable_suffixes(ne):
    assert set(ne.reachable_suffixes) == {"ab", "ba"}


def test_row_sum_error():
    text = """
alphabet: a b
rule: o -> a : 1
rule: a -> o : 1/2
rule: a -> ab : 1/2
rule: ab -> aba : 0.9
rule: ab -> a : 0.2
"""
    with pytest.raises(ModelError, match="sums to"):
        rle.parse_model(text)


def test_parse_reports_line_numbers():
    with pytest.raises(ModelError, match="line 3"):
        rle.parse_model("alphabet: a\nrule: a -> o : 1\nrule: zz : 1\n")


def test_unknown_letter_rejected():
    with pytest.raises(ModelError, match="unknown letter"):
        rle.parse_model("alphabet: a\nrule: o -> q : 1\n")


def test_shape_violations_rejected():
    with pytest.raises(ModelError, match="rhs length"):
        rle.parse_model("alphabet: a\nrule: o -> aa : 1\n")
    with pytest.raises(ModelError, match="rhs length"):
        rle.parse_model("alphabet: a\nrule: aa -> aaaa : 1\n")


def test_reserved_token():
    with pytest.raises(ModelError, match="reserved"):
        rle.parse_model("alphabet: o a\n")


def test_fraction_and_decimal_probs():
    m = rle.parse_model(
        "alphabet: a\nrule: o -> a : 0.5\nrule: o -> o : 1/2\n"
        "rule: a -> o : 1\n", check_stochastic=True)
    assert m.prob("", "a") == 0.5


def test_weak_symmetry_fixtures():
    for name in ("fg2", "t3", "ne", "line", "glued", "a2", "multi"):
        assert rle.check_weak_symmetry(get_model(name)).ok, name


def test_weak_symmetry_report_cached_per_model():
    model = rle.load_model(fixture_path("t3"))
    first = rle.check_weak_symmetry(model)
    assert rle.check_weak_symmetry(model) is first


def test_weak_symmetry_violation_reported(fg2):
    rules = [r for r in fg2.all_rules() if (r.lhs, r.rhs) != ("ab", "a")]
    broken = fg2.with_rules([(r.lhs, r.rhs, r.prob) for r in rules],
                            check_stochastic=False)
    report = rle.check_weak_symmetry(broken)
    assert not report.ok
    assert ("a", "ab") in report.violations


def test_weak_symmetry_verdict_symmetric(ne):
    # swapping every rule pair (the table is already closed under reversal)
    # leaves the verdict unchanged
    assert rle.check_weak_symmetry(ne).ok
    swapped = []
    for r in ne.all_rules():
        swapped.append((r.lhs, r.rhs, r.prob))
    assert rle.check_weak_symmetry(
        ne.with_rules(swapped, check_stochastic=False)).ok


def test_word_ball_adjacency_symmetric():
    # one-step relation on reachable words up to length 5 is symmetric
    for name in ("fg2", "ne", "line", "multi"):
        assert ball_violations(get_model(name), max_len=5) == [], name


BASE_MODELS = ("fg2", "fg2_biased", "t3", "ne", "line", "glued", "a2",
               "multi", "mixed", "twotype")


def _drop_one_rule_variants(count, seed=7):
    """Seeded sample of the base models with one rule removed."""
    rng = random.Random(seed)
    variants = []
    for name in BASE_MODELS:
        rules = get_model(name).all_rules()
        for k in rng.sample(range(len(rules)), min(count, len(rules))):
            kept = [(r.lhs, r.rhs, r.prob) for j, r in enumerate(rules) if j != k]
            variants.append((f"{name} without {rules[k]}",
                             get_model(name).with_rules(kept, check_stochastic=False)))
    return variants


def test_weak_symmetry_agrees_with_ball_oracle():
    cases = [(name, get_model(name)) for name in BASE_MODELS]
    cases += [(f"F_{k}", rle.parse_model(free_group_text(k))) for k in (2, 3, 4)]
    cases += [(f"T_{d}", rle.parse_model(tree_text(d))) for d in (3, 4, 5)]
    cases += _drop_one_rule_variants(3)
    flagged = 0
    for label, model in cases:
        report = rle.check_weak_symmetry(model)
        assert set(report.violations) == set(ball_violations(model)), label
        flagged += not report.ok
    assert flagged >= 10


def test_weak_symmetry_list_matches_successor_loop():
    # the reverse rule index reports the same pairs in the same order as
    # searching the successors of each successor (validate prints them)
    cases = [(name, get_model(name)) for name in BASE_MODELS]
    cases += [(f"F_{k}", rle.parse_model(free_group_text(k))) for k in (2, 3)]
    cases += [(f"Z_{m} * Z_{n}", rle.parse_model(free_product_text((m, n))))
              for m, n in ((2, 3), (3, 3), (2, 4))]
    cases += _drop_one_rule_variants(5)
    flagged = 0
    for label, model in cases:
        want = window_violations(model)
        assert rle.check_weak_symmetry(model).violations == want, label
        flagged += bool(want)
    assert flagged >= 15
# a forced chain 1 -> 12 -> 123 -> ... -> 12345678, each step reversible,
# whose last suffix 78 also descends to 9 with no way back: the only
# violation leaves a word of length 8
PAST_BALL_TEXT = "\n".join(
    ["alphabet: 1 2 3 4 5 6 7 8 9", "rule: o -> 1 : 1",
     "rule: 1 -> o : 1/2", "rule: 1 -> 12 : 1/2"]
    + [f"rule: {i}{i + 1} -> {i} : 1/2\nrule: {i}{i + 1} -> {i}{i + 1}{i + 2} : 1/2"
       for i in range(1, 7)]
    + ["rule: 78 -> 7 : 1/2", "rule: 78 -> 9 : 1/2"])


def test_weak_symmetry_violation_past_ball_radius():
    model = rle.parse_model(PAST_BALL_TEXT)
    report = rle.check_weak_symmetry(model)
    assert report.violations == [("78", "69")]
    assert ball_violations(model, max_len=6) == []
    assert ball_violations(model, max_len=8) == [("78", "69")]


def test_suffix_irreducibility():
    # the tree walk and the alternating walk both allow reaching any
    # reachable suffix above any starting suffix; the glued trees do not
    assert rle.check_suffix_irreducibility(get_model("fg2")).ok
    assert rle.check_suffix_irreducibility(get_model("t3")).ok
    assert rle.check_suffix_irreducibility(get_model("ne")).ok
    assert rle.check_suffix_irreducibility(get_model("line")).ok
    glued = rle.check_suffix_irreducibility(get_model("glued"))
    assert not glued.ok
    assert ("pq", "uv") in glued.violations
    a2 = rle.check_suffix_irreducibility(get_model("a2"))
    assert not a2.ok
    assert ("dd", "ab") in a2.violations


def test_relaxed_condition():
    assert rle.check_relaxed_condition(get_model("fg2"), get_gf("fg2")).ok
    assert rle.check_relaxed_condition(get_model("ne"), get_gf("ne")).ok
    assert rle.check_relaxed_condition(get_model("glued"), get_gf("glued")).ok
    rep = rle.check_relaxed_condition(get_model("a2"), get_gf("a2"))
    assert not rep.ok
    assert set(rep.violations) == {"ad", "bd", "cd", "dd"}


def test_rows_never_renormalized():
    # a nearly-stochastic row is an error, not silently fixed
    text = ("alphabet: a\nrule: o -> a : 1\nrule: a -> o : 0.5\n"
            "rule: a -> aa : 0.500001\nrule: aa -> a : 0.5\n"
            "rule: aa -> aaa : 0.5\n")
    with pytest.raises(ModelError):
        rle.parse_model(text)


def test_all_stored_probs_positive():
    for name in ("fg2", "t3", "ne", "line", "glued", "a2"):
        model = get_model(name)
        assert all(r.prob > 0 for r in model.all_rules())
        for lhs, rules in model.rules.items():
            assert abs(sum(r.prob for r in rules) - 1.0) <= 1e-12


def test_suffix_closure_under_one_step():
    # reachable suffix set is closed under the one-step suffix moves that
    # stay at level >= 2
    for name in ("fg2", "ne", "glued", "multi"):
        model = get_model(name)
        suff = set(model.reachable_suffixes)
        for ab in suff:
            for rhs, _ in model.level_rules.get(ab, ()):
                assert rhs in suff
            for rhs, _ in model.up_rules.get(ab, ()):
                assert rhs[1:] in suff


def test_duplicate_rules_rejected():
    with pytest.raises(ModelError, match="duplicate"):
        rle.parse_model(
            "alphabet: a\nrule: o -> a : 1/2\nrule: o -> a : 1/2\n")
