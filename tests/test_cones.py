import dataclasses
import gc
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlentropy as rle
from rlentropy import cones
from rlentropy.cones import limit_words, saturate_supports
from rlentropy.model import AssumptionError, check_weak_symmetry

import cone_oracle
from cone_oracle import (brute_cone_members, child_tables, cone_level_words,
                         cones_disjoint, coverings, in_cone, tail_reachable,
                         tail_reachable_rows, word_spelled_cut)
from conftest import (FIXTURES, free_group_text, free_product_text,
                      get_atlas, get_gf, get_model, tree_text)

ALL_MODELS = sorted(p.stem for p in FIXTURES.glob("*.rw")) + \
    ["mixed", "multi", "twotype"]


def test_supports_examples():
    ne = get_model("ne")
    rel = saturate_supports(ne)
    # a word with suffix ba is reachable from ab going up, but the two-letter
    # word ba itself is not reachable staying at level >= 2
    assert rel.reaches_ge2("ab", "ba")
    P = rel.pair_index
    assert not rel.reach22[P["ab"], P["ba"]]

    fg2 = get_model("fg2")
    rel2 = saturate_supports(fg2)
    for xy in fg2.reachable_suffixes:
        for c in fg2.alphabet:
            assert rel2.supp_h[rel2.pair_index[xy],
                               rel2.letter_index[c]] == (c == xy[0])

    line = get_model("line")
    rel3 = saturate_supports(line)
    assert rel3.reach22[rel3.pair_index["aa"], rel3.pair_index["aa"]]


def test_classify_fg2():
    atlas = get_atlas("fg2")
    assert len(atlas.types) == 12
    for t in atlas.types:
        assert t.members == (t.representative,)
        assert t.boundary_suffixes == (t.representative,)
        assert t.unambiguous


def test_classify_ne_line_multi():
    assert [t.members for t in get_atlas("ne").types] == [("ab",), ("ba",)]
    assert all(t.unambiguous for t in get_atlas("ne").types)
    line_types, _ = rle.classify_types(get_model("line"))
    assert len(line_types) == 1 and line_types[0].members == ("aa",)
    multi = get_atlas("multi")
    assert len(multi.types) == 1
    assert multi.types[0].members == ("aa", "ab", "ba", "bb")
    assert multi.types[0].boundary_suffixes == ("aa", "ab", "ba", "bb")
    assert not multi.types[0].unambiguous


def test_boundary_suffixes_equal_across_members():
    # independent recomputation per member
    for name in ("multi", "glued"):
        model = get_model(name)
        atlas = get_atlas(name)
        rel = atlas.rel
        P = rel.pair_index
        for t in atlas.types:
            for member in t.members:
                two_letter = [cd for cd in model.reachable_suffixes
                              if rel.reach22[P[member], P[cd]]
                              and rel.reach22[P[cd], P[member]]]
                bset = sorted(cd for cd in two_letter
                              if model.down_rules.get(cd))
                assert tuple(bset) == t.boundary_suffixes


def test_ne_covering_single_slot():
    atlas = get_atlas("ne")
    cov = atlas.coverings[atlas.type_of["ab"]]
    assert len(cov.slots) == 1
    slot = cov.slots[0]
    assert slot.root == "aba"
    assert slot.type_id == atlas.type_of["ba"]
    assert slot.local_index == 1
    assert cov.certified


def test_fg2_covering_all_types_disjoint():
    atlas = get_atlas("fg2")
    cov = atlas.coverings[atlas.type_of["ab"]]
    assert cov.certified
    assert len(cov.slots) >= 12
    assert {s.type_id for s in cov.slots} == set(range(12))
    rel = atlas.rel
    roots = [s.root for s in cov.slots]
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1:]:
            assert cones_disjoint(rel, r1, r2), (r1, r2)


def test_fg2_root_covering():
    atlas = get_atlas("fg2")
    roots = {s.root for s in atlas.root_covering.slots}
    assert roots == set(get_model("fg2").reachable_suffixes)
    # complement of the union is exactly the short words below level 2
    model = get_model("fg2")
    covered = set()
    for w in model.reachable_short_words:
        if len(w) >= 2:
            assert any(in_cone(atlas.rel, r, w) for r in roots), w
        else:
            assert not any(in_cone(atlas.rel, r, w) for r in roots)


def test_slot_transport_same_template():
    # coverings are per-type templates: any two cones of one type carry the
    # same relative slot roots with the same local indices
    atlas = get_atlas("multi")
    cov = atlas.coverings[0]
    again = get_atlas("multi").coverings[0]
    assert [(s.root, s.type_id, s.local_index) for s in cov.slots] == \
        [(s.root, s.type_id, s.local_index) for s in again.slots]


def test_nested_or_disjoint_against_brute(fg2, ne, multi):
    rng = np.random.default_rng(11)
    for name in ("fg2", "ne", "multi"):
        model = get_model(name)
        atlas = get_atlas(name)
        rel = atlas.rel
        # candidate roots at levels 3..5 inside random type cones
        pool = []
        for t in atlas.types:
            for lev in (3, 4, 5):
                pool.extend(cone_level_words(rel, t.members, lev))
        pool = sorted(set(pool))
        for _ in range(200):
            v1, v2 = (pool[rng.integers(len(pool))] for _ in range(2))
            s1 = brute_cone_members(model, v1, 6)
            s2 = brute_cone_members(model, v2, 6)
            if cones_disjoint(rel, v1, v2):
                assert not (s1 & s2), (name, v1, v2)
            else:
                small, big = (s1, s2) if len(v2) <= len(v1) else (s2, s1)
                assert small <= big, (name, v1, v2)


def test_membership_examples():
    atlas = get_atlas("ne")
    assert in_cone(atlas.rel, "ab", "abab")
    assert in_cone(atlas.rel, "ab", "ababa")
    assert not in_cone(atlas.rel, "ab", "ba")
    assert not in_cone(atlas.rel, "ab", "bab")
    assert tail_reachable(atlas.rel, "ab", "aba")


def test_expanding_flags():
    assert get_atlas("fg2").expanding
    assert get_atlas("t3").expanding
    assert get_atlas("multi").expanding
    assert get_atlas("glued").expanding
    assert not get_atlas("ne").expanding


def test_limit_words_ne():
    model = get_model("ne")
    atlas = get_atlas("ne")
    words = limit_words(model, atlas)

    def expand(prefix, cycle, n=12):
        s = prefix
        while len(s) < n:
            s += cycle
        return s[:n]

    assert sorted(expand(p, c) for p, c in words) == \
        ["abababababab", "babababababa"]


def test_limit_words_single_letter_toy():
    toy = rle.parse_model(
        "alphabet: x\nrule: o -> x : 1\nrule: x -> o : 1/4\n"
        "rule: x -> xx : 3/4\nrule: xx -> x : 1/4\nrule: xx -> xxx : 3/4\n")
    from rlentropy import cones
    atlas = cones.build_atlas(toy)
    assert not atlas.expanding
    (prefix, cycle), = limit_words(toy, atlas)
    assert (prefix + cycle * 8)[:8] == "xxxxxxxx"


def test_limit_words_rejects_expanding():
    with pytest.raises(AssumptionError):
        limit_words(get_model("fg2"), get_atlas("fg2"))


def test_glued_coverings_forward_closed():
    atlas = get_atlas("glued")
    t1 = {atlas.type_of[s] for s in get_model("glued").reachable_suffixes
          if s[0] in "pqrs"}
    for tid in t1:
        cov = atlas.coverings[tid]
        assert {s.type_id for s in cov.slots} == atlas.forward_types[tid]
        assert atlas.forward_types[tid] == t1


def test_uniform_covering_level_is_minimal_fg2():
    atlas = get_atlas("fg2")
    cov = atlas.coverings[0]
    assert cov.method == "uniform"
    assert cov.depth_bound == 6
    assert len(cov.slots) == 27


def test_cut_covering_valid():
    # Z_2 * Z_3 (a | b, c): type {ab, ac} has the child types {ba, ca} at
    # odd depths and {ab, ac} at even ones, so no uniform level holds all
    # three; likewise for Z_3 * Z_3
    for name in ("z2z3", "z3z3"):
        atlas = get_atlas(name)
        for tid, cov in atlas.coverings.items():
            assert (cov.method, cov.certified) == ("cut", True)
            assert {s.type_id for s in cov.slots} == atlas.forward_types[tid]
            roots = [s.root for s in cov.slots]
            assert len({len(r) for r in roots}) > 1
            for i, r1 in enumerate(roots):
                for r2 in roots[i + 1:]:
                    assert cones_disjoint(atlas.rel, r1, r2), (name, r1, r2)


@pytest.mark.parametrize("name", ["z2z3", "z3z3"])
def test_cut_coverings_against_brute(name):
    # every cone word at the depth bound lies in exactly one slot cone, with
    # both sides enumerated from the walk's own successors
    model, atlas = get_model(name), get_atlas(name)
    for ct in atlas.types:
        cov = atlas.coverings[ct.id]
        depth = cov.depth_bound

        def words(root):
            return {w for w in brute_cone_members(model, root, depth)
                    if len(w) == depth}

        cone = set().union(*(words(m) for m in ct.members))
        slot_words = [words(s.root) for s in cov.slots]
        assert set().union(*slot_words) == cone
        assert sum(map(len, slot_words)) == len(cone), ct.representative


@pytest.mark.parametrize("name", ["z2z3"] + ALL_MODELS)
def test_spelled_children_match_in_cone(name):
    # each covering is the set of leaves of the tree grown from its type's
    # representative, every node above the covering's depth that is not a
    # slot expanded by its type's child table after its frozen letters; the
    # children of every expanded node are exactly the cones one level below
    # that in_cone admits from any of its member words (the node's frozen
    # letters followed by each member pair of its type), one per class of
    # last pairs
    model = get_model(name)
    rel = saturate_supports(model)
    atlas = cones.build_atlas(model)
    tails = ["".join(t) for t in itertools.product(model.alphabet, repeat=3)]

    def members(root):
        return {root[:-2] + cd
                for cd in atlas.types[atlas.type_of[root[-2:]]].members}

    expanded = []
    for ct in atlas.types:
        cov = atlas.coverings[ct.id]
        slots = {(s.root, s.type_id) for s in cov.slots}
        todo, leaves = [(ct.representative, ct.id)], set()
        while todo:
            root, t = todo.pop()
            if (root, t) in slots:
                leaves.add((root, t))
                continue
            assert len(root) - 2 < cov.depth_bound - 3, (ct.id, root)
            kids = [(root[:-2] + c + atlas.types[k].representative, k)
                    for c, k in atlas.children[t]]
            expanded.append((root, [kid for kid, _ in kids]))
            todo += kids
        assert leaves == slots, ct.id
    assert expanded
    for root, kids in expanded:
        below = {w[:-2] + t for w in members(root) for t in tails
                 if in_cone(rel, w, w[:-2] + t)}
        assert sum(len(members(kid)) for kid in kids) == len(below), root
        assert len(set(kids)) == len(kids)
        for kid in kids:
            assert len(kid) == len(root) + 1
            assert members(kid) == {w for w in below if in_cone(rel, kid, w)}
            assert kid == min(members(kid))
    if name == "z2z3":
        assert max(len(root) for root, _ in expanded) >= 4


# generated models for the spelling oracle: F_3, F_4, T_5 and the transient
# free products of cyclic groups
SPELLING_TEXTS = {
    "F3": free_group_text(3), "F4": free_group_text(4), "T5": tree_text(5),
    **{"z" + "z".join(map(str, o)): free_product_text(o)
       for o in [(m, n) for m in range(2, 6) for n in range(m, 6)
                 if (m, n) != (2, 2)] + [(2, 3, 4), (4, 5, 5)]}}


@pytest.mark.parametrize("name", ALL_MODELS + list(SPELLING_TEXTS))
def test_type_spelling_matches_word_oracle(name):
    # the coverings spelled in one typed pass from levels shared per (type,
    # depth), with every uniform level read off the type-level child matrix,
    # have the slots (root, type, local index and order), depth bounds and
    # methods of the cuts searched per type on counts and spelled one depth
    # at a time, by each node's looked-up type or by expanding every member
    # word; also under a permuted slot order and a deeper uniform cut.  The
    # child tables are those of the member words one level below.
    model = (rle.parse_model(SPELLING_TEXTS[name]) if name in SPELLING_TEXTS
             else get_model(name))
    for kw in ({}, {"order_key": lambda w: w[::-1]}, {"level_bump": 1}):
        atlas = cones.build_atlas(model, **kw)
        assert atlas.children == child_tables(atlas)
        for spell in (None, word_spelled_cut):
            oracle, root = coverings(atlas, spell=spell, **kw)
            for tid, cov in atlas.coverings.items():
                assert (cov.slots, cov.depth_bound, cov.method) == \
                    oracle[tid], (name, kw, tid)
            assert atlas.root_covering.slots == root


@pytest.mark.parametrize("name", ["fg2", "glued", "a2", "multi", "z2z3",
                                  "z3z3", "F3", "z2z3z4"])
def test_word_budget_matches_depth_by_depth_oracle(monkeypatch, name):
    # WORD_BUDGET refuses exactly the budgets below the most member words
    # that one depth of a covering spelled depth by depth holds
    model = (rle.parse_model(SPELLING_TEXTS[name]) if name in SPELLING_TEXTS
             else get_model(name))
    atlas = cones.build_atlas(model)

    def refused(spell, budget):
        monkeypatch.setattr(cones, "WORD_BUDGET", budget)
        monkeypatch.setattr(cone_oracle, "WORD_BUDGET", budget)
        try:
            spell()
        except AssumptionError as exc:
            assert str(exc) == f"cone enumeration exceeded {budget} words"
            return True
        return False

    low, high = 0, 10 ** 6          # the oracle refuses low, accepts high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = ((mid, high) if refused(lambda: coverings(atlas), mid)
                     else (low, mid))
    assert refused(lambda: cones.build_atlas(model), low)
    assert not refused(lambda: cones.build_atlas(model), high)


def test_level_merges_interleaving_children():
    # a type ascends by one letter into two child types whose own levels
    # interleave; the shared level lists every cone in root order with its
    # type, as sorting the concatenated children's levels does
    atlas = SimpleNamespace(children={0: [("a", 1), ("a", 2)],
                                      1: [("b", 3), ("c", 3)],
                                      2: [("b", 4)], 3: [], 4: []})
    reps = {0: "xy", 1: "pq", 2: "rs", 3: "uv", 4: "ab"}
    lists = {(t, 0): ([r], [t], 1) for t, r in reps.items()}
    roots, types, words = cones._level(atlas, 0, 2, lists)
    assert list(zip(roots, types)) == [("abab", 4), ("abuv", 3),
                                       ("acuv", 3)]
    assert words == 3
    assert cones._level(atlas, 0, 1, lists)[:2] == (["apq", "ars"], [1, 2])


class _RecordingSet(set):
    """A set that records the keys found in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.found = []

    def __contains__(self, key):
        hit = set.__contains__(self, key)
        if hit:
            self.found.append(key)
        return hit


@pytest.mark.parametrize("name", ["fg2", "glued", "z2z3"])
def test_shared_certificate_memo_keeps_failures(name):
    # after the earlier types' certificates have filled the shared memo, a
    # later covering with its last slot dropped or doubled fails at the same
    # word with the same hit count as under a memo of its own, and the
    # shared memo's earlier entries were used on the way
    atlas = get_atlas(name)
    *earlier, last = atlas.types
    passed = _RecordingSet()
    for ct in earlier:
        cone_oracle.certify(atlas, ct.members, atlas.coverings[ct.id], passed)
    filled = set(passed)
    assert filled
    cov = atlas.coverings[last.id]
    for slots in (cov.slots[:-1], cov.slots + cov.slots[-1:]):
        bad = dataclasses.replace(cov, slots=slots, certified=False)
        errors = []
        for memo in (passed, set()):
            with pytest.raises(AssumptionError) as err:
                cone_oracle.certify(atlas, last.members, bad, memo)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "covering certificate failed" in errors[0]
        assert not bad.certified
    assert any(key in filled for key in passed.found)


# the certificate's models: the fixtures, multi, mixed, twotype, generated
# free groups, trees and free products of cyclic groups
CERTIFY_TEXTS = {**SPELLING_TEXTS, "T3": tree_text(3), "T4": tree_text(4)}


@pytest.mark.parametrize("name", ALL_MODELS + [
    "z2z3", "z3z3", "F3", "F4", "T3", "T4", "T5", "z2z4", "z3z4", "z2z3z4"])
def test_type_certificate_and_word_walk_pass(name):
    # the atlas is built, so the per-type certificate passed; the word walk
    # passes every covering too, with one memo shared across the types
    model = (rle.parse_model(CERTIFY_TEXTS[name]) if name in CERTIFY_TEXTS
             else get_model(name))
    atlas = cones.build_atlas(model)
    passed = set()
    for ct in atlas.types:
        cov = dataclasses.replace(atlas.coverings[ct.id], certified=False)
        cone_oracle.certify(atlas, ct.members, cov, passed)
        assert cov.certified and atlas.coverings[ct.id].certified


@pytest.mark.parametrize("name, failing", [
    ("fg2", 0), ("glued", 0), ("multi", 6), ("twotype", 4), ("mixed", 2),
    ("z2z3", 2), ("z3z3", 8)])
def test_type_certificate_agrees_with_word_walk_on_mutants(monkeypatch, name,
                                                           failing):
    # with one rule deleted at a time (rows left substochastic), the
    # per-type certificate fails exactly when the word walk fails on one of
    # the type coverings that the oracle spells from the same atlas; every
    # failing mutant also fails weak symmetry, so the CLI refuses it first
    model, certify_types = get_model(name), cones._certify_types

    class Certified(Exception):
        """The atlas and the certificate's verdict; ends the build there."""

    def recorded(atlas):
        try:
            certify_types(atlas)
        except AssumptionError as exc:
            assert str(exc).startswith("covering certificate failed: ")
            raise Certified(atlas, False)
        raise Certified(atlas, True)

    monkeypatch.setattr(cones, "_certify_types", recorded)
    rules, failed = model.all_rules(), 0
    for i in range(len(rules)):
        mutant = model.with_rules(rules[:i] + rules[i + 1:],
                                  check_stochastic=False)
        try:
            cones.build_atlas(mutant)
        except AssumptionError:         # refused before the certificate
            continue
        except Certified as verdict:
            atlas, ok = verdict.args
        else:
            pytest.fail("build_atlas returned without its certificate")
        walked, passed = True, set()
        for tid, (slots, bound, method) in cone_oracle.type_coverings(
                atlas, None, 0, cone_oracle.spell_cut).items():
            cov = cones.Covering(tid, slots, bound, method)
            try:
                cone_oracle.certify(atlas, atlas.types[tid].members, cov,
                                    passed)
            except AssumptionError:
                walked = False
        assert ok == walked, (name, rules[i])
        if not ok:
            failed += 1
            assert not check_weak_symmetry(mutant), (name, rules[i])
    assert failed == failing


@pytest.mark.parametrize("name", ["fg2", "glued"])
def test_analysis_leaves_no_reference_cycles(name):
    # everything an analysis allocates is freed by reference counting: the
    # tables cached on a model do not point back at it, so a model loaded,
    # analysed and dropped goes too
    from rlentropy import pipeline
    model = get_model(name)
    pipeline.analyze(model)            # the tables are cached on the model
    gc.collect()
    gc.disable()
    try:
        pipeline.analyze(model)
        assert gc.collect() == 0
        pipeline.analyze(rle.load_model(FIXTURES / f"{name}.rw"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reach22_symmetric_under_weak_symmetry():
    for name in ("fg2", "ne", "multi", "glued"):
        model = get_model(name)
        rel = saturate_supports(model)
        P = rel.pair_index
        suff = model.reachable_suffixes
        for p in suff:
            for q in suff:
                assert rel.reach22[P[p], P[q]] == rel.reach22[P[q], P[p]]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_membership_automaton_matches_row_oracle(data):
    model = get_model(data.draw(st.sampled_from(ALL_MODELS)))
    rel = saturate_supports(model)
    pair = data.draw(st.sampled_from(rel.pairs))
    tail = data.draw(st.text(alphabet=sorted(model.alphabet), max_size=6))
    tail += data.draw(st.sampled_from(rel.pairs))
    assert tail_reachable(rel, pair, tail) == tail_reachable_rows(
        model, rel, pair, tail)
