import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlentropy as rle
from rlentropy import cones, pipeline
from rlentropy.cones import (cones_disjoint, in_cone, limit_words,
                             saturate_supports, tail_reachable,
                             _cone_level_words)
from rlentropy.model import AssumptionError

from cone_oracle import tail_reachable_rows
from conftest import FIXTURES, get_atlas, get_gf, get_model

ALL_MODELS = sorted(p.stem for p in FIXTURES.glob("*.rw")) + \
    ["mixed", "multi", "twotype"]


def brute_cone_members(model, root, depth, headroom=4):
    """Exhaustive membership oracle: BFS inside the cone with excursion
    headroom above the collection depth."""
    out = set()
    seen = {root}
    frontier = [root]
    while frontier:
        w = frontier.pop()
        if len(w) <= depth:
            out.add(w)
        for succ, _ in model.successors(w):
            if len(root) <= len(succ) <= depth + headroom and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return out


def test_supports_examples():
    ne = get_model("ne")
    rel = saturate_supports(ne)
    # a word with suffix ba is reachable from ab going up, but the two-letter
    # word ba itself is not reachable staying at level >= 2
    assert rel.reaches_ge2("ab", "ba")
    assert not rel.supp_gbar("ab", "ba")

    fg2 = get_model("fg2")
    rel2 = saturate_supports(fg2)
    for xy in fg2.reachable_suffixes:
        for c in fg2.alphabet:
            assert rel2.h_supported(xy, c) == (c == xy[0])

    line = get_model("line")
    rel3 = saturate_supports(line)
    assert rel3.supp_gbar("aa", "aa")


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
                pool.extend(_cone_level_words(model, rel, t.members, lev))
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
    assert cov.level == 5
    assert len(cov.slots) == 27


def test_recursive_covering_also_valid():
    atlas = get_atlas("multi", method="recursive")
    cov = atlas.coverings[0]
    assert cov.method == "recursive"
    assert cov.certified
    assert {s.type_id for s in cov.slots} == {0}
    rel = atlas.rel
    roots = [s.root for s in cov.slots]
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1:]:
            assert cones_disjoint(rel, r1, r2)


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
    rel = saturate_supports(get_model(data.draw(st.sampled_from(ALL_MODELS))))
    pair = data.draw(st.sampled_from(rel.pairs))
    tail = data.draw(st.text(alphabet=sorted(rel.model.alphabet), max_size=6))
    tail += data.draw(st.sampled_from(rel.pairs))
    assert tail_reachable(rel, pair, tail) == tail_reachable_rows(rel, pair, tail)


def test_recursive_children_one_level_deeper(monkeypatch):
    expanded = []
    children = cones._children_classes

    def recorded(model, rel, roots):
        kids = children(model, rel, roots)
        expanded.append((roots, list(kids)))
        return kids

    monkeypatch.setattr(cones, "_children_classes", recorded)
    res = pipeline.analyze(get_model("t3"), covering_method="recursive")
    pool_roots = [(roots[0], kids) for roots, kids in expanded
                  if len(roots) == 1]
    assert any(len(root) > 2 for root, _ in pool_roots)
    for root, kids in pool_roots:
        assert all(len(k) == len(root) + 1 for k in kids), (root, kids)
    assert {c.method for c in res.atlas.coverings.values()} == {"recursive"}
    assert abs(res.report.h - math.log(2) / 3) <= 1e-12
