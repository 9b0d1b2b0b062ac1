"""Scaling regression: the structure layers on the free group F_3 (3750
increment-chain states), generated here as a model file."""
import math

import pytest

import rlentropy as rle
from rlentropy import pipeline


def free_group_text(k):
    """Simple random walk on reduced words of F_k (letters a, A, b, B, ...;
    the upper case letter is the inverse)."""
    letters = [c for g in "abcdefgh"[:k] for c in (g, g.upper())]
    prob = f"1/{len(letters)}"
    after = {x: [y for y in letters if y != x.swapcase()] for x in letters}
    rules = [f"rule: o -> {x} : {prob}" for x in letters]
    for x in letters:
        rules += [f"rule: {x} -> {rhs} : {prob}"
                  for rhs in ["o"] + [x + y for y in after[x]]]
        for y in after[x]:
            rules.append(f"rule: {x}{y} -> {x} : {prob}")
            rules += [f"rule: {x}{y} -> {x}{y}{z} : {prob}" for z in after[y]]
    return "\n".join(["alphabet: " + " ".join(letters), *rules])


@pytest.fixture(scope="module")
def f3_analysis():
    return pipeline.analyze(rle.parse_model(free_group_text(3), source="F_3"))


def test_free_group_f3_closed_form(f3_analysis):
    rep = f3_analysis.report
    assert abs(rep.h - 2 / 3 * math.log(5)) <= 1e-9
    assert abs(rep.ell - 2 / 3) <= 1e-9


def test_free_group_f3_structure_sizes(f3_analysis):
    atlas, chain = f3_analysis.atlas, f3_analysis.chain
    assert len(atlas.types) == 30
    assert sum(len(c.slots) for c in atlas.coverings.values()) == 3750
    assert len(chain.states) == 3750
    assert len(chain.classes) == 1
