"""Scaling regression: the structure layers on the free group F_3 (3750
increment-chain states) and the exact sandwich on F_4, generated here as
model files."""
import math

import pytest

import rlentropy as rle
from rlentropy import pipeline
from rlentropy.entropy import HiddenChain, sandwich_bounds

from conftest import free_group_text


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


def test_free_group_f3_sandwich_expands_each_belief_once(f3_analysis):
    # telescoped: every word ends in the unit belief of one of the 30 table
    # rows, and the upper side starts from nu's belief
    chain = f3_analysis.chain
    hidden = HiddenChain(chain, chain.classes[0])
    bounds = sandwich_bounds(hidden)
    assert len(hidden.step.start) - 1 == 30
    assert (bounds.n_final, bounds.beliefs) == (2, 31)


def test_free_group_f4_exact_sandwich():
    rep = pipeline.analyze(rle.parse_model(free_group_text(4),
                                           source="F_4")).report
    assert not any("Monte Carlo" in n for n in rep.notes)
    assert rep.hy_n == 2
    assert abs(rep.hy - rep.classes[0].hy_exact) <= 1e-12
    assert abs(rep.h - 3 / 4 * math.log(7)) <= 1e-9
    assert abs(rep.ell - 3 / 4) <= 1e-9
