"""Scaling regression: the structure layers on the free group F_3 (3750
increment-chain states), generated here as a model file."""
import math

import pytest

import rlentropy as rle
from rlentropy import pipeline

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
