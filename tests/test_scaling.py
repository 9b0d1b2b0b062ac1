"""Scaling regression: the structure layers on the free group F_3 (3750
increment-chain states), the exact sandwich on F_4, CLI entropy with its
marginal check on F_5 and closed forms on free products of cyclic groups,
generated here as model files."""
import json
import math

import pytest

import rlentropy as rle
from rlentropy import cli, pipeline
from rlentropy.entropy import HiddenChain, sandwich_bounds

from conftest import free_group_text, free_product_text, tree_text


@pytest.fixture(scope="module")
def f3_analysis():
    return pipeline.analyze(rle.parse_model(free_group_text(3), source="F_3"))


def test_generators_refuse_to_run_out_of_letters():
    # the letters are a-z without the reserved o, so F_9 has all 18 of its
    # letters and 26 generators are refused rather than cut short
    assert len(rle.parse_model(free_group_text(9)).alphabet) == 18
    assert len(rle.parse_model(tree_text(25)).alphabet) == 25
    for text in (free_group_text, tree_text):
        with pytest.raises(ValueError):
            text(26)


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


def test_free_group_f5_cli_entropy(tmp_path, capsys):
    # 65 610 states: the marginal check compares the summed Q-hat table
    # with the hidden chain's
    path = tmp_path / "F5.rw"
    path.write_text(free_group_text(5))
    assert cli.main(["--format", "json", "entropy", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["marginal_equality_max_diff"] <= 1e-12
    assert abs(data["h"] - 4 / 5 * math.log(9)) <= 1e-9


# Closed forms from the first-passage fixed point
# H_x = sum_{s in F(x)} mu(s) H_{xs} + sum_{s not in F(x)} mu(s) H_s H_x,
# H_e = 1 (F(x) the factor of letter x); the limit word alternates factors,
# so h / ell is the entropy per letter of the harmonic measure.
@pytest.mark.parametrize("orders, weights, ell, h_per_ell", [
    ((2, 3), None, 2 / 15, math.log(2) / 2),
    ((2, 3), ("1/2", "1/4", "1/4"), 1 / 7, math.log(2) / 2),
    ((3, 3), None, 1 / 4, math.log(2)),
])
def test_free_product_closed_forms(orders, weights, ell, h_per_ell):
    rep = pipeline.analyze(rle.parse_model(
        free_product_text(orders, weights))).report
    assert abs(rep.ell - ell) <= 1e-9
    assert abs(rep.h - ell * h_per_ell) <= 1e-9


def test_free_product_with_zero_weight_letters():
    # nearest-neighbour Z_4 * Z_4 (g and g^-1 of each factor, 1/4 each): g^2
    # is a letter of the words but no step; ell = (sqrt 5 - 1) / 4
    text = free_product_text((4, 4), ["1/4", 0, "1/4"] * 2)
    assert "o -> b :" not in text and "o -> e :" not in text
    model = rle.parse_model(text)
    assert model.alphabet == tuple("abcdef")
    rep = pipeline.analyze(model).report
    assert abs(rep.ell - (math.sqrt(5) - 1) / 4) <= 1e-9


def test_free_products_run(tmp_path):
    # under uniform mu the walk inside a factor moves to a uniform other
    # element, so each letter of the limit word is uniform on its factor
    # and h / ell = (log(m - 1) + log(n - 1)) / 2; Z_2 * Z_2 is recurrent
    for m in range(2, 6):
        for n in range(m, 6):
            path = tmp_path / f"z{m}z{n}.rw"
            path.write_text(free_product_text((m, n)))
            assert cli.main(["--format", "json", "analyze", str(path)]) == 0
            rep = pipeline.analyze(rle.load_model(path)).report
            ratio = (math.log(m - 1) + math.log(n - 1)) / 2
            assert abs(rep.h - rep.ell * ratio) <= 1e-9, (m, n)
