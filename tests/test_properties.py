"""Property-based checks of the structural invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rlentropy as rle
from rlentropy.entropy import interpolate_models
from rlentropy.lastentry import stationary

from chain_oracle import stationary_power
from conftest import get_model


@st.composite
def stochastic_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n,
                 max_size=n),
        min_size=n, max_size=n))
    q = np.array(rows)
    return q / q.sum(axis=1, keepdims=True)


@given(stochastic_matrices())
@settings(max_examples=60, deadline=None)
def test_stationary_direct_and_power_agree(q):
    nu = stationary(q)
    assert abs(nu.sum() - 1.0) < 1e-12
    assert np.max(np.abs(nu @ q - nu)) < 1e-10
    assert np.max(np.abs(nu - stationary_power(q))) < 1e-9


def _format_model(model):
    lines = ["alphabet: " + " ".join(model.alphabet)]
    for r in model.all_rules():
        lines.append(f"rule: {r.lhs or 'o'} -> {r.rhs or 'o'} : {r.prob!r}")
    return "\n".join(lines)


@given(st.sampled_from(["fg2", "t3", "ne", "line", "multi"]))
@settings(max_examples=10, deadline=None)
def test_format_parse_roundtrip(name):
    model = get_model(name)
    again = rle.parse_model(_format_model(model))
    assert again.alphabet == model.alphabet
    assert again.rules == model.rules


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_interpolation_rows_remain_stochastic(t):
    mixed = interpolate_models(get_model("fg2"), get_model("fg2_biased"), t)
    for lhs, rules in mixed.rules.items():
        assert abs(sum(r.prob for r in rules) - 1.0) <= 1e-12


@given(st.integers(min_value=0, max_value=2 ** 63 - 1),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_trajectory_rng_keys_distinct(seed, index):
    from rlentropy.simulate import trajectory_rng
    a = trajectory_rng(seed, index).random(4)
    b = trajectory_rng(seed, index).random(4)
    c = trajectory_rng(seed, index + 1).random(4)
    assert (a == b).all()
    assert not (a == c).all()
