import math

import numpy as np
import pytest

import rlentropy as rle
from rlentropy import pipeline
from rlentropy.entropy import (HiddenChain, WState, build_qhat,
                               check_marginal_equality, continuity_sweep,
                               hidden_symbol, interpolate_models,
                               sandwich_bounds, unambiguous_exact)
from rlentropy.model import AssumptionError

from rlentropy.entropy import ModifiedChain

from conftest import get_analysis, get_atlas, get_chain, get_gf, get_model
from marginal_oracle import enumerated_marginal_diff
from regeneration_oracle import regeneration_mc
from sandwich_oracle import dict_sandwich, state_transitions


def _single_class(name):
    chain = get_chain(name)
    assert len(chain.classes) == 1
    return chain, chain.classes[0]


def test_hidden_symbol_branches():
    atlas = get_atlas("fg2")
    chain = get_chain("fg2")
    prev = WState(0, atlas.type_of[chain.states[0][-2:]], 1, chain.states[0])
    i = atlas.type_of[prev.word[-2:]]
    nxt_same = WState(i, 3, 2, chain.states[1])
    assert hidden_symbol(atlas, prev, nxt_same) == (i, 3, 2)
    nxt_other = WState((i + 1) % 12, 3, 2, chain.states[1])
    assert hidden_symbol(atlas, prev, nxt_other) == (i, 3, 1)


def test_sandwich_ne_zero_at_two():
    chain, cls = _single_class("ne")
    bounds = sandwich_bounds(HiddenChain(chain, cls))
    assert bounds.n_final == 2
    assert bounds.lowers[-1] == pytest.approx(0.0, abs=1e-12)
    assert bounds.uppers[-1] == pytest.approx(0.0, abs=1e-12)


def test_sandwich_fg2_exact_at_two():
    chain, cls = _single_class("fg2")
    bounds = sandwich_bounds(HiddenChain(chain, cls), gap_tol=1e-9)
    assert bounds.n_final == 2
    assert bounds.gap < 1e-9
    # uniform 27-way branching per step
    assert bounds.value == pytest.approx(math.log(27), abs=1e-9)


def test_sandwich_needs_two_symbols():
    chain, cls = _single_class("fg2")
    for n_max in (1, 0, -1):
        with pytest.raises(ValueError):
            sandwich_bounds(HiddenChain(chain, cls), n_max=n_max)


def test_sandwich_multi_monotone_bounds():
    chain, cls = _single_class("multi")
    bounds = sandwich_bounds(HiddenChain(chain, cls), n_max=9, gap_tol=1e-12)
    assert len(bounds.uppers) >= 3
    for a, b in zip(bounds.uppers, bounds.uppers[1:]):
        assert b <= a + 1e-12
    for a, b in zip(bounds.lowers, bounds.lowers[1:]):
        assert b >= a - 1e-12
    for lo, up in zip(bounds.lowers, bounds.uppers):
        assert lo <= up + 1e-12
    assert bounds.gap < 1e-3


def test_unambiguous_ne_zero():
    chain, cls = _single_class("ne")
    assert unambiguous_exact(chain, cls).value == pytest.approx(0.0, abs=1e-12)


def test_unambiguous_fg2_matches_sandwich():
    chain, cls = _single_class("fg2")
    exact = unambiguous_exact(chain, cls)
    bounds = sandwich_bounds(HiddenChain(chain, cls), gap_tol=1e-9)
    assert exact.method == "telescoped"
    assert exact.truncation_bound == 0.0
    assert abs(exact.value - bounds.value) <= bounds.gap + 1e-9


def test_unambiguous_degenerate_single_state():
    toy = rle.parse_model(
        "alphabet: x\nrule: o -> x : 1\nrule: x -> o : 1/4\n"
        "rule: x -> xx : 3/4\nrule: xx -> x : 1/4\nrule: xx -> xxx : 3/4\n")
    res = pipeline.analyze(toy)
    chain = res.chain
    assert len(chain.states) == 1
    exact = unambiguous_exact(chain, chain.classes[0])
    assert exact.value == pytest.approx(0.0, abs=1e-12)


def test_unambiguous_requires_single_boundary_type():
    chain, cls = _single_class("multi")
    with pytest.raises(AssumptionError):
        unambiguous_exact(chain, cls)


def test_mixed_report_leaves_out_non_telescoped_exact_value():
    # one type of mixed has two boundary suffixes, so the regeneration sum
    # does not telescope, there is no exact value, and the sandwich stands
    rep = get_analysis("mixed").report
    assert [c.hy_exact for c in rep.classes] == [None]
    assert rep.hy == pytest.approx(1.0558930904597559, abs=1e-12)
    assert rep.hy_n == 3


def test_qhat_rows_and_reduction():
    # with a single cone type there are no foreign coverings and the
    # modified rows coincide with the original ones
    chain, cls = _single_class("multi")
    modified = build_qhat(chain, cls)
    hidden = modified.hidden
    assert all(k == 0 for k in modified.fold_counts.values())
    trans = state_transitions(hidden)
    for idx, st in enumerate(hidden.states):
        row = dict(modified.rows[idx])
        orig = {}
        for sym, targets in trans[idx].items():
            for j, p in targets:
                orig[j] = orig.get(j, 0.0) + p
        assert row.keys() == orig.keys()
        for k in row:
            assert row[k] == pytest.approx(orig[k], abs=1e-12)


def test_qhat_ne_equals_q():
    chain, cls = _single_class("ne")
    modified = build_qhat(chain, cls)
    for idx in range(len(modified.hidden.states)):
        total = sum(p for _, p in modified.rows[idx])
        assert total == pytest.approx(1.0, abs=1e-12)


def test_qhat_fg2_strictly_positive_fold():
    chain, cls = _single_class("fg2")
    modified = build_qhat(chain, cls)
    assert any(k > 0 for k in modified.fold_counts.values())
    for idx in range(0, len(modified.hidden.states), 37):
        total = sum(p for _, p in modified.rows[idx])
        assert total == pytest.approx(1.0, abs=1e-12)
        # rows hit states of every source type through the fold branch
        sources = {modified.hidden.states[j].source_type
                   for j, _ in modified.rows[idx]}
        assert len(sources) == 12


def test_marginal_equality():
    for name, tol in (("ne", 1e-15), ("fg2", 1e-12), ("multi", 1e-12)):
        chain, cls = _single_class(name)
        modified = build_qhat(chain, cls)
        assert check_marginal_equality(chain, cls, modified, max_len=3) < tol
        assert check_marginal_equality(chain, cls, modified, max_len=1) < tol


def test_report_fg2():
    rep = get_analysis("fg2").report
    assert rep.method in ("unambiguous", "sandwich")
    assert rep.h == pytest.approx(0.5 * math.log(3), rel=0.01)
    assert rep.inequality_ok and rep.sign_ok


def test_report_ne():
    rep = get_analysis("ne").report
    assert rep.method == "non-expanding-zero"
    assert rep.h == 0.0
    assert sorted((p + c * 6)[:6] for p, c in rep.limit_words) == \
        ["ababab", "bababa"]


def test_report_line_recurrent():
    rep = get_analysis("line").report
    assert rep.method == "recurrent-zero"
    assert rep.h == 0.0 and rep.ell == 0.0


def test_report_a2_rejected(a2):
    with pytest.raises(AssumptionError, match="escape"):
        pipeline.analyze(a2)


def test_report_glued_class_weighted():
    rep = get_analysis("glued").report
    assert rep.method == "class-weighted"
    hs = sorted(c.h for c in rep.classes)
    assert hs[0] == pytest.approx(0.5 * math.log(3), rel=1e-6)
    assert hs[1] == pytest.approx(2 / 3 * math.log(5), rel=1e-6)
    assert rep.h == pytest.approx(5 / 14 * hs[0] + 9 / 14 * hs[1], rel=1e-9)


def test_inequality_on_all_fixtures():
    for name in ("fg2", "t3", "ne", "line", "glued", "multi"):
        rep = get_analysis(name).report
        assert rep.inequality_ok, name
        assert rep.sign_ok, name


def test_covering_robustness():
    base = get_analysis("fg2").report.h
    deeper = pipeline.analyze(get_model("fg2"), level_bump=1).report.h
    permuted = pipeline.analyze(get_model("fg2"),
                                order_key=lambda w: tuple(-ord(c) for c in w)
                                ).report.h
    assert abs(deeper - base) < 1e-8
    assert abs(permuted - base) < 1e-8


def test_interpolate_requires_shared_support(fg2, ne):
    with pytest.raises(ValueError):
        interpolate_models(fg2, ne, 0.5)


def test_sweep_constant_family(fg2):
    out = continuity_sweep(fg2, fg2, grid=3)
    hs = [r["h"] for r in out["rows"]]
    assert max(hs) - min(hs) < 1e-9


def test_sweep_endpoint_identity(fg2):
    biased = get_model("fg2_biased")
    out = continuity_sweep(fg2, biased, grid=3)
    assert out["rows"][0]["h"] == pytest.approx(get_analysis("fg2").report.h,
                                                abs=1e-9)
    assert not any(r["skipped"] for r in out["rows"])


def test_mc_drift_fallback(monkeypatch):
    # simulate the near-critical regime by withholding the derivative tables
    model = get_model("ne")
    res = pipeline.analyze(model)
    chain = res.chain
    chain.ell = None
    chain.classes[0].ell = None
    note = pipeline._mc_ell_fallback(model, chain, steps=4000,
                                     trajectories=30, seed=3)
    assert "Monte Carlo fallback" in note
    assert chain.ell == pytest.approx(5 / 12, abs=0.02)
    assert chain.expected_time == pytest.approx(12 / 5, abs=0.2)


def test_twotype_fold_with_multiword_transport():
    # two types, two-word boundaries: the fold branch must transport every
    # boundary suffix separately
    chain, cls = _single_class("twotype")
    modified = build_qhat(chain, cls)
    assert any(k > 0 for k in modified.fold_counts.values())
    suffixes = {ab for (_, _, ab) in modified.fold_counts}
    assert len(suffixes) == 4
    for idx in range(len(modified.hidden.states)):
        assert sum(p for _, p in modified.rows[idx]) == \
            pytest.approx(1.0, abs=1e-12)
    assert check_marginal_equality(chain, cls, modified, max_len=3) < 1e-12


def test_twotype_report():
    res = get_analysis("twotype")
    rep = res.report
    # one-step level drift: +1 w.p. 1/2, 0 w.p. 1/4, -1 w.p. 1/4
    assert rep.ell == pytest.approx(0.25, abs=1e-9)
    assert rep.expanding and rep.transient
    assert 0 < rep.h <= rep.ell * math.log(2) + 1e-9
    chain, cls = _single_class("twotype")
    bounds = sandwich_bounds(HiddenChain(chain, cls), n_max=14, gap_tol=1e-9)
    for a, b in zip(bounds.uppers, bounds.uppers[1:]):
        assert b <= a + 1e-12
    for a, b in zip(bounds.lowers, bounds.lowers[1:]):
        assert b >= a - 1e-12


def test_mixed_ambiguity_regeneration_mc_matches_sandwich():
    # one two-word-boundary type plus two single-boundary types: the block
    # tree is too wide for exact enumeration, the sampled regeneration sum
    # must agree with the converged sandwich value
    chain, cls = _single_class("mixed")
    atlas = chain.atlas
    flags = sorted(t.unambiguous for t in atlas.types)
    assert flags == [False, True, True]
    bounds = sandwich_bounds(HiddenChain(chain, cls), n_max=16, gap_tol=1e-10)
    assert bounds.gap < 1e-10
    mc = regeneration_mc(chain, cls, samples=40_000, seed=3)
    assert abs(mc.value - bounds.value) <= mc.truncation_bound + bounds.gap
    assert mc.truncation_bound < 0.02


def test_regeneration_mc_matches_telescoped_fg2():
    chain, cls = _single_class("fg2")
    tele = unambiguous_exact(chain, cls)
    mc = regeneration_mc(chain, cls, samples=4000, seed=5)
    assert abs(mc.value - tele.value) <= mc.truncation_bound


def test_randomized_models_full_pipeline():
    # support-preserving perturbations of the level-rule models keep the
    # whole pipeline consistent (rows, inequality, sign, drift positivity)
    rng = np.random.default_rng(99)
    for base_name in ("multi", "twotype", "mixed"):
        base = get_model(base_name)
        done = 0
        while done < 4:
            rules = []
            for lhs, rs in base.rules.items():
                alphas = np.array([r.prob for r in rs]) * 30
                probs = rng.dirichlet(alphas)
                rules.extend((r.lhs, r.rhs, float(p))
                             for r, p in zip(rs, probs))
            cand = base.with_rules(rules)
            try:
                res = pipeline.analyze(cand)
            except rle.AssumptionError:
                continue
            rep = res.report
            if not rep.transient:
                continue
            done += 1
            assert rep.inequality_ok and rep.sign_ok, base_name
            assert 0 < rep.ell <= 1
            for row in res.chain.suffix_rows.values():
                assert abs(row.probs.sum() - 1.0) <= 1e-10


def test_marginal_check_agrees_with_enumeration():
    for name, tol in (("t3", 1e-12), ("ne", 1e-15), ("twotype", 1e-12)):
        chain, cls = _single_class(name)
        modified = build_qhat(chain, cls)
        assert check_marginal_equality(chain, cls, modified) < tol, name
        assert check_marginal_equality(chain, cls, modified, max_len=3) < tol
        assert enumerated_marginal_diff(chain, cls, modified, 3) < tol, name


def _moved_mass(modified, idx, src, dst, eps=1e-3):
    """Q-hat with mass eps moved from target src to target dst in the row of
    state idx; every other row is shared with the input."""
    row = dict(modified.rows[idx])
    row[src] -= eps
    row[dst] = row.get(dst, 0.0) + eps
    rows = list(modified.rows)
    rows[idx] = sorted(row.items())
    return ModifiedChain(modified.hidden, rows, modified.fold_counts)


def _twotype_targets():
    """twotype's Q-hat, and the targets of state 0 (which the first-state law
    charges) grouped by the hidden symbol of the step into them."""
    chain, cls = _single_class("twotype")
    modified = build_qhat(chain, cls)
    hidden = modified.hidden
    assert hidden.initial_mu1()[0] > 0
    by_symbol = {}
    for j, p in modified.rows[0]:
        sym = hidden_symbol(chain.atlas, hidden.states[0], hidden.states[j])
        by_symbol.setdefault(sym, []).append(j)
    return chain, cls, modified, by_symbol


def test_marginal_check_detects_moved_symbol_mass():
    chain, cls, modified, by_symbol = _twotype_targets()
    (a, *_), (b, *_) = list(by_symbol.values())[:2]
    bad = _moved_mass(modified, 0, a, b)
    found = check_marginal_equality(chain, cls, bad, max_len=3)
    oracle = enumerated_marginal_diff(chain, cls, bad, 3)
    assert 1e-6 < found <= oracle + 1e-15


def test_marginal_check_covers_lengths_beyond_one():
    # Moving mass between two targets of one symbol leaves every length-1
    # law intact; the targets end in different suffixes, so later symbols
    # tell them apart.
    chain, cls, modified, by_symbol = _twotype_targets()
    hidden = modified.hidden
    a, b = next(ts[:2] for ts in by_symbol.values() if len(ts) > 1)
    assert hidden.states[a].word[-2:] != hidden.states[b].word[-2:]
    bad = _moved_mass(modified, 0, a, b)
    assert enumerated_marginal_diff(chain, cls, bad, 1) < 1e-12
    assert enumerated_marginal_diff(chain, cls, bad, 3) > 1e-6
    assert check_marginal_equality(chain, cls, bad, max_len=1) < 1e-12
    assert check_marginal_equality(chain, cls, bad) > 1e-6


def test_sandwich_matches_dict_oracle():
    for name in ("t3", "multi", "twotype", "mixed", "fg2"):
        chain, cls = _single_class(name)
        hidden = HiddenChain(chain, cls)
        bounds = sandwich_bounds(hidden)
        uppers, lowers, n_final = dict_sandwich(hidden)
        assert bounds.n_final == n_final, name
        assert np.allclose(bounds.uppers, uppers, rtol=0, atol=1e-12), name
        assert np.allclose(bounds.lowers, lowers, rtol=0, atol=1e-12), name


def test_sandwich_monte_carlo_substitute():
    # past the expansion budget a sampled estimate replaces the exact sums;
    # with a budget of 10 multi switches at depth 2, with 2000 at depth 7
    chain, cls = _single_class("multi")
    hidden = HiddenChain(chain, cls)
    exact = sandwich_bounds(hidden, n_max=2, gap_tol=0, budget=10**9)
    mc = sandwich_bounds(hidden, budget=10)
    assert mc.monte_carlo and mc.n_final == 2 and mc.std_error > 0
    assert abs(mc.uppers[-1] - exact.uppers[-1]) <= 4 * mc.std_error
    assert abs(mc.lowers[-1] - exact.lowers[-1]) <= 4 * mc.std_error
    again = sandwich_bounds(hidden, budget=10)
    assert (again.uppers, again.lowers, again.std_error) == \
        (mc.uppers, mc.lowers, mc.std_error)
    assert sandwich_bounds(hidden, budget=2000).n_final == 7


def test_report_notes_unconverged_sandwich():
    model = get_model("multi")
    notes = pipeline.analyze(model, budget=10).report.notes
    assert any("Monte Carlo estimate at depth 2, standard error" in n
               for n in notes)
    notes = pipeline.analyze(model, n_max=3).report.notes
    assert any("not converged at depth 3, gap" in n for n in notes)
    assert get_analysis("multi").report.notes == []
