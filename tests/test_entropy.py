import math
from types import SimpleNamespace

import numpy as np
import pytest

import rlentropy as rle
from rlentropy import entropy, pipeline
from rlentropy.entropy import (HiddenChain, build_qhat,
                               check_marginal_equality, continuity_sweep,
                               interpolate_models, sandwich_bounds,
                               unambiguous_exact)
from rlentropy.model import AssumptionError

from rlentropy.entropy import ModifiedChain, StepTable
from rlentropy.lastentry import stationary

from conftest import (free_group_text, free_product_text, get_analysis,
                      get_atlas, get_chain, get_gf, get_model)
from hidden_oracle import (WState, class_states, hidden_chain, hidden_symbol,
                           lumped, parts_per_key, qhat_rows, row_masses,
                           row_table, word_hidden_step)
from marginal_oracle import (enumerated_marginal_diff,
                             per_symbol_marginal_check)
from regeneration_oracle import regeneration_mc
from sandwich_oracle import dict_sandwich


U = np.finfo(float).eps / 2          # unit roundoff

GENERATED = {"F3": lambda: free_group_text(3),
             "F4": lambda: free_group_text(4),
             "z2z3z4": lambda: free_product_text((2, 3, 4))}
_generated = {}


def _single_class(name):
    chain = get_chain(name)
    assert len(chain.classes) == 1
    return chain, chain.classes[0]


def _chain(name):
    """The chain of a fixture, of multi, mixed or twotype, or of a model
    in GENERATED."""
    if name not in GENERATED:
        return get_chain(name)
    if name not in _generated:
        _generated[name] = pipeline.analyze(rle.parse_model(
            GENERATED[name]())).chain
    return _generated[name]


def _no_span_test(*args, **kw):
    raise AssertionError("the span test ran")


@pytest.fixture
def span_calls(monkeypatch):
    """The calls of the span test, which still runs."""
    calls, run = [], entropy._span_test

    def spy(*args, **kw):
        calls.append(args)
        return run(*args, **kw)
    monkeypatch.setattr(entropy, "_span_test", spy)
    return calls


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


def _row_entries(step, r):
    """{(symbol id, target row): summed probability} of table row r."""
    out = {}
    for e in range(step.start[r], step.start[r + 1]):
        key = (int(step.sym[e]), int(step.tgt[e]))
        out[key] = out.get(key, 0.0) + float(step.prob[e])
    return out


def _row_sums(step):
    return np.add.reduceat(step.prob, step.start[:-1])


def test_qhat_rows_and_reduction():
    # with a single cone type there are no foreign coverings and the
    # modified rows coincide with the original ones
    chain, cls = _single_class("multi")
    modified = build_qhat(chain, cls)
    hidden = modified.hidden
    assert not modified.counts.any()
    for r in range(len(hidden.states)):
        row = _row_entries(modified.step, r)
        orig = _row_entries(hidden.step, r)
        assert row.keys() == orig.keys()
        for k in row:
            assert row[k] == pytest.approx(orig[k], abs=1e-12)


def test_qhat_ne_equals_q():
    chain, cls = _single_class("ne")
    modified = build_qhat(chain, cls)
    assert len(modified.step.start) - 1 == len(modified.hidden.states)
    assert np.allclose(_row_sums(modified.step), 1.0, rtol=0, atol=1e-12)


def test_qhat_fg2_strictly_positive_fold():
    chain, cls = _single_class("fg2")
    modified = build_qhat(chain, cls)
    hidden, step = modified.hidden, modified.step
    assert modified.counts.max() > 0
    assert np.allclose(_row_sums(step), 1.0, rtol=0, atol=1e-12)
    ref = hidden_chain(chain, cls)
    parts = parts_per_key(chain.atlas, ref.states,
                          qhat_rows(chain, cls, ref.states))
    for r, sfx in enumerate(hidden.states):
        # in the reference, read one target state at a time, the mass of
        # each first-slot entry of the original row splits evenly over the
        # own first slot and the count type-j slots of the other coverings;
        # on fg2 some entry splits 12 ways or more, one per covering at
        # least
        es = range(step.start[r], step.start[r + 1])
        for e in es:
            i, j, k = hidden.symbols[step.sym[e]]
            ps = parts[sfx][(i, j, k), hidden.states[step.tgt[e]]]
            assert i == chain.atlas.type_of[sfx]
            assert len(ps) == (modified.counts[e] + 1 if k == 1 else 1)
            assert math.fsum(ps) == pytest.approx(hidden.step.prob[e],
                                                  abs=1e-15)
            assert len(set(ps)) == 1
        assert sum(map(len, parts[sfx].values())) == len(
            ref.step.row_of) == np.sum(modified.counts[es] + 1)
        assert max(len(ps) for ps in parts[sfx].values()) >= 12


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
    assert modified.counts.max() > 0
    folded = modified.step.tgt[modified.counts > 0]
    assert len({modified.hidden.states[t] for t in folded}) == 4
    assert np.allclose(_row_sums(modified.step), 1.0, rtol=0, atol=1e-12)
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


def _moved_mass(modified, src, dst, eps=1e-3):
    """Q-hat with mass eps moved from entry src to entry dst of its summed
    table (two entries of one row); the rest of the table is the input's,
    so it no longer agrees with the hidden chain's."""
    prob = modified.step.prob.copy()
    prob[src] -= eps
    prob[dst] += eps
    step = modified.step
    return ModifiedChain(modified.hidden,
                         StepTable(step.start, step.sym, step.tgt, prob),
                         modified.counts)


def _twotype_targets():
    """twotype's Q-hat, and the entries of its row 0 (which the first-state
    law charges) grouped by their hidden symbol."""
    chain, cls = _single_class("twotype")
    modified = build_qhat(chain, cls)
    assert modified.hidden.mu1[0] > 0
    step, by_symbol = modified.step, {}
    for e in range(step.start[0], step.start[1]):
        by_symbol.setdefault(int(step.sym[e]), []).append(e)
    return chain, cls, modified, by_symbol


def test_marginal_check_detects_moved_symbol_mass(span_calls):
    chain, cls, modified, by_symbol = _twotype_targets()
    (a, *_), (b, *_) = list(by_symbol.values())[:2]
    bad = _moved_mass(modified, a, b)
    found = check_marginal_equality(chain, cls, bad, max_len=3)
    oracle = enumerated_marginal_diff(chain, cls, bad, 3)
    assert 1e-6 < found <= oracle + 1e-15
    assert len(span_calls) == 1


def test_marginal_check_covers_lengths_beyond_one(span_calls):
    # Moving mass between two entries of one symbol leaves every length-1
    # law intact; the entries enter different table rows, so later symbols
    # tell them apart.
    chain, cls, modified, by_symbol = _twotype_targets()
    tgt = modified.step.tgt
    a, b = next((ts[0], e) for ts in by_symbol.values() for e in ts
                if tgt[e] != tgt[ts[0]])
    assert modified.hidden.states[tgt[a]] != modified.hidden.states[tgt[b]]
    bad = _moved_mass(modified, a, b)
    assert enumerated_marginal_diff(chain, cls, bad, 1) < 1e-12
    assert enumerated_marginal_diff(chain, cls, bad, 3) > 1e-6
    assert check_marginal_equality(chain, cls, bad, max_len=1) < 1e-12
    assert check_marginal_equality(chain, cls, bad) > 1e-6
    assert len(span_calls) == 2


@pytest.mark.parametrize("name, length", [
    ("t3", 3), ("multi", 3), ("twotype", 3), ("mixed", 3),
    ("fg2", 2), ("fg2_biased", 2)])        # F_2's length-3 laws take 30 s
@pytest.mark.parametrize("seed", range(2))
def test_marginal_check_detects_seeded_moved_mass(name, length, seed,
                                                  span_calls):
    """Half the mass of one entry of a random Q-hat row moves to another
    entry of that row.  The span test decides, and it and the per-symbol
    construction both find that the laws differ; the check's difference up
    to ``length`` is one of the enumerated differences."""
    chain, cls = _single_class(name)
    modified = build_qhat(chain, cls)
    start = modified.step.start
    rng = np.random.default_rng(seed)
    idx = int(rng.choice(np.flatnonzero(np.diff(start) > 1)))
    a, b = start[idx] + rng.choice(start[idx + 1] - start[idx], 2,
                                   replace=False)
    bad = _moved_mass(modified, a, b, eps=modified.step.prob[a] / 2)
    found = check_marginal_equality(chain, cls, bad)
    ref, _ = per_symbol_marginal_check(chain, cls, bad)
    assert found > 1e-6 and ref > 1e-6
    assert (check_marginal_equality(chain, cls, bad, max_len=length)
            <= enumerated_marginal_diff(chain, cls, bad, length) + 1e-15)
    assert len(span_calls) == 2


QHAT_MODELS = ["fg2", "fg2_biased", "t3", "glued", "multi", "mixed",
               "twotype", "F3", "F4", "z2z3z4"]


@pytest.mark.parametrize("name", QHAT_MODELS)
def test_step_table_numbers_symbols_as_per_entry_reference(name):
    """Q-hat's summed table is the reference read off Q-hat's definition
    one target state at a time, with one hidden_symbol call per entry,
    summed per (row, symbol, target row): on every class the same keys,
    each with count + 1 parts whose sum is the table's entry within
    (count + 1) u q, q the hidden chain's entry.  Its symbols and target
    rows are the hidden chain's."""
    chain = _chain(name)
    for cls in chain.classes:
        modified = build_qhat(chain, cls)
        hidden, step = modified.hidden, modified.step
        states = class_states(chain, cls)
        want = parts_per_key(chain.atlas, states,
                             qhat_rows(chain, cls, states))
        assert sorted(want) == sorted(hidden.states)
        for f in ("start", "sym", "tgt"):
            assert getattr(step, f) is getattr(hidden.step, f), f
        for r, sfx in enumerate(hidden.states):
            es = range(step.start[r], step.start[r + 1])
            got = {(hidden.symbols[step.sym[e]], hidden.states[step.tgt[e]]):
                   e for e in es}
            assert len(got) == len(es) and got.keys() == want[sfx].keys()
            for key, e in got.items():
                parts, tol = want[sfx][key], (modified.counts[e] + 1) * U
                assert len(parts) == modified.counts[e] + 1, (sfx, key)
                assert (abs(step.prob[e] - math.fsum(parts))
                        <= tol * hidden.step.prob[e]), (sfx, key)
    for f in ("start", "sym", "tgt"):
        assert getattr(step, f).dtype == np.int64, f
    assert step.prob.dtype == np.float64


def test_qhat_row_sums_are_exact_on_f5(monkeypatch):
    # Q-hat's row 'AA' on F_5 spreads over all 65 610 target states, one
    # reference entry each; summed per (symbol, target row) it has the
    # hidden chain's entries, 65 610 in all, each holding count + 1 of
    # them, and the check decides on the tables
    chain = pipeline.analyze(rle.parse_model(free_group_text(5))).chain
    cls, = chain.classes
    modified = build_qhat(chain, cls)
    step, counts = modified.step, modified.counts
    sums = np.add.reduceat(step.prob, step.start[:-1])
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert len(step.prob) == len(modified.hidden.step.prob) == 65_610
    assert np.sum(counts + 1) == 90 * 65_610
    r = modified.hidden.states.index("AA")
    states = class_states(chain, cls)
    assert len(qhat_rows(chain, cls, states, ["AA"])["AA"]) == 65_610
    assert np.sum(counts[step.start[r]:step.start[r + 1]] + 1) == 65_610
    monkeypatch.setattr(entropy, "_span_test", _no_span_test)
    assert check_marginal_equality(chain, cls, modified) <= 1e-12


# enumerated word length per model: F_2's length-3 laws take 30 s
ENUMERATED = {"fg2": 2, "fg2_biased": 2, "t3": 3, "ne": 3, "glued": 2,
              "multi": 3, "mixed": 3}


@pytest.mark.parametrize("name", ["ne", *QHAT_MODELS])
def test_marginal_check_decided_on_the_tables(name, monkeypatch):
    """On every class the summed Q-hat table agrees with the hidden
    chain's, so the check ends without the span test and reports the
    largest L1 difference of a row; on the fixtures, multi and mixed the
    enumerated laws of short words then agree within 1e-15."""
    monkeypatch.setattr(entropy, "_span_test", _no_span_test)
    chain = _chain(name)
    for cls in chain.classes:
        modified = build_qhat(chain, cls)
        hidden = modified.hidden
        l1 = max(sum(abs(p - q) for p, q in zip(
            _row_entries(modified.step, r).values(),
            _row_entries(hidden.step, r).values()))
            for r in range(len(hidden.states)))
        assert check_marginal_equality(chain, cls, modified) == l1 <= 1e-12
        if name in ENUMERATED:
            diff = enumerated_marginal_diff(chain, cls, modified,
                                            ENUMERATED[name])
            assert diff <= 1e-15, (name, cls.index)


def test_sandwich_matches_dict_oracle():
    # the row-level sandwich against the per-state dict filter on the
    # state-built reference, stopped at every depth up to 8 and at 16
    for name in ("t3", "multi", "twotype", "mixed", "fg2", "fg2_biased", "ne"):
        chain, cls = _single_class(name)
        hidden, ref = HiddenChain(chain, cls), hidden_chain(chain, cls)
        for n_max in (*range(2, 9), 16):
            bounds = sandwich_bounds(hidden, n_max=n_max)
            uppers, lowers, n_final = dict_sandwich(ref, n_max=n_max)
            assert bounds.n_final == n_final, name
            assert np.allclose(bounds.uppers, uppers, rtol=0, atol=1e-12), name
            assert np.allclose(bounds.lowers, lowers, rtol=0, atol=1e-12), name


def _random_hidden(rng):
    """A small ambiguous hidden chain: stochastic table rows shared by
    several states, every symbol in several rows, each row with a repeated
    (symbol, target) entry, started from the stationary law."""
    n_states, n_rows, n_sym = rng.integers(3, 7), rng.integers(2, 4), 2
    row_of = np.r_[np.arange(n_rows), rng.integers(0, n_rows,
                                                   n_states - n_rows)]
    start, sym, tgt = [0], [], []
    for _ in range(n_rows):
        k = rng.integers(3, 6)
        s = np.r_[np.arange(n_sym), rng.integers(0, n_sym, k - n_sym)]
        t = rng.integers(0, n_states, k)
        sym += [*s, s[0]]
        tgt += [*t, t[0]]
        start.append(start[-1] + k + 1)
    prob = rng.uniform(0.05, 1.0, start[-1])
    prob /= np.add.reduceat(prob, start[:-1]).repeat(np.diff(start))
    step = SimpleNamespace(row_of=row_of, start=np.array(start),
                           sym=np.array(sym), tgt=np.array(tgt), prob=prob)
    q = np.zeros((n_states, n_states))
    for x, r in enumerate(row_of):
        e = np.arange(start[r], start[r + 1])
        np.add.at(q[x], step.tgt[e], step.prob[e])
    return SimpleNamespace(step=step, nu=stationary(q),
                           symbols=list(range(n_sym)))


@pytest.mark.parametrize("seed", range(12))
def test_sandwich_ambiguous_tables_match_dict_oracle(seed):
    hidden = _random_hidden(np.random.default_rng(seed))
    bounds = sandwich_bounds(row_table(hidden), n_max=8)
    uppers, lowers, n_final = dict_sandwich(hidden, n_max=8)
    assert bounds.n_final == n_final
    assert np.allclose(bounds.uppers, uppers, rtol=0, atol=1e-12)
    assert np.allclose(bounds.lowers, lowers, rtol=0, atol=1e-12)


def test_sandwich_counts_beliefs_and_budget():
    # each distinct belief (forward vector per table row, normalised) is
    # expanded once; on a telescoped class every word ends in a unit belief
    expected = {"fg2": (13, 648), "t3": (7, 96), "multi": (350, 2776)}
    for name, counts in expected.items():
        hidden = HiddenChain(*_single_class(name))
        bounds = sandwich_bounds(hidden)
        assert (bounds.beliefs, bounds.spent) == counts, name
        if name != "multi":
            assert bounds.beliefs <= len(hidden.step.start) - 1 + 1, name
            # deeper levels meet no new belief (a negative gap_tol runs on)
            deep = sandwich_bounds(hidden, n_max=5, gap_tol=-1)
            assert (deep.n_final, deep.beliefs) == (5, bounds.beliefs), name
            assert np.allclose(deep.uppers, deep.lowers, rtol=0, atol=1e-12)
    mc = sandwich_bounds(HiddenChain(*_single_class("multi")), budget=4)
    assert mc.monte_carlo and (mc.beliefs, mc.spent) == (1, 8)


def test_sandwich_monte_carlo_substitute():
    # past the expansion budget a sampled estimate replaces the exact sums;
    # the budget counts the symbols out of each expanded belief's rows: with
    # a budget of 4 multi switches at depth 2, with 600 at depth 7
    chain, cls = _single_class("multi")
    hidden = HiddenChain(chain, cls)
    exact = sandwich_bounds(hidden, n_max=2, gap_tol=0, budget=10**9)
    mc = sandwich_bounds(hidden, budget=4)
    assert mc.monte_carlo and mc.n_final == 2 and mc.std_error > 0
    assert abs(mc.uppers[-1] - exact.uppers[-1]) <= 4 * mc.std_error
    assert abs(mc.lowers[-1] - exact.lowers[-1]) <= 4 * mc.std_error
    again = sandwich_bounds(hidden, budget=4)
    assert (again.uppers, again.lowers, again.std_error) == \
        (mc.uppers, mc.lowers, mc.std_error)
    assert sandwich_bounds(hidden, budget=600).n_final == 7


def test_report_notes_unconverged_sandwich():
    model = get_model("multi")
    notes = pipeline.analyze(model, budget=4).report.notes
    assert any("Monte Carlo estimate at depth 2, standard error" in n
               for n in notes)
    assert any(n.endswith("(sampling error only; no exact level)")
               for n in notes)
    bounds = sandwich_bounds(HiddenChain(*_single_class("multi")),
                             budget=600)
    exact = sandwich_bounds(HiddenChain(*_single_class("multi")), n_max=6,
                            gap_tol=0, budget=10**9)
    assert bounds.monte_carlo and bounds.n_final == 7
    assert bounds.exact_gap == exact.gap
    notes = pipeline.analyze(model, budget=600).report.notes
    assert any(f"(sampling error only; gap {exact.gap:.3g} at the last "
               "exact level, depth 6)" in n for n in notes)
    notes = pipeline.analyze(model, n_max=3).report.notes
    assert any("not converged at depth 3, gap" in n for n in notes)
    assert get_analysis("multi").report.notes == []


@pytest.mark.parametrize("name", ["fg2", "fg2_biased", "t3", "ne", "glued",
                                  "multi", "mixed", "F3", "z2z3z4"])
def test_hidden_chain_step_matches_word_by_word_build(name):
    """The step table and symbols built from the slot-table arrays are
    bit for bit those read off the rows target word by target word (the
    transient fixtures, multi, mixed and two generated models)."""
    chain = (pipeline.analyze(rle.parse_model(GENERATED[name]())).chain
             if name in GENERATED else get_chain(name))
    for cls in chain.classes:
        hidden = HiddenChain(chain, cls)
        symbols, sym, tgt, prob = word_hidden_step(chain, cls)
        assert hidden.symbols == symbols
        assert hidden.step.start.tolist() == np.cumsum(
            [0] + [len(chain.suffix_rows[s].at) for s in cls.rows]).tolist()
        for got, want in ((hidden.step.sym, sym), (hidden.step.tgt, tgt),
                          (hidden.step.prob, prob)):
            assert got.tobytes() == want.astype(got.dtype).tobytes()


@pytest.mark.parametrize("name", ["fg2", "glued", "multi", "z2z3"])
def test_hidden_chain_matches_state_built_reference(name):
    """The row table read off the suffix rows is the chain built from
    hashed enriched states, with one hidden_symbol call per entry, summed
    onto its rows: the same rows, entries and symbols, and the same masses
    of nu and of the first-state law per row."""
    chain = get_chain(name)
    for cls in chain.classes:
        hidden, ref = HiddenChain(chain, cls), hidden_chain(chain, cls)
        want = lumped(ref, ref.step)
        assert sorted(hidden.states) == sorted(want)
        assert set(hidden.symbols) == set(ref.symbols)
        assert len(hidden.symbols) == len(ref.symbols)
        step = hidden.step
        for r, sfx in enumerate(hidden.states):
            got = [(hidden.symbols[step.sym[e]], hidden.states[step.tgt[e]],
                    step.prob[e])
                   for e in range(step.start[r], step.start[r + 1])]
            assert got == want[sfx], sfx
        for mine, theirs in ((hidden.nu, ref.nu), (hidden.mu1, ref.mu1)):
            theirs = row_masses(ref, theirs)
            assert max(abs(m - theirs[sfx])
                       for sfx, m in zip(hidden.states, mine)) <= 1e-15
