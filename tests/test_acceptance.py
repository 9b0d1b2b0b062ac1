"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere.
"""
import json
import math
import time

import numpy as np
import pytest

import rlentropy as rle
from rlentropy import cli, pipeline, simulate
from rlentropy.entropy import (HiddenChain, build_qhat,
                               check_marginal_equality, continuity_sweep,
                               sandwich_bounds, unambiguous_exact)
from rlentropy.genfun import L_word, solve_Gbar, solve_H
from rlentropy.lastentry import stationary

from conftest import fixture_path, get_analysis, get_atlas, get_chain, \
    get_gf, get_model
from cone_oracle import brute_cone_members, cone_level_words, cones_disjoint
from chain_oracle import lifted, q_matrix, stationary_power

LN3 = math.log(3)
LN2 = math.log(2)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fg2():
    t0 = time.time()
    model = rle.load_model(fixture_path("fg2"))
    res = pipeline.analyze(model)
    gf, rep = res.gf, res.report
    checks = []
    for xy in model.reachable_suffixes:
        checks.append(abs(gf.h.value(xy, xy[0]) - 1 / 3) <= 1e-8)
        checks.append(abs(gf.xi[xy] - 2 / 3) <= 1e-8)
    checks.append(abs(rep.ell - 0.5) <= 0.005)
    h_exact = 0.5 * LN3
    checks.append(abs(rep.h - h_exact) <= 0.01 * h_exact)

    sim = simulate.run_trajectories(
        model, simulate.SimConfig(steps=10_000, trajectories=100, seed=20),
        gf=gf)
    checks.append(abs(sim.l_rate_mean - h_exact) <= 3 * sim.l_rate_se)
    checks.append(abs(sim.speed_mean - 0.5) <= 3 * sim.speed_se)
    elapsed = time.time() - t0
    checks.append(elapsed < 120)
    report(1, all(checks),
           f"FG2 h={rep.h:.6f} (exact {h_exact:.6f}), ell={rep.ell:.6f}, "
           f"MC l-rate={sim.l_rate_mean:.5f}+-{sim.l_rate_se:.5f}, "
           f"{elapsed:.1f}s")


def test_criterion_2_t3():
    t0 = time.time()
    res = pipeline.analyze(rle.load_model(fixture_path("t3")))
    rep = res.report
    h_exact = LN2 / 3
    ok = abs(rep.ell - 1 / 3) <= 0.005 and abs(rep.h - h_exact) <= 0.01 * h_exact
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60,
           f"T3 ell={rep.ell:.6f} (1/3), h={rep.h:.6f} "
           f"(exact {h_exact:.6f}), {elapsed:.1f}s")


def test_criterion_3_ne():
    model = get_model("ne")
    gf = get_gf("ne")
    res = get_analysis("ne")
    rep = res.report
    atlas = res.atlas
    checks = [
        gf.transient,
        not atlas.expanding,
        len(atlas.types) == 2,
        abs(gf.h.value("ab", "a") - 4 / 9) <= 1e-10,
        abs(gf.h.value("ba", "b") - 3 / 8) <= 1e-10,
        res.chain.lambda_ == 1.0,
        abs(rep.ell - 5 / 12) <= 0.005,
        rep.h == 0.0,
    ]
    words = sorted((p + c * 8)[:8] for p, c in rep.limit_words)
    checks.append(words == ["abababab", "babababa"])
    sim = simulate.run_trajectories(
        model, simulate.SimConfig(steps=8000, trajectories=60, seed=21))
    checks.append(abs(sim.speed_mean - 5 / 12) <= 3 * sim.speed_se)
    report(3, all(checks),
           f"NE H=({gf.h.value('ab','a'):.12f},{gf.h.value('ba','b'):.12f}), "
           f"lambda={res.chain.lambda_}, ell={rep.ell:.6f}, h={rep.h}, "
           f"limit words {words}, MC speed={sim.speed_mean:.4f}")


def test_criterion_4_line():
    res = get_analysis("line")
    ok = (res.report.method == "recurrent-zero" and res.report.h == 0.0
          and res.atlas is None and res.chain is None)
    report(4, ok, f"LINE method={res.report.method}, h={res.report.h}, "
                  f"no cone/chain structure built")


def test_criterion_5_sandwich():
    ok = True
    details = []
    for name in ("fg2", "t3"):
        chain = get_chain(name)
        cls = chain.classes[0]
        hidden = HiddenChain(chain, cls)
        bounds = sandwich_bounds(hidden, n_max=16, gap_tol=1e-9)
        mono_up = all(b <= a + 1e-12
                      for a, b in zip(bounds.uppers, bounds.uppers[1:]))
        mono_lo = all(b >= a - 1e-12
                      for a, b in zip(bounds.lowers, bounds.lowers[1:]))
        gap_ok = bounds.gap < 1e-3 and bounds.n_final <= 16
        exact = unambiguous_exact(chain, cls)
        agree = abs(exact.value - bounds.value) <= \
            bounds.gap + exact.truncation_bound + 1e-12
        ok = ok and mono_up and mono_lo and gap_ok and agree
        details.append(f"{name}: gap={bounds.gap:.2e}@n={bounds.n_final}, "
                       f"|exact-sandwich|={abs(exact.value - bounds.value):.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_6_marginal_equality():
    ok = True
    details = []
    for name in ("fg2", "t3", "ne"):
        chain = get_chain(name)
        cls = chain.classes[0]
        modified = build_qhat(chain, cls)
        diff = check_marginal_equality(chain, cls, modified, max_len=3)
        ok = ok and diff < 1e-12
        details.append(f"{name}: {diff:.2e}")
    report(6, ok, "max |Y-block - Z-block| " + "; ".join(details))


def _perturbed(model, rng, concentration=40.0):
    rules = []
    for lhs, rs in model.rules.items():
        alphas = np.array([r.prob for r in rs]) * concentration
        probs = rng.dirichlet(alphas)
        for r, p in zip(rs, probs):
            rules.append((r.lhs, r.rhs, float(p)))
    return model.with_rules(rules)


def test_criterion_7_inequality():
    rng = np.random.default_rng(1234)
    models = [("fg2", get_analysis("fg2").report),
              ("t3", get_analysis("t3").report),
              ("ne", get_analysis("ne").report),
              ("line", get_analysis("line").report),
              ("glued", get_analysis("glued").report),
              ("multi", get_analysis("multi").report)]
    ok = all(rep.inequality_ok for _, rep in models)
    produced = 0
    attempts = 0
    worst = 0.0
    while produced < 50 and attempts < 200:
        attempts += 1
        base = get_model("fg2") if produced % 2 == 0 else get_model("t3")
        cand = _perturbed(base, rng)
        try:
            rep = pipeline.analyze(cand).report
        except rle.AssumptionError:
            continue
        if not rep.transient:
            continue
        produced += 1
        slack = rep.ell * math.log(len(cand.alphabet)) + 1e-9 - rep.h
        worst = min(worst, slack) if produced > 1 else slack
        ok = ok and rep.inequality_ok and rep.sign_ok
    ok = ok and produced == 50
    report(7, ok, f"h <= ell*log|A|+1e-9 on fixtures and {produced} random "
                  f"transient models (min slack {worst:.4f})")


def test_criterion_8_structural_suite():
    checks = []
    # q rows and stationarity
    for name in ("fg2", "t3", "ne", "multi", "glued"):
        chain = get_chain(name)
        for row in chain.suffix_rows.values():
            checks.append(abs(row.probs.sum() - 1.0) <= 1e-10)
        q = q_matrix(chain).toarray()
        for cls in chain.classes:
            # pi on the class rows, lifted to the class's states
            nu = lifted(chain, cls)
            ids = np.flatnonzero(nu)
            sub = q[np.ix_(ids, ids)]
            checks.append(np.max(np.abs(nu[ids] @ sub - nu[ids])) < 1e-10)
            checks.append(np.max(np.abs(stationary(sub) -
                                        stationary_power(sub))) < 1e-9)
    # nested-or-disjoint on 200 random pairs per fixture, depth-6 exhaustive
    rng = np.random.default_rng(77)
    for name in ("fg2", "t3", "ne", "multi"):
        model, atlas = get_model(name), get_atlas(name)
        pool = []
        for t in atlas.types:
            for lev in (3, 4, 5):
                pool.extend(cone_level_words(atlas.rel, t.members, lev))
        pool = sorted(set(pool))
        for _ in range(200):
            v1 = pool[rng.integers(len(pool))]
            v2 = pool[rng.integers(len(pool))]
            s1 = brute_cone_members(model, v1, 6)
            s2 = brute_cone_members(model, v2, 6)
            if cones_disjoint(atlas.rel, v1, v2):
                checks.append(not (s1 & s2))
            else:
                small, big = (s1, s2) if len(v2) <= len(v1) else (s2, s1)
                checks.append(small <= big)
    # covering certificates
    for name in ("fg2", "t3", "ne", "multi", "glued"):
        atlas = get_atlas(name)
        checks.append(atlas.root_covering.certified)
        checks.extend(c.certified for c in atlas.coverings.values())
    # last-visit factorization: expansion route vs short-word route
    for name in ("fg2", "t3", "ne", "multi"):
        model, gf = get_model(name), get_gf(name)
        for w in model.reachable_short_words:
            if len(w) >= 2:
                direct = gf.green_short.value("", w)
                via = gf.green_short.value("", "") * \
                    L_word(model, gf, w, force_expansion=True)
                checks.append(abs(direct - via) <= 1e-9)
    # derivative tables vs central finite differences
    eps = 1e-5
    for name in ("fg2", "ne", "multi"):
        model, gf = get_model(name), get_gf(name)
        hp = solve_H(model, z=1 + eps, want_derivs=False)
        hm = solve_H(model, z=1 - eps, want_derivs=False)
        fd = (hp.values - hm.values) / (2 * eps)
        mask = np.abs(fd) > 1e-8
        checks.append(float(np.max(np.abs(gf.h.derivs - fd)[mask]
                                   / np.abs(fd)[mask])) < 1e-4)
        gp, gm = solve_Gbar(model, hp, 1 + eps), solve_Gbar(model, hm, 1 - eps)
        fdg = (gp.values - gm.values) / (2 * eps)
        maskg = np.abs(fdg) > 1e-8
        checks.append(float(np.max(np.abs(gf.gbar.derivs - fdg)[maskg]
                                   / np.abs(fdg)[maskg])) < 1e-4)
    # multi-level last-entry decomposition identity
    from contraction_oracle import mathL
    for name in ("fg2", "ne", "multi"):
        model, gf, atlas = get_model(name), get_gf(name), get_atlas(name)
        chain = get_chain(name)
        start = chain.states[0][-2:]
        for x2 in chain.states[:4]:
            t2 = atlas.type_of[x2[-2:]]
            mates = [x2[:-2] + cd for cd in atlas.types[t2].boundary_suffixes]
            slot = atlas.coverings[t2].slots[0]
            for y3 in atlas.boundary_words(slot)[:2]:
                lhs = mathL(gf, start, x2[:-2] + y3)
                rhs = sum(mathL(gf, start, y) * mathL(gf, y, y3)
                          for y in mates)
                checks.append(abs(lhs - rhs) <= 1e-10)
    report(8, all(checks), f"{len(checks)} structural checks "
                           f"({sum(bool(c) for c in checks)} passing)")


def test_criterion_9_reproducibility(capsys):
    args = ["--format", "json", "entropy", str(fixture_path("fg2"))]
    cli.main(args)
    out1 = capsys.readouterr().out
    cli.main(args)
    out2 = capsys.readouterr().out
    byte_ok = out1 == out2

    sim_args = ["--format", "csv", "simulate", str(fixture_path("fg2")),
                "--steps", "500", "--trajectories", "5", "--seed", "77"]
    cli.main(sim_args)
    s1 = capsys.readouterr().out
    cli.main(sim_args)
    s2 = capsys.readouterr().out
    byte_ok = byte_ok and s1 == s2

    base = get_analysis("fg2").report.h
    bumped = pipeline.analyze(get_model("fg2"), level_bump=1).report.h
    permuted = pipeline.analyze(
        get_model("fg2"),
        order_key=lambda w: tuple(-ord(c) for c in w)).report.h
    stable = abs(bumped - base) < 1e-8 and abs(permuted - base) < 1e-8
    report(9, byte_ok and stable,
           f"byte-identical reruns={byte_ok}, covering rebuild "
           f"|dh|={max(abs(bumped - base), abs(permuted - base)):.2e}")


def test_criterion_10_continuity_sweep():
    fg2 = get_model("fg2")
    biased = get_model("fg2_biased")
    out = continuity_sweep(fg2, biased, grid=11)
    rows = out["rows"]
    hs = [r["h"] for r in rows]
    finite = all(not r["skipped"] and math.isfinite(r["h"]) for r in rows)
    d2 = [abs(x) for x in out["second_differences"]]
    med = sorted(d2)[len(d2) // 2]
    bounded = max(d2) <= 10 * max(med, 1e-12)
    end0 = abs(rows[0]["h"] - get_analysis("fg2").report.h) < 1e-9
    endpoint_b = pipeline.analyze(biased).report.h
    end1 = abs(rows[-1]["h"] - endpoint_b) < 1e-9
    report(10, finite and bounded and end0 and end1,
           f"11 points finite, max|d2|={max(d2):.2e} <= 10*median="
           f"{10 * med:.2e}, endpoints match standalone")
