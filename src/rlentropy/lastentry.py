"""Last-entry increment chain: state space, transition table, stationary
measures, the mean level gain and the rate of escape.

States are the relative increment words between consecutive final entries
into nested covering subcones.  Transition rows depend on a state only
through its two-letter suffix, so rows are computed once per suffix and
every measure lives on the suffix rows: the law of the first increment
(the root-covering words' rows, weighted by their final-entry
probabilities, summed per target suffix) and each essential class's
stationary law.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import groupby
from os.path import commonprefix

import numpy as np

from .genfun import LWordEvaluator
from .model import AssumptionError

log = logging.getLogger("rlentropy")

ROW_ABORT = 1e-8
ROW_RENORM = 1e-10
XI_ZERO = 1e-12


def unique(a, return_inverse=False):
    """The sorted distinct values of the 1-d array ``a`` and, if asked, the
    position of each entry among them: ``np.unique``'s sort and compare of
    neighbours, without its first-use import of numpy.ma."""
    order = np.argsort(a)
    s = a[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    if not return_inverse:
        return s[new]
    inv = np.empty(len(s), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return s[new], inv


# -- the multi-level last-entry value -----------------------------------------

def mathL(gf, x, y, with_deriv=False):
    """Last-entry value from ``x`` to the relative word ``y`` (|y| >= 3),
    chained over one-level-up factors; depends on x only through its last
    two letters."""
    ev = LWordEvaluator(gf.model, gf, x[-2:], with_deriv)
    ev.step(y)
    return ev.last_entry() if with_deriv else ev.last_entry()[0]


def _entries(gf, ab, words, with_deriv):
    """(words, escape probabilities, last-entry values from the suffix
    ``ab``, z-derivatives or None) of the words in turn whose probability
    and value are positive.  The evaluator steps once per run of words with
    the same frozen letters, keeping the stack entries of the common prefix
    with the run before (sorted words share the most); a run reads its top."""
    ev = LWordEvaluator(gf.model, gf, ab, with_deriv)
    kept = [y for y in words if gf.xi.get(y[-2:], 0.0) > XI_ZERO]
    vals, dvals = np.empty(len(kept)), np.empty(len(kept))
    i = 0
    for frozen, run in groupby(kept, key=lambda y: y[:-2]):
        prev, run = ev.word[:-2], list(run)     # the stacked letters
        ev.step(run[0], keep=len(prev) if frozen.startswith(prev)
                else len(commonprefix((prev, frozen))))
        alpha, dalpha, scale = ev.stack[-1]
        js, f = [ev.index[y[-2:]] for y in run], math.exp(scale)
        vals[i:i + len(run)] = alpha[js] * f
        if with_deriv:
            dvals[i:i + len(run)] = dalpha[js] * f
        i += len(run)
    pos = vals > 0.0
    xi = np.array([gf.xi[y[-2:]] for y in kept])[pos]
    return ([y for y, p in zip(kept, pos.tolist()) if p], xi, vals[pos],
            dvals[pos] if with_deriv else None)


# -- state space ---------------------------------------------------------------

@dataclass
class SuffixRow:
    """Outgoing transition row shared by all states with one suffix."""
    suffix: str
    targets: list          # target words, sorted
    probs: np.ndarray
    expected_time: float | None    # expected step count, or None
    renormalized: float = 0.0


@dataclass
class EssentialClass:
    """A closed class of the suffix process; its states are the targets of
    its rows."""
    index: int
    rows: list                   # suffixes, sorted
    pi: np.ndarray               # stationary law on the rows
    weight: float
    lambda_: float
    expected_time: float | None
    ell: float | None
    types: frozenset


@dataclass
class EntryChain:
    model: object
    gf: object
    atlas: object
    states: list                 # increment words, sorted
    suffix_rows: dict            # suffix -> SuffixRow
    slot_of: dict                # (owner type id, word) -> slot
    # law of the first increment per (root type, suffix of the increment)
    mu1: dict = field(default_factory=dict)
    classes: list = field(default_factory=list)
    lambda_: float = 0.0
    expected_time: float | None = None
    ell: float | None = None


def enumerate_W0(atlas, gf):
    """All covering-slot boundary words with positive escape probability,
    with the (owner type, word) -> slot map."""
    ends = [[cd for cd in ct.boundary_suffixes if gf.xi.get(cd, 0.0) > XI_ZERO]
            for ct in atlas.types]
    slot_of = {}
    for ct in atlas.types:
        for slot in atlas.coverings[ct.id].slots:
            for w in [slot.root[:-2] + cd for cd in ends[slot.type_id]]:
                if len(w) < 3:
                    raise AssumptionError(f"covering slot boundary {w!r} too short")
                slot_of[ct.id, w] = slot
    return sorted({w for _, w in slot_of}), slot_of


def _suffix_row(gf, ab, slot_words, with_deriv):
    targets, xi, vals, dvals = _entries(gf, ab, slot_words, with_deriv)
    probs = xi / gf.xi[ab] * vals
    time = float((xi / gf.xi[ab] * dvals).sum()) if with_deriv else None
    total = probs.sum()
    defect = abs(total - 1.0)
    if defect >= ROW_ABORT:
        raise AssumptionError(
            f"transition row for suffix {ab!r} sums to {total!r}; upstream "
            "tables are inconsistent")
    renorm = 0.0
    if defect > ROW_RENORM:
        log.info("renormalizing row %s with defect %.3e", ab, defect)
        probs = probs / total
        renorm = defect
    return SuffixRow(ab, targets, probs, time, renorm)


def build_chain(model, gf, atlas):
    """Assemble the last-entry chain: states, rows, classes, measures, drift."""
    states, slot_of = enumerate_W0(atlas, gf)
    slot_words = _slot_words(slot_of)
    suffix_rows = {ab: _suffix_row(gf, ab, slot_words.get(atlas.type_of[ab], []),
                                   gf.has_derivs)
                   for ab in sorted({w[-2:] for w in states})}
    chain = EntryChain(model, gf, atlas, states, suffix_rows, slot_of)
    _initial_distribution(chain)
    _decompose(chain)
    return chain


def _slot_words(slot_of):
    """Per type, the sorted slot boundary words of its covering with
    positive escape probability (those ``_entries`` keeps)."""
    words = {}
    for t, w in slot_of:
        words.setdefault(t, []).append(w)
    return {t: sorted(ws) for t, ws in words.items()}


def _initial_distribution(chain):
    """Law of the first increment, from the root-covering entry weights.

    The first increment y after the entry into the root word w0 has mass
    entry(w0) xi(w0) q(w0, y): the suffix row of w0 times its final-entry
    probability.  A root word that no state ends in gets its row here.
    ``mu1`` sums this mass per enriched first row: the root word's type t
    (the covering entered) and the suffix cd of y, keyed (t, cd)."""
    gf, atlas, model = chain.gf, chain.atlas, chain.model
    gs = gf.green_short
    entry = {}
    for slot in atlas.root_covering.slots:
        for w0 in atlas.boundary_words(slot):   # two-letter words here
            mass = 0.0
            for b in model.alphabet:
                if b in gs.index:
                    mass += gs.value("", b) * model.prob(b, w0)
            if mass > 0:
                entry[w0] = mass
    total = sum(entry[w] * gf.xi[w[-2:]] for w in entry)
    if abs(total - 1.0) > 1e-6:
        raise AssumptionError(
            f"final-entry masses sum to {total!r}; Green/escape tables "
            "are inconsistent")

    mu1 = {}
    for slot in atlas.root_covering.slots:
        t = slot.type_id
        for w0 in atlas.boundary_words(slot):
            if w0 not in entry:
                continue
            row = chain.suffix_rows.get(w0) or _suffix_row(
                gf, w0, _slot_words(chain.slot_of).get(t, []), False)
            mass = entry[w0] / total * gf.xi[w0] * row.probs
            for y, m in zip(row.targets, mass.tolist()):
                mu1[t, y[-2:]] = mu1.get((t, y[-2:]), 0.0) + m
    s = math.fsum(mu1.values())
    if abs(s - 1.0) > 1e-6:
        raise AssumptionError(f"first-increment law sums to {s!r}")
    chain.mu1 = {k: v / s for k, v in mu1.items()}


def _decompose(chain):
    """Essential classes, absorption weights and stationary quantities, all
    on the suffix rows.

    Rows depend on a state only through its suffix, so the suffix process
    is itself a Markov chain (strong lumpability, Kemeny & Snell, Finite
    Markov Chains, 6.3) with S[ab, cd] the q-mass of row ab on targets
    ending in cd.  A closed class E of S is an essential class, made of
    the targets of its rows.  Absorption into E from the first-increment
    law summed per row gives the class weight; the stationary law pi of S
    on E weighs each row's mean increment into lambda and its expected
    time into T.
    """
    sfx = sorted(chain.suffix_rows)
    k = {s: a for a, s in enumerate(sfx)}
    rows = [chain.suffix_rows[s] for s in sfx]
    S = np.zeros((len(sfx), len(sfx)))
    gain = np.empty(len(sfx))            # mean increment per row
    for a, r in enumerate(rows):
        np.add.at(S[a], [k[y[-2:]] for y in r.targets], r.probs)
        gain[a] = (r.probs @ np.array([len(y) - 2 for y in r.targets], float)
                   / r.probs.sum())      # rows are stochastic up to ROW_RENORM
    ncomp, labels = strong_components(S > 0)
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[((S > 0) & (labels[:, None] != labels)).any(axis=1)]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]

    # absorption probabilities from the first-increment law per row
    m0 = np.zeros(len(sfx))
    for (_, cd), m in chain.mu1.items():
        m0[k[cd]] += m
    trans = np.flatnonzero(has_exit[labels])
    weights = {c: float(m0[labels == c].sum()) for c in essential}
    if len(trans):
        fund = np.eye(len(trans)) - S[np.ix_(trans, trans)]
        for c in essential:
            b = S[np.ix_(trans, np.flatnonzero(labels == c))].sum(axis=1)
            weights[c] += float(m0[trans] @ np.linalg.solve(fund, b))
    wsum = sum(weights.values())
    if abs(wsum - 1.0) > 1e-9:
        raise AssumptionError(f"absorption weights sum to {wsum!r}")

    time_ok = all(r.expected_time is not None for r in rows)
    times = np.array([r.expected_time for r in rows]) if time_ok else None
    # classes in the order of their least state word
    classes = sorted((np.flatnonzero(labels == c) for c in essential),
                     key=lambda E: min(rows[a].targets[0] for a in E))
    chain.classes = []
    for idx, E in enumerate(classes):
        pi = stationary(S[np.ix_(E, E)])
        lam = float(pi @ gain[E])
        T = float(pi @ times[E]) if time_ok else None
        chain.classes.append(EssentialClass(
            idx, [sfx[a] for a in E], pi, weights[labels[E[0]]], lam, T,
            lam / T if time_ok else None,
            frozenset(chain.atlas.type_of[sfx[a]] for a in E)))
    chain.lambda_ = sum(c.weight * c.lambda_ for c in chain.classes)
    chain.ell = sum(c.weight * c.ell for c in chain.classes) if time_ok else None
    chain.expected_time = (chain.lambda_ / chain.ell
                           if time_ok and chain.ell > 0 else None)


def strong_components(adj):
    """(count, label per node) of the strong components of the digraph with
    boolean adjacency matrix ``adj``: Tarjan's algorithm on a work stack of
    (node, position of its next successor), every node a root in turn."""
    succ = [np.flatnonzero(row).tolist() for row in adj]
    index, low, labels, path = {}, {}, np.full(len(adj), -1), []
    work = [(v, 0) for v in reversed(range(len(adj)))]
    while work:
        v, i = work.pop()
        if i == 0:
            if v in index:                  # a root reached from an earlier one
                continue
            index[v] = low[v] = len(index)
            path.append(v)
        else:                               # back from the child succ[v][i-1]
            low[v] = min(low[v], low[succ[v][i - 1]])
        while i < len(succ[v]) and succ[v][i] in index:
            if labels[succ[v][i]] < 0:      # still on the path
                low[v] = min(low[v], index[succ[v][i]])
            i += 1
        if i < len(succ[v]):
            work += [(v, i + 1), (succ[v][i], 0)]
        elif low[v] == index[v]:            # v roots a component
            c = labels.max() + 1
            while labels[v] < 0:
                labels[path.pop()] = c
    return labels.max() + 1, labels


def stationary(q):
    """Stationary row vector of a stochastic matrix by direct linear solve."""
    n = q.shape[0]
    A = q.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    nu = np.linalg.solve(A, b)
    if nu.min() < -1e-9:
        raise AssumptionError("stationary solve produced negative mass")
    nu = np.clip(nu, 0.0, None)
    return nu / nu.sum()
