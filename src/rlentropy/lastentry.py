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
from functools import cached_property
from itertools import chain as concat, groupby
from operator import itemgetter
from os.path import commonprefix
from typing import NamedTuple

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


def first_seen(a):
    """The positions in the 1-d array ``a`` where each distinct value first
    appears, ascending, and the position of each entry's value among them."""
    _, inv = unique(a, return_inverse=True)
    first = np.full(inv.max(initial=-1) + 1, len(a))
    np.minimum.at(first, inv, np.arange(len(a)))
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


def ranges(starts, lens):
    """starts[i], ..., starts[i] + lens[i] - 1 for each i, concatenated."""
    return (np.repeat(starts - np.cumsum(lens) + lens, lens)
            + np.arange(lens.sum()))


# -- last-entry values ---------------------------------------------------------

def _entries(gf, ab, table, with_deriv):
    """(positions, last-entry values from the suffix ``ab``, z-derivatives
    or None) of the words of the slot table ``table`` whose value is
    positive.  The evaluator steps once per run of words with the same
    frozen letters, keeping the stack entries of the common prefix with the
    run before (sorted words share the most); a run reads its top."""
    ev = LWordEvaluator(None, gf, ab, with_deriv)
    words = table.words
    vals, dvals = np.empty(len(words)), np.empty(len(words))
    i = 0
    for frozen, run in groupby(words, key=itemgetter(slice(-2))):
        prev, n = ev.word[:-2], len(list(run))     # the stacked letters
        ev.step(words[i], keep=len(commonprefix((prev, frozen))))
        alpha, dalpha, scale = ev.stack[-1]
        js, f = table.sfx[i:i + n], math.exp(scale)
        vals[i:i + n] = alpha[js] * f
        if with_deriv:
            dvals[i:i + n] = dalpha[js] * f
        i += n
    at = np.flatnonzero(vals > 0.0)
    return at, vals[at], dvals[at] if with_deriv else None


# -- state space ---------------------------------------------------------------

class SlotTable(NamedTuple):
    """One type's covering: the boundary words of its slots with positive
    escape probability, sorted, and per word its suffix (an index of
    ``gf.gbar.index``), length, slot type and local index."""
    words: list
    sfx: np.ndarray
    length: np.ndarray
    slot_type: np.ndarray
    local: np.ndarray


@dataclass
class SuffixRow:
    """Outgoing transition row shared by all states with one suffix."""
    suffix: str
    table: SlotTable       # its type's; the targets are at positions ``at``
    at: np.ndarray
    probs: np.ndarray
    expected_time: float | None    # expected step count, or None
    renormalized: float = 0.0

    @property
    def targets(self):
        """The target words, sorted."""
        return [self.table.words[k] for k in self.at.tolist()]


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
    suffix_rows: dict            # suffix -> SuffixRow
    slot_tables: list            # type id -> SlotTable
    # law of the first increment per (root type, suffix of the increment)
    mu1: dict = field(default_factory=dict)
    classes: list = field(default_factory=list)
    lambda_: float = 0.0
    expected_time: float | None = None
    ell: float | None = None

    @cached_property
    def states(self):         # the increment words, sorted
        return sorted(set().union(*(t.words for t in self.slot_tables)))


def slot_tables(atlas, gf):
    """The slot table of each cone type, all built in one pass over the
    coverings: the words sorted by type, then word."""
    ends = [[cd for cd in ct.boundary_suffixes if gf.xi.get(cd, 0.0) > XI_ZERO]
            for ct in atlas.types]
    n_end = np.array([len(e) for e in ends], dtype=np.intp)
    end_sfx = np.array([gf.gbar.index[cd] for e in ends for cd in e], np.intp)
    covs = [atlas.coverings[ct.id].slots for ct in atlas.types]
    roots, types, local = zip(*concat.from_iterable(covs))
    words = [r[:-2] + cd for r, t in zip(roots, types) for cd in ends[t]]
    types = np.array(types, np.intp)
    k = n_end[types]
    owner = np.repeat(np.repeat(np.arange(len(covs)), list(map(len, covs))), k)
    length = np.repeat(np.fromiter(map(len, roots), np.intp, len(roots)), k)
    if len(words) and length.min() < 3:
        raise AssumptionError("covering slot boundary "
                              f"{words[length.argmin()]!r} too short")
    seq = np.array(sorted(range(len(words)), key=words.__getitem__), np.intp)
    seq = seq[np.argsort(owner[seq], kind="stable")]
    sfx = end_sfx[ranges((np.cumsum(n_end) - n_end)[types], k)]
    cols = [sfx[seq], length[seq], np.repeat(types, k)[seq],
            np.repeat(local, k)[seq]]
    cut = np.searchsorted(owner[seq], np.arange(len(covs) + 1)).tolist()
    words = [words[i] for i in seq.tolist()]
    return [SlotTable(words[a:b], *(c[a:b] for c in cols))
            for a, b in zip(cut, cut[1:])]


def _suffix_row(gf, ab, table, with_deriv):
    at, vals, dvals = _entries(gf, ab, table, with_deriv)
    xi = np.array(list(gf.xi.values()))[table.sfx[at]]  # in suffix order
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
    return SuffixRow(ab, table, at, probs, time, renorm)


def build_chain(model, gf, atlas):
    """Assemble the last-entry chain: states, rows, classes, measures, drift."""
    tables = slot_tables(atlas, gf)
    suffixes = unique(np.concatenate([t.sfx for t in tables])).tolist()
    suffix_rows = {ab: _suffix_row(gf, ab, tables[atlas.type_of[ab]],
                                   gf.has_derivs)
                   for ab in (gf.gbar.rpairs[i] for i in suffixes)}
    chain = EntryChain(model, gf, atlas, suffix_rows, tables)
    _initial_distribution(chain)
    _decompose(chain)
    return chain


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

    n, keys, masses = len(gf.gbar.rpairs), [], []   # keys t * n + suffix id
    for slot in atlas.root_covering.slots:
        t = slot.type_id
        for w0 in atlas.boundary_words(slot):
            if w0 not in entry:
                continue
            row = chain.suffix_rows.get(w0) or _suffix_row(
                gf, w0, chain.slot_tables[t], False)
            masses.append(entry[w0] / total * gf.xi[w0] * row.probs)
            keys.append(t * n + row.table.sfx[row.at])
    keys = np.concatenate(keys)
    first, at = first_seen(keys)
    mu1 = np.bincount(at, weights=np.concatenate(masses)).tolist()
    s = math.fsum(mu1)
    if abs(s - 1.0) > 1e-6:
        raise AssumptionError(f"first-increment law sums to {s!r}")
    chain.mu1 = {(k // n, gf.gbar.rpairs[k % n]): v / s
                 for k, v in zip(keys[first].tolist(), mu1)}


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
    sfx, index = sorted(chain.suffix_rows), chain.gf.gbar.index
    row_of = np.zeros(len(index), dtype=np.intp)    # suffix id -> row
    row_of[[index[s] for s in sfx]] = np.arange(len(sfx))
    rows = [chain.suffix_rows[s] for s in sfx]
    S = np.zeros((len(sfx), len(sfx)))
    gain = np.empty(len(sfx))            # mean increment per row
    for a, r in enumerate(rows):
        np.add.at(S[a], row_of[r.table.sfx[r.at]], r.probs)
        gain[a] = (r.probs @ (r.table.length[r.at] - 2.0)
                   / r.probs.sum())      # rows are stochastic up to ROW_RENORM
    ncomp, labels = strong_components(S > 0)
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[((S > 0) & (labels[:, None] != labels)).any(axis=1)]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]

    # absorption probabilities from the first-increment law per row
    m0 = np.zeros(len(sfx))
    for (_, cd), m in chain.mu1.items():
        m0[row_of[index[cd]]] += m
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
    weights = {c: w / wsum for c, w in weights.items()}   # one class: 1.0

    time_ok = all(r.expected_time is not None for r in rows)
    times = np.array([r.expected_time for r in rows]) if time_ok else None
    # classes in the order of their least state word
    classes = sorted((np.flatnonzero(labels == c) for c in essential),
                     key=lambda E: min(rows[a].table.words[rows[a].at[0]]
                                       for a in E))
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
