"""Last-entry increment chain: state space, transition table, stationary
measures, the mean level gain and the rate of escape.

States are the relative increment words between consecutive final entries
into nested covering subcones.  Transition rows depend on a state only
through its two-letter suffix, so rows are computed once per suffix.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from os.path import commonprefix

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .genfun import LWordEvaluator
from .model import AssumptionError

log = logging.getLogger("rlentropy")

ROW_ABORT = 1e-8
ROW_RENORM = 1e-10
XI_ZERO = 1e-12


# -- the multi-level last-entry value -----------------------------------------

def mathL(gf, x, y, with_deriv=False):
    """Last-entry value from ``x`` to the relative word ``y`` (|y| >= 3),
    chained over one-level-up factors; depends on x only through its last
    two letters."""
    ev = LWordEvaluator(gf.model, gf, x[-2:], with_deriv)
    ev.step(y)
    return ev.last_entry() if with_deriv else ev.last_entry()[0]


def _entries(gf, ab, words, with_deriv):
    """(word, escape probability, last-entry value from the suffix ``ab``,
    its z-derivative) for each word in turn whose escape probability and
    value are positive.  A word keeps the stack entries of its common
    prefix with the one before, so sorted words share the most."""
    ev = LWordEvaluator(gf.model, gf, ab, with_deriv)
    for y in words:
        xi_y = gf.xi.get(y[-2:], 0.0)
        if xi_y > XI_ZERO:
            prev = ev.word[:-2]     # the stacked letters
            ev.step(y, keep=len(prev) if y.startswith(prev)
                    else len(commonprefix((prev, y))))
            val, dval = ev.last_entry()
            if val > 0.0:
                yield y, xi_y, val, dval


# -- state space ---------------------------------------------------------------

@dataclass
class SuffixRow:
    """Outgoing transition row shared by all states with one suffix."""
    suffix: str
    targets: list          # target words, sorted
    probs: np.ndarray
    times: np.ndarray | None   # expected step counts per target, or None
    renormalized: float = 0.0

    @property
    def expected_time(self):
        return float(self.times.sum()) if self.times is not None else None


@dataclass
class EssentialClass:
    index: int
    state_ids: list
    weight: float
    nu0: np.ndarray
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
    state_index: dict
    state_type: list             # type id of each state's suffix
    suffix_rows: dict            # suffix -> SuffixRow
    slot_of: dict                # (owner type id, word) -> slot
    entry_mass: dict             # two-letter word -> final-entry probability
    mu0: np.ndarray              # law of the first increment
    classes: list = field(default_factory=list)
    lambda_: float = 0.0
    expected_time: float | None = None
    ell: float | None = None
    nu0: np.ndarray | None = None    # stationary mix weighted over classes

    def row(self, state_word):
        return self.suffix_rows[state_word[-2:]]

    def q(self, x, y):
        r = self.suffix_rows[x[-2:]]
        try:
            return float(r.probs[r.targets.index(y)])
        except ValueError:
            return 0.0

    def q_matrix(self):
        n = len(self.states)
        rows, cols, vals = [], [], []
        for i, w in enumerate(self.states):
            r = self.suffix_rows[w[-2:]]
            for y, p in zip(r.targets, r.probs):
                rows.append(i); cols.append(self.state_index[y]); vals.append(p)
        return csr_matrix((vals, (rows, cols)), shape=(n, n))


def enumerate_W0(atlas, gf):
    """All covering-slot boundary words with positive escape probability,
    with the (owner type, word) -> slot map."""
    words = set()
    slot_of = {}
    for ct in atlas.types:
        cov = atlas.coverings[ct.id]
        for slot in cov.slots:
            for w in atlas.boundary_words(slot):
                if gf.xi.get(w[-2:], 0.0) <= XI_ZERO:
                    continue
                if len(w) < 3:
                    raise AssumptionError(f"covering slot boundary {w!r} too short")
                words.add(w)
                slot_of[(ct.id, w)] = slot
    return sorted(words), slot_of


def _suffix_row(gf, ab, slot_words, with_deriv):
    xi_ab = gf.xi[ab]
    targets, probs, times = [], [], []
    for y, xi_y, val, dval in _entries(gf, ab, slot_words, with_deriv):
        targets.append(y)
        probs.append(xi_y / xi_ab * val)
        if with_deriv:
            times.append(xi_y / xi_ab * dval)
    probs = np.array(probs)
    times = np.array(times) if with_deriv else None
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
    return SuffixRow(ab, targets, probs, times, renorm)


def build_chain(model, gf, atlas):
    """Assemble the last-entry chain: states, rows, classes, measures, drift."""
    states, slot_of = enumerate_W0(atlas, gf)
    state_index = {w: i for i, w in enumerate(states)}
    state_type = [atlas.type_of[w[-2:]] for w in states]
    with_deriv = gf.has_derivs

    suffix_rows = {}
    slot_words_of_type = {}
    for ct in atlas.types:
        cov = atlas.coverings[ct.id]
        ws = sorted(w for s in cov.slots for w in atlas.boundary_words(s))
        slot_words_of_type[ct.id] = ws
    for ab in sorted({w[-2:] for w in states}):
        t = atlas.type_of[ab]
        suffix_rows[ab] = _suffix_row(gf, ab, slot_words_of_type[t],
                                      with_deriv)

    chain = EntryChain(model, gf, atlas, states, state_index, state_type,
                       suffix_rows, slot_of, entry_mass={}, mu0=None)

    _initial_distribution(chain)
    _decompose(chain)
    return chain


def _initial_distribution(chain):
    """Law of the first increment, from the root-covering entry weights."""
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
    chain.entry_mass = {w: entry[w] * gf.xi[w[-2:]] / total for w in entry}

    mu0 = np.zeros(len(chain.states))
    mu1_w = {}
    for slot in atlas.root_covering.slots:
        t = slot.type_id
        cov = atlas.coverings[t]
        for w0 in atlas.boundary_words(slot):
            if w0 not in entry:
                continue
            words = [y for ts in cov.slots for y in atlas.boundary_words(ts)]
            for y, xi_y, val, _ in _entries(gf, w0, words, False):
                mass = entry[w0] / total * xi_y * val
                mu0[chain.state_index[y]] += mass
                ts = chain.slot_of[(t, y)]
                key = (t, (ts.type_id, ts.local_index), y)
                mu1_w[key] = mu1_w.get(key, 0.0) + mass
    s = mu0.sum()
    if abs(s - 1.0) > 1e-6:
        raise AssumptionError(f"first-increment law sums to {s!r}")
    chain.mu0 = mu0 / s
    chain.mu1_w = {k: v / s for k, v in mu1_w.items()}


def _decompose(chain):
    """Essential classes, absorption weights and stationary quantities,
    computed on the suffix quotient and lifted to the states.

    Rows depend on a state only through its suffix, so the suffix process
    is itself a Markov chain (strong lumpability, Kemeny & Snell, Finite
    Markov Chains, 6.3) with S[ab, cd] the q-mass of row ab on targets
    ending in cd.  A closed class E of S gives the essential state class
    made of the targets of its rows; absorption into E from the suffix law
    of mu0 gives the class weight, and the stationary law pi of S on E lifts
    in one push, nu(y) = sum_ab pi(ab) q(ab, y).
    """
    n = len(chain.states)
    sfx = sorted(chain.suffix_rows)
    k = {s: a for a, s in enumerate(sfx)}
    rows = [chain.suffix_rows[s] for s in sfx]
    cols = [np.array([chain.state_index[y] for y in r.targets], dtype=int)
            for r in rows]
    state_sfx = np.array([k[w[-2:]] for w in chain.states], dtype=int)
    S = np.zeros((len(sfx), len(sfx)))
    for a, (r, c) in enumerate(zip(rows, cols)):
        np.add.at(S[a], state_sfx[c], r.probs)
    ncomp, labels = connected_components(csr_matrix(S > 0), directed=True,
                                         connection="strong")
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[((S > 0) & (labels[:, None] != labels)).any(axis=1)]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]

    # absorption probabilities from the suffix law of mu0
    m0 = np.bincount(state_sfx, weights=chain.mu0, minlength=len(sfx))
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

    increments = np.array([len(w) - 2 for w in chain.states], dtype=float)
    time_ok = all(r.expected_time is not None for r in rows)
    if time_ok:
        times = np.array([r.expected_time for r in rows])[state_sfx]
    classes = []
    for c in essential:
        E = np.flatnonzero(labels == c)
        classes.append((np.unique(np.concatenate([cols[a] for a in E])), c, E))
    classes.sort(key=lambda t: t[0][0])
    chain.classes, chain.nu0 = [], np.zeros(n)
    for idx, (ids, c, E) in enumerate(classes):
        nu = np.zeros(n)
        for a, p in zip(E, stationary(S[np.ix_(E, E)])):
            nu[cols[a]] += p * rows[a].probs
        nu = nu[ids] / nu.sum()    # rows are stochastic up to ROW_RENORM
        lam = float(nu @ increments[ids])
        T = float(nu @ times[ids]) if time_ok else None
        chain.classes.append(EssentialClass(
            idx, ids.tolist(), weights[c], nu, lam, T,
            lam / T if time_ok else None,
            frozenset(chain.state_type[i] for i in ids)))
        chain.nu0[ids] += weights[c] * nu
    chain.lambda_ = sum(c.weight * c.lambda_ for c in chain.classes)
    chain.ell = sum(c.weight * c.ell for c in chain.classes) if time_ok else None
    chain.expected_time = (chain.lambda_ / chain.ell
                           if time_ok and chain.ell > 0 else None)


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


def stationary_power(q, tol=1e-14, max_iter=200000):
    """Power-iteration cross-check for the direct solve; the half-lazy
    update keeps it convergent for periodic chains."""
    n = q.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nv = 0.5 * v + 0.5 * (v @ q)
        nv /= nv.sum()
        if np.max(np.abs(nv - v)) < tol:
            return nv
        v = nv
    return v
