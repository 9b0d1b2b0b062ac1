"""Last-entry increment chain: state space, transition table, stationary
measures, the mean level gain and the rate of escape.

States are the relative increment words between consecutive final entries
into nested covering subcones.  Transition rows depend on a state only
through its two-letter suffix, so rows are computed once per suffix.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    ab = x[-2:]
    lbar = gf.lbar
    idx = lbar.index
    if ab not in idx:
        raise ValueError(f"suffix {ab!r} not reachable")
    n = len(lbar.rpairs)
    alpha = np.zeros(n)
    alpha[idx[ab]] = 1.0
    dalpha = np.zeros(n)
    for ch in y[:-2]:
        if with_deriv:
            dalpha = dalpha @ lbar.M[ch] + alpha @ lbar.Md[ch]
        alpha = alpha @ lbar.M[ch]
    j = idx[y[-2:]]
    if with_deriv:
        return float(alpha[j]), float(dalpha[j])
    return float(alpha[j])


class _ChainEvaluator:
    """Prefix-sharing evaluation of last-entry values from one source suffix
    to a sorted batch of target words."""

    def __init__(self, gf, ab, with_deriv):
        self.gf = gf
        self.with_deriv = with_deriv
        n = len(gf.lbar.rpairs)
        alpha = np.zeros(n)
        alpha[gf.lbar.index[ab]] = 1.0
        self.stack = [("", alpha, np.zeros(n))]

    def _extend(self, prefix):
        while len(self.stack) > 1 and not prefix.startswith(self.stack[-1][0]):
            self.stack.pop()
        base, alpha, dalpha = self.stack[-1]
        for ch in prefix[len(base):]:
            if self.with_deriv:
                dalpha = dalpha @ self.gf.lbar.M[ch] + alpha @ self.gf.lbar.Md[ch]
            alpha = alpha @ self.gf.lbar.M[ch]
            base = base + ch
            self.stack.append((base, alpha, dalpha))

    def value(self, y):
        self._extend(y[:-2])
        _, alpha, dalpha = self.stack[-1]
        j = self.gf.lbar.index[y[-2:]]
        return float(alpha[j]), float(dalpha[j])


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
    ell_verified: bool = False
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

    @property
    def irreducible(self):
        return len(self.classes) == 1 and not self.has_inessential_states

    @property
    def has_inessential_states(self):
        essential = {i for c in self.classes for i in c.state_ids}
        return len(essential) < len(self.states)


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


def _suffix_row(gf, atlas, ab, slot_words, with_deriv):
    ev = _ChainEvaluator(gf, ab, with_deriv)
    xi_ab = gf.xi[ab]
    targets, probs, times = [], [], []
    for y in slot_words:
        xi_y = gf.xi.get(y[-2:], 0.0)
        if xi_y <= XI_ZERO:
            continue
        val, dval = ev.value(y)
        if val <= 0.0:
            continue
        targets.append(y)
        probs.append(xi_y / xi_ab * val)
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
        suffix_rows[ab] = _suffix_row(gf, atlas, ab, slot_words_of_type[t],
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
            ev = _ChainEvaluator(gf, w0, False)
            for target_slot in cov.slots:
                skey = (target_slot.type_id, target_slot.local_index)
                for y in atlas.boundary_words(target_slot):
                    xi_y = gf.xi.get(y[-2:], 0.0)
                    if xi_y <= XI_ZERO:
                        continue
                    val, _ = ev.value(y)
                    if val > 0:
                        mass = entry[w0] / total * xi_y * val
                        mu0[chain.state_index[y]] += mass
                        key = (t, skey, y)
                        mu1_w[key] = mu1_w.get(key, 0.0) + mass
    s = mu0.sum()
    if abs(s - 1.0) > 1e-6:
        raise AssumptionError(f"first-increment law sums to {s!r}")
    chain.mu0 = mu0 / s
    chain.mu1_w = {k: v / s for k, v in mu1_w.items()}


def _decompose(chain):
    """Strongly-connected structure of the transition support, absorption
    weights, and the per-class stationary quantities."""
    n = len(chain.states)
    Q = chain.q_matrix()
    ncomp, labels = connected_components(Q, directed=True, connection="strong")
    has_exit = np.zeros(ncomp, dtype=bool)
    coo = Q.tocoo()
    for i, j in zip(coo.row, coo.col):
        if labels[i] != labels[j]:
            has_exit[labels[i]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]

    # absorption probabilities from the first-increment law
    trans_ids = [i for i in range(n) if has_exit[labels[i]]]
    weights = {}
    for c in essential:
        weights[c] = float(chain.mu0[labels == c].sum())
    if trans_ids:
        QTT = Q[trans_ids][:, trans_ids].toarray()
        for c in essential:
            target = [i for i in range(n) if labels[i] == c]
            b = np.asarray(Q[trans_ids][:, target].sum(axis=1)).ravel()
            absorb = np.linalg.solve(np.eye(len(trans_ids)) - QTT, b)
            weights[c] += float(chain.mu0[trans_ids] @ absorb)
    wsum = sum(weights.values())
    if abs(wsum - 1.0) > 1e-9:
        raise AssumptionError(f"absorption weights sum to {wsum!r}")

    chain.classes = []
    mix = np.zeros(n)
    lam_mix = 0.0
    ell_mix = 0.0
    time_ok = True
    for k, c in enumerate(sorted(essential, key=lambda c: min(
            i for i in range(n) if labels[i] == c))):
        ids = [i for i in range(n) if labels[i] == c]
        sub = Q[ids][:, ids].toarray()
        nu = stationary(sub)
        lam = float(sum(nu[a] * (len(chain.states[i]) - 2)
                        for a, i in enumerate(ids)))
        times = [chain.suffix_rows[chain.states[i][-2:]].expected_time for i in ids]
        if any(t is None for t in times):
            T = None
            ell = None
            time_ok = False
        else:
            T = float(sum(nu[a] * times[a] for a in range(len(ids))))
            ell = lam / T
        cls = EssentialClass(k, ids, weights[c], nu, lam, T, ell,
                             frozenset(chain.state_type[i] for i in ids))
        chain.classes.append(cls)
        for a, i in enumerate(ids):
            mix[i] += weights[c] * nu[a]
        lam_mix += weights[c] * lam
        if ell is not None:
            ell_mix += weights[c] * ell
    chain.nu0 = mix
    chain.lambda_ = lam_mix
    chain.expected_time = (lam_mix / ell_mix) if (time_ok and ell_mix > 0) else None
    chain.ell = ell_mix if time_ok else None


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
