"""Reference for the increment chain's classes and stationary laws: strong
components and absorption on the sparse state-level transition matrix, a
dense stationary solve per class, and power iteration for the stationary
law; and for the first-increment law, re-contracted from every
root-covering word; and the (owner type, word) -> slot map of the
coverings, built word by word."""
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from rlentropy.lastentry import XI_ZERO, _entries


def slot_map(atlas, gf):
    """(owner type id, word) -> slot for every boundary word with positive
    escape probability of every slot of every type's covering, in the order
    of the types, their slots and the boundary suffixes."""
    out = {}
    for ct in atlas.types:
        for slot in atlas.coverings[ct.id].slots:
            for w in atlas.boundary_words(slot):
                if gf.xi.get(w[-2:], 0.0) > XI_ZERO:
                    out[ct.id, w] = slot
    return out


def word_table(gf, words):
    """A slot table of the words ``words`` in the given order, as far as
    ``_entries`` reads one: the words and their suffix ids."""
    return SimpleNamespace(words=list(words), sfx=np.array(
        [gf.gbar.index[y[-2:]] for y in words], dtype=np.intp))


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


def state_index(chain):
    """Position of each state word in the sorted state list."""
    return {w: i for i, w in enumerate(chain.states)}


def q_matrix(chain):
    """The state-level transition matrix of the increment chain (CSR)."""
    n, index = len(chain.states), state_index(chain)
    rows, cols, vals = [], [], []
    for i, w in enumerate(chain.states):
        r = chain.suffix_rows[w[-2:]]
        for y, p in zip(r.targets, r.probs):
            rows.append(i)
            cols.append(index[y])
            vals.append(p)
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def stationary_dense(q):
    """Stationary law of an irreducible stochastic matrix (sparse): nu q =
    nu with the last equation replaced by sum(nu) = 1, solved densely."""
    a = q.T.toarray()
    a[np.diag_indices_from(a)] -= 1.0
    a[-1] = 1.0
    b = np.zeros(len(a))
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def dense_decomposition(chain, mu0=None):
    """Per essential class, ordered by its least state index: (state ids,
    absorption weight from the first-increment law mu0 over the states,
    by default ``initial_law``'s, stationary law, lambda, T)."""
    if mu0 is None:
        mu0 = initial_law(chain)[0]
    Q = q_matrix(chain)
    ncomp, labels = connected_components(Q, directed=True, connection="strong")
    coo = Q.tocoo()
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[coo.row[labels[coo.row] != labels[coo.col]]]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]
    trans = np.flatnonzero(has_exit[labels])
    fund = (identity(len(trans)) - Q[trans][:, trans]).tocsc()
    out = []
    for c in essential:
        ids = np.flatnonzero(labels == c)
        weight = mu0[ids].sum()
        if len(trans):
            b = np.asarray(Q[trans][:, ids].sum(axis=1)).ravel()
            weight += mu0[trans] @ np.atleast_1d(spsolve(fund, b))
        nu = stationary_dense(Q[ids][:, ids])
        lam = sum(p * (len(chain.states[i]) - 2) for p, i in zip(nu, ids))
        times = [chain.suffix_rows[chain.states[i][-2:]].expected_time
                 for i in ids]
        T = None if None in times else float(np.dot(nu, times))
        out.append((ids.tolist(), float(weight), nu, float(lam), T))
    return sorted(out, key=lambda cls: cls[0][0])


def lifted(chain, cls):
    """The class's stationary law on its rows pushed one step onto the
    states: nu(y) = sum over the class rows ab of pi(ab) q(ab, y)."""
    index = state_index(chain)
    nu = np.zeros(len(chain.states))
    for ab, p in zip(cls.rows, cls.pi):
        r = chain.suffix_rows[ab]
        np.add.at(nu, [index[y] for y in r.targets], p * r.probs)
    return nu


def folded(chain, ids, v):
    """A per-state vector on the states ``ids``, summed per suffix."""
    out = {}
    for i, m in zip(ids, v):
        sfx = chain.states[i][-2:]
        out[sfx] = out.get(sfx, 0.0) + float(m)
    return out


def initial_law(chain):
    """(mu0, mu1_w) by contracting every covering word of the root word's
    type from each root-covering word afresh, with the first-increment mass
    entry(w0) / total * xi(y) * L(w0, y)."""
    gf, atlas, model = chain.gf, chain.atlas, chain.model
    gs = gf.green_short
    entry = {}
    for slot in atlas.root_covering.slots:
        for w0 in atlas.boundary_words(slot):
            mass = sum(gs.value("", b) * model.prob(b, w0)
                       for b in model.alphabet if b in gs.index)
            if mass > 0:
                entry[w0] = mass
    total = sum(entry[w] * gf.xi[w[-2:]] for w in entry)
    index = state_index(chain)
    mu0 = np.zeros(len(chain.states))
    mu1_w = {}
    for slot in atlas.root_covering.slots:
        t = slot.type_id
        cov = atlas.coverings[t]
        for w0 in atlas.boundary_words(slot):
            if w0 not in entry:
                continue
            words = [y for ts in cov.slots for y in atlas.boundary_words(ts)
                     if gf.xi[y[-2:]] > XI_ZERO]
            at, vals, _ = _entries(gf, w0, word_table(gf, words), False)
            for k, val in zip(at.tolist(), vals):
                y = words[k]
                mass = entry[w0] / total * gf.xi[y[-2:]] * val
                mu0[index[y]] += mass
                mu1_w[t, y] = mu1_w.get((t, y), 0.0) + mass
    s = mu0.sum()
    return mu0 / s, {k: v / s for k, v in mu1_w.items()}
