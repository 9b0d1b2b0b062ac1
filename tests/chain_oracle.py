"""Reference for the increment chain's classes and stationary laws: strong
components, absorption and stationary solves on the dense state-level
transition matrix, and power iteration for the stationary law; and for the
first-increment law, re-contracted from every root-covering word."""
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rlentropy.lastentry import _entries, stationary


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


def q_matrix(chain):
    """The state-level transition matrix of the increment chain (CSR)."""
    n = len(chain.states)
    rows, cols, vals = [], [], []
    for i, w in enumerate(chain.states):
        r = chain.suffix_rows[w[-2:]]
        for y, p in zip(r.targets, r.probs):
            rows.append(i)
            cols.append(chain.state_index[y])
            vals.append(p)
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def dense_decomposition(chain):
    """Per essential class, ordered by its least state index: (state ids,
    absorption weight from mu0, stationary law, lambda, T)."""
    Q = q_matrix(chain)
    ncomp, labels = connected_components(Q, directed=True, connection="strong")
    coo = Q.tocoo()
    has_exit = np.zeros(ncomp, dtype=bool)
    has_exit[labels[coo.row[labels[coo.row] != labels[coo.col]]]] = True
    essential = [c for c in range(ncomp) if not has_exit[c]]
    trans = np.flatnonzero(has_exit[labels])
    Qd = Q.toarray()
    fund = np.eye(len(trans)) - Qd[np.ix_(trans, trans)]
    out = []
    for c in essential:
        ids = np.flatnonzero(labels == c)
        weight = chain.mu0[ids].sum()
        if len(trans):
            b = Qd[np.ix_(trans, ids)].sum(axis=1)
            weight += chain.mu0[trans] @ np.linalg.solve(fund, b)
        nu = stationary(Qd[np.ix_(ids, ids)])
        lam = sum(p * (len(chain.states[i]) - 2) for p, i in zip(nu, ids))
        times = [chain.suffix_rows[chain.states[i][-2:]].expected_time
                 for i in ids]
        T = None if None in times else float(np.dot(nu, times))
        out.append((ids.tolist(), float(weight), nu, float(lam), T))
    return sorted(out, key=lambda cls: cls[0][0])


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
    mu0 = np.zeros(len(chain.states))
    mu1_w = {}
    for slot in atlas.root_covering.slots:
        t = slot.type_id
        cov = atlas.coverings[t]
        for w0 in atlas.boundary_words(slot):
            if w0 not in entry:
                continue
            words = [y for ts in cov.slots for y in atlas.boundary_words(ts)]
            for y, xi_y, val in zip(*_entries(gf, w0, words, False)[:3]):
                mass = entry[w0] / total * xi_y * val
                mu0[chain.state_index[y]] += mass
                mu1_w[t, y] = mu1_w.get((t, y), 0.0) + mass
    s = mu0.sum()
    return mu0 / s, {k: v / s for k, v in mu1_w.items()}
