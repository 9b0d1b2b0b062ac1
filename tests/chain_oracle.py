"""Reference for the increment chain's classes and stationary laws: strong
components, absorption and stationary solves on the dense state-level
transition matrix, and power iteration for the stationary law."""
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rlentropy.lastentry import stationary


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
        r = chain.row(w)
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
        times = [chain.row(chain.states[i]).expected_time for i in ids]
        T = None if None in times else float(np.dot(nu, times))
        out.append((ids.tolist(), float(weight), nu, float(lam), T))
    return sorted(out, key=lambda cls: cls[0][0])
