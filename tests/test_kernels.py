"""The numpy kernels of the sandwich frontier and the class decomposition
against references: the CSR successor step against a scipy.sparse copy, and
Tarjan's strong components against ``connected_components``."""
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rlentropy.entropy import CSR, StepTable, _extend
from rlentropy.lastentry import strong_components

from conftest import get_chain


# -- the CSR successor step ----------------------------------------------------

def scipy_extend(frontier, step):
    """The successor step on scipy.sparse: the mass of each stored entry of
    a frontier row spreads over the entries of the table row at its
    column."""
    n_sym = int(step.sym.max()) + 1
    coo = frontier.tocoo()
    lens = step.start[coo.col + 1] - step.start[coo.col]
    entry = (np.repeat(step.start[coo.col] - np.cumsum(lens) + lens, lens)
             + np.arange(lens.sum()))
    val = np.repeat(coo.data, lens) * step.prob[entry]
    keep = val != 0
    entry = entry[keep]
    key, succ_row = np.unique(np.repeat(coo.row, lens)[keep] * n_sym
                              + step.sym[entry], return_inverse=True)
    succ = csr_matrix((val[keep], (succ_row, step.tgt[entry])),
                      shape=(len(key), frontier.shape[1]))
    parent, sym = np.divmod(key, n_sym)
    return succ, sym, parent


def random_step(rng, n_rows, n_sym):
    lens = rng.integers(1, 9, n_rows)
    total = int(lens.sum())
    prob = rng.random(total) + 0.01
    prob[rng.random(total) < 0.1] = 1e-200        # products that underflow
    return StepTable(np.r_[0, np.cumsum(lens)],
                     rng.integers(0, n_sym, total),
                     rng.integers(0, n_rows, total), prob)


def random_frontier(rng, n_words, n_rows):
    """Rows with repeated columns and some empty rows."""
    lens = rng.integers(0, 12, n_words)
    lens[rng.random(n_words) < 0.2] = 0
    indices = rng.integers(0, n_rows, int(lens.sum()))
    data = rng.random(len(indices)) + 1e-3
    data[rng.random(len(indices)) < 0.05] = 1e-200
    return np.r_[0, np.cumsum(lens)], indices, data


@pytest.mark.parametrize("seed", range(12))
def test_csr_extend_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(3, 40))
    step = random_step(rng, n_rows, int(rng.integers(1, 5)))
    indptr, indices, data = random_frontier(rng, int(rng.integers(1, 30)),
                                            n_rows)
    ref_in = csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,
                                                        n_rows))
    succ, sym, parent = _extend(CSR(indptr, indices, data, n_rows), step)
    ref, ref_sym, ref_parent = scipy_extend(ref_in, step)
    assert np.array_equal(sym, ref_sym)
    assert np.array_equal(parent, ref_parent)
    assert np.array_equal(succ.indptr, ref.indptr)
    assert np.array_equal(succ.indices, ref.indices)
    assert np.allclose(succ.data, ref.data, rtol=1e-15, atol=0)
    assert succ.n_cols == n_rows

    # the row operations the frontier needs
    assert np.allclose(succ.sums(), np.asarray(ref.sum(axis=1)).ravel(),
                       rtol=1e-15, atol=0)
    if succ.n_rows:
        # row selection moves values without arithmetic
        same = csr_matrix((succ.data, succ.indices, succ.indptr), ref.shape)
        pick = rng.integers(0, succ.n_rows, 2 * succ.n_rows)
        mask = rng.random(succ.n_rows) < 0.5
        for rows in (pick, mask, slice(1, None, 2)):
            assert (dense(succ.take(rows)).tolist()
                    == same[rows].toarray().tolist())


def dense(m):
    out = np.zeros((m.n_rows, m.n_cols))
    np.add.at(out, (m.row_ids(), m.indices), m.data)
    return out


# -- strong components ---------------------------------------------------------

def same_partition(a, b):
    """Labelings a and b split the nodes into the same classes."""
    return (np.asarray(a)[:, None] == a).tolist() == (
        np.asarray(b)[:, None] == b).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_tarjan_matches_connected_components(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 17, 60):
        for p in (0.0, 0.03, 0.1, 0.3):
            adj = rng.random((n, n)) < p
            ncomp, labels = strong_components(adj)
            ref_n, ref = connected_components(csr_matrix(adj), directed=True,
                                              connection="strong")
            assert ncomp == ref_n
            assert same_partition(labels, ref)


@pytest.mark.parametrize("name", ["fg2", "fg2_biased", "t3", "ne", "glued",
                                  "multi", "twotype", "mixed"])
def test_tarjan_on_suffix_quotients(name):
    chain = get_chain(name)
    sfx = sorted(chain.suffix_rows)
    k = {s: a for a, s in enumerate(sfx)}
    adj = np.zeros((len(sfx), len(sfx)), dtype=bool)
    for s, row in chain.suffix_rows.items():
        for y, p in zip(row.targets, row.probs):
            adj[k[s], k[y[-2:]]] |= p > 0
    ncomp, labels = strong_components(adj)
    ref_n, ref = connected_components(csr_matrix(adj), directed=True,
                                      connection="strong")
    assert ncomp == ref_n
    assert same_partition(labels, ref)
