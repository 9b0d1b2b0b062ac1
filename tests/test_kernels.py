"""The numpy kernels of the marginal check, the sandwich frontier and the
class decomposition against references: pivoted Gram-Schmidt against
scipy's pivoted Householder QR and against the reference loop, the marginal
check's span test with one basis against the construction with one basis per symbol, the
CSR successor step against a scipy.sparse copy, and Tarjan's strong
components against ``connected_components``."""
import numpy as np
import pytest
from scipy.linalg import qr
from scipy.sparse import csr_matrix, vstack
from scipy.sparse.csgraph import connected_components

from rlentropy import entropy
from rlentropy.entropy import (CSR, SPAN_RTOL, StepTable, _extend,
                               _grow_span, _pair_table, build_qhat)
from rlentropy.lastentry import strong_components

from conftest import get_chain
from marginal_oracle import _new_directions, per_symbol_marginal_check


# -- pivoted Gram-Schmidt ------------------------------------------------------

def qr_new_directions(basis, rows):
    """The rank decision by scipy's pivoted QR: (rank, grown basis)."""
    x = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    for _ in range(2):
        x -= (x @ basis.T) @ basis
    if not np.linalg.norm(x, axis=1).max() > SPAN_RTOL:
        return 0, basis
    q, r, _ = qr(x.T, mode="economic", pivoting=True)
    k = np.count_nonzero(np.abs(np.diag(r)) > SPAN_RTOL)
    return k, np.vstack([basis, q[:, :k].T])


def orthonormal(rng, k, n):
    return np.linalg.qr(rng.standard_normal((n, k)))[0].T


def planted(rng, basis, rank, m, n):
    """m random rows of span(basis) + a random space of dimension ``rank``."""
    gens = np.vstack([basis, rng.standard_normal((rank, n))])
    return rng.standard_normal((m, len(gens))) @ gens


def gs_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n, k0, rank, m in [(12, 0, 0, 5), (12, 3, 0, 7), (8, 0, 8, 8),
                           (27, 0, 27, 27), (27, 5, 22, 30), (123, 4, 18, 18),
                           (20, 2, 3, 10), (20, 0, 1, 6), (9, 9, 0, 4)]:
        basis = orthonormal(rng, k0, n)
        if k0 == 0 and rank == 0:     # rank 0 needs a span to lie in
            basis = orthonormal(rng, 2, n)
        cases.append((basis, planted(rng, basis, rank, m, n)))
    # near-ties: duplicated rows, equal residual norms, scaled copies
    basis = orthonormal(rng, 2, 15)
    v = planted(rng, basis, 3, 3, 15)
    cases.append((basis, np.vstack([v, v, 3 * v[::-1]])))
    sym = np.eye(6)
    cases.append((np.empty((0, 6)), np.vstack([sym, sym + sym[::-1]])))
    # a residual of 1e-12 is no new direction, one of 1e-4 is
    base = planted(rng, np.empty((0, 10)), 4, 6, 10)
    cases.append((np.empty((0, 10)),
                  base + 1e-12 * rng.standard_normal(base.shape)))
    cases.append((np.empty((0, 10)),
                  np.vstack([base, base[:2] + 1e-4 * rng.standard_normal(
                      (2, 10))])))
    return cases


@pytest.mark.parametrize("basis, rows", gs_cases())
def test_pivoted_gram_schmidt_matches_pivoted_qr(basis, rows):
    rank, ref = qr_new_directions(basis, rows)
    new, grown = _grow_span(basis, rows)
    assert len(new) == rank
    assert len(set(new.tolist())) == len(new)
    assert grown.shape == ref.shape
    assert np.allclose(grown @ grown.T, np.eye(len(grown)), atol=1e-12)
    assert np.max(np.abs(grown.T @ grown - ref.T @ ref)) < 1e-10
    # the kept rows with the old basis span the grown space
    if rank:
        kept = np.vstack([basis, rows[new]])
        q = np.linalg.qr(kept.T)[0]
        assert np.max(np.abs(q @ q.T - grown.T @ grown)) < 1e-10


def mixed_batch():
    """The Gram-Schmidt cases with, beside each, blocks that take rows in
    another order, in fewer rounds or none: rows permuted, rows of the old
    span only (they add nothing), one row, and the case again."""
    rng = np.random.default_rng(7)
    batch = []
    for basis, rows in gs_cases():
        batch += [(basis, rows), (basis, rows[rng.permutation(len(rows))]),
                  (basis, rows[:1]), (basis, rows[-1:]), (basis, rows)]
        if len(basis):
            batch.append((basis, planted(rng, basis, 0, *rows.shape)))
    return batch


def test_gram_schmidt_matches_reference_loop():
    nothing = one_row = 0
    for basis, rows in mixed_batch():
        new, got = _grow_span(basis, rows)
        bases = {0: basis}
        ref = _new_directions(bases, 0, rows)
        assert new.tolist() == ref.tolist()
        assert got.shape == bases[0].shape
        assert np.max(np.abs(got - bases[0]), initial=0.0) < 1e-12
        nothing += not len(new)
        one_row += len(rows) == 1
    assert nothing and one_row


MARGINAL_MODELS = ["fg2", "fg2_biased", "t3", "ne", "glued", "multi",
                   "twotype", "mixed"]


def n_table_rows(modified):
    """R: the table rows of the original chain and of Q-hat."""
    return len(_pair_table(modified).start) - 1


def test_marginal_basis_sizes(monkeypatch):
    """The basis words of the marginal check's span test: the empty word
    and every kept extension, at most one per table row of the pair
    automaton."""
    count = []

    def counted(basis, rows):
        picks, grown = _grow_span(basis, rows)
        count.append(len(picks))
        return picks, grown
    monkeypatch.setattr(entropy, "_grow_span", counted)
    sizes = {"fg2": (12, 24), "fg2_biased": (12, 24), "t3": (6, 12),
             "ne": (2, 4), "glued": (30, 60), "multi": (1, 8),
             "twotype": (2, 8), "mixed": (3, 8)}
    for name in MARGINAL_MODELS:
        chain = get_chain(name)
        cls = chain.classes[0]
        modified = build_qhat(chain, cls)
        count.clear()
        diff = entropy._span_test(modified)
        words = 1 + sum(count)
        assert (words, n_table_rows(modified)) == sizes[name], name
        assert words <= n_table_rows(modified), name
        assert diff <= 1e-12


@pytest.mark.parametrize("name", MARGINAL_MODELS)
def test_marginal_check_matches_per_symbol_loop(name):
    """The span test and the per-symbol construction both close and both
    find the laws equal; the span test's one basis needs no more words than
    the per-symbol bases hold together (the span of every word's vector is
    the empty word's vector plus the spans of the words ending in each
    symbol)."""
    chain = get_chain(name)
    cls = chain.classes[0]
    modified = build_qhat(chain, cls)
    ref, ref_levels = per_symbol_marginal_check(chain, cls, modified)
    assert ref_levels[-1] == 0
    levels = []
    stack = CSR.stack

    def counted(parts):
        levels.append(sum(p.n_rows for p in parts))
        return stack(parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CSR, "stack", counted)
        found = entropy._span_test(modified)
    assert levels[-1] == 0
    assert 1 + sum(levels) <= 1 + sum(ref_levels)
    assert found < 1e-12 and ref < 1e-12


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
    weights = rng.standard_normal(n_rows)
    assert np.allclose(succ.sums(), np.asarray(ref.sum(axis=1)).ravel(),
                       rtol=1e-15, atol=0)
    assert np.allclose(succ.sums(weights), ref @ weights, rtol=1e-12,
                       atol=1e-300)
    if succ.n_rows:
        # row selection and stacking move values without arithmetic
        same = csr_matrix((succ.data, succ.indices, succ.indptr), ref.shape)
        pick = rng.integers(0, succ.n_rows, 2 * succ.n_rows)
        mask = rng.random(succ.n_rows) < 0.5
        for rows in (pick, mask, slice(1, None, 2)):
            assert (dense(succ.take(rows)).tolist()
                    == same[rows].toarray().tolist())
        both = CSR.stack([succ.take(pick), succ.take(mask)])
        assert dense(both).tolist() == vstack(
            [same[pick], same[mask]]).toarray().tolist()


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
