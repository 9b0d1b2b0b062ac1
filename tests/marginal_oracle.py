"""References for the marginal check: the hidden-symbol laws of the original
chain and of Q-hat, enumerated sequence by sequence up to a fixed length
with one dict per forward vector; and the forward-span construction on the
pair automaton with one basis per symbol, its span test run one symbol at a
time."""
import numpy as np

from rlentropy.entropy import (CSR, SPAN_CHUNK, SPAN_RTOL, _extend,
                               _pair_table, _row)


def row_transitions(step):
    """Per table row: {symbol id: [(target row, prob), ...]}."""
    out = []
    for r in range(len(step.start) - 1):
        by_symbol = {}
        for e in range(step.start[r], step.start[r + 1]):
            by_symbol.setdefault(int(step.sym[e]), []).append(
                (int(step.tgt[e]), float(step.prob[e])))
        out.append(by_symbol)
    return out


def enumerated_marginal_diff(chain, cls, modified, max_len=3):
    """Maximum |P(w) - P-hat(w)| over every hidden-symbol sequence w of
    length 1..max_len with positive probability under either chain, both
    started from the first-state law."""
    mu1 = modified.hidden.mu1 / modified.hidden.mu1.sum()

    def laws(step):
        trans, out = row_transitions(step), {}
        frontier = [((), {i: m for i, m in enumerate(mu1) if m > 0})]
        for _ in range(max_len):
            nxt = []
            for seq, vec in frontier:
                succ = {}
                for idx, mass in vec.items():
                    for sym, targets in trans[idx].items():
                        d = succ.setdefault(sym, {})
                        for j, p in targets:
                            d[j] = d.get(j, 0.0) + mass * p
                for sym, d in succ.items():
                    p = sum(d.values())
                    if p > 0:
                        out[seq + (sym,)] = p
                        nxt.append((seq + (sym,), d))
            frontier = nxt
        return out

    a = laws(modified.hidden.step)
    b = laws(modified.step)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def _dense_rows(succ, a, b, cols):
    """Rows a..b-1 of a CSR matrix as a dense array over the sorted columns
    ``cols``, which hold all their nonzeros."""
    lo, hi = succ.indptr[a], succ.indptr[b]
    out = np.zeros((b - a, len(cols)))
    rows = np.repeat(np.arange(b - a), np.diff(succ.indptr[a:b + 1]))
    out[rows, np.searchsorted(cols, succ.indices[lo:hi])] = succ.data[lo:hi]
    return out


def _new_directions(bases, s, rows):
    """Positions of the rows whose residual off the span of ``bases[s]``,
    relative to their norm, exceeds SPAN_RTOL; ``bases[s]`` (orthonormal
    rows) grows to span them: column-pivoted Gram-Schmidt projects the row
    of largest residual out of all rows, twice, until no residual exceeds
    SPAN_RTOL."""
    x = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    basis = bases.get(s, np.empty((0, rows.shape[1])))
    for _ in range(2):                 # project out the basis, then again
        x -= (x @ basis.T) @ basis
    new, found = [], []
    norms = np.linalg.norm(x, axis=1)
    while norms.max() > SPAN_RTOL:
        new.append(int(np.argmax(norms)))
        found.append(x[new[-1]] / norms[new[-1]])
        for _ in range(2):
            x -= np.outer(x @ found[-1], found[-1])
        norms = np.linalg.norm(x, axis=1)
    if new:
        bases[s] = np.vstack([basis, *found])
    return np.array(new, dtype=np.int64)


def per_symbol_marginal_check(chain, cls, modified, max_len=None):
    """The forward-span construction with one basis per symbol: the vector
    of w is (mu1 M_w, mu1 N_w) over the rows of the pair automaton, and an
    extension by s joins the basis of the words ending in s when it leaves
    that basis's span.  Returns the worst |P(w) - P-hat(w)| and the number
    of basis words kept at each level, the last level keeping none when run
    to closure."""
    pair = _pair_table(modified)
    n = len(modified.hidden.states)
    sym, col = np.divmod(np.unique(pair.sym * 2 * n + pair.tgt), 2 * n)
    columns = np.split(col, np.searchsorted(sym, np.arange(1, sym[-1] + 1)))
    mu1 = modified.hidden.mu1 / modified.hidden.mu1.sum()
    frontier = _row(np.r_[mu1, mu1])
    bases = {}
    worst, levels = 0.0, []
    while frontier.n_rows and (max_len is None or len(levels) < max_len):
        kept = []
        for a in range(0, frontier.n_rows, SPAN_CHUNK):
            succ, sym, _ = _extend(frontier.take(slice(a, a + SPAN_CHUNK)),
                                   pair)
            order = np.argsort(sym, kind="stable")
            succ, sym = succ.take(order), sym[order]
            diff = succ.sums(np.r_[np.ones(n), -np.ones(n)])
            worst = max(worst, float(np.abs(diff).max(initial=0.0)))
            starts = np.flatnonzero(np.diff(sym, prepend=-1))
            new = [b + _new_directions(bases, sym[b], _dense_rows(
                       succ, b, e, columns[sym[b]]))
                   for b, e in zip(starts, np.r_[starts[1:], len(sym)])]
            kept.append(succ.take(np.concatenate([np.empty(0, np.int64),
                                                  *new])))
        frontier = CSR.stack(kept)
        levels.append(frontier.n_rows)
    return worst, levels
