"""Hidden-chain entropy: two-sided bounds, the telescoped closed form for
classes whose cone types all have a single boundary suffix, the
positive-entry modified chain with its marginal-equality check, and
assembly of the final report.

A step of the enriched last-entry chain depends on a state only through its
two-letter suffix, so the chain lumps exactly onto its suffix rows (strong
lumpability: Kemeny & Snell, Finite Markov Chains, 6.3).  Every chain here
is a step table over those rows: the rows are the states of the hidden
layer, and forward vectors hold one mass per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import AssumptionError
from .cones import limit_words
from .genfun import DEFAULT_TOL, RECURRENCE_XI_TOL
from .lastentry import first_seen, ranges, unique

SANDWICH_BUDGET = 5_000_000
INEQ_SLACK = 1e-9
SPAN_RTOL = 1e-9      # marginal check: relative residual of a new direction
SPAN_CHUNK = 512      # marginal check: basis words extended at a time


# -- the hidden chain, on its table rows ---------------------------------------

@dataclass
class StepTable:
    """One step of a chain over table rows: the entries (symbol id, target
    row, probability) of row r are ``sym``, ``tgt`` and ``prob`` from
    ``start[r]`` to ``start[r + 1]``."""
    start: np.ndarray
    sym: np.ndarray
    tgt: np.ndarray
    prob: np.ndarray


@dataclass
class CSR:
    """Sparse rows over ``n_cols`` columns: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the columns ``indices[...]``."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @classmethod
    def stack(cls, parts):
        """The rows of ``parts``, one matrix after another."""
        lens = np.concatenate([np.diff(p.indptr) for p in parts])
        return cls(np.r_[0, np.cumsum(lens)],
                   np.concatenate([p.indices for p in parts]),
                   np.concatenate([p.data for p in parts]), parts[0].n_cols)

    @property
    def n_rows(self):
        return len(self.indptr) - 1

    def row_ids(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def take(self, rows):
        """The rows named by ``rows`` (positions, a mask or a slice)."""
        rows = np.arange(self.n_rows)[rows]
        lens = self.indptr[rows + 1] - self.indptr[rows]
        pos = ranges(self.indptr[rows], lens)
        return CSR(np.r_[0, np.cumsum(lens)], self.indices[pos],
                   self.data[pos], self.n_cols)

    def dense(self):
        """The rows as a dense array."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids(), self.indices] = self.data
        return out

    def sums(self, weights=None):
        """Each row's sum, its entries weighted by ``weights`` at their
        columns; entries are added in order, as a CSR mat-vec does."""
        w = self.data if weights is None else self.data * weights[self.indices]
        return np.bincount(self.row_ids(), weights=w, minlength=self.n_rows)


def _row(v):
    """A dense vector as a one-row CSR of its nonzero entries."""
    nz = np.flatnonzero(v)
    return CSR(np.array([0, len(nz)]), nz, v[nz], len(v))


def _extend(frontier, step):
    """Every nonzero successor of every frontier row, one per (row, symbol).

    A frontier row is the forward vector of one word over the table rows
    (CSR); the mass of each of its entries spreads over that table row's
    entries.  Returns the successors as the rows of one CSR, ordered by
    parent row and then by symbol, with the symbol and the parent row of
    each."""
    n_sym = int(step.sym.max()) + 1
    row = frontier.indices
    lens = step.start[row + 1] - step.start[row]
    entry = ranges(step.start[row], lens)
    val = np.repeat(frontier.data, lens) * step.prob[entry]
    keep = val != 0                   # products that underflowed
    entry = entry[keep]
    # one sort by (word, symbol, target); entries that meet are summed
    key, inv = unique((np.repeat(frontier.row_ids(), lens)[keep] * n_sym
                       + step.sym[entry]) * frontier.n_cols
                      + step.tgt[entry], return_inverse=True)
    key, col = np.divmod(key, frontier.n_cols)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    succ = CSR(np.r_[first, len(key)], col, np.bincount(inv, weights=val[keep]),
               frontier.n_cols)
    parent, sym = np.divmod(key[first], n_sym)
    return succ, sym, parent


class HiddenChain:
    """The enriched last-entry chain of one essential class, on its table
    rows: ``states`` lists the class's two-letter suffixes, one row each.
    The row of a suffix of type i enters the covering of type i, so its
    entry into a word y of type i's slot table fills y's slot: it emits the
    hidden symbol (i, slot type, local index) and moves to the row of y's
    suffix.  ``step`` holds these entries and ``symbols[k]`` is the symbol
    with id k (in order of first emission).  ``nu`` is the class's
    stationary law on its rows and ``mu1`` its part of the first-state law
    (not normalised), summed per row."""

    def __init__(self, chain, cls):
        self.states = cls.rows
        row_id = {sfx: r for r, sfx in enumerate(self.states)}
        rows = [chain.suffix_rows[sfx] for sfx in self.states]
        atlas, index = chain.atlas, chain.gf.gbar.index
        row_of = np.zeros(len(index), dtype=np.intp)     # suffix id -> row
        row_of[[index[sfx] for sfx in self.states]] = np.arange(len(rows))
        n_t = len(atlas.types)
        n_k = 1 + max(int(r.table.local.max(initial=0)) for r in rows)
        code, tgt = zip(*[
            ((atlas.type_of[sfx] * n_t + r.table.slot_type[r.at]) * n_k
             + r.table.local[r.at], row_of[r.table.sfx[r.at]])
            for sfx, r in zip(self.states, rows)])
        code = np.concatenate(code)
        first, sym = first_seen(code)
        self.step = StepTable(np.cumsum([0] + [len(r.at) for r in rows]),
                              sym, np.concatenate(tgt),
                              np.concatenate([r.probs for r in rows]))
        self.symbols = list(zip(*(c.tolist() for c in np.unravel_index(
            code[first], (n_t, n_t, n_k)))))
        self.nu = cls.pi
        self.mu1 = np.zeros(len(self.states))
        for (t, sfx), m in chain.mu1.items():
            if t in cls.types and sfx in row_id:
                self.mu1[row_id[sfx]] += m


# -- sandwich bounds -----------------------------------------------------------

@dataclass
class EntropyBounds:
    uppers: list
    lowers: list
    n_final: int
    gap: float
    value: float                  # midpoint of the final bounds
    converged: bool
    monte_carlo: bool = False
    std_error: float | None = None
    exact_gap: float | None = None    # Monte Carlo: last exact level's gap
    beliefs: int = 0              # distinct beliefs expanded
    spent: int = 0                # expansions counted against the budget


def sandwich_bounds(hidden, n_max=16, gap_tol=1e-6, budget=SANDWICH_BUDGET,
                    mc_samples=20000, seed=7):
    """Two-sided conditional-entropy bounds on the hidden-chain entropy rate.

    The upper bound conditions on the visible history, the lower bound
    additionally on the initial state, through its table row (Birch, 1962);
    both are exact sums on the belief chain (Blackwell, 1957), stopping
    once the gap closes below ``gap_tol`` or at ``n_max`` (at least 2: the
    first bounds are those of the second symbol).  A word's future depends
    only on its forward vector over the table rows, normalised, so each
    distinct such belief is expanded once.  The budget counts, per belief expanded,
    the symbols out of its nonzero table rows; past it a stationary Monte
    Carlo estimator substitutes, with standard errors and the gap of the
    last exact level (None when there is none).
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    step = hidden.step
    n_rows = len(step.start) - 1
    # symbols per table row: its distinct (row, symbol) keys
    n_sym = int(step.sym.max()) + 1
    entry_row = np.repeat(np.arange(n_rows), np.diff(step.start))
    n_symbols = np.bincount(unique(entry_row * n_sym + step.sym) // n_sym,
                            minlength=n_rows)
    # a belief's code is its column if it is a unit vector, else n_rows plus
    # its number in ``keys`` (by its bytes); ``ids`` maps codes to ids
    keys, ids, beliefs, h, edges, spent = {}, {}, [], {}, [], 0

    def ids_of(rows):
        """The belief ids of the rows of the CSR ``rows``, new ones numbered
        in the order they first appear."""
        code = rows.indices[rows.indptr[:-1]]
        multi = np.flatnonzero(np.diff(rows.indptr) > 1)
        code[multi] = n_rows + np.array([keys.setdefault(
            v.tobytes(), len(keys)) for v in rows.take(multi).dense()],
            dtype=np.int64)
        first, inv = first_seen(code)
        n = len(ids)
        found = np.array([ids.setdefault(c, len(ids))
                          for c in code[first].tolist()], dtype=np.int64)
        beliefs.extend(rows.take(first[found >= n]).dense())
        return found[inv]

    def expand(new):
        """Record the next-symbol entropy and the out-edges of ``new``."""
        nonlocal spent
        dense = np.array([beliefs[b] for b in new.tolist()]).reshape(-1, n_rows)
        r, c = np.nonzero(dense)
        spent += int(n_symbols[c].sum())
        succ, _, parent = _extend(CSR(np.searchsorted(r, np.arange(
            len(new) + 1)), c, dense[r, c], n_rows), step)
        q = succ.sums()
        succ.data = succ.data / q[succ.row_ids()]
        edges.append((new[parent], ids_of(succ), q))
        h.update(zip(new.tolist(), -np.bincount(parent, q * np.log(q))))

    # the upper side starts from nu's belief, expanded once; the lower one
    # from each table row's unit belief, weighted by nu's mass on that row
    mass = hidden.nu
    live = np.flatnonzero(mass)
    low = ids_of(CSR(np.arange(len(live) + 1), live, np.ones(len(live)),
                     n_rows))
    expand(ids_of(_row(mass / mass.sum())))
    w = np.array([np.bincount(edges[0][1], mass.sum() * edges[0][2],
                              len(ids)),
                  np.bincount(low, mass[live], len(ids))])
    uppers, lowers, n = [], [], 1
    while n < n_max:
        n += 1
        if spent > budget:
            mc = _sandwich_mc(hidden, n, gap_tol, mc_samples, seed)
            mc.exact_gap = uppers[-1] - lowers[-1] if uppers else None
            mc.beliefs, mc.spent = len(h), spent
            return mc
        live = np.flatnonzero(w.any(axis=0))
        expand(live[[b not in h for b in live]])
        up, lo = w[:, live] @ [h[b] for b in live]
        uppers.append(float(up))
        lowers.append(float(lo))
        if uppers[-1] - lowers[-1] < gap_tol:
            break
        parent, child, q = map(np.concatenate, zip(*edges))
        w = np.bincount(np.r_[child, child + len(ids)], (w[:, parent] * q)
                        .ravel(), 2 * len(ids)).reshape(2, -1)

    gap = uppers[-1] - lowers[-1]
    return EntropyBounds(uppers, lowers, n, gap, (uppers[-1] + lowers[-1]) / 2,
                         gap < gap_tol, beliefs=len(h), spent=spent)


def _sandwich_mc(hidden, n, gap_tol, samples, seed):
    """Monte Carlo estimates of the two conditional entropies at depth n.

    Row trajectories of the hidden chain are sampled from stationarity with
    a counter-based generator, all samples one step at a time (an entry of
    each sample's row by inversion of the cumulated probabilities); the
    per-sample conditional probabilities are evaluated exactly by
    filtering, all samples at once."""
    step = hidden.step
    rng = np.random.Generator(np.random.Philox(key=seed))
    nu = hidden.nu / hidden.nu.sum()
    cum = np.r_[0.0, np.cumsum(step.prob)]
    row = rng.choice(len(nu), size=samples, p=nu)
    syms, visited = np.empty((samples, n), dtype=np.int64), []
    for i in range(n):
        a, b = step.start[row], step.start[row + 1]
        u = cum[a] + rng.random(samples) * (cum[b] - cum[a])
        e = np.minimum(np.searchsorted(cum, u, side="right") - 1, b - 1)
        syms[:, i], row = step.sym[e], step.tgt[e]
        visited.append(row)

    # every sample starts from nu: filter its first symbol once for all
    first, sym, _ = _extend(_row(nu), step)
    up_vals = _surprise(step, first.take(np.searchsorted(sym, syms[:, 0])),
                        syms[:, 1:])
    low_vals = _surprise(step, CSR(np.arange(samples + 1), visited[0],
                                   np.ones(samples), len(nu)), syms[:, 1:])
    up, low = float(np.mean(up_vals)), float(np.mean(low_vals))
    se = float(np.sqrt(np.var(up_vals) / samples + np.var(low_vals) / samples))
    return EntropyBounds([up], [low], n, up - low, 0.5 * (up + low),
                         converged=(up - low < gap_tol), monte_carlo=True,
                         std_error=se)


def _surprise(step, frontier, syms):
    """-log P(last symbol | earlier symbols) for every frontier row, each
    filtered along its own row of ``syms``."""
    for k in range(syms.shape[1]):
        before = frontier.sums()
        succ, sym, parent = _extend(frontier, step)
        frontier = succ.take(sym == syms[parent, k])
    return -np.log(frontier.sums() / before)


# -- telescoped regeneration value ---------------------------------------------

@dataclass
class ExactEntropy:
    value: float
    truncation_bound: float
    suffix: str
    method: str


def unambiguous_exact(chain, cls):
    """Entropy rate through regeneration at single-boundary cone types.

    When every type of the class has a one-word boundary, block weights and
    their coarsened versions coincide and the regeneration sum telescopes to
    the Markov entropy rate of the increment chain: the class's stationary
    mass per suffix times the entropy of that suffix's row (closed form,
    zero truncation error).  Otherwise there is no exact value and
    AssumptionError is raised.
    """
    boundaries = [chain.atlas.types[t].boundary_suffixes
                  for t in sorted(cls.types)]
    if any(len(b) != 1 for b in boundaries):
        raise AssumptionError("regeneration sum does not telescope: a type "
                              "has several boundary suffixes")
    hy = 0.0
    for sfx, m in zip(cls.rows, cls.pi.tolist()):
        p = chain.suffix_rows[sfx].probs
        hy -= m * float(np.sum(p * np.log(p)))
    return ExactEntropy(hy, 0.0, boundaries[0][0], "telescoped")


# -- modified positive-entry chain ----------------------------------------------

@dataclass
class ModifiedChain:
    hidden: HiddenChain
    step: StepTable     # Q-hat summed per (row, symbol id, target row)
    counts: np.ndarray  # per entry: its fold count (0 but on first slots)


def build_qhat(chain, cls):
    """Q-hat's step table on the rows of the hidden chain, summed per (row,
    symbol id, target row).  A row of type i keeps q on the targets of its
    own covering, except that it splits the mass of each own first slot
    evenly with the ``count`` slots of the same type in the other
    coverings: every target state with that slot type and suffix in a
    foreign covering takes one part and emits the symbol of the own first
    slot.  All parts share that entry's symbol and target row, so the
    entry holds (targets folded onto it + 1) parts of q / (count + 1); the
    targets are counted per (covering, slot type, suffix), and no entry
    per target state is made."""
    hidden = HiddenChain(chain, cls)
    atlas, index = chain.atlas, chain.gf.gbar.index
    types = sorted(cls.types)
    tables = [chain.slot_tables[m] for m in types]
    n, n_t = len(index), len(atlas.types)
    # slots of each type in the covering of each class type, and elsewhere
    n_slots = np.array([np.bincount([s.type_id for s in atlas.coverings[m]
                                     .slots], minlength=n_t) for m in types])
    others = n_slots.sum(axis=0) - n_slots

    # the target states (words ending in a class row) per covering, key
    # (slot type, suffix id) and first slot or not, counted in one bincount
    row_sfx = np.array([index[sfx] for sfx in hidden.states], dtype=np.intp)
    row_of = np.full(n, -1)
    row_of[row_sfx] = np.arange(len(row_sfx))
    cov = np.repeat(np.arange(len(types)), [len(t.words) for t in tables])
    sfx, slot_type, local = (np.concatenate([getattr(t, c) for t in tables])
                             for c in ("sfx", "slot_type", "local"))
    inside = row_of[sfx] >= 0
    codes, key = unique((slot_type * n + sfx)[inside], return_inverse=True)
    held = np.bincount((cov[inside] * 2 + (local[inside] == 1)) * len(codes)
                       + key, minlength=2 * len(types) * len(codes)
                       ).reshape(len(types), 2, -1)
    foreign = held.sum(axis=(0, 1)) - held.sum(axis=1)
    missing = (foreign > 0) & (n_slots[:, codes // n] > 0) & (held[:, 1] == 0)
    if missing.any():
        a, k = np.argwhere(missing)[0]
        raise AssumptionError(
            "no first slot of type {} with boundary {} in the covering of "
            "type {}".format(codes[k] // n, chain.gf.gbar.rpairs[codes[k] % n],
                             types[a]))

    # each entry of the hidden chain: its row's covering, slot type, slot
    # index and key; a first slot takes its folded parts
    step = hidden.step
    i, j, k = np.array(hidden.symbols).reshape(-1, 3)[step.sym].T
    a = np.searchsorted(types, i)
    at = np.searchsorted(codes, j * n + row_sfx[step.tgt])
    counts = np.where(k == 1, others[a, j], 0)
    prob = np.where(k == 1, step.prob / (counts + 1) * (foreign[a, at] + 1),
                    step.prob)
    rows = np.repeat(np.arange(len(hidden.states)), np.diff(step.start))
    sums = np.bincount(rows, prob, minlength=len(hidden.states))
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if len(bad):
        raise AssumptionError(f"modified row for suffix "
                              f"{hidden.states[bad[0]]!r} sums to "
                              f"{float(sums[bad[0]])!r}, not 1 +- 1e-12")
    return ModifiedChain(hidden, StepTable(step.start, step.sym, step.tgt,
                                           prob), counts)


def _pair_table(modified):
    """The step table of the pair automaton: the hidden chain's rows
    0..R-1 beside Q-hat's rows R..2R-1, with one symbol numbering."""
    m, q = modified.hidden.step, modified.step
    return StepTable(np.r_[m.start, q.start[1:] + m.start[-1]],
                     np.r_[m.sym, q.sym],
                     np.r_[m.tgt, q.tgt + len(m.start) - 1],
                     np.r_[m.prob, q.prob])


def _grow_span(basis, rows):
    """Column-pivoted Gram-Schmidt (Businger & Golub, Numer. Math. 7, 1965)
    of ``rows`` against the orthonormal rows ``basis``: once the basis is
    projected out of the normalised rows twice, the largest residual joins
    the basis and is projected out twice, while it exceeds SPAN_RTOL.
    Returns the positions of the rows taken, in order, and the grown
    basis."""
    x = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    for _ in range(2):                 # project out the basis, then again
        x -= (x @ basis.T) @ basis
    norms, picks, found = np.linalg.norm(x, axis=1), [], [basis]
    while norms.max(initial=0.0) > SPAN_RTOL:
        picks.append(int(norms.argmax()))
        found.append(x[picks[-1]] / norms[picks[-1]])
        for _ in range(2):
            x -= np.outer(x @ found[-1], found[-1])
        norms = np.linalg.norm(x, axis=1)
    return np.array(picks, dtype=np.int64), np.vstack(found)


def check_marginal_equality(chain, cls, modified, max_len=None):
    """Distance between the hidden-symbol laws of the original chain and of
    Q-hat, both started from the first-state law.

    When Q-hat's summed table has the hidden chain's rows, symbols and
    target rows, and each entry lies within (count + 1) u q of the hidden
    chain's q (u = 2^-53 the unit roundoff, count the entry's fold count:
    the split and the sum of its parts each round once), the two are one
    automaton up to rounding and their laws agree on every word.
    The result is then the largest L1 difference of a row: the laws of
    length-n words differ by at most n times it in L1.  Otherwise the span
    test ``_span_test`` decides, with ``max_len``."""
    mu1 = modified.hidden.mu1
    if not mu1.sum() > 0:
        raise AssumptionError("first-state law has no mass in this class")
    m, q = modified.hidden.step, modified.step
    if all(np.array_equal(getattr(m, f), getattr(q, f))
           for f in ("start", "sym", "tgt")):
        diff = np.abs(q.prob - m.prob)
        if np.all(diff <= (modified.counts + 1) * 2.0 ** -53 * m.prob):
            rows = np.repeat(np.arange(len(m.start) - 1), np.diff(m.start))
            return float(np.bincount(rows, diff).max(initial=0.0))
    return _span_test(modified, max_len)


def _span_test(modified, max_len=None):
    """Largest |P(w) - P-hat(w)| over the basis words of a breadth-first
    forward-span construction on the pair automaton (Tzeng, SIAM J.
    Comput. 21, 1992) and their one-symbol extensions.  The pair automaton
    runs on table rows: the vector of w holds the mass of mu1 M_w on each
    row of the hidden chain and of mu1 N_w on each row of Q-hat, and P(w) -
    P-hat(w) is its signed sum.  The empty word's vector starts the basis.
    Each level extends the newest basis words by every symbol, SPAN_CHUNK
    words at a time, and keeps the extensions that leave the span of the
    basis (relative residual above SPAN_RTOL after projecting the span out
    twice).  Once a level keeps nothing the span is closed under every
    symbol, so the laws agree at every length iff they agree on the basis
    words.  ``max_len=None`` runs to closure; an integer stops after words
    of that length."""
    pair = _pair_table(modified)
    mu1 = modified.hidden.mu1
    start = np.r_[mu1, mu1] / mu1.sum()
    sign = np.repeat([1.0, -1.0], len(mu1))
    basis, frontier = start[None] / np.linalg.norm(start), _row(start)
    worst, depth = 0.0, 0
    while frontier.n_rows and (max_len is None or depth < max_len):
        depth += 1
        kept = []
        for a in range(0, frontier.n_rows, SPAN_CHUNK):
            succ, _, _ = _extend(frontier.take(slice(a, a + SPAN_CHUNK)), pair)
            diff = succ.sums(sign)                    # P(w) - P-hat(w)
            worst = max(worst, float(np.abs(diff).max(initial=0.0)))
            picks, basis = _grow_span(basis, succ.dense())
            kept.append(succ.take(picks))
        frontier = CSR.stack(kept)
    return worst


# -- report ---------------------------------------------------------------------

@dataclass
class ClassReport:
    weight: float
    expanding: bool
    lambda_: float
    ell: float | None
    hy: float | None
    hy_gap: float | None
    hy_n: int | None
    hy_exact: float | None
    h: float


@dataclass
class EntropyReport:
    transient: bool
    expanding: bool
    method: str
    ell: float | None
    lambda_: float | None
    hy: float | None
    hy_gap: float | None
    hy_n: int | None
    h: float
    inequality_ok: bool
    sign_ok: bool
    limit_words: list | None = None
    classes: list = field(default_factory=list)
    marginal_check: float | None = None
    notes: list = field(default_factory=list)


def assemble_report(model, gf, atlas=None, chain=None, n_max=16, gap_tol=1e-6,
                    budget=SANDWICH_BUDGET, check_marginals=False):
    """Route the computed structure to the final entropy value.

    Recurrent models short-circuit to zero; transient non-expanding models
    are zero with their deterministic limit words attached; otherwise the
    entropy combines drift, mean level gain and hidden-chain entropy rate,
    per essential class when the increment chain is reducible.
    """
    xi_vals = list(gf.xi.values())
    if not gf.transient:
        if max(xi_vals) > 1e-6:
            raise AssumptionError(
                "some but not all escape probabilities vanish: the walk has "
                "trapping cones and the escape condition fails")
        return EntropyReport(False, False, "recurrent-zero", 0.0, None, None,
                             None, None, 0.0, True, True)

    if atlas is None or chain is None:
        raise ValueError("transient models need the atlas and the chain")

    if not atlas.expanding:
        lw = limit_words(model, atlas)
        rep = EntropyReport(True, False, "non-expanding-zero", chain.ell,
                            chain.lambda_, 0.0, 0.0, None, 0.0, True, True,
                            limit_words=lw)
        _finalize_checks(rep, model)
        return rep

    classes, notes = [], []
    h_total = 0.0
    marginal = None
    for cls in chain.classes:
        expanding = any(atlas.expanding_types[t] for t in cls.types)
        if not expanding:
            classes.append(ClassReport(cls.weight, False, cls.lambda_,
                                       cls.ell, 0.0, 0.0, None, None, 0.0))
            continue
        # the checked class's hidden chain comes with its Q-hat
        checked = check_marginals and marginal is None
        modified = build_qhat(chain, cls) if checked else None
        hidden = modified.hidden if checked else HiddenChain(chain, cls)
        bounds = sandwich_bounds(hidden, n_max=n_max, gap_tol=gap_tol,
                                 budget=budget)
        if bounds.monte_carlo:
            # the depth bias is left out; the last exact level bounds it
            exact = ("no exact level" if bounds.exact_gap is None else
                     f"gap {bounds.exact_gap:.3g} at the last exact level, "
                     f"depth {bounds.n_final - 1}")
            notes.append(
                f"class {cls.index}: expansion budget exceeded; the hidden "
                f"entropy rate is a Monte Carlo estimate at depth "
                f"{bounds.n_final}, standard error {bounds.std_error:.3g} "
                f"(sampling error only; {exact})")
        elif not bounds.converged:
            notes.append(
                f"class {cls.index}: sandwich not converged at depth "
                f"{bounds.n_final}, gap {bounds.gap:.3g} > {gap_tol:g}")
        try:
            hy_exact = unambiguous_exact(chain, cls).value
        except AssumptionError:
            hy_exact = None
        if cls.ell is None:
            raise AssumptionError(
                "drift unavailable (critical derivative system); cannot "
                "assemble the entropy")
        h_cls = cls.ell * bounds.value / cls.lambda_
        classes.append(ClassReport(cls.weight, True, cls.lambda_, cls.ell,
                                   bounds.value, bounds.gap, bounds.n_final,
                                   hy_exact, h_cls))
        h_total += cls.weight * h_cls
        if checked:
            marginal = check_marginal_equality(chain, cls, modified)

    if len(classes) == 1:
        c = classes[0]
        method = "unambiguous" if c.hy_exact is not None else "sandwich"
        rep = EntropyReport(True, True, method, chain.ell, chain.lambda_,
                            c.hy, c.hy_gap, c.hy_n, h_total, True, True,
                            classes=classes, marginal_check=marginal,
                            notes=notes)
    else:
        rep = EntropyReport(True, True, "class-weighted", chain.ell,
                            chain.lambda_, None, None, None, h_total, True,
                            True, classes=classes, marginal_check=marginal,
                            notes=notes)
    _finalize_checks(rep, model)
    return rep


def _finalize_checks(rep, model):
    bound = (rep.ell or 0.0) * math.log(len(model.alphabet)) + INEQ_SLACK
    rep.inequality_ok = rep.h <= bound
    if rep.transient:
        rep.sign_ok = (rep.h > 0) == rep.expanding
    else:
        rep.sign_ok = rep.h == 0.0
    if not rep.inequality_ok:
        rep.notes.append("entropy-drift-growth inequality violated")
    if not rep.sign_ok:
        rep.notes.append("positivity/expansion mismatch")


# -- continuity sweep ------------------------------------------------------------

def interpolate_models(model_a, model_b, t):
    """Convex combination of two same-support rule tables."""
    rules_a = {(r.lhs, r.rhs): r.prob for r in model_a.all_rules()}
    rules_b = {(r.lhs, r.rhs): r.prob for r in model_b.all_rules()}
    if set(rules_a) != set(rules_b) or model_a.alphabet != model_b.alphabet:
        raise ValueError("models do not share supports")
    mixed = [(lhs, rhs, (1 - t) * rules_a[k] + t * rules_b[k])
             for k in rules_a for lhs, rhs in [k]]
    return model_a.with_rules(mixed)


def continuity_sweep(model_a, model_b, grid=11, n_max=16, gap_tol=1e-6,
                     tol=DEFAULT_TOL, xi_tol=RECURRENCE_XI_TOL):
    """Entropy along the segment between two same-support models, with
    finite-difference smoothness diagnostics (no analyticity claim)."""
    from . import pipeline
    rows = []
    for k in range(grid):
        t = k / (grid - 1) if grid > 1 else 0.0
        m = interpolate_models(model_a, model_b, t)
        try:
            res = pipeline.analyze(m, n_max=n_max, gap_tol=gap_tol, tol=tol,
                                   xi_tol=xi_tol)
            rep = res.report
            rows.append({"t": t, "ell": rep.ell, "hy": rep.hy, "h": rep.h,
                         "skipped": False})
        except AssumptionError as exc:
            rows.append({"t": t, "ell": None, "hy": None, "h": None,
                         "skipped": True, "reason": str(exc)})
    hs = [r["h"] for r in rows if not r["skipped"]]
    d1 = [b - a for a, b in zip(hs, hs[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    return {"rows": rows, "first_differences": d1, "second_differences": d2}
