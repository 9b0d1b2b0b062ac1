"""Hidden-chain entropy: two-sided bounds, the exact regeneration formula
for single-boundary types, the positive-entry modified chain with its
marginal-equality check, and assembly of the final report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.sparse import csr_matrix

from .model import AssumptionError
from .cones import limit_words

LOG = math.log

SANDWICH_BUDGET = 5_000_000
INEQ_SLACK = 1e-9
SPAN_RTOL = 1e-9      # marginal check: relative residual of a new direction


# -- the enriched state space -------------------------------------------------

@dataclass(frozen=True)
class WState:
    source_type: int      # type of the cone whose covering was entered
    slot_type: int
    slot_index: int
    word: str


def hidden_symbol(atlas, prev_state, next_state):
    """Project one transition of the enriched chain to its hidden symbol
    (current cone type, entered slot); entries into slots of foreign
    coverings fold onto the local first slot of the same type."""
    i = atlas.type_of[prev_state.word[-2:]]
    if next_state.source_type == i:
        return (i, next_state.slot_type, next_state.slot_index)
    return (i, next_state.slot_type, 1)


class HiddenChain:
    """Enriched last-entry chain of one essential class: states carry the
    slot through which each increment's cone was entered, transitions are
    grouped by emitted hidden symbol."""

    def __init__(self, chain, cls):
        self.chain = chain
        self.cls = cls
        self.atlas = atlas = chain.atlas
        class_words = {chain.states[i] for i in cls.state_ids}
        self.nu0 = {chain.states[i]: cls.nu0[a]
                    for a, i in enumerate(cls.state_ids)}

        self.states = []
        self.index = {}
        for m in sorted(cls.types):
            for slot in atlas.coverings[m].slots:
                for w in atlas.boundary_words(slot):
                    if w in class_words:
                        st = WState(m, slot.type_id, slot.local_index, w)
                        self.index[st] = len(self.states)
                        self.states.append(st)

        # A step depends on a state only through its two-letter suffix, so
        # each suffix's row is built once and shared by the states ending in it
        targets = {}          # suffix -> [(target idx, prob), ...]
        for sfx in {w[-2:] for w in class_words}:
            i, row = atlas.type_of[sfx], chain.suffix_rows[sfx]
            slots = [chain.slot_of[(i, y)] for y in row.targets]
            targets[sfx] = [
                (self.index[WState(i, s.type_id, s.local_index, y)], float(p))
                for s, y, p in zip(slots, row.targets, row.probs)]
        shared = {}
        for st in self.states:
            if st.word[-2:] not in shared:
                by_symbol = shared[st.word[-2:]] = {}
                for k, p in targets[st.word[-2:]]:
                    sym = hidden_symbol(atlas, st, self.states[k])
                    by_symbol.setdefault(sym, []).append((k, p))
        # per state: {symbol: [(target idx, prob), ...]}
        self.trans = [shared[st.word[-2:]] for st in self.states]
        self.nu = np.zeros(len(self.states))
        for w, mass in self.nu0.items():
            for k, p in targets[w[-2:]]:
                self.nu[k] += mass * p
        self.symbols = sorted({s for t in shared.values() for s in t})

    def initial_mu1(self):
        """Law of the first enriched state restricted to this class."""
        mu = np.zeros(len(self.states))
        for (m, slot, word), mass in self.chain.mu1_w.items():
            st = WState(m, slot[0], slot[1], word)
            if st in self.index:
                mu[self.index[st]] += mass
        s = mu.sum()
        if s <= 0:
            raise AssumptionError("first-state law has no mass in this class")
        return mu / s


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

    @property
    def lower(self):
        return self.lowers[-1]

    @property
    def upper(self):
        return self.uppers[-1]


def _step_vectors(hidden, vectors, budget_state):
    """Expand each forward vector over one hidden symbol, pruning zeros."""
    out = []
    for vec in vectors:
        succ = {}
        for idx, mass in vec.items():
            for sym, targets in hidden.trans[idx].items():
                d = succ.setdefault(sym, {})
                for j, p in targets:
                    d[j] = d.get(j, 0.0) + mass * p
            budget_state[0] += len(hidden.trans[idx])
        out.extend(succ.values())
    return out


def _entropy_of(vectors):
    h = 0.0
    for vec in vectors:
        p = sum(vec.values())
        if p > 0:
            h -= p * LOG(p)
    return h


def sandwich_bounds(hidden, n_max=16, gap_tol=1e-6, budget=SANDWICH_BUDGET,
                    mc_samples=20000, seed=7):
    """Two-sided conditional-entropy bounds on the hidden-chain entropy rate.

    The upper bound conditions on the visible history, the lower bound
    additionally on the initial enriched pair; both are exact forward sums
    over positive-probability symbol sequences, stopping once the gap closes
    below ``gap_tol`` or at ``n_max``.  Past the expansion budget a
    stationary Monte Carlo estimator substitutes, with standard errors.
    """
    budget_state = [0]
    uppers, lowers = [], []

    up_levels = _step_vectors(
        hidden, [{i: m for i, m in enumerate(hidden.nu) if m > 0}], budget_state)
    joint_prev = _entropy_of(up_levels)

    # Conditioning on the initial enriched pair is, by the Markov property,
    # conditioning on the second state; one start vector per state suffices.
    low_frontier = [{v: mass} for v, mass in enumerate(hidden.nu) if mass > 0]

    n = 1
    while n < n_max:
        n += 1
        if budget_state[0] > budget:
            return _sandwich_mc(hidden, n, gap_tol, mc_samples, seed)
        nxt = _step_vectors(hidden, up_levels, budget_state)
        joint_n = _entropy_of(nxt)
        uppers.append(joint_n - joint_prev)
        joint_prev = joint_n
        up_levels = nxt

        total_low = 0.0
        new_low = []
        for vec in low_frontier:
            p_node = sum(vec.values())
            if p_node <= 0:
                continue
            succ = {}
            for idx, mass in vec.items():
                for sym, targets in hidden.trans[idx].items():
                    d = succ.setdefault(sym, {})
                    for j, p in targets:
                        d[j] = d.get(j, 0.0) + mass * p
                budget_state[0] += len(hidden.trans[idx])
            for d in succ.values():
                p_next = sum(d.values())
                if p_next > 0:
                    total_low -= p_next * LOG(p_next / p_node)
                    new_low.append(d)
        lowers.append(total_low)
        low_frontier = new_low

        if uppers[-1] - lowers[-1] < gap_tol:
            break

    gap = uppers[-1] - lowers[-1]
    return EntropyBounds(uppers, lowers, n, gap,
                         0.5 * (uppers[-1] + lowers[-1]), gap < gap_tol)


def _sandwich_mc(hidden, n, gap_tol, samples, seed):
    """Monte Carlo estimates of the two conditional entropies at depth n.

    Trajectories of the enriched chain are sampled from stationarity with a
    counter-based generator; the per-sample conditional probabilities are
    evaluated exactly by filtering."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    nu = hidden.nu / hidden.nu.sum()
    rows = []
    for idx in range(len(hidden.states)):
        flat = [(sym, j, p) for sym, ts in hidden.trans[idx].items()
                for j, p in ts]
        probs = np.array([p for _, _, p in flat])
        rows.append((flat, probs / probs.sum()))

    up_vals, low_vals = [], []
    for _ in range(samples):
        state = int(rng.choice(len(nu), p=nu))
        syms, states = [], [state]
        for _k in range(n):
            flat, pr = rows[states[-1]]
            pick = flat[int(rng.choice(len(flat), p=pr))]
            syms.append(pick[0])
            states.append(pick[1])

        def cond_surprise(vec0, symbols):
            vec, p_hist = vec0, 1.0
            out = None
            for k, sym in enumerate(symbols):
                d = {}
                for idx, mass in vec.items():
                    for j, p in hidden.trans[idx].get(sym, ()):
                        d[j] = d.get(j, 0.0) + mass * p
                p_next = sum(d.values())
                if k == len(symbols) - 1:
                    out = -LOG(p_next / p_hist)
                p_hist, vec = p_next, d
            return out

        up_vals.append(cond_surprise(
            {i: m for i, m in enumerate(nu) if m > 0}, syms))
        low_vals.append(cond_surprise({states[1]: 1.0}, syms[1:]))

    up, low = float(np.mean(up_vals)), float(np.mean(low_vals))
    se = float(np.sqrt(np.var(up_vals) / samples + np.var(low_vals) / samples))
    return EntropyBounds([up], [low], n, up - low, 0.5 * (up + low),
                         converged=(up - low < gap_tol), monte_carlo=True,
                         std_error=se)


# -- exact formula at a single-boundary type ------------------------------------

@dataclass
class ExactEntropy:
    value: float
    truncation_bound: float
    suffix: str
    method: str


def unambiguous_exact(chain, cls, suffix=None, tail_tol=1e-10, max_depth=60,
                      budget=SANDWICH_BUDGET, force_dfs=False):
    """Entropy rate through regeneration at a single-boundary cone type.

    When every type of the class has a one-word boundary, block weights and
    their coarsened versions coincide and the regeneration sum telescopes to
    the Markov entropy rate of the increment chain (closed form, zero
    truncation error).  Otherwise first-return blocks to the chosen suffix
    are enumerated depth-first, the coarsened weight carried as a forward
    vector over boundary mates, with tail-mass accounting.
    """
    atlas = chain.atlas
    types = [atlas.types[t] for t in sorted(cls.types)]
    exact_sfx = [t.boundary_suffixes[0] for t in types
                 if len(t.boundary_suffixes) == 1]
    if not exact_sfx:
        raise AssumptionError("no single-boundary cone type in this class")
    if suffix is not None and suffix not in exact_sfx:
        raise AssumptionError(f"suffix {suffix!r} is not unambiguous")
    nu0 = {chain.states[i]: cls.nu0[a] for a, i in enumerate(cls.state_ids)}

    if not force_dfs and all(len(t.boundary_suffixes) == 1 for t in types):
        hy = 0.0
        for w, mass in nu0.items():
            for p in chain.suffix_rows[w[-2:]].probs:
                if p > 0:
                    hy -= mass * float(p) * LOG(float(p))
        return ExactEntropy(hy, 0.0, exact_sfx[0], "telescoped")

    ab = suffix or exact_sfx[0]
    nu_ab = sum(m for w, m in nu0.items() if w[-2:] == ab)
    class_words = set(nu0)
    row_maps = {sfx: dict(zip(r.targets, map(float, r.probs)))
                for sfx, r in chain.suffix_rows.items()}
    mates_memo = {}

    def mates(word):
        if word not in mates_memo:
            t = atlas.type_of[word[-2:]]
            mates_memo[word] = [word[:-2] + cd
                                for cd in atlas.types[t].boundary_suffixes
                                if word[:-2] + cd in class_words]
        return mates_memo[word]

    acc = [0.0]
    spent = [0]
    tail_mass = [0.0]
    tail_depth = [1]
    min_q = min(p for r in chain.suffix_rows.values() for p in r.probs if p > 0)

    def step(suffix, w, beta, depth):
        if spent[0] > budget or depth > max_depth or w < tail_tol * 1e-3:
            tail_mass[0] += w
            tail_depth[0] = max(tail_depth[0], depth)
            return
        row = chain.suffix_rows[suffix]
        for y, p in zip(row.targets, row.probs):
            p = float(p)
            if p <= 0:
                continue
            wy = w * p
            beta_y = {}
            for ym in mates(y):
                tot = sum(bm * row_maps[mate[-2:]].get(ym, 0.0)
                          for mate, bm in beta.items())
                if tot > 0:
                    beta_y[ym] = tot
            spent[0] += len(beta) * len(mates(y))
            if y[-2:] == ab:
                wt = beta_y.get(y, 0.0)
                if wt > 0:
                    acc[0] += -wy * LOG(wt)
            else:
                step(y[-2:], wy, beta_y, depth + 1)

    row0 = chain.suffix_rows[ab]
    for y, p in zip(row0.targets, row0.probs):
        p = float(p)
        if p <= 0:
            continue
        beta = {ym: row_maps[ab].get(ym, 0.0) for ym in mates(y)}
        beta = {k: v for k, v in beta.items() if v > 0}
        if y[-2:] == ab:
            wt = beta.get(y, 0.0)
            if wt > 0:
                acc[0] += -p * LOG(wt)
        else:
            step(y[-2:], p, beta, 2)

    # unfinished blocks: bound each unrealized -w log w-tilde by the worst
    # per-step surprise times a geometric tail on the block length
    bound = tail_mass[0] * (tail_depth[0] + 10) * (-LOG(min_q)) * 2.0
    return ExactEntropy(nu_ab * acc[0], nu_ab * bound, ab, "regeneration-dfs")


def regeneration_mc(chain, cls, suffix=None, samples=50_000, seed=29):
    """Monte Carlo evaluation of the single-boundary regeneration sum.

    Samples first-return blocks of the increment chain and averages the
    negative log of the coarsened block weight; unbiased for the same
    quantity the depth-first enumeration truncates, and the practical tool
    when the block tree is too wide to enumerate.
    """
    atlas = chain.atlas
    types = [atlas.types[t] for t in sorted(cls.types)]
    exact_sfx = [t.boundary_suffixes[0] for t in types
                 if len(t.boundary_suffixes) == 1]
    if not exact_sfx:
        raise AssumptionError("no single-boundary cone type in this class")
    ab = suffix or exact_sfx[0]
    if ab not in exact_sfx:
        raise AssumptionError(f"suffix {ab!r} is not unambiguous")
    nu0 = {chain.states[i]: cls.nu0[a] for a, i in enumerate(cls.state_ids)}
    nu_ab = sum(v for w, v in nu0.items() if w[-2:] == ab)
    class_words = set(nu0)
    row_maps = {s: dict(zip(r.targets, map(float, r.probs)))
                for s, r in chain.suffix_rows.items()}
    rows = {s: (r.targets, np.asarray(r.probs, dtype=float) / r.probs.sum())
            for s, r in chain.suffix_rows.items()}
    mates_memo = {}

    def mates(word):
        if word not in mates_memo:
            t = atlas.type_of[word[-2:]]
            mates_memo[word] = [word[:-2] + cd
                                for cd in atlas.types[t].boundary_suffixes
                                if word[:-2] + cd in class_words]
        return mates_memo[word]

    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = np.empty(samples)
    for k in range(samples):
        sfx = ab
        beta = None
        while True:
            targets, probs = rows[sfx]
            y = targets[int(rng.choice(len(targets), p=probs))]
            if beta is None:
                beta = {ym: row_maps[ab].get(ym, 0.0) for ym in mates(y)}
            else:
                beta = {ym: sum(bm * row_maps[mate[-2:]].get(ym, 0.0)
                                for mate, bm in beta.items())
                        for ym in mates(y)}
            if y[-2:] == ab:
                vals[k] = -LOG(beta[y])
                break
            sfx = y[-2:]
    value = nu_ab * float(vals.mean())
    se = nu_ab * float(vals.std(ddof=1) / math.sqrt(samples))
    return ExactEntropy(value, 3 * se, ab, "regeneration-mc")


# -- modified positive-entry chain ----------------------------------------------

@dataclass
class ModifiedChain:
    hidden: HiddenChain
    rows: list          # per state: list of (target idx, prob)
    fold_counts: dict   # (type i, type j, suffix ab) -> split count


def build_qhat(chain, cls):
    """Transition table over the enriched states whose rows spread entries
    into first slots across all coverings, splitting the mass evenly; the
    projected hidden process keeps the law of the original one.  Rows are
    computed once per state suffix, over all targets at a time."""
    hidden = HiddenChain(chain, cls)
    atlas = chain.atlas
    class_types = sorted(cls.types)

    n_slots = {(m, j): atlas.coverings[m].n_of_type(j)
               for m in class_types for j in class_types}
    first_slot_word = {(m, slot.type_id, w[-2:]): w for m in class_types
                       for slot in atlas.coverings[m].slots
                       if slot.local_index == 1
                       for w in atlas.boundary_words(slot)}

    # per target: covering, first-slot flag, (slot type, suffix) key index
    states = hidden.states
    source = np.array([st.source_type for st in states])
    first = np.array([st.slot_index == 1 for st in states])
    keys = sorted({(st.slot_type, st.word[-2:]) for st in states})
    key_of = np.array([keys.index((st.slot_type, st.word[-2:]))
                       for st in states])
    fold_counts, rows, shared = {}, [], {}
    for st in states:
        sfx = st.word[-2:]
        if sfx not in shared:
            i, row = atlas.type_of[sfx], chain.suffix_rows[sfx]
            qrow = dict(zip(row.targets, map(float, row.probs)))
            # a foreign target takes the mass of the local first slot with
            # its type and suffix; own first slots and foreign targets split
            # their mass with the type-j slots of the other coverings
            ybar, count, can_fold = zip(*[
                (first_slot_word.get((i, j, ab)),
                 sum(n_slots[(m, j)] for m in class_types if m != i),
                 n_slots[(i, j)] > 0) for j, ab in keys])
            own = source == i
            fold = ~own & np.array(can_fold)[key_of]
            split = fold | (own & first)
            for a in np.unique(key_of[fold]):
                if ybar[a] is None:
                    raise AssumptionError(
                        "no first slot of type {} with boundary {} in the "
                        "covering of type {}".format(*keys[a], i))
            for a in np.unique(key_of[split]):
                fold_counts[(i, *keys[a])] = count[a]
            q = np.array([qrow.get(t.word, 0.0) for t in states])
            q_bar = np.array([qrow.get(y, 0.0) for y in ybar])[key_of]
            p = np.where(own, q, np.where(fold, q_bar, 0.0))
            p = np.where(split, p / (np.array(count)[key_of] + 1), p)
            nz = np.flatnonzero(p > 0)
            total = sum(p[nz].tolist())
            if abs(total - 1.0) > 1e-12:
                raise AssumptionError(
                    f"modified row for {st} sums to {total!r}, not 1 +- 1e-12")
            shared[sfx] = list(zip(nz.tolist(), p[nz].tolist()))
        rows.append(shared[sfx])
    return ModifiedChain(hidden, rows, fold_counts)


def _symbol_steps(hidden, modified):
    """One-step matrices of the original chain (M_s) and of Q-hat (N_s),
    each side stacked as [A_s1 | A_s2 | ...] in one n x (S n) CSR matrix so
    that u @ A holds u's successor under every symbol s; and per s, the
    sorted pair-vector coordinates its successors occupy."""
    n = len(hidden.states)
    sym_id = {s: a for a, s in enumerate(hidden.symbols)}

    def coo(state_rows, entries):
        # states of one suffix that share a row object share one conversion
        groups = {}
        for idx, (st, row) in enumerate(zip(hidden.states, state_rows)):
            groups.setdefault((st.word[-2:], id(row)), []).append(idx)
        data, rows, cols = [], [], []
        for idxs in groups.values():
            sym, tgt, prob = zip(*entries(idxs[0]))
            col = n * np.array([sym_id.setdefault(s, len(sym_id))
                                for s in sym]) + tgt
            rows.append(np.repeat(idxs, len(col)))
            cols.append(np.tile(col, len(idxs)))
            data.append(np.tile(prob, len(idxs)))
        return np.concatenate(data), (np.concatenate(rows),
                                      np.concatenate(cols))

    orig = coo(hidden.trans, lambda idx: [
        (s, j, p) for s, ts in hidden.trans[idx].items() for j, p in ts])
    mod = coo(modified.rows, lambda idx: [
        (hidden_symbol(hidden.atlas, hidden.states[idx], hidden.states[j]),
         j, p) for j, p in modified.rows[idx]])
    cu, cv = np.unique(orig[1][1]), np.unique(mod[1][1])
    sym, col = np.r_[cu // n, cv // n], np.r_[cu % n, n + cv % n]
    order = np.lexsort((col, sym))
    columns = np.split(col[order],
                       np.searchsorted(sym[order], np.arange(1, len(sym_id))))
    shape = (n, len(sym_id) * n)
    return csr_matrix(orig, shape=shape), csr_matrix(mod, shape=shape), columns


def _extend(frontier, step_m, step_q):
    """Every nonzero successor (u M_s, v N_s) of every frontier row (u, v),
    as the rows of one CSR matrix sorted by s, and the symbol s per row."""
    k, n = frontier.shape[0], step_m.shape[0]
    parts = [(frontier[:, :n] @ step_m).tocoo(),
             (frontier[:, n:] @ step_q).tocoo()]
    word = np.concatenate([p.col.astype(np.int64) // n * k + p.row
                           for p in parts])
    col = np.concatenate([p.col % n + side * n
                          for side, p in enumerate(parts)])
    data = np.concatenate([p.data for p in parts])
    keep = data != 0                  # products that underflowed
    word, row = np.unique(word[keep], return_inverse=True)
    succ = csr_matrix((data[keep], (row, col[keep])), shape=(len(word), 2 * n))
    return succ, word // k


def _new_directions(bases, s, rows):
    """Positions of the rows whose residual off the span of ``bases[s]``,
    relative to their norm, exceeds SPAN_RTOL; ``bases[s]`` (orthonormal
    rows) grows to span them."""
    x = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    basis = bases.get(s, np.empty((0, rows.shape[1])))
    for _ in range(2):                 # project out the basis, then again
        x -= (x @ basis.T) @ basis
    if not np.linalg.norm(x, axis=1).max() > SPAN_RTOL:
        return np.empty(0, dtype=np.int64)
    q, r, piv = qr(x.T, mode="economic", pivoting=True)
    new = piv[:np.count_nonzero(np.abs(np.diag(r)) > SPAN_RTOL)]
    bases[s] = np.vstack([basis, q[:, :len(new)].T])
    return new


def check_marginal_equality(chain, cls, modified, max_len=None):
    """Largest |P(w) - P-hat(w)| between the hidden-symbol laws of the
    original chain and of Q-hat, both started from the first-state law,
    over the basis words of a breadth-first forward-span construction on
    the pair automaton (Tzeng, SIAM J. Comput. 21, 1992) and their
    one-symbol extensions.  The pair vector of w is (mu1 M_w, mu1 N_w), and
    P(w) - P-hat(w) is linear in it.  Each level extends the newest basis
    words by every symbol and keeps the extensions by s that leave the span
    of the basis words ending in s (relative residual above SPAN_RTOL after
    projecting that span out twice).  Once a level keeps nothing the span
    is closed under every symbol, so the laws agree at every length iff
    they agree on the basis words.  ``max_len=None`` runs to closure; an
    integer stops after words of that length."""
    hidden = modified.hidden
    n = len(hidden.states)
    step_m, step_q, columns = _symbol_steps(hidden, modified)
    mu1 = hidden.initial_mu1()
    frontier = csr_matrix(np.concatenate([mu1, mu1])[None, :])
    bases = {}         # symbol -> orthonormal rows over columns[symbol]
    worst, depth = 0.0, 0
    while frontier.shape[0] and (max_len is None or depth < max_len):
        depth += 1
        succ, sym = _extend(frontier, step_m, step_q)
        diff = succ @ np.r_[np.ones(n), -np.ones(n)]    # P(w) - P-hat(w)
        worst = max(worst, float(np.abs(diff).max(initial=0.0)))
        starts = np.flatnonzero(np.diff(sym, prepend=-1))
        new = [a + _new_directions(bases, sym[a],
                                   succ[a:b][:, columns[sym[a]]].toarray())
               for a, b in zip(starts, np.r_[starts[1:], len(sym)])]
        frontier = succ[np.concatenate([np.empty(0, np.int64), *new])]
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

    classes = []
    h_total = 0.0
    marginal = None
    exact = None
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
        try:
            exact = unambiguous_exact(chain, cls)
            hy_exact = exact.value
        except AssumptionError:
            exact = None
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
        method = "unambiguous" if (exact is not None and
                                   exact.method == "telescoped") else "sandwich"
        rep = EntropyReport(True, True, method, chain.ell, chain.lambda_,
                            c.hy, c.hy_gap, c.hy_n, h_total, True, True,
                            classes=classes, marginal_check=marginal)
    else:
        rep = EntropyReport(True, True, "class-weighted", chain.ell,
                            chain.lambda_, None, None, None, h_total, True,
                            True, classes=classes, marginal_check=marginal)
    _finalize_checks(rep, model)
    return rep


def _finalize_checks(rep, model):
    bound = (rep.ell or 0.0) * LOG(len(model.alphabet)) + INEQ_SLACK
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


def continuity_sweep(model_a, model_b, grid=11, n_max=16, gap_tol=1e-6):
    """Entropy along the segment between two same-support models, with
    finite-difference smoothness diagnostics (no analyticity claim)."""
    from . import pipeline
    rows = []
    for k in range(grid):
        t = k / (grid - 1) if grid > 1 else 0.0
        m = interpolate_models(model_a, model_b, t)
        try:
            res = pipeline.analyze(m, n_max=n_max, gap_tol=gap_tol)
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
