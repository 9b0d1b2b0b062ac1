"""Hidden-chain entropy: two-sided bounds, the telescoped closed form for
classes whose cone types all have a single boundary suffix, the
positive-entry modified chain with its marginal-equality check, and
assembly of the final report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.sparse import csr_matrix, vstack

from .model import AssumptionError
from .cones import limit_words
from .genfun import DEFAULT_TOL, RECURRENCE_XI_TOL

SANDWICH_BUDGET = 5_000_000
INEQ_SLACK = 1e-9
SPAN_RTOL = 1e-9      # marginal check: relative residual of a new direction
SPAN_CHUNK = 512      # marginal check: basis words extended at a time


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


def _suffix_mass(chain, cls):
    """Stationary mass of the class's states, summed per two-letter suffix."""
    mass = {}
    for a, i in enumerate(cls.state_ids):
        sfx = chain.states[i][-2:]
        mass[sfx] = mass.get(sfx, 0.0) + cls.nu0[a]
    return mass


@dataclass
class StepTable:
    """One step of a chain over the enriched states, factored through the
    rows its states share: state x moves by table row ``row_of[x]``, whose
    entries (symbol id, target, probability) are ``sym``, ``tgt`` and
    ``prob`` from ``start[r]`` to ``start[r + 1]``."""
    row_of: np.ndarray
    start: np.ndarray
    sym: np.ndarray
    tgt: np.ndarray
    prob: np.ndarray


def _step_table(hidden, state_rows, sym_id):
    """The step table of per-state rows [(target idx, prob), ...].  States
    share a table row when they share their suffix and their row object
    (``HiddenChain`` and ``build_qhat`` give all states of a suffix one row
    object).  ``sym_id`` numbers the hidden symbols and grows with new
    ones."""
    row_id, reps = {}, []
    row_of = np.empty(len(state_rows), dtype=np.int64)
    for x, row in enumerate(state_rows):
        st = hidden.states[x]
        key = (st.word[-2:], id(row))
        if key not in row_id:
            row_id[key] = len(reps)
            reps.append((st, row))
        row_of[x] = row_id[key]
    sym = [sym_id.setdefault(hidden_symbol(hidden.atlas, st,
                                           hidden.states[j]), len(sym_id))
           for st, row in reps for j, _ in row]
    tgt, prob = zip(*[e for _, row in reps for e in row])
    return StepTable(row_of, np.cumsum([0] + [len(row) for _, row in reps]),
                     np.array(sym), np.array(tgt), np.array(prob))


def _extend(frontier, step):
    """Every nonzero successor of every frontier row, one per (row, symbol).

    A frontier row is the forward vector of one word over the states (CSR).
    A step depends on a state only through its table row, so each word's
    mass is summed per table row and then spread over that row's entries.
    Returns the successors as the rows of one CSR matrix, ordered by parent
    row and then by symbol, with the symbol and the parent row of each."""
    n_rows, n_sym = len(step.start) - 1, int(step.sym.max()) + 1
    parent = np.repeat(np.arange(frontier.shape[0]), np.diff(frontier.indptr))
    pair, inv = np.unique(parent * n_rows + step.row_of[frontier.indices],
                          return_inverse=True)
    mass = np.bincount(inv, weights=frontier.data)
    word, row = np.divmod(pair, n_rows)
    lens = step.start[row + 1] - step.start[row]
    entry = (np.repeat(step.start[row] - np.cumsum(lens) + lens, lens)
             + np.arange(lens.sum()))
    val = np.repeat(mass, lens) * step.prob[entry]
    keep = val != 0                   # products that underflowed
    entry = entry[keep]
    key, succ_row = np.unique(np.repeat(word, lens)[keep] * n_sym
                              + step.sym[entry], return_inverse=True)
    succ = csr_matrix((val[keep], (succ_row, step.tgt[entry])),
                      shape=(len(key), frontier.shape[1]))
    parent, sym = np.divmod(key, n_sym)
    return succ, sym, parent


def _mass(frontier):
    """Probability of each frontier row's word: the sum of its vector."""
    return np.asarray(frontier.sum(axis=1)).ravel()


class HiddenChain:
    """Enriched last-entry chain of one essential class: states carry the
    slot through which each increment's cone was entered; ``step`` holds
    the transitions with their emitted hidden symbols, one table row per
    suffix, and ``symbols[k]`` is the symbol with id k."""

    def __init__(self, chain, cls):
        self.chain = chain
        self.atlas = atlas = chain.atlas
        class_words = {chain.states[i] for i in cls.state_ids}

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
        sym_id = {}
        self.step = _step_table(
            self, [targets[st.word[-2:]] for st in self.states], sym_id)
        self.symbols = list(sym_id)
        self.nu = np.zeros(len(self.states))
        for sfx, mass in _suffix_mass(chain, cls).items():
            k, p = zip(*targets[sfx])
            np.add.at(self.nu, list(k), mass * np.array(p))

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


def sandwich_bounds(hidden, n_max=16, gap_tol=1e-6, budget=SANDWICH_BUDGET,
                    mc_samples=20000, seed=7):
    """Two-sided conditional-entropy bounds on the hidden-chain entropy rate.

    The upper bound conditions on the visible history, the lower bound
    additionally on the initial enriched pair; both are exact forward sums
    over positive-probability symbol sequences, stopping once the gap closes
    below ``gap_tol`` or at ``n_max``.  The expansion budget counts the
    symbols out of each nonzero frontier entry; past it a stationary Monte
    Carlo estimator substitutes, with standard errors.  ``n_max`` is at
    least 2: the first bounds are those of the second symbol.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    step = hidden.step
    n_symbols = np.array([len(np.unique(step.sym[a:b]))
                          for a, b in zip(step.start, step.start[1:])])
    spent = 0

    def advance(frontier):
        nonlocal spent
        spent += int(n_symbols[step.row_of[frontier.indices]].sum())
        succ, _, parent = _extend(frontier, step)
        return succ, _mass(succ), parent

    up, p, _ = advance(csr_matrix(hidden.nu[None, :]))
    joint_prev = -np.sum(p * np.log(p))
    # Conditioning on the initial enriched pair is, by the Markov property,
    # conditioning on the second state; one start vector per state suffices.
    live = np.flatnonzero(hidden.nu > 0)
    low = csr_matrix((hidden.nu[live], (np.arange(len(live)), live)),
                     shape=(len(live), len(hidden.nu)))
    uppers, lowers = [], []
    n = 1
    while n < n_max:
        n += 1
        if spent > budget:
            return _sandwich_mc(hidden, n, gap_tol, mc_samples, seed)
        up, p, _ = advance(up)
        joint = -np.sum(p * np.log(p))
        uppers.append(float(joint - joint_prev))
        joint_prev = joint
        p_node = _mass(low)
        low, p, parent = advance(low)
        lowers.append(float(-np.sum(p * np.log(p / p_node[parent]))))
        if uppers[-1] - lowers[-1] < gap_tol:
            break

    gap = uppers[-1] - lowers[-1]
    return EntropyBounds(uppers, lowers, n, gap,
                         0.5 * (uppers[-1] + lowers[-1]), gap < gap_tol)


def _sandwich_mc(hidden, n, gap_tol, samples, seed):
    """Monte Carlo estimates of the two conditional entropies at depth n.

    Trajectories of the enriched chain are sampled from stationarity with a
    counter-based generator, all samples one step at a time (an entry of
    each sample's table row by inversion of the cumulated probabilities);
    the per-sample conditional probabilities are evaluated exactly by
    filtering, all samples at once."""
    step = hidden.step
    rng = np.random.Generator(np.random.Philox(key=seed))
    nu = hidden.nu / hidden.nu.sum()
    cum = np.r_[0.0, np.cumsum(step.prob)]
    state = rng.choice(len(nu), size=samples, p=nu)
    syms, visited = np.empty((samples, n), dtype=np.int64), []
    for i in range(n):
        r = step.row_of[state]
        a, b = step.start[r], step.start[r + 1]
        u = cum[a] + rng.random(samples) * (cum[b] - cum[a])
        e = np.minimum(np.searchsorted(cum, u, side="right") - 1, b - 1)
        syms[:, i], state = step.sym[e], step.tgt[e]
        visited.append(state)

    # every sample starts from nu: filter its first symbol once for all
    first, sym, _ = _extend(csr_matrix(nu[None, :]), step)
    up_vals = _surprise(step, first[np.searchsorted(sym, syms[:, 0])],
                        syms[:, 1:])
    low_vals = _surprise(step, csr_matrix(
        (np.ones(samples), (np.arange(samples), visited[0])),
        shape=(samples, len(nu))), syms[:, 1:])
    up, low = float(np.mean(up_vals)), float(np.mean(low_vals))
    se = float(np.sqrt(np.var(up_vals) / samples + np.var(low_vals) / samples))
    return EntropyBounds([up], [low], n, up - low, 0.5 * (up + low),
                         converged=(up - low < gap_tol), monte_carlo=True,
                         std_error=se)


def _surprise(step, frontier, syms):
    """-log P(last symbol | earlier symbols) for every frontier row, each
    filtered along its own row of ``syms``."""
    for k in range(syms.shape[1]):
        before = _mass(frontier)
        succ, sym, parent = _extend(frontier, step)
        frontier = succ[sym == syms[parent, k]]
    return -np.log(_mass(frontier) / before)


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
    for sfx, m in _suffix_mass(chain, cls).items():
        p = chain.suffix_rows[sfx].probs
        hy -= m * float(np.sum(p * np.log(p)))
    return ExactEntropy(hy, 0.0, boundaries[0][0], "telescoped")


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


def _pair_table(hidden, modified):
    """The step table of the pair automaton: the enriched chain on states
    0..n-1 beside Q-hat on states n..2n-1, with one symbol numbering."""
    n = len(hidden.states)
    m, q = hidden.step, _step_table(
        hidden, modified.rows, {s: k for k, s in enumerate(hidden.symbols)})
    return StepTable(np.r_[m.row_of, q.row_of + len(m.start) - 1],
                     np.r_[m.start, q.start[1:] + m.start[-1]],
                     np.r_[m.sym, q.sym], np.r_[m.tgt, q.tgt + n],
                     np.r_[m.prob, q.prob])


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
    words by every symbol, SPAN_CHUNK words at a time, and keeps the
    extensions by s that leave the span of the basis words ending in s
    (relative residual above SPAN_RTOL after projecting that span out
    twice).  Once a level keeps nothing the span is closed under every
    symbol, so the laws agree at every length iff they agree on the basis
    words.  ``max_len=None`` runs to closure; an integer stops after words
    of that length."""
    hidden = modified.hidden
    n = len(hidden.states)
    pair = _pair_table(hidden, modified)
    # per symbol, the sorted pair-vector coordinates its successors occupy
    sym, col = np.divmod(np.unique(pair.sym * 2 * n + pair.tgt), 2 * n)
    columns = np.split(col, np.searchsorted(sym, np.arange(1, sym[-1] + 1)))
    mu1 = hidden.initial_mu1()
    frontier = csr_matrix(np.r_[mu1, mu1][None, :])
    bases = {}         # symbol -> orthonormal rows over columns[symbol]
    worst, depth = 0.0, 0
    while frontier.shape[0] and (max_len is None or depth < max_len):
        depth += 1
        kept = []
        for a in range(0, frontier.shape[0], SPAN_CHUNK):
            succ, sym, _ = _extend(frontier[a:a + SPAN_CHUNK], pair)
            order = np.argsort(sym, kind="stable")
            succ, sym = succ[order], sym[order]
            diff = succ @ np.r_[np.ones(n), -np.ones(n)]   # P(w) - P-hat(w)
            worst = max(worst, float(np.abs(diff).max(initial=0.0)))
            starts = np.flatnonzero(np.diff(sym, prepend=-1))
            new = [b + _new_directions(bases, sym[b], _dense_rows(
                       succ, b, e, columns[sym[b]]))
                   for b, e in zip(starts, np.r_[starts[1:], len(sym)])]
            kept.append(succ[np.concatenate([np.empty(0, np.int64), *new])])
        frontier = vstack(kept, format="csr")
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
            notes.append(
                f"class {cls.index}: expansion budget exceeded; the hidden "
                f"entropy rate is a Monte Carlo estimate at depth "
                f"{bounds.n_final}, standard error {bounds.std_error:.3g} "
                "(sampling error only)")
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
