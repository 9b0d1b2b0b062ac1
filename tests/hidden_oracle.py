"""Reference for the hidden chain and Q-hat, state by state: the enriched
states found by building and hashing one state per boundary word, each
entry's symbol computed from its source and target states, and Q-hat's rows
read off its definition one target state at a time.  ``lumped`` sums a
state-level chain onto its rows, for comparison with the row tables of
``rlentropy.entropy``."""
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from chain_oracle import dense_decomposition, folded, initial_law, slot_map
from rlentropy.entropy import StepTable


class WState(NamedTuple):
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


def step_table(hidden, state_rows, sym_id):
    """The per-state step table of the rows [(target idx, prob), ...]:
    ``row_of[x]`` is the table row of state x, shared by the states with
    the same suffix and row object, and each entry's symbol is one
    ``hidden_symbol`` call."""
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
    return SimpleNamespace(
        row_of=row_of, start=np.cumsum([0] + [len(row) for _, row in reps]),
        sym=np.array(sym), tgt=np.array(tgt), prob=np.array(prob))


def class_states(chain, cls, class_words=None):
    """The class's enriched states (owner type, slot type, slot index,
    word), in the order of the coverings of its types, their slots and
    boundary words.  Its words are ``class_words``, by default the targets
    of its rows."""
    if class_words is None:
        class_words = {y for sfx in cls.rows
                       for y in chain.suffix_rows[sfx].targets}
    atlas = chain.atlas
    return [WState(m, slot.type_id, slot.local_index, w)
            for m in sorted(cls.types) for slot in atlas.coverings[m].slots
            for w in atlas.boundary_words(slot) if w in class_words]


def hidden_chain(chain, cls):
    """(states, symbols, step table, nu, first-state law) of the class's
    hidden chain over its enriched states; the first-state law is the
    class's part, not normalised.  The class's states and stationary law
    come from the state-level solve of ``dense_decomposition``, nu is that
    law pushed one step onto the enriched states, and the first-state law
    is ``initial_law``'s."""
    atlas, slot_of = chain.atlas, slot_map(chain.atlas, chain.gf)
    ids, _, state_nu, _, _ = dense_decomposition(chain)[cls.index]
    states = class_states(chain, cls, {chain.states[i] for i in ids})
    index = {st: x for x, st in enumerate(states)}
    class_words = {st.word for st in states}
    targets = {}
    for sfx in {w[-2:] for w in class_words}:
        i, row = atlas.type_of[sfx], chain.suffix_rows[sfx]
        slots = [slot_of[(i, y)] for y in row.targets]
        targets[sfx] = [
            (index[WState(i, s.type_id, s.local_index, y)], float(p))
            for s, y, p in zip(slots, row.targets, row.probs)]
    sym_id = {}
    hidden = SimpleNamespace(atlas=atlas, states=states)
    step = step_table(hidden, [targets[st.word[-2:]] for st in states],
                      sym_id)
    nu = np.zeros(len(states))
    for sfx, mass in folded(chain, ids, state_nu).items():
        k, p = zip(*targets[sfx])
        np.add.at(nu, list(k), mass * np.array(p))
    mu1 = np.zeros(len(states))
    for (m, word), mass in initial_law(chain)[1].items():
        slot = slot_of[(m, word)]
        st = WState(m, slot.type_id, slot.local_index, word)
        if st in index:
            mu1[index[st]] += mass
    return SimpleNamespace(atlas=atlas, states=states, symbols=list(sym_id),
                           step=step, nu=nu, mu1=mu1)


def qhat_rows(chain, cls, states, suffixes=None):
    """Q-hat's rows read off its definition one target state at a time:
    {suffix: [(target idx, prob), ...]}, the targets indexing ``states``,
    for the row suffixes ``suffixes`` (by default those of the states).
    The row of a suffix of type i keeps q on the targets of its own
    covering, except that it splits the mass of each own first slot evenly
    with every slot of the same type in the other coverings; a slot of a
    foreign covering takes that share of the own first slot with its type
    and suffix (none when the own covering has no slot of that type)."""
    atlas, rows = chain.atlas, {}
    n_slots = Counter((m, s.type_id) for m in cls.types
                      for s in atlas.coverings[m].slots)
    all_slots = Counter()
    for (m, j), k in n_slots.items():
        all_slots[j] += k
    first = {(m, s.type_id, w[-2:]): w for m in cls.types
             for s in atlas.coverings[m].slots if s.local_index == 1
             for w in atlas.boundary_words(s)}
    if suffixes is None:
        suffixes = {st.word[-2:] for st in states}
    for sfx in suffixes:
        i, row = atlas.type_of[sfx], chain.suffix_rows[sfx]
        q = dict(zip(row.targets, row.probs))
        out = []
        for x, st in enumerate(states):
            j = st.slot_type
            others = all_slots[j] - n_slots[i, j]
            if st.source_type == i:
                p = q.get(st.word, 0.0)
                if st.slot_index == 1:
                    p /= others + 1
            elif n_slots[i, j]:
                ybar = first[i, j, st.word[-2:]]
                p = q.get(ybar, 0.0) / (others + 1)
            else:
                p = 0.0
            if p > 0:
                out.append((x, float(p)))
        rows[sfx] = out
    return rows


def parts_per_key(atlas, states, rows):
    """Rows of ``qhat_rows`` grouped per key: {suffix: {(symbol, target
    suffix): [prob of each target state, in state order]}}, each symbol
    from one ``hidden_symbol`` call."""
    out = {}
    for sfx, row in rows.items():
        here = WState(-1, -1, -1, sfx)        # hidden_symbol reads its suffix
        keys = out[sfx] = {}
        for x, p in row:
            keys.setdefault((hidden_symbol(atlas, here, states[x]),
                             states[x].word[-2:]), []).append(p)
    return out


def lumped(ref, step):
    """A per-state table of ``ref`` summed onto its rows, each row named by
    its states' suffix: {suffix: [(symbol, target suffix, prob), ...]}, the
    entries in table order."""
    out = {}
    for x, r in enumerate(step.row_of):
        sfx = ref.states[x].word[-2:]
        if sfx not in out:
            out[sfx] = [(ref.symbols[step.sym[e]],
                         ref.states[step.tgt[e]].word[-2:], step.prob[e])
                        for e in range(step.start[r], step.start[r + 1])]
    return out


def row_masses(ref, v):
    """A per-state vector of ``ref`` summed per suffix."""
    out = {}
    for st, m in zip(ref.states, v):
        out[st.word[-2:]] = out.get(st.word[-2:], 0.0) + m
    return out


def row_table(ref):
    """A per-state chain lumped onto its table rows (strong lumpability:
    Kemeny & Snell, Finite Markov Chains, 6.3): the row-level chain that
    ``sandwich_bounds`` takes."""
    step = ref.step
    return SimpleNamespace(
        step=StepTable(step.start, step.sym, step.row_of[step.tgt], step.prob),
        nu=np.bincount(step.row_of, weights=ref.nu,
                       minlength=len(step.start) - 1),
        symbols=ref.symbols)


def word_hidden_step(chain, cls):
    """(symbols, sym, tgt, prob) of the class's hidden chain read target
    word by target word: each entry's slot from ``slot_map``, its symbol
    id in the order of first emission and its row from its suffix."""
    slot_of, row_id = slot_map(chain.atlas, chain.gf), {
        sfx: r for r, sfx in enumerate(cls.rows)}
    sym_id, sym, tgt, prob = {}, [], [], []
    for sfx in cls.rows:
        i, row = chain.atlas.type_of[sfx], chain.suffix_rows[sfx]
        for y, p in zip(row.targets, row.probs):
            s = slot_of[i, y]
            sym.append(sym_id.setdefault((i, s.type_id, s.local_index),
                                         len(sym_id)))
            tgt.append(row_id[y[-2:]])
            prob.append(p)
    return list(sym_id), np.array(sym), np.array(tgt), np.array(prob)
