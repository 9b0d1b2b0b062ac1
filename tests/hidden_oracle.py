"""Reference for the hidden chain: states found by building and hashing an
enriched state per boundary word and per row target, and each entry's
symbol computed from its source state."""
from types import SimpleNamespace

import numpy as np

from rlentropy.entropy import StepTable, WState, _suffix_mass, hidden_symbol


def step_table(hidden, state_rows, sym_id):
    """``entropy._step_table`` with one ``hidden_symbol`` call per entry of
    each distinct row."""
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


def hidden_chain(chain, cls):
    """(states, symbols, step table, nu, first-state law) of the class's
    hidden chain."""
    atlas = chain.atlas
    class_words = {chain.states[i] for i in cls.state_ids}
    states, index = [], {}
    for m in sorted(cls.types):
        for slot in atlas.coverings[m].slots:
            for w in atlas.boundary_words(slot):
                if w in class_words:
                    st = WState(m, slot.type_id, slot.local_index, w)
                    index[st] = len(states)
                    states.append(st)
    targets = {}
    for sfx in {w[-2:] for w in class_words}:
        i, row = atlas.type_of[sfx], chain.suffix_rows[sfx]
        slots = [chain.slot_of[(i, y)] for y in row.targets]
        targets[sfx] = [
            (index[WState(i, s.type_id, s.local_index, y)], float(p))
            for s, y, p in zip(slots, row.targets, row.probs)]
    sym_id = {}
    hidden = SimpleNamespace(atlas=atlas, states=states)
    step = step_table(hidden, [targets[st.word[-2:]] for st in states],
                      sym_id)
    nu = np.zeros(len(states))
    for sfx, mass in _suffix_mass(chain, cls).items():
        k, p = zip(*targets[sfx])
        np.add.at(nu, list(k), mass * np.array(p))
    mu1 = np.zeros(len(states))
    for (m, slot, word), mass in chain.mu1_w.items():
        st = WState(m, slot[0], slot[1], word)
        if st in index:
            mu1[index[st]] += mass
    return SimpleNamespace(states=states, symbols=list(sym_id), step=step,
                           nu=nu, mu1=mu1 / mu1.sum())
