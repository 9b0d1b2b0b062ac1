"""Reference for the hidden chain: states found by building and hashing an
enriched state per boundary word and per row target, and each entry's
symbol computed from its source state."""
from types import SimpleNamespace

import numpy as np

from rlentropy.entropy import WState, _step_table, _suffix_mass


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
    step = _step_table(hidden, [targets[st.word[-2:]] for st in states],
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
