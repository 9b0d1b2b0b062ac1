"""Reference for the marginal check: the hidden-symbol laws of the original
chain and of Q-hat, enumerated sequence by sequence up to a fixed length."""
from rlentropy.entropy import hidden_symbol


def enumerated_marginal_diff(chain, cls, modified, max_len=3):
    """Maximum |P(w) - P-hat(w)| over every hidden-symbol sequence w of
    length 1..max_len with positive probability under either chain, both
    started from the first-state law."""
    hidden = modified.hidden
    mu1 = hidden.initial_mu1()

    def laws(step):
        out = {}
        frontier = [((), {i: m for i, m in enumerate(mu1) if m > 0})]
        for _ in range(max_len):
            nxt = []
            for seq, vec in frontier:
                for sym, d in step(vec).items():
                    p = sum(d.values())
                    if p > 0:
                        out[seq + (sym,)] = p
                        nxt.append((seq + (sym,), d))
            frontier = nxt
        return out

    def orig_step(vec):
        succ = {}
        for idx, mass in vec.items():
            for sym, targets in hidden.trans[idx].items():
                d = succ.setdefault(sym, {})
                for j, p in targets:
                    d[j] = d.get(j, 0.0) + mass * p
        return succ

    def mod_step(vec):
        succ = {}
        for idx, mass in vec.items():
            for j, p in modified.rows[idx]:
                sym = hidden_symbol(chain.atlas, hidden.states[idx],
                                    hidden.states[j])
                d = succ.setdefault(sym, {})
                d[j] = d.get(j, 0.0) + mass * p
        return succ

    a = laws(orig_step)
    b = laws(mod_step)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
