"""Reference for the marginal check: the hidden-symbol laws of the original
chain and of Q-hat, enumerated sequence by sequence up to a fixed length
with one dict per forward vector."""


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


def enumerated_marginal_diff(modified, length=3):
    """Maximum |P(w) - P-hat(w)| over every hidden-symbol sequence w of
    length 1..length with positive probability under either chain, both
    started from the first-state law."""
    mu1 = modified.hidden.mu1 / modified.hidden.mu1.sum()

    def laws(step):
        trans, out = row_transitions(step), {}
        frontier = [((), {i: m for i, m in enumerate(mu1) if m > 0})]
        for _ in range(length):
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
