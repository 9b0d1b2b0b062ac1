"""Reference for the sandwich bounds: the per-state dict-of-dict forward
filter, one Python dict per forward vector and per hidden symbol, run on a
per-state chain such as ``hidden_oracle.hidden_chain``."""
import math


def state_transitions(hidden):
    """Per state: {hidden symbol: [(target idx, prob), ...]}, read from a
    per-state step table (state x moves by table row ``row_of[x]``)."""
    step, out = hidden.step, []
    for r in step.row_of:
        by_symbol = {}
        for e in range(step.start[r], step.start[r + 1]):
            by_symbol.setdefault(hidden.symbols[step.sym[e]], []).append(
                (int(step.tgt[e]), float(step.prob[e])))
        out.append(by_symbol)
    return out


def dict_sandwich(hidden, n_max=16, gap_tol=1e-6):
    """(uppers, lowers, n_final) of the exact sandwich, without a budget."""
    trans = state_transitions(hidden)

    def extend(vec):
        succ = {}
        for idx, mass in vec.items():
            for sym, targets in trans[idx].items():
                d = succ.setdefault(sym, {})
                for j, p in targets:
                    d[j] = d.get(j, 0.0) + mass * p
        return list(succ.values())

    def joint_entropy(vectors):
        h = 0.0
        for vec in vectors:
            p = sum(vec.values())
            if p > 0:
                h -= p * math.log(p)
        return h

    up = extend({i: m for i, m in enumerate(hidden.nu) if m > 0})
    joint_prev = joint_entropy(up)
    low = [{v: m} for v, m in enumerate(hidden.nu) if m > 0]
    uppers, lowers, n = [], [], 1
    while n < n_max:
        n += 1
        up = [d for vec in up for d in extend(vec)]
        joint = joint_entropy(up)
        uppers.append(joint - joint_prev)
        joint_prev = joint
        total, new_low = 0.0, []
        for vec in low:
            p_node = sum(vec.values())
            for d in extend(vec):
                p_next = sum(d.values())
                if p_next > 0:
                    total -= p_next * math.log(p_next / p_node)
                    new_low.append(d)
        lowers.append(total)
        low = new_low
        if uppers[-1] - lowers[-1] < gap_tol:
            break
    return uppers, lowers, n
