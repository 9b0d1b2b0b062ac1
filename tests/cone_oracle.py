"""References for cone membership: the boolean-row walk over the reach22
closure, one letter of the tail at a time, and breadth-first search over
the walk's own successors."""
import numpy as np


def brute_cone_members(model, root, depth, headroom=4):
    """Exhaustive membership oracle: BFS inside the cone with excursion
    headroom above the collection depth."""
    out = set()
    seen = {root}
    frontier = [root]
    while frontier:
        w = frontier.pop()
        if len(w) <= depth:
            out.add(w)
        for succ, _ in model.successors(w):
            if len(root) <= len(succ) <= depth + headroom and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return out


def tail_reachable_rows(rel, pair, tail):
    """Is the relative word ``tail`` (len >= 2) reachable from 2-letter root
    ``pair`` through words of relative length >= 2?"""
    P = rel.pair_index
    cur = rel.reach22[P[pair]].copy()
    for i in range(len(tail) - 2):
        nxt = np.zeros_like(cur)
        for uv in np.flatnonzero(cur):
            for rhs, _ in rel.model.up_rules.get(rel.pairs[uv], ()):
                if rhs[0] == tail[i]:
                    nxt |= rel.reach22[P[rhs[1:]]]
        cur = nxt
        if not cur.any():
            return False
    return bool(cur[P[tail[-2:]]])
