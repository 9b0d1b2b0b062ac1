"""References for cone membership: the membership automaton of
``ReachRelation`` run on one word, the boolean-row walk over the reach22
closure, one letter of the tail at a time, and breadth-first search over
the walk's own successors; and the word-level spelling of a covering cut."""
import numpy as np

from rlentropy.cones import _children_classes


def tail_reachable(rel, pair, tail):
    """Is the relative word ``tail`` (len >= 2) reachable from 2-letter root
    ``pair`` through words of relative length >= 2?"""
    mask = rel.closure[rel.pair_index[pair]]
    for ch in tail[:-2]:
        mask = rel.advance(mask, ch)
        if not mask:
            return False
    return bool(mask >> rel.pair_index[tail[-2:]] & 1)


def in_cone(rel, root, word):
    """Membership of ``word`` in the cone rooted at ``root`` (same frame)."""
    if len(word) < len(root):
        return False
    k = len(root) - 2
    if word[:k] != root[:k]:
        return False
    return tail_reachable(rel, root[-2:], word[k:])


def cones_disjoint(rel, w1, w2):
    """Nested-or-disjoint dichotomy: disjoint iff the shorter root does not
    contain the longer one (equal lengths: iff neither contains the other)."""
    if len(w1) > len(w2):
        w1, w2 = w2, w1
    return not in_cone(rel, w1, w2)


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


def tail_reachable_rows(model, rel, pair, tail):
    """Is the relative word ``tail`` (len >= 2) reachable from 2-letter root
    ``pair`` through words of relative length >= 2?"""
    P = rel.pair_index
    cur = rel.reach22[P[pair]].copy()
    for i in range(len(tail) - 2):
        nxt = np.zeros_like(cur)
        for uv in np.flatnonzero(cur):
            for rhs, _ in model.up_rules.get(rel.pairs[uv], ()):
                if rhs[0] == tail[i]:
                    nxt |= rel.reach22[P[rhs[1:]]]
        cur = nxt
        if not cur.any():
            return False
    return bool(cur[P[tail[-2:]]])


def word_spelled_cut(atlas, ct, cut):
    """The slot roots of a type-level cut, spelled out one depth at a time
    with each expanded node grown from all of its member words: the first
    nodes of a type in root order stay leaves, as many as the cut holds."""
    model, rel = atlas.model, atlas.rel
    leaves = dict(cut)
    nodes, roots = _children_classes(model, rel, ct.members), []
    for depth in range(1, max(d for d, _ in cut) + 1):
        expand = []
        for root, members in nodes.items():
            leaf = (depth, atlas.type_of[root[-2:]])
            if leaves.get(leaf):
                leaves[leaf] -= 1
                roots.append(root)
            else:
                expand += members
        nodes = _children_classes(model, rel, expand)
    return roots
