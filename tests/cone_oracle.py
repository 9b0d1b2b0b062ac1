"""References for cone membership: the membership automaton of
``ReachRelation`` run on one word, the boolean-row walk over the reach22
closure, one letter of the tail at a time, and breadth-first search over
the walk's own successors; the word-level spelling of a covering cut; and
the coverings spelled one depth at a time, with the uniform level searched
per type on counts and each node's type looked up from its word; and the
exact-cover certificate of one covering by a walk over its cone words."""
from collections import Counter
from itertools import count, repeat

import numpy as np

from rlentropy.cones import (AssumptionError, SubconeSlot, WORD_BUDGET,
                             _covered_once, _search_cut)


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


def cone_level_words(rel, roots2, level):
    """All relative words ``level - 2`` levels below the member words
    ``roots2``: for a type's 2-letter members, its cone at that level in the
    2-letter root frame."""
    words = list(roots2)
    for _ in range(level - 2):
        nxt = set()
        for w in words:
            for c, mask in rel.up_step[rel.pair_index[w[-2:]]].items():
                nxt.update(w[:-2] + c + fg for fg in rel.pairs_of(mask))
        words = sorted(nxt)
    return words


def children_classes(rel, roots):
    """The child cones one level below the cones whose member words at their
    own level are ``roots`` (whole classes of last pairs), as {lex-least
    root: member list}; a cone class is one prefix and one class of
    mutually reach22-reachable pairs."""
    mutual = rel.reach22 & rel.reach22.T
    groups = {}
    for w in cone_level_words(rel, roots, 3):
        key = (w[:-2], int(np.argmax(mutual[rel.pair_index[w[-2:]]])))
        groups.setdefault(key, []).append(w)
    return dict(sorted((min(ms), ms) for ms in groups.values()))


def child_tables(atlas):
    """Per type, (first letter, type) of each child cone in root order, from
    the member words one level below the type's members."""
    return {ct.id: [(root[0], atlas.type_of[root[-2:]])
                    for root in children_classes(atlas.rel, ct.members)]
            for ct in atlas.types}


def word_spelled_cut(atlas, ct, cut):
    """The slot roots of a type-level cut, spelled out one depth at a time
    with each expanded node grown from all of its member words: the first
    nodes of a type in root order stay leaves, as many as the cut holds."""
    rel = atlas.rel
    leaves = dict(cut)
    nodes, roots = children_classes(rel, ct.members), []
    for depth in range(1, max(d for d, _ in cut) + 1):
        expand = []
        for root, members in nodes.items():
            leaf = (depth, atlas.type_of[root[-2:]])
            if leaves.get(leaf):
                leaves[leaf] -= 1
                roots.append(root)
            else:
                expand += members
        nodes = children_classes(rel, expand)
    return roots


def coverings(atlas, order_key=None, level_bump=0, spell=None):
    """(slots, depth_bound, method) of each type's covering and the root
    covering's slots: the cut searched per type on counts, then spelled by
    ``spell`` (by default from the atlas's child tables one depth at a
    time, each node's type looked up from its last pair)."""
    key = order_key or (lambda w: w)
    roots = [s.root for s in atlas.root_covering.slots]
    return (type_coverings(atlas, key, level_bump, spell or spell_cut),
            make_slots(atlas, roots, key))


def type_coverings(atlas, key, level_bump, spell):
    """The part of ``coverings`` that needs no root covering: per type id,
    (slots, depth_bound, method)."""
    out = {}
    for ct in atlas.types:
        kids = atlas.children[ct.id]
        if not atlas.expanding_types[ct.id]:
            cut, method = {(1, kids[0][1]): 1}, "single-child"
        else:
            cut, method = uniform_cut(atlas, ct, level_bump), "uniform"
            if cut is None:
                cut, method = _search_cut(atlas, ct), "cut"
        out[ct.id] = (make_slots(atlas, spell(atlas, ct, cut), key),
                      max(d for d, _ in cut) + 3, method)
    return out


def make_slots(atlas, roots, key):
    roots = sorted(roots, key=key)
    types = [atlas.type_of[root[-2:]] for root in roots]
    counters = {t: count(1) for t in set(types)}
    return list(map(tuple.__new__, repeat(SubconeSlot), zip(
        roots, types, [next(counters[t]) for t in types])))


def uniform_cut(atlas, ct, level_bump):
    """All cones at the shallowest depth within the cap whose types include
    every forward type (or at the ``level_bump``-th such depth after it, as
    far as there are any); None if no depth qualifies."""
    needed, hits = atlas.forward_types[ct.id], []
    level = Counter(c for _, c in atlas.children[ct.id])
    for depth in range(1, atlas.depth_cap + 1):
        if needed <= level.keys():
            hits.append({(depth, t): n for t, n in level.items()})
            if len(hits) > level_bump:
                break
        deeper = Counter()
        for t, n in level.items():
            for _, c in atlas.children[t]:
                deeper[c] += n
        level = deeper
    return hits[-1] if hits else None


def spell_cut(atlas, ct, cut):
    """The slot roots of a type-level cut, spelled out one depth at a time
    from the child tables: the first nodes of a type in root order stay
    leaves, as many as the cut holds; WORD_BUDGET bounds a level's words."""
    leaves, expand, roots = dict(cut), [ct.representative], []
    for depth in range(1, max(d for d, _ in cut) + 1):
        nodes = sorted({kid for u in expand for kid in spelled_children(atlas, u)})
        kinds = [atlas.type_of[r[-2:]] for r in nodes]
        if sum(len(atlas.types[t].members) for t in kinds) > WORD_BUDGET:
            raise AssumptionError(f"cone enumeration exceeded {WORD_BUDGET} words")
        expand = []
        for root, t in zip(nodes, kinds):
            if leaves.get((depth, t)):
                leaves[depth, t] -= 1
                roots.append(root)
            else:
                expand.append(root)
    return roots


def spelled_children(atlas, root):
    """The child cone roots below the node ``root``: its frozen letters and
    its type's child table."""
    u = root[:-2]
    return [u + c + atlas.types[t].representative
            for c, t in atlas.children[atlas.type_of[root[-2:]]]]


def certify(atlas, roots2, cov, passed):
    """Exact-cover certificate by word walk: every cone word at the covering
    depth lies in exactly one slot cone.

    A cone word is a frozen prefix u followed by a pair of the automaton
    mask reached along u; a slot cone is the same automaton started from the
    root's closure where the root's prefix ends.  A depth-first walk over
    the frozen prefixes carries the cone mask and one mask per entered slot
    and checks at depth ``depth_bound - 2`` that each cone pair lies in
    exactly one slot mask.  Below the last slot prefix a node is decided by
    its masks and remaining depth, so nodes that passed are memoised on
    those in ``passed``, shared by all coverings of the atlas (failures are
    not, so the first failing word never depends on the memo)."""
    rel, P = atlas.rel, atlas.rel.pair_index
    starts = {}
    for s in cov.slots:
        starts.setdefault(s.root[:-2], []).append(rel.closure[P[s.root[-2:]]])
    walk = (rel, starts, {u[:k] for u in starts for k in range(len(u))},
            sorted(atlas.model.alphabet), cov.depth_bound - 2, passed)
    certify_node(walk, "", sum(1 << P[r] for r in set(roots2)), [])
    cov.certified = True


def certify_node(walk, u, mask, active):
    """The node u of ``certify``'s walk and the nodes below it; ``walk``
    holds the relation, the slot start masks by prefix, the prefixes still
    to enter a slot, the letters, the leaf depth and the memo."""
    rel, starts, pending, letters, leaf, passed = walk
    active = sorted(active + starts.get(u, []))
    key = None if u in pending else (mask, tuple(active), leaf - len(u))
    if key in passed:
        return
    if len(u) == leaf:
        bad = mask & ~_covered_once(active)
        if bad:
            P = rel.pair_index
            w = min(u + fg for fg in rel.pairs_of(bad))
            hits = sum(m >> P[w[-2:]] & 1 for m in active)
            raise AssumptionError(
                f"covering certificate failed: {w} lies in {hits} slot cones")
    else:
        for c in letters:
            nxt = rel.advance(mask, c)
            if nxt:
                certify_node(walk, u + c, nxt, [
                    m for m in (rel.advance(a, c) for a in active) if m])
    if key is not None:
        passed.add(key)
