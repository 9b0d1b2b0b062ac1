"""Cone structure of the walk: reachability saturation, cone types, coverings.

The rule table is indexed here once; the generating-function systems read
the same lists with their probabilities.  Everything else is support-level
(boolean): which transitions are possible, never with what probability.  All
reachability questions are answered on the two-letter suffix system with
ascent/descent saturation; words are enumerated only one level below each
cone type's members, for the child table the coverings are spelled from.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .model import AssumptionError

MAX_PAIRS = 1024    # 32 letters; the closures are dense pair x pair matrices
WORD_BUDGET = 2_000_000     # words one level of a cone enumeration may hold
CUT_BUDGET = 100_000        # type-level cuts one covering search may visit


# -- support saturation ------------------------------------------------------

class ReachRelation:
    """The indexed rule table and the boolean least fixed points of the
    descent/level/ascent systems.

    ``down``  (pair, letter, p) per rule ab -> c;
    ``level`` (pair, pair, p) per rule ab -> cd;
    ``up``    (pair, letter, pair, p) per rule ab -> cde;
    indices into ``pairs`` and the alphabet, rows in pair order.

    ``supp_h[p, c]``    descent from suffix pair p can first hit the level
                        below ending in letter c.
    ``reach22[p, q]``   a path from pair p to pair q staying at relative
                        level >= 2 exists, both endpoints at level 2.
    ``reach_ge2[p, q]`` a word with suffix q at some level >= 2 is reachable
                        from pair p without dropping below p's level.
    """

    def __init__(self, model):
        A = model.alphabet
        if len(A) ** 2 > MAX_PAIRS:
            raise AssumptionError(f"{len(A) ** 2} letter pairs exceed the "
                                  f"reach relation's {MAX_PAIRS}")
        self.pairs = [a + b for a in A for b in A]
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.letter_index = {a: i for i, a in enumerate(A)}
        nP, nA = len(self.pairs), len(A)

        self.down, self.level, self.up = down, level, up = [], [], []
        for pr, i in self.pair_index.items():
            for rhs, p in model.down_rules.get(pr, ()):
                down.append((i, self.letter_index[rhs], p))
            for rhs, p in model.level_rules.get(pr, ()):
                level.append((i, self.pair_index[rhs], p))
            for rhs, p in model.up_rules.get(pr, ()):
                up.append((i, self.letter_index[rhs[0]], self.pair_index[rhs[1:]], p))

        self.supp_h = self._saturate_h(nP, nA)
        self.reach22 = self._saturate_reach22(nP)
        self.reach_ge2 = self._saturate_reach_ge2()

        # membership automaton: a state is a bitmask of pairs at one level;
        # ``closure[p]`` is the reach22 row of p, ``up_step[p][c]`` the
        # pairs reached from p by an ascent freezing c, then reach22
        self.closure = [sum(1 << int(j) for j in np.flatnonzero(row))
                        for row in self.reach22]
        self.up_step = [{} for _ in range(nP)]
        for i, c, de, _ in up:
            step, letter = self.up_step[i], A[c]
            step[letter] = step.get(letter, 0) | self.closure[de]
        self._advance = {}

    def _pair_of(self, letter_i, letter_j):
        return letter_i * len(self.letter_index) + letter_j

    def _saturate_h(self, nP, nA):
        h = np.zeros((nP, nA), dtype=bool)
        for i, c, _ in self.down:
            h[i, c] = True
        changed = True
        while changed:
            changed = False
            new = h.copy()
            for i, j, _ in self.level:
                new[i] |= h[j]
            for i, d, ef, _ in self.up:
                # descend twice: first from ef ending at g, then from (d, g)
                for g in np.flatnonzero(h[ef]):
                    new[i] |= h[self._pair_of(d, g)]
            if (new != h).any():
                h, changed = new, True
        return h

    def _saturate_reach22(self, nP):
        edge = np.eye(nP, dtype=bool)
        for i, j, _ in self.level:
            edge[i, j] = True
        for i, c, de, _ in self.up:
            # up to cde, excursion back down through supp_h lands on (c, f)
            for f in np.flatnonzero(self.supp_h[de]):
                edge[i, self._pair_of(c, f)] = True
        return _transitive_closure(edge)

    def _saturate_reach_ge2(self):
        edge = self.reach22.copy()
        for i, _c, de, _ in self.up:
            edge[i, de] = True
        return _transitive_closure(edge)

    def pairs_of(self, mask):
        """The pairs of a bitmask, in pair-index order."""
        return [self.pairs[i] for i in _bits(mask)]

    def advance(self, mask, letter):
        """Automaton step: the pairs reached from those in ``mask`` by an
        ascent that freezes ``letter``, closed under reach22."""
        key = (mask, letter)
        if key not in self._advance:
            self._advance[key] = 0
            for i in _bits(mask):
                self._advance[key] |= self.up_step[i].get(letter, 0)
        return self._advance[key]

    def reaches_ge2(self, p, q):
        return bool(self.reach_ge2[self.pair_index[p], self.pair_index[q]])


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transitive_closure(edge):
    reach = edge.copy()
    while True:
        new = reach | (reach @ reach)
        if (new == reach).all():
            return reach
        reach = new


def saturate_supports(model):
    if not hasattr(model, "_supports"):
        model._supports = ReachRelation(model)
    return model._supports


# -- reachable words and suffixes -------------------------------------------

@dataclass
class ReachableSets:
    letters: tuple
    words2: tuple
    words3: tuple
    suffixes: tuple
    short_words: tuple
    windows: tuple


def reachable_sets(model):
    """Exact reachable short words, suffixes and three-letter windows.

    Words of length <= 3 come from a mutual fixpoint of level entries and
    within-level wandering (excursions above are folded in through the
    descent supports).  The suffix set is the closure of the two-letter
    words under the ascent map: an ascent ab -> cde from any level followed
    by within-level wandering from de to fg.  Each such move also yields the
    window c + fg, the last three letters of a reachable word of length
    >= 3; every such word ends in one of these windows.
    """
    if hasattr(model, "_reachable_sets"):
        return model._reachable_sets
    rel = saturate_supports(model)
    P = rel.pair_index

    w1, w2 = set(), set()
    changed = True
    while changed:
        changed = False
        for r in model.row(""):
            if len(r.rhs) == 1 and r.rhs not in w1:
                w1.add(r.rhs); changed = True
        for a in list(w1):
            for r in model.row(a):
                if len(r.rhs) == 1 and r.rhs not in w1:
                    w1.add(r.rhs); changed = True
                if len(r.rhs) == 2 and r.rhs not in w2:
                    w2.add(r.rhs); changed = True
        for ab in list(w2):
            for cd in np.flatnonzero(rel.reach22[P[ab]]):
                word = rel.pairs[cd]
                if word not in w2:
                    w2.add(word); changed = True
        for ab in list(w2):
            for rhs, _ in model.down_rules.get(ab, ()):
                if rhs not in w1:
                    w1.add(rhs); changed = True

    def ascents(ab):
        for c, mask in rel.up_step[P[ab]].items():
            for fg in rel.pairs_of(mask):
                yield c, fg

    w3 = {c + fg for ab in w2 for c, fg in ascents(ab)}
    suffixes, windows, todo = set(w2), set(), list(w2)
    while todo:
        for c, fg in ascents(todo.pop()):
            windows.add(c + fg)
            if fg not in suffixes:
                suffixes.add(fg)
                todo.append(fg)

    short = ("",) + tuple(sorted(w1)) + tuple(sorted(w2)) + tuple(sorted(w3))
    model._reachable_sets = ReachableSets(
        tuple(sorted(w1)), tuple(sorted(w2)), tuple(sorted(w3)),
        tuple(sorted(suffixes)), short, tuple(sorted(windows)))
    return model._reachable_sets


# -- cone types --------------------------------------------------------------

@dataclass(frozen=True)
class ConeType:
    id: int
    representative: str
    members: tuple
    boundary_suffixes: tuple
    unambiguous: bool


class SubconeSlot(NamedTuple):
    root: str          # relative word, len >= 3 (len 2 in the root covering)
    type_id: int
    local_index: int   # 1-based index among same-type slots of the covering


@dataclass
class Covering:
    owner_type: int    # -1 for the root covering of the language
    slots: list
    depth_bound: int
    method: str
    certified: bool = False


def classify_types(model, rel=None):
    """Partition reachable suffixes into cone-type classes by mutual
    within-level reachability."""
    rel = rel or saturate_supports(model)
    suffixes = model.reachable_suffixes
    P = rel.pair_index
    classes = []
    assigned = {}
    for ab in suffixes:
        if ab in assigned:
            continue
        members = [cd for cd in suffixes
                   if rel.reach22[P[ab], P[cd]] and rel.reach22[P[cd], P[ab]]]
        members.sort()
        bset = tuple(sorted(cd for cd in members if model.down_rules.get(cd)))
        if not bset:
            raise AssumptionError(
                f"cone class {members} has no boundary suffix; weak symmetry "
                "should make every reachable class exitable")
        rep = members[0]
        ct = ConeType(len(classes), rep, tuple(members), bset,
                      unambiguous=(bset == (rep,)))
        classes.append(ct)
        for cd in members:
            assigned[cd] = ct.id
    return classes, assigned


# -- the atlas ---------------------------------------------------------------

@dataclass
class ConeAtlas:
    model: object
    rel: ReachRelation
    types: list
    type_of: dict                  # suffix -> type id
    forward_types: dict            # type id -> frozenset of reachable type ids
    children: dict                 # type id -> list of (first letter, child type id)
    expanding_types: dict          # type id -> bool
    coverings: dict = field(default_factory=dict)   # type id -> Covering
    root_covering: Covering | None = None
    depth_cap: int = 0

    @property
    def expanding(self):
        return any(self.expanding_types.values())

    def boundary_words(self, slot):
        bset = self.types[slot.type_id].boundary_suffixes
        return [slot.root[:-2] + cd for cd in bset]


def _type_graph(model, rel, types, type_of):
    """Forward-reachable types; each type's child table (first letter, type)
    in root order, a child cone being one ascent letter and a class of pairs
    whole in its mask; whether a type reaches one with two or more children."""
    P = rel.pair_index
    forward, children = {}, {}
    for ct in types:
        reach = {type_of[cd] for cd in model.reachable_suffixes
                 if rel.reach_ge2[P[ct.representative], P[cd]]}
        forward[ct.id] = frozenset(reach | {ct.id})
        roots = {c + types[type_of[fg]].representative for m in ct.members
                 for c, mask in rel.up_step[P[m]].items()
                 for fg in rel.pairs_of(mask)}
        children[ct.id] = [(r[0], type_of[r[1:]]) for r in sorted(roots)]
    expanding = {ct.id: any(len(children[j]) >= 2 for j in forward[ct.id])
                 for ct in types}
    return forward, children, expanding


def build_atlas(model, order_key=None, level_bump=0):
    """Classify types, decide expansion, and build one covering per type plus
    the root covering of the language.

    The child-cone tree below a cone depends only on the cone's type, so a
    covering is a finite cut of that tree whose leaf types include every
    forward type.  The cut is searched on types, then spelled out as words
    from the child tables: the shallowest uniform level ("uniform"), else
    the first cut of a breadth-first search ("cut"; free products of cyclic
    groups such as Z_2 * Z_3 need it), or a non-expanding type's only child
    ("single-child"), once ``_certify_types`` has checked the child tables.
    Levels share memos across types.  ``order_key`` permutes the slot order;
    ``level_bump`` moves uniform cuts that many qualifying levels deeper
    (both for robustness checks).
    """
    rel = saturate_supports(model)
    types, type_of = classify_types(model, rel)
    forward, children, expanding_types = _type_graph(model, rel, types, type_of)
    atlas = ConeAtlas(model, rel, types, type_of, forward, children,
                      expanding_types, depth_cap=4 * len(types) + 8)
    _certify_types(atlas)
    uniform = _uniform_levels(atlas, level_bump)
    lists = {(ct.id, 0): ([ct.representative], [ct.id], len(ct.members))
             for ct in types}
    for ct in types:
        atlas.coverings[ct.id] = _build_type_covering(
            atlas, ct, order_key, uniform[ct.id], lists)
    atlas.root_covering = _build_root_covering(atlas, order_key)
    return atlas


def _make_slots(roots, types, key=None):
    """Slots in the given order, or in the order of ``key`` on the roots."""
    if key is not None:
        roots, types = zip(*sorted(zip(roots, types),
                                   key=lambda node: key(node[0])))
    counters = {t: count(1) for t in set(types)}
    # tuple.__new__ makes each slot without a Python-level constructor call
    return list(map(tuple.__new__, repeat(SubconeSlot), zip(
        roots, types, map(next, map(counters.__getitem__, types)))))


# A type-level cut maps (depth, type id) to a number of leaves; depth 1
# holds the child cones of the covered type.

def _build_type_covering(atlas, ct, order_key, uniform, lists):
    kids, cut = atlas.children[ct.id], {}
    if not atlas.expanding_types[ct.id]:
        if len(kids) != 1:
            raise AssumptionError(f"non-expanding type {ct.representative} "
                                  f"has {len(kids)} child cones")
        depth, method = 1, "single-child"
    elif uniform is not None:
        depth, method = uniform, "uniform"
    else:
        cut, method = _search_cut(atlas, ct), "cut"
        depth = max(d for d, _ in cut)
    slots = _make_slots(*_spell_cut(atlas, ct, cut, depth, lists), order_key)
    return Covering(ct.id, slots, depth_bound=depth + 3, method=method,
                    certified=True)


def _uniform_levels(atlas, level_bump):
    """Per type, the shallowest depth within the cap whose cones have every
    forward type (or the ``level_bump``-th such after it, if any), or None;
    row t of the d-th power of the type child matrix: the types d below t."""
    n = len(atlas.types)
    child, needed = np.zeros((2, n, n), dtype=bool)
    for t, kids in atlas.children.items():
        child[t, [c for _, c in kids]] = True
        needed[t, list(atlas.forward_types[t])] = True
    level, hits, found = child, np.zeros(n, dtype=int), [None] * n
    for depth in range(1, atlas.depth_cap + 1):
        hit = (level >= needed).all(axis=1) & (hits <= level_bump)
        found = [depth if h else f for h, f in zip(hit.tolist(), found)]
        hits += hit
        if (hits > level_bump).all():
            break
        level = level @ child
    return found


def _search_cut(atlas, ct):
    """Breadth-first search over cuts, one leaf expanded per step and none
    deeper than the depth cap, for the first whose leaf types include every
    forward type."""
    needed, children = atlas.forward_types[ct.id], atlas.children
    start = tuple(sorted(Counter((1, c) for _, c in children[ct.id]).items()))
    frontier, seen = [start], {start}
    while frontier:
        if len(seen) > CUT_BUDGET:
            raise AssumptionError(f"covering search for type {ct.representative}"
                                  f" exceeded its budget of {CUT_BUDGET} cuts")
        deeper = []
        for cut in frontier:
            if needed <= {t for (_, t), _ in cut}:
                return dict(cut)
            for (d, t), _ in cut:
                grown = Counter(dict(cut))
                grown[d, t] -= 1
                grown += Counter((d + 1, c) for _, c in children[t])
                grown = tuple(sorted(grown.items()))
                if d < atlas.depth_cap and grown not in seen:
                    seen.add(grown)
                    deeper.append(grown)
        frontier = deeper
    raise AssumptionError(f"type {ct.representative} has no covering within "
                          f"depth cap {atlas.depth_cap}")


def _spell_cut(atlas, ct, cut, depth, lists):
    """The roots and types of a cut's slots in root order: above its depth
    the first nodes of a type stay leaves, as many as ``cut`` holds, and
    the others are expanded; every node at its depth is a leaf."""
    first = min((d for d, _ in cut), default=depth)
    roots, types, _ = _level(atlas, ct.id, first, lists)
    if first == depth:
        return roots, types
    leaves, slots, nodes = dict(cut), [], list(zip(roots, types))
    for d in range(first, depth):
        expand = []
        for node in nodes:
            if leaves.get((d, node[1])):
                leaves[d, node[1]] -= 1
                slots.append(node)
            else:
                expand.append(node)
        nodes = sorted((root[:-2] + w, k) for root, t in expand
                       for w, k in zip(*_level(atlas, t, 1, lists)[:2]))
        if sum(len(atlas.types[k].members) for _, k in nodes) > WORD_BUDGET:
            raise AssumptionError(f"cone enumeration exceeded {WORD_BUDGET} words")
    return zip(*sorted(slots + nodes))


def _level(atlas, t, depth, lists):
    """Roots, types and words of the cones ``depth`` levels below a node of
    type ``t`` in root order, kept per (type, depth) in ``lists``: each
    child's letter before its type's level above, merged if they interleave."""
    todo = [(t, depth)]
    while todo:
        t, d = todo.pop()
        kids = atlas.children[t]
        missing = [(k, d - 1) for _, k in kids if (k, d - 1) not in lists]
        if missing:
            todo += [(t, d), *missing]
        elif (t, d) not in lists:
            words = sum(lists[k, d - 1][2] for _, k in kids)
            if words > WORD_BUDGET:
                raise AssumptionError(f"cone enumeration exceeded {WORD_BUDGET} words")
            roots, types, merge = [], [], False
            for c, k in kids:
                n = len(roots)
                roots += map(c.__add__, lists[k, d - 1][0])
                types += lists[k, d - 1][1]
                merge |= 0 < n < len(roots) and roots[n - 1] > roots[n]
            if merge:
                roots, types = map(list, zip(*sorted(zip(roots, types))))
            lists[t, d] = roots, types, words
    return lists[t, depth]


def _certify_types(atlas):
    """Exact-cover certificate, once per (type, letter): the closures of a
    type's child cones (c, k) partition the pairs that an ascent by c
    reaches from its members.  A pass makes each closure its child's whole
    class, so a cut that keeps each node as a leaf or expands it into all
    of its children covers every level below it exactly once (the README's
    "Cone membership" section has the induction and weak symmetry's part)."""
    rel, P = atlas.rel, atlas.rel.pair_index
    for ct in atlas.types:
        members = sum(1 << P[m] for m in ct.members)
        for c in atlas.model.alphabet:
            masks = [rel.closure[P[atlas.types[k].representative]]
                     for d, k in atlas.children[ct.id] if d == c]
            once = _covered_once(masks)
            if once != rel.advance(members, c) or any(m & ~once for m in masks):
                raise AssumptionError(f"covering certificate failed: child "
                                      f"cones of type {ct.representative} by "
                                      f"letter {c} overlap or miss pairs")


def _covered_once(masks):
    """The bits set in exactly one of ``masks``."""
    seen = twice = 0
    for m in masks:
        twice |= seen & m
        seen |= m
    return seen & ~twice


def _build_root_covering(atlas, key):
    """Cover the language by the distinct level-2 cones; the word cw lies
    in the cone of the pair r iff the ascent by c from r's closure holds w."""
    model, rel = atlas.model, atlas.rel
    w2 = set(reachable_sets(model).words2)
    roots = []
    for ct in atlas.types:
        mem2 = [m for m in ct.members if m in w2]
        if not mem2:
            raise AssumptionError(
                f"type {ct.representative} has no words at level 2; the "
                "level-2 root covering does not apply")
        roots.append(min(mem2))
    cov = Covering(-1, _make_slots(roots, [ct.id for ct in atlas.types],
                                   key or (lambda w: w)),
                   depth_bound=3, method="root-level2")
    once = {c: _covered_once(rel.advance(rel.closure[rel.pair_index[s.root]], c)
                             for s in cov.slots) for c in model.alphabet}
    for w in reachable_sets(model).words3:
        if not once[w[0]] >> rel.pair_index[w[1:]] & 1:
            raise AssumptionError(f"root covering certificate failed at {w}")
    cov.certified = True
    return cov


def limit_words(model, atlas):
    """Deterministic limit words of a transient non-expanding walk, one per
    root-covering cone, as (prefix, cycle) with the word = prefix + cycle^inf."""
    if atlas.expanding:
        raise AssumptionError("limit words are only defined for non-expanding walks")
    out = []
    for slot in atlas.root_covering.slots:
        prefix = slot.root[:-2]
        letters = []
        seen = {}
        cur = slot.type_id
        while cur not in seen:
            seen[cur] = len(letters)
            kids = atlas.children[cur]
            if len(kids) != 1:
                raise AssumptionError("non-expanding walk with branching child cones")
            first, nxt = kids[0]
            letters.append(first)
            cur = nxt
        start = seen[cur]
        word = prefix + "".join(letters[:start])
        cycle = "".join(letters[start:])
        out.append((word, cycle))
    return sorted(set(out))
