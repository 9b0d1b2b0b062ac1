"""Cone structure of the walk: reachability saturation, cone types, coverings.

Everything here is support-level (boolean): which transitions are possible,
never with what probability.  All reachability questions are answered on the
two-letter suffix system with ascent/descent saturation; explicit word
enumeration only happens inside cones up to the covering depth.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AssumptionError


# -- support saturation ------------------------------------------------------

class ReachRelation:
    """Boolean least fixed points of the descent/level/ascent systems.

    ``supp_h[p, c]``    descent from suffix pair p can first hit the level
                        below ending in letter c.
    ``reach22[p, q]``   a path from pair p to pair q staying at relative
                        level >= 2 exists, both endpoints at level 2.
    ``reach_ge2[p, q]`` a word with suffix q at some level >= 2 is reachable
                        from pair p without dropping below p's level.
    """

    def __init__(self, model):
        self.model = model
        A = model.alphabet
        self.pairs = [a + b for a in A for b in A]
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.letter_index = {a: i for i, a in enumerate(A)}
        nP, nA = len(self.pairs), len(A)

        down, level, up = [], [], []
        for p, i in self.pair_index.items():
            for rhs, _ in model.down_rules.get(p, ()):
                down.append((i, self.letter_index[rhs]))
            for rhs, _ in model.level_rules.get(p, ()):
                level.append((i, self.pair_index[rhs]))
            for rhs, _ in model.up_rules.get(p, ()):
                up.append((i, self.letter_index[rhs[0]], self.pair_index[rhs[1:]]))
        self._down, self._level, self._up = down, level, up

        self.supp_h = self._saturate_h(nP, nA)
        self.reach22 = self._saturate_reach22(nP)
        self.reach_ge2 = self._saturate_reach_ge2()

        # membership automaton: a state is a bitmask of pairs at one level;
        # ``closure[p]`` is the reach22 row of p, ``up_step[p][c]`` the
        # pairs reached from p by an ascent freezing c, then reach22;
        # ``class_of[p]`` labels p's class of mutually reachable pairs
        self.closure = [sum(1 << int(j) for j in np.flatnonzero(row))
                        for row in self.reach22]
        self.up_step = [{} for _ in range(nP)]
        for i, c, de in up:
            step, letter = self.up_step[i], A[c]
            step[letter] = step.get(letter, 0) | self.closure[de]
        self._advance = {}
        mutual = self.reach22 & self.reach22.T
        self.class_of = {p: int(np.argmax(mutual[i]))
                         for p, i in self.pair_index.items()}

    def _pair_of(self, letter_i, letter_j):
        return letter_i * len(self.letter_index) + letter_j

    def _saturate_h(self, nP, nA):
        h = np.zeros((nP, nA), dtype=bool)
        for i, c in self._down:
            h[i, c] = True
        changed = True
        while changed:
            changed = False
            new = h.copy()
            for i, j in self._level:
                new[i] |= h[j]
            for i, d, ef in self._up:
                # descend twice: first from ef ending at g, then from (d, g)
                for g in np.flatnonzero(h[ef]):
                    new[i] |= h[self._pair_of(d, g)]
            if (new != h).any():
                h, changed = new, True
        return h

    def _saturate_reach22(self, nP):
        edge = np.eye(nP, dtype=bool)
        for i, j in self._level:
            edge[i, j] = True
        for i, c, de in self._up:
            # up to cde, excursion back down through supp_h lands on (c, f)
            for f in np.flatnonzero(self.supp_h[de]):
                edge[i, self._pair_of(c, f)] = True
        return _transitive_closure(edge)

    def _saturate_reach_ge2(self):
        edge = self.reach22.copy()
        for i, _c, de in self._up:
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

    # string-keyed accessors
    def h_supported(self, pair, letter):
        return bool(self.supp_h[self.pair_index[pair], self.letter_index[letter]])

    def reaches_ge2(self, p, q):
        return bool(self.reach_ge2[self.pair_index[p], self.pair_index[q]])

    def supp_gbar(self, p, q):
        return bool(self.reach22[self.pair_index[p], self.pair_index[q]])


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


def reachable_sets(model):
    """Exact reachable short words and the full reachable suffix set.

    Words of length <= 3 come from a mutual fixpoint of level entries and
    within-level wandering (excursions above are folded in through the
    descent supports).  Suffix sets at level n+1 are the reach22-closures of
    ascent targets from level n; the union over levels is the suffix set.
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

    w3 = set()
    for ab in w2:
        for rhs, _ in model.up_rules.get(ab, ()):
            for fg in np.flatnonzero(rel.reach22[P[rhs[1:]]]):
                w3.add(rhs[0] + rel.pairs[fg])

    suffixes = set(w2)
    level = frozenset(w2)
    seen = set()
    while level and level not in seen:
        seen.add(level)
        nxt = set()
        for ab in level:
            for rhs, _ in model.up_rules.get(ab, ()):
                for fg in np.flatnonzero(rel.reach22[P[rhs[1:]]]):
                    nxt.add(rel.pairs[fg])
        suffixes |= nxt
        level = frozenset(nxt)

    short = ("",) + tuple(sorted(w1)) + tuple(sorted(w2)) + tuple(sorted(w3))
    model._reachable_sets = ReachableSets(
        tuple(sorted(w1)), tuple(sorted(w2)), tuple(sorted(w3)),
        tuple(sorted(suffixes)), short)
    return model._reachable_sets


# -- cone membership ---------------------------------------------------------

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


# -- cone types --------------------------------------------------------------

@dataclass(frozen=True)
class ConeType:
    id: int
    representative: str
    members: tuple
    boundary_suffixes: tuple
    unambiguous: bool


@dataclass(frozen=True)
class SubconeSlot:
    root: str          # relative word, len >= 3 (len 2 in the root covering)
    type_id: int
    local_index: int   # 1-based index among same-type slots of the covering


@dataclass
class Covering:
    owner_type: int    # -1 for the root covering of the language
    slots: list
    depth_bound: int
    level: int | None
    method: str
    certified: bool = False

    def n_of_type(self, type_id):
        return sum(1 for s in self.slots if s.type_id == type_id)


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


def _cone_level_words(model, rel, roots2, level, budget=2_000_000):
    """All relative words of the cone with 2-letter members ``roots2`` at the
    given level, as full strings in the 2-letter root frame."""
    words = list(roots2)
    for _ in range(level - 2):
        nxt = set()
        for w in words:
            for c, mask in rel.up_step[rel.pair_index[w[-2:]]].items():
                nxt.update(w[:-2] + c + fg for fg in rel.pairs_of(mask))
        words = sorted(nxt)
        if len(words) > budget:
            raise AssumptionError(f"cone enumeration exceeded budget at level {level}")
    return words


def _group_same_level_cones(rel, words):
    """Group equal-length words into cone classes (same prefix, mutually
    reachable suffixes); returns {lex-least root: member list}."""
    groups = {}
    for w in words:
        groups.setdefault((w[:-2], rel.class_of[w[-2:]]), []).append(w)
    return dict(sorted((min(ms), ms) for ms in groups.values()))


def _children_classes(model, rel, roots):
    """The child cones one level below ``roots`` (2-letter members of a
    type, or one longer root)."""
    return _group_same_level_cones(rel, _cone_level_words(model, rel, roots, 3))


def _type_graph(model, rel, types, type_of):
    """Forward-reachable types and child cones (first letter, type) of each
    type, and whether each type reaches one with two or more child cones."""
    P = rel.pair_index
    forward, children = {}, {}
    for ct in types:
        reach = {type_of[cd] for cd in model.reachable_suffixes
                 if rel.reach_ge2[P[ct.representative], P[cd]]}
        forward[ct.id] = frozenset(reach | {ct.id})
        children[ct.id] = [(root[0], type_of[root[-2:]])
                           for root in _children_classes(model, rel, ct.members)]
    expanding = {ct.id: any(len(children[j]) >= 2 for j in forward[ct.id])
                 for ct in types}
    return forward, children, expanding


def build_atlas(model, order_key=None, method="auto", level_bump=0):
    """Classify types, decide expansion, and build one covering per type plus
    the root covering of the language.

    ``order_key`` permutes the deterministic slot ordering (used by the
    covering-robustness checks); ``level_bump`` forces uniform coverings one
    level deeper than minimal; ``method="recursive"`` skips the search for
    a uniform level, which "auto" falls back from.
    """
    rel = saturate_supports(model)
    types, type_of = classify_types(model, rel)
    forward, children, expanding_types = _type_graph(model, rel, types, type_of)
    atlas = ConeAtlas(model, rel, types, type_of, forward, children,
                      expanding_types, depth_cap=4 * len(types) + 8)
    key = order_key or (lambda w: w)

    for ct in types:
        atlas.coverings[ct.id] = _build_type_covering(
            atlas, ct, key, method=method, level_bump=level_bump)
    atlas.root_covering = _build_root_covering(atlas, key)
    return atlas


def _make_slots(atlas, roots, key):
    roots = sorted(roots, key=key)
    counts = {}
    slots = []
    for root in roots:
        t = atlas.type_of[root[-2:]]
        counts[t] = counts.get(t, 0) + 1
        slots.append(SubconeSlot(root, t, counts[t]))
    return slots


def _build_type_covering(atlas, ct, key, method="auto", level_bump=0):
    model, rel = atlas.model, atlas.rel
    needed = atlas.forward_types[ct.id]
    if not atlas.expanding_types[ct.id]:
        groups = _children_classes(model, rel, ct.members)
        if len(groups) != 1:
            raise AssumptionError("non-expanding type with several child cones")
        root = next(iter(groups))
        cov = Covering(ct.id, _make_slots(atlas, [root], key),
                       depth_bound=4, level=3, method="single-child")
        _certify(atlas, ct.members, cov)
        return cov

    def covering_groups(level):
        groups = _group_same_level_cones(
            rel, _cone_level_words(model, rel, ct.members, level))
        return groups if needed <= {atlas.type_of[r[-2:]] for r in groups} else None

    if method == "auto":
        found = None
        for level in range(3, atlas.depth_cap + 3):
            groups = covering_groups(level)
            if groups:
                found = (level, groups)
                break
        if found and level_bump:
            groups = covering_groups(found[0] + level_bump)
            if groups:
                found = (found[0] + level_bump, groups)
        if found:
            level, groups = found
            cov = Covering(ct.id, _make_slots(atlas, list(groups), key),
                           depth_bound=level + 1, level=level, method="uniform")
            _certify(atlas, ct.members, cov)
            return cov
    return _build_recursive_covering(atlas, ct, key)


def _build_recursive_covering(atlas, ct, key):
    """Exemplar search by repeated splitting into disjoint subcones (a
    breadth-balanced pool keeps exemplar depths small), then a lexicographic
    sweep at the certificate depth."""
    model, rel = atlas.model, atlas.rel
    missing = set(atlas.forward_types[ct.id])
    exemplars = []
    # pool of pairwise-disjoint available cones, shallowest first
    pool = [(len(r), r) for r in _children_classes(model, rel, ct.members)]
    pool.sort()

    while missing:
        if not pool:
            raise AssumptionError(
                f"covering search for type {ct.representative} ran out of "
                f"disjoint subcones within depth cap {atlas.depth_cap}")
        depth, root = pool.pop(0)
        if depth - 2 > atlas.depth_cap:
            raise AssumptionError(
                f"covering search for type {ct.representative} exceeded the "
                f"depth cap {atlas.depth_cap}")
        t = atlas.type_of[root[-2:]]
        if t in missing and pool:
            exemplars.append(root)
            missing.discard(t)
        else:
            # expand into the child cones of this root, keeping the pool
            # disjoint and (if the type is still needed) not losing it
            kids = [(len(r), r) for r in _children_classes(model, rel, [root])]
            if t in missing and len(kids) <= 1:
                exemplars.append(root)
                missing.discard(t)
            else:
                pool.extend(kids)
                pool.sort()

    depth = 1 + max(len(w) for w in exemplars)
    sweep = sorted(_cone_level_words(model, rel, ct.members, depth), key=key)
    kept = list(exemplars)
    fills = []
    for x in sweep:
        if any(in_cone(rel, v, x) for v in kept):
            continue
        kept.append(x)
        fills.append(x)
    cov = Covering(ct.id, _make_slots(atlas, exemplars + fills, key),
                   depth_bound=depth, level=None, method="recursive")
    _certify(atlas, ct.members, cov)
    return cov


def _certify(atlas, roots2, cov):
    """Exact-cover certificate: every cone word at the covering depth lies in
    exactly one slot cone.

    A cone word is a frozen prefix u followed by a pair of the automaton
    mask reached along u; a slot cone is the same automaton started from the
    root's closure where the root's prefix ends.  A depth-first walk over
    the frozen prefixes carries the cone mask and one mask per entered slot
    and checks at depth ``depth_bound - 2`` that each cone pair lies in
    exactly one slot mask.  Below the last slot prefix a node is determined
    by its masks and depth, so nodes that passed are memoised on those.
    """
    rel, P = atlas.rel, atlas.rel.pair_index
    leaf = cov.depth_bound - 2
    starts = {}
    for s in cov.slots:
        starts.setdefault(s.root[:-2], []).append(rel.closure[P[s.root[-2:]]])
    pending = {u[:k] for u in starts for k in range(len(u))}
    letters = sorted(atlas.model.alphabet)
    passed = set()

    def walk(u, mask, active):
        active = sorted(active + starts.get(u, []))
        key = None if u in pending else (mask, tuple(active), len(u))
        if key in passed:
            return
        if len(u) == leaf:
            seen = twice = 0
            for m in active:
                twice |= seen & m
                seen |= m
            bad = mask & (twice | ~seen)
            if bad:
                w = min(u + fg for fg in rel.pairs_of(bad))
                hits = sum(m >> P[w[-2:]] & 1 for m in active)
                raise AssumptionError(
                    f"covering certificate failed: {w} lies in {hits} slot cones")
        else:
            for c in letters:
                nxt = rel.advance(mask, c)
                if nxt:
                    walk(u + c, nxt, [m for m in (rel.advance(a, c) for a in active)
                                      if m])
        if key is not None:
            passed.add(key)

    walk("", sum(1 << P[r] for r in set(roots2)), [])
    cov.certified = True


def _build_root_covering(atlas, key):
    """Cover the language by the distinct level-2 cones."""
    model = atlas.model
    w2 = set(reachable_sets(model).words2)
    roots = []
    for ct in atlas.types:
        mem2 = [m for m in ct.members if m in w2]
        if not mem2:
            raise AssumptionError(
                f"type {ct.representative} has no words at level 2; the "
                "level-2 root covering does not apply")
        roots.append(min(mem2))
    cov = Covering(-1, _make_slots(atlas, roots, key), depth_bound=3,
                   level=2, method="root-level2")
    for w in reachable_sets(model).words3:
        hits = sum(1 for s in cov.slots if in_cone(atlas.rel, s.root, w))
        if hits != 1:
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
