"""Reference for weak symmetry: a depth-first search over the ball of
reachable words up to a given length, testing each edge found for an exact
reverse edge.  It misses violations that first occur on longer words."""


def ball_violations(model, max_len=6):
    """(suffix, successor suffix) of every one-step transition out of a
    reachable word of length <= ``max_len`` with no one-step reverse, in
    search order."""
    violations = []
    seen = {""}
    frontier = [""]
    while frontier:
        word = frontier.pop()
        for succ, _p in model.successors(word):
            if not any(w == word for w, q in model.successors(succ) if q > 0):
                pair = (word[-2:], succ[-2:])
                if pair not in violations:
                    violations.append(pair)
            if len(succ) <= max_len and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return violations


def window_violations(model):
    """The same pairs from the reachable short words and three-letter
    windows, each step checked against the successors of its successor,
    in the order of the words and of their steps."""
    from rlentropy import cones
    sets = cones.reachable_sets(model)
    violations = []
    for word in sets.short_words + sets.windows:
        for succ, _p in model.successors(word):
            if not any(w == word for w, _q in model.successors(succ)):
                pair = (word[-2:], succ[-2:])
                if pair not in violations:
                    violations.append(pair)
    return violations
