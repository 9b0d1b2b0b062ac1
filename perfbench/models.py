"""Generated model families: free groups F_k and regular trees T_d.

Both are simple random walks on reduced words, written in the model file
format of ``rlentropy``.  With ``rng=None`` the text lists the alphabet and
the rules in canonical order (the order of ``fixtures/fg2.rw`` and
``fixtures/t3.rw``); with a ``random.Random`` the alphabet declaration and
the rule lines are shuffled, which leaves the walk itself unchanged.

Closed forms (simple random walk, k generators / degree d):

    F_k:  ell = (k-1)/k,  h = (k-1)/k * log(2k-1)
    T_d:  ell = (d-2)/d,  h = (d-2)/d * log(d-1)
"""
from __future__ import annotations

import math
import string


def _reduced_walk_text(letters, inverse, title, rng=None):
    """Simple random walk on words with no letter followed by its inverse."""
    prob = f"1/{len(letters)}"
    ok_after = {x: [y for y in letters if y != inverse[x]] for x in letters}
    rules = [f"rule: o -> {x} : {prob}" for x in letters]
    rules += [f"rule: {x} -> {rhs} : {prob}" for x in letters
              for rhs in ["o"] + [x + y for y in ok_after[x]]]
    for x in letters:
        for y in ok_after[x]:
            rules.append(f"rule: {x}{y} -> {x} : {prob}")
            rules += [f"rule: {x}{y} -> {x}{y}{z} : {prob}" for z in ok_after[y]]
    alphabet = list(letters)
    if rng is not None:
        rng.shuffle(alphabet)
        rng.shuffle(rules)
    return "\n".join([f"# {title}", "alphabet: " + " ".join(alphabet), *rules, ""])


def free_group(k, rng=None):
    """Model text of the simple random walk on the free group F_k: letters
    a, A, b, B, ... with the upper case letter the inverse."""
    letters = [c for g in string.ascii_lowercase[:k] for c in (g, g.upper())]
    inverse = {c: c.swapcase() for c in letters}
    return _reduced_walk_text(letters, inverse, f"F_{k} (generated)", rng)


def tree(d, rng=None):
    """Model text of the simple random walk on the d-regular tree T_d:
    d self-inverse letters a, b, c, ..."""
    letters = list(string.ascii_lowercase[:d])
    return _reduced_walk_text(letters, {c: c for c in letters},
                              f"T_{d} (generated)", rng)


def free_group_exact(k):
    """(ell, h) of the simple random walk on F_k."""
    ell = (k - 1) / k
    return ell, ell * math.log(2 * k - 1)


def tree_exact(d):
    """(ell, h) of the simple random walk on T_d."""
    ell = (d - 2) / d
    return ell, ell * math.log(d - 1)
