import pathlib
from fractions import Fraction

import pytest

import rlentropy as rle

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Two-letter walk with level swaps: every pair communicates within its level,
# so the single cone type has a four-word boundary (no unambiguous type).
MULTI_TEXT = """
alphabet: a b
rule: o -> a : 1/2
rule: o -> b : 1/2
rule: a -> o : 1/4
rule: a -> b : 1/4
rule: a -> aa : 1/4
rule: a -> ab : 1/4
rule: b -> o : 1/4
rule: b -> a : 1/4
rule: b -> ba : 1/4
rule: b -> bb : 1/4
rule: aa -> a : 1/4
rule: aa -> aa : 1/4
rule: aa -> aaa : 1/4
rule: aa -> aab : 1/4
rule: ab -> a : 1/4
rule: ab -> ba : 1/4
rule: ab -> aba : 1/4
rule: ab -> abb : 1/4
rule: ba -> b : 1/4
rule: ba -> ab : 1/4
rule: ba -> baa : 1/4
rule: ba -> bab : 1/4
rule: bb -> b : 1/4
rule: bb -> bb : 1/4
rule: bb -> bba : 1/4
rule: bb -> bbb : 1/4
"""


# generator letters: the lower-case alphabet without the reserved "o"
LETTERS = "abcdefghijklmnpqrstuvwxyz"


def fixture_path(name):
    return FIXTURES / f"{name}.rw"


def reduced_walk_text(letters, inverse):
    """Simple random walk on words with no letter followed by its inverse."""
    prob = f"1/{len(letters)}"
    after = {x: [y for y in letters if y != inverse[x]] for x in letters}
    rules = [f"rule: o -> {x} : {prob}" for x in letters]
    for x in letters:
        rules += [f"rule: {x} -> {rhs} : {prob}"
                  for rhs in ["o"] + [x + y for y in after[x]]]
        for y in after[x]:
            rules.append(f"rule: {x}{y} -> {x} : {prob}")
            rules += [f"rule: {x}{y} -> {x}{y}{z} : {prob}" for z in after[y]]
    return "\n".join(["alphabet: " + " ".join(letters), *rules])


def generator_letters(n):
    """The first ``n`` of ``LETTERS``; a ValueError if there are fewer."""
    if n > len(LETTERS):
        raise ValueError(f"{n} generators exceed the {len(LETTERS)} letters")
    return LETTERS[:n]


def free_group_text(k):
    """Simple random walk on reduced words of F_k (letters a, A, b, B, ...;
    the upper case letter is the inverse)."""
    letters = [c for g in generator_letters(k) for c in (g, g.upper())]
    return reduced_walk_text(letters, {c: c.swapcase() for c in letters})


def tree_text(d):
    """Simple random walk on the d-regular tree T_d (self-inverse letters)."""
    letters = list(generator_letters(d))
    return reduced_walk_text(letters, {c: c for c in letters})


def free_product_text(orders, weights=None):
    """Random walk on the free product Z_m * Z_n * ... of the given orders.

    A letter is a non-identity element of a factor, named consecutively
    (Z_2 * Z_3: a | b, c with b^2 = c); words alternate factors.  A step by
    letter s multiplies the last letter within its factor (deleting it at
    the identity) or appends s from another factor.  ``weights`` is the step
    law over the letters in that order, uniform by default; a letter of
    weight zero stays in the alphabet (as a product of steps) but has no
    step rules."""
    names = iter(LETTERS)
    factors = [[next(names) for _ in range(m - 1)] for m in orders]
    where = {x: (f, k) for f, xs in enumerate(factors)
             for k, x in enumerate(xs, start=1)}
    letters = list(where)
    weights = weights or [Fraction(1, len(letters))] * len(letters)
    mu = dict(zip(letters, (Fraction(w) for w in weights)))

    def times(x, s):
        (f, j), (_, k) = where[x], where[s]
        return factors[f][(j + k) % orders[f] - 1] if (j + k) % orders[f] else ""

    steps = [s for s in letters if mu[s] > 0]
    rules = [f"rule: o -> {s} : {mu[s]}" for s in steps]
    for lhs in letters + [x + y for x in letters for y in letters
                          if where[x][0] != where[y][0]]:
        y = lhs[-1]
        for s in steps:
            rhs = (lhs[:-1] + times(y, s) if where[s][0] == where[y][0]
                   else lhs + s)
            rules.append(f"rule: {lhs} -> {rhs or 'o'} : {mu[s]}")
    return "\n".join(["alphabet: " + " ".join(letters), *rules])


# generated free products of cyclic groups, by model name
FREE_PRODUCTS = {"z2z3": (2, 3), "z3z3": (3, 3)}

_cache = {}


def get_model(name):
    if name not in _cache:
        if name in FREE_PRODUCTS:
            _cache[name] = rle.parse_model(
                free_product_text(FREE_PRODUCTS[name]), source=name)
        elif name == "multi":
            _cache[name] = rle.parse_model(MULTI_TEXT, source="multi")
        elif name == "twotype":
            _cache[name] = rle.parse_model(TWOTYPE_TEXT, source="twotype")
        elif name == "mixed":
            _cache[name] = rle.parse_model(MIXED_TEXT, source="mixed")
        else:
            _cache[name] = rle.load_model(fixture_path(name))
    return _cache[name]


@pytest.fixture(scope="session")
def fg2():
    return get_model("fg2")


@pytest.fixture(scope="session")
def t3():
    return get_model("t3")


@pytest.fixture(scope="session")
def ne():
    return get_model("ne")


@pytest.fixture(scope="session")
def line():
    return get_model("line")


@pytest.fixture(scope="session")
def glued():
    return get_model("glued")


@pytest.fixture(scope="session")
def a2():
    return get_model("a2")


@pytest.fixture(scope="session")
def multi():
    return get_model("multi")


_gf_cache = {}


def get_gf(name):
    if name not in _gf_cache:
        _gf_cache[name] = rle.solve_all(get_model(name))
    return _gf_cache[name]


_analysis_cache = {}


def get_analysis(name, **kw):
    from rlentropy import pipeline
    key = (name, tuple(sorted(kw.items())))
    if key not in _analysis_cache:
        _analysis_cache[key] = pipeline.analyze(get_model(name), **kw)
    return _analysis_cache[key]


_atlas_cache = {}


def get_atlas(name, **kw):
    from rlentropy import cones
    key = (name, tuple(sorted(kw.items())))
    if key not in _atlas_cache:
        _atlas_cache[key] = cones.build_atlas(get_model(name), **kw)
    return _atlas_cache[key]


_chain_cache = {}


def get_chain(name):
    from rlentropy import lastentry
    if name not in _chain_cache:
        _chain_cache[name] = lastentry.build_chain(
            get_model(name), get_gf(name), get_atlas(name))
    return _chain_cache[name]


# Two communicating families {aa,ab} and {ba,bb} (linked by level rewrites),
# each a cone type with a two-word boundary; cross-ascents connect the types.
MIXED_TEXT = """
alphabet: a b
rule: o -> a : 1/2
rule: o -> b : 1/2
rule: a -> o : 1/4
rule: a -> aa : 3/8
rule: a -> ab : 3/8
rule: b -> o : 1/4
rule: b -> ba : 3/8
rule: b -> bb : 3/8
rule: aa -> a : 1/4
rule: aa -> ab : 1/4
rule: aa -> aaa : 1/4
rule: aa -> aab : 1/4
rule: ab -> a : 1/4
rule: ab -> aa : 1/4
rule: ab -> aba : 1/4
rule: ab -> abb : 1/4
rule: ba -> b : 1/4
rule: ba -> baa : 3/8
rule: ba -> bab : 3/8
rule: bb -> b : 1/4
rule: bb -> bba : 3/8
rule: bb -> bbb : 3/8
"""

# Two communicating families, each a cone type with a two-word boundary;
# cross-ascents connect the types.
TWOTYPE_TEXT = """
alphabet: a b
rule: o -> a : 1/2
rule: o -> b : 1/2
rule: a -> o : 1/4
rule: a -> aa : 3/8
rule: a -> ab : 3/8
rule: b -> o : 1/4
rule: b -> ba : 3/8
rule: b -> bb : 3/8
rule: aa -> a : 1/4
rule: aa -> ab : 1/4
rule: aa -> aaa : 1/4
rule: aa -> aab : 1/4
rule: ab -> a : 1/4
rule: ab -> aa : 1/4
rule: ab -> aba : 1/4
rule: ab -> abb : 1/4
rule: ba -> b : 1/4
rule: ba -> bb : 1/4
rule: ba -> baa : 1/4
rule: ba -> bab : 1/4
rule: bb -> b : 1/4
rule: bb -> ba : 1/4
rule: bb -> bba : 1/4
rule: bb -> bbb : 1/4
"""
