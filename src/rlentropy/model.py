"""Model files, rule tables and the two standing structural checks.

A model is a random walk on words over a finite alphabet: in one step the
last two letters of the current word may be rewritten, with the word length
changing by at most one.  Rules are keyed by the left-hand pattern (the
empty word ``o``, a single letter, or a two-letter suffix).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ROW_TOL = 1e-12

# legal (len(lhs), len(rhs)) combinations
_SHAPES = {
    0: (0, 1),
    1: (0, 1, 2),
    2: (1, 2, 3),
}


class ModelError(ValueError):
    """Malformed model file or rule table."""


class AssumptionError(RuntimeError):
    """A structural assumption required by the analysis does not hold."""


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: str
    prob: float

    def __post_init__(self):
        if len(self.lhs) not in _SHAPES:
            raise ModelError(f"rule {self.lhs!r} -> {self.rhs!r}: lhs must have 0..2 letters")
        if len(self.rhs) not in _SHAPES[len(self.lhs)]:
            raise ModelError(
                f"rule {self.lhs!r} -> {self.rhs!r}: rhs length {len(self.rhs)} "
                f"not allowed for lhs length {len(self.lhs)}")
        if not self.prob > 0:
            raise ModelError(f"rule {self.lhs!r} -> {self.rhs!r}: prob must be > 0")


class WalkModel:
    """Validated rule table plus derived index structures.

    Immutable after construction; all solvers treat it as read-only.
    """

    def __init__(self, alphabet, rules, check_stochastic=True, source=None):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ModelError("alphabet is empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ModelError("alphabet letters are not distinct")
        for a in self.alphabet:
            if len(a) != 1:
                raise ModelError(f"letter {a!r}: letters must be single characters")
            if a == "o":
                raise ModelError("the token 'o' is reserved for the empty word")
        letters = set(self.alphabet)

        table: dict[str, list[Rule]] = {}
        for r in rules:
            if not isinstance(r, Rule):
                r = Rule(*r)
            for ch in r.lhs + r.rhs:
                if ch not in letters:
                    raise ModelError(f"rule {r.lhs!r} -> {r.rhs!r}: unknown letter {ch!r}")
            if any(prev.rhs == r.rhs for prev in table.get(r.lhs, ())):
                raise ModelError(
                    f"duplicate rule {r.lhs or 'o'!r} -> {r.rhs or 'o'!r}")
            table.setdefault(r.lhs, []).append(r)
        self.rules = {lhs: tuple(sorted(rs, key=lambda r: r.rhs))
                      for lhs, rs in sorted(table.items())}
        self.source = source

        if check_stochastic:
            self.validate_rows()

        # rule lists split by shape, for the generating-function systems
        self.down_rules = {}    # lhs pair -> [(letter, p)]
        self.level_rules = {}   # lhs pair -> [(pair, p)]
        self.up_rules = {}      # lhs pair -> [(3-letter word, p)]
        for lhs, rs in self.rules.items():
            if len(lhs) != 2:
                continue
            self.down_rules[lhs] = [(r.rhs, r.prob) for r in rs if len(r.rhs) == 1]
            self.level_rules[lhs] = [(r.rhs, r.prob) for r in rs if len(r.rhs) == 2]
            self.up_rules[lhs] = [(r.rhs, r.prob) for r in rs if len(r.rhs) == 3]

    # -- basic queries ----------------------------------------------------

    def row(self, lhs):
        return self.rules.get(lhs, ())

    def prob(self, lhs, rhs):
        for r in self.row(lhs):
            if r.rhs == rhs:
                return r.prob
        return 0.0

    def successors(self, word):
        """One-step successors [(word', prob)] of an arbitrary word."""
        if len(word) <= 1:
            return [(r.rhs, r.prob) for r in self.row(word)]
        prefix, lhs = word[:-2], word[-2:]
        return [(prefix + r.rhs, r.prob) for r in self.row(lhs)]

    def validate_rows(self):
        if "" not in self.rules:
            raise ModelError("row 'o' is missing: the walk has no first step")
        for lhs, rs in self.rules.items():
            total = sum(r.prob for r in rs)
            if abs(total - 1.0) > ROW_TOL:
                raise ModelError(
                    f"row {lhs or 'o'!r} sums to {total!r}, not 1 (tolerance {ROW_TOL})")

    def with_rules(self, rules, check_stochastic=True):
        return WalkModel(self.alphabet, rules, check_stochastic=check_stochastic,
                         source=self.source)

    def all_rules(self):
        return [r for rs in self.rules.values() for r in rs]

    def min_prob(self):
        return min(r.prob for rs in self.rules.values() for r in rs)

    # -- derived reachability (delegated to the saturation machinery) -----

    @property
    def reachable_suffixes(self):
        """Two-letter suffixes occurring in reachable words, sorted."""
        from . import cones
        return cones.reachable_sets(self).suffixes

    @property
    def reachable_short_words(self):
        """Reachable words of length <= 3, including the empty word."""
        from . import cones
        return cones.reachable_sets(self).short_words

    def __repr__(self):
        n = sum(len(rs) for rs in self.rules.values())
        return f"WalkModel(|A|={len(self.alphabet)}, rules={n})"


# -- parsing ---------------------------------------------------------------

def _parse_prob(text, lineno):
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"line {lineno}: bad probability {text!r}: {exc}") from None


def parse_model(text, source=None, check_stochastic=True):
    """Parse the line-based model format into a WalkModel.

    ``alphabet:`` declares the letters; each ``rule: lhs -> rhs : prob`` line
    adds one transition, with ``o`` denoting the empty word and probabilities
    given as decimals or fractions ``p/q``.  Rows are validated against
    stochasticity, never renormalized.
    """
    alphabet = None
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise ModelError(f"line {lineno}: duplicate alphabet declaration")
            alphabet = line[len("alphabet:"):].split()
            if not alphabet:
                raise ModelError(f"line {lineno}: empty alphabet")
            continue
        if line.startswith("rule:"):
            if alphabet is None:
                raise ModelError(f"line {lineno}: rule before alphabet declaration")
            body = line[len("rule:"):]
            if "->" not in body or body.count(":") != 1:
                raise ModelError(f"line {lineno}: expected 'rule: lhs -> rhs : prob'")
            lr, prob_text = body.rsplit(":", 1)
            lhs_text, rhs_text = (s.strip() for s in lr.split("->", 1))
            lhs = "" if lhs_text == "o" else lhs_text
            rhs = "" if rhs_text == "o" else rhs_text
            try:
                rules.append(Rule(lhs, rhs, _parse_prob(prob_text, lineno)))
            except ModelError as exc:
                raise ModelError(f"line {lineno}: {exc}") from None
            continue
        raise ModelError(f"line {lineno}: unrecognized directive {line.split(':')[0]!r}")
    if alphabet is None:
        raise ModelError("missing alphabet declaration")
    return WalkModel(alphabet, rules, check_stochastic=check_stochastic, source=source)


def load_model(path, check_stochastic=True):
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), source=str(path), check_stochastic=check_stochastic)


# -- structural checks -----------------------------------------------------

@dataclass
class CheckReport:
    ok: bool
    name: str
    violations: list = field(default_factory=list)
    detail: str = ""

    def __bool__(self):
        return self.ok


def check_weak_symmetry(model):
    """Every one-step transition must be reversible in one step.

    Decided exactly: a step rewrites only the last two letters, so whether
    its reverse exists depends only on the last three letters of the word
    (the letter before the pair matters when the step descends).  Testing
    the reachable words of length <= 3 and the reachable three-letter
    windows therefore covers every reachable word.  A step to ``succ`` is
    reversed by a rule on its last k = max(|succ| - 2, 0) letters.  The
    report is cached on the (immutable) model.
    """
    if not hasattr(model, "_weak_symmetry"):
        from . import cones
        sets = cones.reachable_sets(model)
        rhs_of = {lhs: {r.rhs for r in rs} for lhs, rs in model.rules.items()}
        violations = []
        for word in sets.short_words + sets.windows:
            for succ, _p in model.successors(word):
                k = max(len(succ) - 2, 0)
                if (word[:k] != succ[:k]
                        or word[k:] not in rhs_of.get(succ[k:], ())):
                    pair = (word[-2:], succ[-2:])
                    if pair not in violations:
                        violations.append(pair)
        model._weak_symmetry = CheckReport(not violations, "weak-symmetry",
                                           violations)
    return model._weak_symmetry


def check_suffix_irreducibility(model):
    """From any reachable suffix, any other reachable suffix must be
    attainable through words that never drop below the starting level."""
    from . import cones
    rel = cones.saturate_supports(model)
    suffixes = model.reachable_suffixes
    failures = [(ab, cd) for ab in suffixes for cd in suffixes
                if not rel.reaches_ge2(ab, cd)]
    return CheckReport(not failures, "suffix-irreducibility", failures)


def check_relaxed_condition(model, gf):
    """Weaker escape condition: from every reachable suffix some suffix with
    positive escape probability must be attainable at level >= 2.

    Fails exactly for models where some cones trap the walk with almost-sure
    descent (half-line attachments and the like).
    """
    from . import cones
    rel = cones.saturate_supports(model)
    suffixes = model.reachable_suffixes
    from .genfun import RECURRENCE_XI_TOL
    failures = []
    for ab in suffixes:
        if not any(rel.reaches_ge2(ab, cd) and gf.xi[cd] > RECURRENCE_XI_TOL
                   for cd in suffixes):
            failures.append(ab)
    return CheckReport(not failures, "relaxed-condition", failures)
