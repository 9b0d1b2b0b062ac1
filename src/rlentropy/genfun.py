"""Generating-function tables at z = 1: values and first z-derivatives.

The descent functions solve a quadratic system (least fixed point from the
all-zeros table, Newton steps on a Jacobian built by one scatter); the
within-level Green values and the one-level-up last-entry values follow
from finite linear systems.  Derivatives come from implicit
differentiation at the solved point, one linear solve each, with finite
differencing kept only as a test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import saturate_supports
from .model import AssumptionError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10 ** 6
# Published recurrence threshold on the minimal escape probability.  The
# critical fixed point is resolvable in double precision only down to about
# 2**-27 (the iteration becomes exact in floats there), so thresholds below
# ~1e-8 cannot fire; overridable per call.
RECURRENCE_XI_TOL = 1e-7


class NonConvergenceError(RuntimeError):
    def __init__(self, residual, iterations):
        super().__init__(f"fixed-point iteration stalled at residual {residual:.3e} "
                         f"after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


class SingularSystemError(RuntimeError):
    """Linear system singular: the model sits at or past the critical
    (recurrent / null-recurrent) boundary."""


# -- the descent system ------------------------------------------------------

class _HSystem:
    """Vectorized evaluation of the first-step case distinction for the
    descent functions, plus its Jacobian.  Both add their terms in rule
    order, level rules first, so each entry gets the bits of a loop over
    the rules."""

    def __init__(self, model):
        rel = saturate_supports(model)
        self.pairs = rel.pairs
        self.nA = nA = len(model.alphabet)
        N = len(self.pairs) * nA
        self.base = np.zeros((len(self.pairs), nA))
        for i, c, p in rel.down:
            self.base[i, c] += p
        level = np.array(rel.level, dtype=float).reshape(-1, 3)
        asc = np.array(rel.up, dtype=float).reshape(-1, 4)
        li, lj = level[:, :2].T.astype(np.intp)
        ui, ud, uef = asc[:, :3].T.astype(np.intp)
        # apply: row i takes p * x[j] per level rule ab -> cd, then
        # p * (x[ef] @ x[d*nA:(d+1)*nA]) per ascent ab -> d ef
        self.rows, self.lj, self.ud, self.uef = np.r_[li, ui], lj, ud, uef
        self.lp, self.up = level[:, 2], asc[:, 3]
        # the Jacobian as a scatter: flat entry at[k] takes
        # z * coef[k] * x.flat[src[k]], where src N reads 1.0.  A level rule
        # fills the diagonal of its block (i, j); an ascent the block
        # (i, ef) with x[d*nA:(d+1)*nA].T, then for each g the diagonal of
        # the block (i, d*nA + g) with x[ef, g]
        c = np.arange(nA)
        at = [((li[:, None] * nA + c) * N + lj[:, None] * nA + c).ravel()]
        src = [np.full(len(li) * nA, N)]
        coef = [self.lp.repeat(nA)]
        i, d, ef = ui[:, None, None], ud[:, None, None], uef[:, None, None]
        c, g = c[:, None], c[None, :]
        ef_at = (i * nA + c) * N + ef * nA + g
        dg_at = (i * nA + c) * N + (d * nA + g) * nA + c
        ef_src = (d * nA + g) * nA + c
        dg_src = np.broadcast_to(ef * nA + g, dg_at.shape)
        at.append(np.concatenate([ef_at, dg_at], axis=1).ravel())
        src.append(np.concatenate([ef_src, dg_src], axis=1).ravel())
        coef.append(self.up.repeat(2 * nA * nA))
        # unknowns: supp_h's entries in flat order; as it is closed, no entry
        # off it depends on one in it, so Newton steps are zero off it
        self.supp = S = np.flatnonzero(rel.supp_h)
        inside, pos = rel.supp_h.ravel(), np.cumsum(rel.supp_h) - 1
        row, col = np.divmod(np.concatenate(at), N)
        keep = inside[row] & inside[col]
        self.at = (pos[row] * len(S) + pos[col])[keep]
        self.src, self.coef = (np.concatenate(a)[keep] for a in (src, coef))

    def apply(self, x, z):
        terms = np.concatenate([
            self.lp[:, None] * x[self.lj],
            self.up[:, None] * np.matmul(
                x[self.uef][:, None, :],
                x.reshape(-1, self.nA, self.nA)[self.ud])[:, 0]])
        out = self.base.copy()
        np.add.at(out, self.rows, terms)
        return z * out

    def jacobian(self, x, z):
        n = len(self.supp)
        vals = (z * self.coef) * np.r_[x.ravel(), 1.0][self.src]
        return np.bincount(self.at, vals, n * n).reshape(n, n)


@dataclass
class HTable:
    pairs: list
    letters: tuple
    values: np.ndarray            # nP x nA
    derivs: np.ndarray | None     # None when the derivative system is singular
    iterations: int
    residual: float

    def value(self, ab, c):
        return float(self.values[self.pairs.index(ab),
                                 self.letters.index(c)])


def solve_H(model, z=1.0, tol=DEFAULT_TOL, want_derivs=True):
    """Least fixed point of the quadratic descent system at the given z.

    Monotone iteration from the all-zeros table, Newton-accelerated: each
    accepted step stays below the least fixed point, so spurious larger
    roots are never selected.  The derivative table solves the linearized
    system at the solution; a singular linearization marks the critical
    regime and leaves ``derivs`` as None.
    """
    sys_ = _HSystem(model)
    nP, nA = len(sys_.pairs), sys_.nA
    x = np.zeros((nP, nA))
    S, eye = sys_.supp, np.eye(len(sys_.supp))    # x is zero off S
    residual = np.inf
    iterations = 0

    # Near criticality the residual understates the value error (the
    # resolvent blows up), while the Newton step tracks it; require both
    # to be small before stopping.
    step_norm = np.inf
    for _ in range(400):
        iterations += 1
        fx = sys_.apply(x, z)
        residual = float(np.max(np.abs(fx - x)))
        if residual < tol and step_norm < 10 * tol:
            x = np.maximum(x, fx)
            break
        step_ok = False
        try:
            J = sys_.jacobian(x, z)
            delta = np.linalg.solve(eye - J, (fx - x).flat[S])
            cand = x.copy()
            cand.flat[S] += delta
            # accept only monotone steps that stay weakly below the fixed point
            if np.isfinite(cand).all() and (cand >= x - 1e-14).all():
                f_cand = sys_.apply(cand, z)
                if (f_cand >= cand - 1e-9).all():
                    step_norm = float(np.max(np.abs(cand - x)))
                    x = np.maximum(cand, x)
                    step_ok = True
        except np.linalg.LinAlgError:
            pass
        if not step_ok:
            step_norm = residual
            x = np.maximum(x, fx)

    if residual >= tol:
        # plain monotone sweeps with a geometric progress check
        check_every = 1000
        last_res = residual
        while iterations < DEFAULT_MAX_ITER:
            fx = sys_.apply(x, z)
            residual = float(np.max(np.abs(fx - x)))
            x = np.maximum(x, fx)
            iterations += 1
            # an exact fixed point stops the sweeps even at tol = 0
            if residual < tol or residual == 0:
                break
            if iterations % check_every == 0:
                if residual > 0.999 * last_res and residual > 1e3 * tol:
                    raise NonConvergenceError(residual, iterations)
                last_res = residual
        else:
            raise NonConvergenceError(residual, iterations)

    derivs = None
    if want_derivs:
        try:
            J = sys_.jacobian(x, z)
            # dF/dz = F/z at the solution, i.e. x/z
            derivs = np.zeros((nP, nA))
            derivs.flat[S] = np.linalg.solve(eye - J, (x / z).flat[S])
            # an (almost) singular linearization marks the critical regime;
            # its blown-up solutions are meaningless, so mark unavailable
            if not np.isfinite(derivs).all() or (derivs < -1e-9).any() \
                    or np.abs(derivs).max() > 1e7:
                derivs = None
        except np.linalg.LinAlgError:
            derivs = None

    return HTable(sys_.pairs, model.alphabet, x, derivs, iterations, residual)


# -- xi and transience --------------------------------------------------------

def compute_xi(model, h):
    """Escape probabilities 1 - sum of descent values, on reachable suffixes."""
    xi = {}
    P = saturate_supports(model).pair_index
    for ab in model.reachable_suffixes:
        v = 1.0 - float(h.values[P[ab]].sum())
        if v < -1e-9:
            raise NonConvergenceError(-v, h.iterations)
        xi[ab] = max(v, 0.0)
    return xi


def is_transient(xi, tol=RECURRENCE_XI_TOL):
    """Transient iff every reachable suffix has positive escape probability.

    Values within ``tol`` of zero are treated as zero; a model with some but
    not all escape probabilities zero is neither usable nor recurrent (the
    caller must reject it)."""
    return min(xi.values()) > tol


# -- within-level Green and one-level-up tables -------------------------------

@dataclass
class GBarTable:
    rpairs: list
    index: dict
    values: np.ndarray
    derivs: np.ndarray | None

    def value(self, ab, cd):
        return float(self.values[self.index[ab], self.index[cd]])


def solve_Gbar(model, h, z=1.0):
    """Within-level Green values from the linear first-step system; the
    derivative reuses the same resolvent."""
    rel = saturate_supports(model)
    rpairs = list(model.reachable_suffixes)
    index = {p: i for i, p in enumerate(rpairs)}
    n = len(rpairs)
    K = np.zeros((n, n))
    Kz = np.zeros((n, n))   # z-derivative of K, without the H' part
    Kh = np.zeros((n, n))   # the H' part
    have_hd = h.derivs is not None
    for ab, i in index.items():
        for rhs, p in model.level_rules.get(ab, ()):
            j = index[rhs]
            K[i, j] += z * p
            Kz[i, j] += p
        for rhs, p in model.up_rules.get(ab, ()):
            c, hp = rhs[0], rel.pair_index[rhs[1:]]
            for f in np.flatnonzero(rel.supp_h[hp]):
                cf = c + model.alphabet[f]
                j = index[cf]
                K[i, j] += z * p * h.values[hp, f]
                Kz[i, j] += p * h.values[hp, f]
                if have_hd:
                    Kh[i, j] += z * p * h.derivs[hp, f]
    values = _checked_inverse(np.eye(n) - K, "within-level Green")
    derivs = values @ (Kz + Kh) @ values if have_hd else None
    return GBarTable(rpairs, index, values, derivs)


@dataclass
class LBarTable:
    """One-level-up last-entry values organized for chain contraction:
    ``M[a][st, uv]`` is the value of arriving at the 3-letter word a+uv from
    the pair st (pairs indexed as in the within-level Green table)."""
    M: dict
    Md: dict | None


def compute_Lbar(model, gbar):
    index = gbar.index
    n = len(gbar.rpairs)
    M, Md = {}, ({} if gbar.derivs is not None else None)
    for a in model.alphabet:
        P = np.zeros((n, n))
        for uv, i in index.items():
            for rhs, p in model.up_rules.get(uv, ()):
                if rhs[0] == a:
                    P[i, index[rhs[1:]]] += p
        M[a] = gbar.values @ P
        if Md is not None:
            Md[a] = gbar.derivs @ P + gbar.values @ P
    return LBarTable(M, Md)


# -- short-word Green values ---------------------------------------------------

class ShortGreen:
    """Green values between reachable words of length <= 3: at level <= 1
    from the trace of the walk there (a chain watched on a subset has the
    same Green function there: Woess, Random Walks on Infinite Graphs and
    Groups, 2000), else from the length-3 system, solved on first use."""

    def __init__(self, model, h):
        # the rules, not the model: the model caches these tables
        self._source = (model.rules, saturate_supports(model), h,
                        model.reachable_short_words)
        self.index, self.values = _green_system(*self._source, 1)

    @cached_property
    def _long(self):
        return _green_system(*self._source, 3)

    def value(self, w1, w2):
        index, values = (self._long if len(w1) > 1 or len(w2) > 1
                         else (self.index, self.values))
        return float(values[index[w1], index[w2]])

    def l_value(self, w):
        """L(o, w) for |w| <= 3 via the last-visit factorization."""
        if w == "":
            return 1.0
        return self.value("", w) / self.value("", "")


def _green_system(rules, rel, h, words, top):
    """(index, inverse) of the Green system on the reachable ``words`` up to
    length ``top``; steps past it fold back through the descent table."""
    index = {w: i for i, w in enumerate(w for w in words if len(w) <= top)}
    T = np.zeros((len(index), len(index)))
    for fold in (False, True):
        for w, i in index.items():
            for r in rules.get(w[-2:], ()):
                succ = w[:-2] + r.rhs
                if len(succ) <= top and not fold:
                    T[i, index[succ]] += r.prob
                elif len(succ) > top and fold:
                    hp = rel.pair_index[succ[-2:]]
                    for f in np.flatnonzero(rel.supp_h[hp]):
                        T[i, index[succ[:-2] + h.letters[f]]] += \
                            r.prob * h.values[hp, f]
    return index, _checked_inverse(np.eye(len(T)) - T, "short-word Green")


def _checked_inverse(lhs, name):
    """The inverse of the n x n system ``lhs``, refused as singular at a zero
    pivot or when kappa_1 > 1e14 / n, so whenever kappa_2 > 1e14 (kappa_2 <=
    n kappa_1: Higham, Accuracy and Stability, 2nd ed., 6.2)."""
    try:
        inv = np.linalg.inv(lhs)
        if np.linalg.norm(lhs, 1) * np.linalg.norm(inv, 1) <= 1e14 / len(lhs):
            return inv
    except np.linalg.LinAlgError:
        pass
    raise SingularSystemError(f"{name} system is singular "
                              "(recurrent or critical model)")


# -- bundle --------------------------------------------------------------------

@dataclass
class GenFunTables:
    h: HTable
    xi: dict
    transient: bool
    gbar: GBarTable | None = None
    lbar: LBarTable | None = None
    green_short: ShortGreen | None = None

    @property
    def has_derivs(self):
        return self.h.derivs is not None and self.gbar is not None \
            and self.gbar.derivs is not None


def solve_all(model, tol=DEFAULT_TOL, xi_tol=RECURRENCE_XI_TOL):
    """Full pipeline of tables; downstream tables are skipped when the model
    is not transient (they would be singular).  A model whose reachable
    words never reach length 2 has no escape probabilities to judge
    transience by, and raises AssumptionError."""
    if not model.reachable_suffixes:
        raise AssumptionError("no reachable word has two letters: the walk "
                              "has no two-letter suffix to escape from")
    h = solve_H(model, tol=tol)
    xi = compute_xi(model, h)
    transient = is_transient(xi, tol=xi_tol)
    gf = GenFunTables(h, xi, transient)
    if transient:
        gf.gbar = solve_Gbar(model, h)
        gf.lbar = compute_Lbar(model, gf.gbar)
        gf.green_short = ShortGreen(model, h)
    return gf


def L_word(model, gf, w, force_expansion=False):
    """Value of the last-visit function from the empty word to ``w`` at z=1.

    Words of length <= 3 read the short-word system directly unless
    ``force_expansion`` asks for the chain route (the two must agree; the
    comparison is a standing consistency check)."""
    unknown = set(w) - set(model.alphabet)
    if unknown:
        raise ValueError(f"letters {sorted(unknown)!r} not in alphabet")
    ev = LWordEvaluator(model, gf)
    ev.step(w)
    return math.exp(ev.log_value(expand=force_expansion))


def _push(alpha, dalpha, scale, m, md):
    """One normalized push: ``alpha`` times ``m``, divided by its sum, whose
    log is added to ``scale``; ``dalpha`` carries the z-derivative on the
    same scale by the product rule with ``md``.  ``alpha`` is one row of
    shape (n,) with one (n, n) matrix, or a stack of 1 x n rows, shape
    (..., 1, n), with one matrix each (``scale`` then has shape (..., 1)).
    A zero row keeps its scale and stays zero.  Each row of a stack gets
    the bits the single-row push would give it: the stacked matmul makes
    one vector-matrix product per row and the sum runs along each row."""
    raw = np.matmul(alpha, m)
    s = np.add.reduce(raw, axis=-1)
    s += s == 0
    per_row = s[..., None]
    if dalpha is not None:
        dalpha = (np.matmul(dalpha, m) + np.matmul(alpha, md)) / per_row
    return np.divide(raw, per_row, out=raw), dalpha, scale + np.log(s)


class LWordEvaluator:
    """Last-entry contraction: a start row times ``lbar.M[c]`` along the
    frozen letters ``c`` of a word (all but the last two).

    The start row is the expansion's entry vector (last exit from level 1
    into each two-letter word), for L(o, w), or the unit vector of a suffix
    ``start``, for last-entry values from any word ending in it (``model``
    is read only for the expansion and for rows).  The stack
    holds one entry per frozen letter after the start: the normalized row,
    its z-derivative on the same scale (if ``with_deriv``) and the log of
    the scale, as the values decay exponentially in the word length.

    With ``rows=R`` the evaluator carries R words at once (without
    derivative), moved together by ``replay``: each row's stack keeps only
    the entries it is told to save, and its top entry is row ``r`` of
    ``alpha`` and ``scale``.
    """

    def __init__(self, model, gf, start=None, with_deriv=False, rows=None):
        self.gf = gf
        self.M = gf.lbar.M
        self.Md = gf.lbar.Md if with_deriv else None
        self.index = index = gf.gbar.index
        row = np.zeros(len(index))
        if start is None:
            for b in model.alphabet:
                if b in gf.green_short.index:
                    lb = gf.green_short.l_value(b)
                    for r in model.row(b):
                        if len(r.rhs) == 2:
                            row[index[r.rhs]] += lb * r.prob
        elif start in index:
            row[index[start]] = 1.0
        else:
            raise ValueError(f"suffix {start!r} not reachable")
        drow = np.zeros_like(row) if with_deriv else None
        entry = (row / row.sum(), drow, float(np.log(row.sum())))
        if rows is None:
            self.stack = [entry]
            self.word = ""
            return
        # letter id -> M, and letter id -> letter for the words' text
        self.Ms = np.stack([self.M[a] for a in model.alphabet])
        self.text = dict(enumerate(model.alphabet))
        # per row, the saved entries (depth, row, log scale) by depth
        self.saved = [[(0, entry[0], entry[2])] for _ in range(rows)]
        self.alpha = np.tile(entry[0], (rows, 1))
        self.scale = np.full(rows, entry[2])
        self.word = [""] * rows

    def step(self, word, keep=None):
        """Move to ``word``, whose first ``keep`` letters are those of the
        previous word (every stacked letter when None, as on a walk, whose
        steps rewrite only the last two letters): drop the entries past
        them and push one per remaining frozen letter."""
        stack = self.stack
        n = len(word) - 1       # the start plus one entry per frozen letter
        if keep is not None:
            del stack[keep + 1:]
        if len(stack) > n:
            del stack[max(n, 1):]
        while len(stack) < n:
            c = word[len(stack) - 1]
            stack.append(_push(*stack[-1], self.M[c],
                               None if self.Md is None else self.Md[c]))
        self.word = word

    def replay(self, keep, tails, save):
        """Move row ``r`` to the word whose first ``keep[r]`` letters are
        those of its current word, followed by ``tails[r]`` (bytes of letter
        ids into the alphabet).  The row drops its saved entries deeper than
        ``keep[r]``, restarts from the one at that depth (the start, or an
        entry an earlier replay saved) and pushes its remaining frozen
        letters; level by level, one stacked push serves every row that
        still needs one.  The entries at the depths in ``save[r]`` are saved
        for later replays."""
        words = [w[:k] + t.decode("latin-1").translate(self.text)
                 for w, k, t in zip(self.word, keep, tails)]
        for r, (saved, k) in enumerate(zip(self.saved, keep)):
            while saved[-1][0] > k:
                saved.pop()
            if saved[-1][0] != k:
                raise ValueError(f"row {r}: no saved entry at depth {k}")
        todo = np.array([max(len(w) - 2, 0) - k for w, k in zip(words, keep)])
        order = np.argsort(-todo, kind="stable")    # rows needing most first
        alpha = np.array([self.saved[r][-1][1] for r in order])[:, None, :]
        scale = np.array([self.saved[r][-1][2] for r in order])[:, None]
        letters = np.zeros((len(order), todo.max(initial=0)), dtype=np.uint8)
        events = []                                 # (level, position, row)
        for i, r in enumerate(order):
            if todo[r]:
                letters[i, :todo[r]] = np.frombuffer(tails[r], np.uint8,
                                                     todo[r])
            events += [(d - keep[r], i, r) for d in save[r]]
        events.sort(reverse=True)
        # the rows still pushing at each level (todo descends along order)
        live = np.searchsorted(-todo[order], -np.arange(1, letters.shape[1]
                                                        + 1), side="right")
        for level, a in enumerate(live.tolist(), start=1):
            alpha[:a], _, scale[:a] = _push(alpha[:a], None, scale[:a],
                                            self.Ms[letters[:a, level - 1]],
                                            None)
            while events and events[-1][0] == level:
                _, i, r = events.pop()
                self.saved[r].append((keep[r] + level, alpha[i, 0].copy(),
                                      scale[i, 0]))
        self.alpha[order], self.scale[order] = alpha[:, 0], scale[:, 0]
        self.word = words

    def log_value(self, expand=False, row=None):
        """log L(o, w) for the current word ``w`` (row ``row``'s, with
        rows) from the expansion start: from the short-word system when
        |w| <= 3, unless ``expand`` asks for the chain route from |w| = 2
        on."""
        if row is None:
            w, (alpha, _, scale) = self.word, self.stack[-1]
        else:
            w, alpha, scale = self.word[row], self.alpha[row], self.scale[row]
        if len(w) < 2 or (len(w) <= 3 and not expand):
            v = self.gf.green_short.l_value("".join(w))
            return float(np.log(v)) if v > 0 else float("-inf")
        v = float(alpha @ self.gf.gbar.values[:, self.index["".join(w[-2:])]])
        return float(scale + np.log(v)) if v > 0 else float("-inf")
