"""Generating-function tables at z = 1: values and first z-derivatives.

The descent functions solve a quadratic system (least fixed point from the
all-zeros table); the within-level Green values and the one-level-up
last-entry values follow from finite linear systems.  Derivatives come from
implicit differentiation at the solved point, one linear solve each, with
finite differencing kept only as a test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import saturate_supports

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
    descent functions, plus its Jacobian."""

    def __init__(self, model):
        self.model = model
        A = model.alphabet
        self.nA = len(A)
        self.letter_index = {a: i for i, a in enumerate(A)}
        self.pairs = [a + b for a in A for b in A]
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        nP, nA = len(self.pairs), self.nA

        self.base = np.zeros((nP, nA))
        self.level = []   # (i, j, p)
        self.up = []      # (i, d_letter_idx, ef_pair_idx, p)
        for pr, i in self.pair_index.items():
            for rhs, p in model.down_rules.get(pr, ()):
                self.base[i, self.letter_index[rhs]] += p
            for rhs, p in model.level_rules.get(pr, ()):
                self.level.append((i, self.pair_index[rhs], p))
            for rhs, p in model.up_rules.get(pr, ()):
                self.up.append((i, self.letter_index[rhs[0]],
                                self.pair_index[rhs[1:]], p))

    def apply(self, x, z):
        out = self.base.copy()
        for i, j, p in self.level:
            out[i] += p * x[j]
        nA = self.nA
        for i, d, ef, p in self.up:
            out[i] += p * (x[ef] @ x[d * nA:(d + 1) * nA])
        return z * out

    def jacobian(self, x, z):
        nP, nA = len(self.pairs), self.nA
        N = nP * nA
        J = np.zeros((N, N))
        eye = np.eye(nA)
        for i, j, p in self.level:
            J[i * nA:(i + 1) * nA, j * nA:(j + 1) * nA] += z * p * eye
        for i, d, ef, p in self.up:
            # d/dx[ef, g] -> x[(d,g), c];  d/dx[(d,g), c] -> x[ef, g]
            J[i * nA:(i + 1) * nA, ef * nA:(ef + 1) * nA] += \
                z * p * x[d * nA:(d + 1) * nA].T
            for g in range(nA):
                dg = d * nA + g
                J[i * nA:(i + 1) * nA, dg * nA:(dg + 1) * nA] += \
                    z * p * x[ef, g] * eye
        return J


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


def solve_H(model, z=1.0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
            want_derivs=True):
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
            delta = np.linalg.solve(np.eye(nP * nA) - J, (fx - x).ravel())
            cand = x + delta.reshape(nP, nA)
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
        while iterations < max_iter:
            fx = sys_.apply(x, z)
            residual = float(np.max(np.abs(fx - x)))
            x = np.maximum(x, fx)
            iterations += 1
            if residual < tol:
                break
            if iterations % check_every == 0:
                if residual > 0.999 * last_res and residual > 1e3 * tol:
                    raise NonConvergenceError(residual, iterations)
                last_res = residual
        if residual >= tol:
            raise NonConvergenceError(residual, iterations)

    derivs = None
    if want_derivs:
        try:
            J = sys_.jacobian(x, z)
            lhs = np.eye(nP * nA) - J
            # dF/dz = F/z at the solution, i.e. x/z
            derivs = np.linalg.solve(lhs, (x / z).ravel()).reshape(nP, nA)
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
    for ab in model.reachable_suffixes:
        i = h.pairs.index(ab)
        v = 1.0 - float(h.values[i].sum())
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
            c, de = rhs[0], rhs[1:]
            hp = h.pairs.index(de)
            for f in np.flatnonzero(rel.supp_h[hp]):
                cf = c + model.alphabet[f]
                j = index[cf]
                K[i, j] += z * p * h.values[hp, f]
                Kz[i, j] += p * h.values[hp, f]
                if have_hd:
                    Kh[i, j] += z * p * h.derivs[hp, f]
    lhs = np.eye(n) - K
    if abs(np.linalg.det(lhs)) < 1e-300 or np.linalg.cond(lhs) > 1e14:
        raise SingularSystemError("within-level Green system is singular "
                                  "(recurrent or critical model)")
    inv = np.linalg.inv(lhs)
    values = inv
    derivs = inv @ (Kz + Kh) @ values if have_hd else None
    return GBarTable(rpairs, index, values, derivs)


@dataclass
class LBarTable:
    """One-level-up last-entry values organized for chain contraction:
    ``M[a][st, uv]`` is the value of arriving at the 3-letter word a+uv from
    the pair st (pairs indexed as in the within-level Green table)."""
    M: dict
    Md: dict | None


def compute_Lbar(model, gbar, z=1.0):
    index = gbar.index
    n = len(gbar.rpairs)
    M, Md = {}, ({} if gbar.derivs is not None else None)
    for a in model.alphabet:
        P = np.zeros((n, n))
        for uv, i in index.items():
            for rhs, p in model.up_rules.get(uv, ()):
                if rhs[0] == a:
                    P[i, index[rhs[1:]]] += p
        M[a] = gbar.values @ (z * P)
        if Md is not None:
            Md[a] = gbar.derivs @ (z * P) + gbar.values @ P
    return LBarTable(M, Md)


# -- short-word Green system ---------------------------------------------------

@dataclass
class ShortGreen:
    words: list
    index: dict
    values: np.ndarray

    def value(self, w1, w2):
        return float(self.values[self.index[w1], self.index[w2]])

    def l_value(self, w):
        """L(o, w) for |w| <= 3 via the last-visit factorization."""
        if w == "":
            return 1.0
        return self.value("", w) / self.value("", "")


def solve_green_short(model, h, z=1.0):
    """Green values between reachable words of length <= 3.

    Steps that would leave length 3 ascend and are folded back through the
    descent table."""
    rel = saturate_supports(model)
    words = list(model.reachable_short_words)
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    T = np.zeros((n, n))
    for w, i in index.items():
        for succ, p in model.successors(w):
            if len(succ) <= 3:
                T[i, index[succ]] += z * p
        if len(w) == 3:
            for rhs, p in model.up_rules.get(w[-2:], ()):
                c, de = rhs[0], rhs[1:]
                hp = h.pairs.index(de)
                for f in np.flatnonzero(rel.supp_h[hp]):
                    target = w[0] + c + model.alphabet[f]
                    T[i, index[target]] += z * p * h.values[hp, f]
    lhs = np.eye(n) - T
    if abs(np.linalg.det(lhs)) < 1e-300 or np.linalg.cond(lhs) > 1e14:
        raise SingularSystemError("short-word Green system is singular "
                                  "(recurrent or critical model)")
    return ShortGreen(words, index, np.linalg.inv(lhs))


# -- bundle --------------------------------------------------------------------

@dataclass
class GenFunTables:
    model: object
    h: HTable
    xi: dict
    transient: bool
    gbar: GBarTable | None = None
    lbar: LBarTable | None = None
    green_short: ShortGreen | None = None
    z: float = 1.0

    @property
    def has_derivs(self):
        return self.h.derivs is not None and self.gbar is not None \
            and self.gbar.derivs is not None


def solve_all(model, z=1.0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
              want_derivs=True, xi_tol=RECURRENCE_XI_TOL):
    """Full pipeline of tables; downstream tables are skipped when the model
    is not transient (they would be singular)."""
    h = solve_H(model, z=z, tol=tol, max_iter=max_iter, want_derivs=want_derivs)
    xi = compute_xi(model, h)
    transient = is_transient(xi, tol=xi_tol)
    gf = GenFunTables(model, h, xi, transient, z=z)
    if transient:
        gf.gbar = solve_Gbar(model, h, z=z)
        gf.lbar = compute_Lbar(model, gf.gbar, z=z)
        gf.green_short = solve_green_short(model, h, z=z)
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


class LWordEvaluator:
    """Last-entry contraction: a start row times ``lbar.M[c]`` along the
    frozen letters ``c`` of a word (all but the last two).

    The start row is the expansion's entry vector (last exit from level 1
    into each two-letter word), for L(o, w), or the unit vector of a suffix
    ``start``, for last-entry values from any word ending in it.  The stack
    holds one entry per frozen letter after the start: the normalized row,
    its z-derivative on the same scale (if ``with_deriv``) and the log of
    the scale, as the values decay exponentially in the word length.
    """

    def __init__(self, model, gf, start=None, with_deriv=False):
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
                            row[index[r.rhs]] += lb * gf.z * r.prob
        elif start in index:
            row[index[start]] = 1.0
        else:
            raise ValueError(f"suffix {start!r} not reachable")
        drow = np.zeros_like(row) if with_deriv else None
        self.stack = [(row / row.sum(), drow, float(np.log(row.sum())))]
        self.word = ""

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
            alpha, dalpha, scale = stack[-1]
            c = word[len(stack) - 1]
            m = self.M[c]
            raw = alpha @ m
            s = float(raw.sum()) or 1.0     # a zero row stays zero
            if self.Md is not None:
                dalpha = (dalpha @ m + alpha @ self.Md[c]) / s
            stack.append((raw / s, dalpha, scale + float(np.log(s))))
        self.word = word

    def log_value(self, expand=False):
        """log L(o, w) for the current word ``w`` from the expansion start:
        from the short-word system when |w| <= 3, unless ``expand`` asks for
        the chain route from |w| = 2 on."""
        w = self.word
        if len(w) < 2 or (len(w) <= 3 and not expand):
            v = self.gf.green_short.l_value("".join(w))
            return float(np.log(v)) if v > 0 else float("-inf")
        alpha, _, scale = self.stack[-1]
        v = float(alpha @ self.gf.gbar.values[:, self.index["".join(w[-2:])]])
        return scale + float(np.log(v)) if v > 0 else float("-inf")

    def last_entry(self):
        """The last-entry value from the start suffix to the current word
        and its z-derivative (None unless carried)."""
        alpha, dalpha, scale = self.stack[-1]
        j = self.index[self.word[-2:]]
        f = math.exp(scale)
        return alpha[j] * f, None if dalpha is None else dalpha[j] * f
