"""Reference for last-entry contractions: the unnormalized product of the
one-level-up matrices from the unit vector of a source suffix, with its
z-derivative by the product rule, sharing prefixes between consecutive
targets through the prefix strings it stacks; and the last-entry value of
one word, read off the package's evaluator."""
import math

import numpy as np

from rlentropy.genfun import LWordEvaluator


def mathL(gf, x, y):
    """Last-entry value from ``x`` to the relative word ``y`` (|y| >= 3),
    chained over one-level-up factors: the evaluator started at x's last
    two letters, stepped to y, at y's suffix."""
    ev = LWordEvaluator(None, gf, x[-2:])
    ev.step(y)
    alpha, _, scale = ev.stack[-1]
    return alpha[gf.gbar.index[y[-2:]]] * math.exp(scale)


class UnnormalizedContraction:
    """Last-entry values and z-derivatives from the suffix ``ab``."""

    def __init__(self, gf, ab):
        self.gf = gf
        index = gf.gbar.index
        alpha = np.zeros(len(index))
        alpha[index[ab]] = 1.0
        self.stack = [("", alpha, np.zeros(len(index)))]

    def _extend(self, prefix):
        while len(self.stack) > 1 and not prefix.startswith(self.stack[-1][0]):
            self.stack.pop()
        base, alpha, dalpha = self.stack[-1]
        for ch in prefix[len(base):]:
            dalpha = dalpha @ self.gf.lbar.M[ch] + alpha @ self.gf.lbar.Md[ch]
            alpha = alpha @ self.gf.lbar.M[ch]
            base = base + ch
            self.stack.append((base, alpha, dalpha))

    def value(self, y):
        """(value, z-derivative) of the last-entry function at ``y``."""
        self._extend(y[:-2])
        _, alpha, dalpha = self.stack[-1]
        j = self.gf.gbar.index[y[-2:]]
        return float(alpha[j]), float(dalpha[j])
