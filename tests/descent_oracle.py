"""Reference for the descent system: the first-step case distinction and
its Jacobian as loops over the rules, one block at a time."""
import numpy as np

from rlentropy.cones import saturate_supports


def apply(model, x, z):
    rel = saturate_supports(model)
    nA = len(model.alphabet)
    out = np.zeros((len(rel.pairs), nA))
    for i, c, p in rel.down:
        out[i, c] += p
    for i, j, p in rel.level:
        out[i] += p * x[j]
    for i, d, ef, p in rel.up:
        out[i] += p * (x[ef] @ x[d * nA:(d + 1) * nA])
    return z * out


def jacobian(model, x, z):
    rel = saturate_supports(model)
    nA = len(model.alphabet)
    N = len(rel.pairs) * nA
    J = np.zeros((N, N))
    eye = np.eye(nA)
    for i, j, p in rel.level:
        J[i * nA:(i + 1) * nA, j * nA:(j + 1) * nA] += z * p * eye
    for i, d, ef, p in rel.up:
        # d/dx[ef, g] -> x[(d,g), c];  d/dx[(d,g), c] -> x[ef, g]
        J[i * nA:(i + 1) * nA, ef * nA:(ef + 1) * nA] += \
            z * p * x[d * nA:(d + 1) * nA].T
        for g in range(nA):
            dg = d * nA + g
            J[i * nA:(i + 1) * nA, dg * nA:(dg + 1) * nA] += \
                z * p * x[ef, g] * eye
    return J
