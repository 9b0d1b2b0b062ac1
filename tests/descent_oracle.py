"""References for the descent system: the first-step case distinction and
its Jacobian as loops over the rules, one block at a time; the monotone
Newton iteration on every entry of the table, with the dense Jacobian; and
the Green system on every reachable word of length <= 3."""
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


def solve_H_dense(model, z=1.0, tol=1e-12):
    """The descent table by the monotone Newton iteration on every (pair,
    letter) entry: the dense N x N step with N = |pairs| |A|, from the
    rule-loop system above; (values, derivatives or None)."""
    rel = saturate_supports(model)
    nP, nA = len(rel.pairs), len(model.alphabet)
    x, step_norm = np.zeros((nP, nA)), np.inf
    for _ in range(400):
        fx = apply(model, x, z)
        residual = float(np.max(np.abs(fx - x)))
        if residual < tol and step_norm < 10 * tol:
            x = np.maximum(x, fx)
            break
        step_ok = False
        try:
            delta = np.linalg.solve(np.eye(nP * nA) - jacobian(model, x, z),
                                    (fx - x).ravel())
            cand = x + delta.reshape(nP, nA)
            if np.isfinite(cand).all() and (cand >= x - 1e-14).all():
                if (apply(model, cand, z) >= cand - 1e-9).all():
                    step_norm = float(np.max(np.abs(cand - x)))
                    x = np.maximum(cand, x)
                    step_ok = True
        except np.linalg.LinAlgError:
            pass
        if not step_ok:
            step_norm = residual
            x = np.maximum(x, fx)
    else:
        raise AssertionError("dense Newton oracle did not converge")
    lhs = np.eye(nP * nA) - jacobian(model, x, z)
    derivs = np.linalg.solve(lhs, (x / z).ravel()).reshape(nP, nA)
    return x, derivs


def green_short_system(model, h, z=1.0):
    """(index, inverse) of the Green system on every reachable word of
    length <= 3, steps past length 3 folded back through the descent table
    ``h``, as one matrix inverse."""
    rel = saturate_supports(model)
    words = list(model.reachable_short_words)
    index = {w: i for i, w in enumerate(words)}
    T = np.zeros((len(words), len(words)))
    for w, i in index.items():
        for succ, p in model.successors(w):
            if len(succ) <= 3:
                T[i, index[succ]] += z * p
        if len(w) == 3:
            for rhs, p in model.up_rules.get(w[-2:], ()):
                hp = rel.pair_index[rhs[1:]]
                for f in np.flatnonzero(rel.supp_h[hp]):
                    T[i, index[w[0] + rhs[0] + model.alphabet[f]]] += \
                        z * p * h.values[hp, f]
    return index, np.linalg.inv(np.eye(len(words)) - T)
