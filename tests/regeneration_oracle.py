"""Monte Carlo evaluation of the regeneration sum, the independent check of
the sandwich on classes whose cone types have several boundary suffixes
(there the sum does not telescope and the package reports no exact value)."""
import math

import numpy as np

from rlentropy.entropy import ExactEntropy, _suffix_mass
from rlentropy.model import AssumptionError


def regeneration_mc(chain, cls, samples=50_000, seed=29):
    """Samples first-return blocks of the increment chain to the first
    single-boundary suffix ``ab`` and averages the negative log of the
    coarsened block weight, a forward vector over the boundary mates of
    each step's target (the class words sharing its frozen part and ending
    in a boundary suffix of its type).  The value is nu(ab) times the mean;
    ``truncation_bound`` is three standard errors."""
    atlas = chain.atlas
    boundaries = [atlas.types[t].boundary_suffixes for t in sorted(cls.types)]
    single = [b[0] for b in boundaries if len(b) == 1]
    if not single:
        raise AssumptionError("no single-boundary cone type in this class")
    ab = single[0]
    nu_ab = _suffix_mass(chain, cls).get(ab, 0.0)
    class_words = {chain.states[i] for i in cls.state_ids}
    row_maps = {s: dict(zip(r.targets, map(float, r.probs)))
                for s, r in chain.suffix_rows.items()}
    rows = {s: (r.targets, np.asarray(r.probs, dtype=float) / r.probs.sum())
            for s, r in chain.suffix_rows.items()}
    mates_memo = {}

    def mates(word):
        if word not in mates_memo:
            t = atlas.type_of[word[-2:]]
            mates_memo[word] = [word[:-2] + cd
                                for cd in atlas.types[t].boundary_suffixes
                                if word[:-2] + cd in class_words]
        return mates_memo[word]

    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = np.empty(samples)
    for k in range(samples):
        sfx = ab
        beta = None
        while True:
            targets, probs = rows[sfx]
            y = targets[int(rng.choice(len(targets), p=probs))]
            if beta is None:
                beta = {ym: row_maps[ab].get(ym, 0.0) for ym in mates(y)}
            else:
                beta = {ym: sum(bm * row_maps[mate[-2:]].get(ym, 0.0)
                                for mate, bm in beta.items())
                        for ym in mates(y)}
            if y[-2:] == ab:
                vals[k] = -math.log(beta[y])
                break
            sfx = y[-2:]
    value = nu_ab * float(vals.mean())
    se = nu_ab * float(vals.std(ddof=1) / math.sqrt(samples))
    return ExactEntropy(value, 3 * se, ab, "regeneration-mc")
