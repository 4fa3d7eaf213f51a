"""Weight-product inequalities and their grid verification harness.

All bounds are over weight vectors lam with sum 3 and lam_6 maximal,
and concern the ten products lam_i lam_j with 1 <= i < j <= 5:

* drop two disjoint products          -> at most 2      (tight at all 1/2)
* drop the three products of a triple -> at most 9/5
* lam_1 = 0 and drop one product      -> at most 9/5
* a fixed 3/5-weighted mix            -> at most 2      (tight at all 1/2)

``grid_verify_all`` sweeps every index instance of the four bounds over a
regular simplex grid, restricted to nondecreasing weight tuples (each
bound family is evaluated in all index permutations, so the sorted grid
covers the full one at a sixth of the cost).
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .admissible import HEAVY_PAIRS, PAIRS, _as_lambda, lambda_pair_products, pair_pos
from .errors import PreconditionError

__all__ = [
    "pair_drop_sum",
    "triple_drop_sum",
    "zero_lambda_drop",
    "weighted_sum",
    "ignore_term_bound",
    "grid_verify_all",
    "PAIR_DROP_BOUND",
    "TRIPLE_DROP_BOUND",
    "ZERO_DROP_BOUND",
    "WEIGHTED_BOUND",
]

PAIR_DROP_BOUND = 2.0
TRIPLE_DROP_BOUND = 9.0 / 5.0
ZERO_DROP_BOUND = 9.0 / 5.0
WEIGHTED_BOUND = 2.0

#: the 3/5-weighted pattern: full weight on the peculiar family's
#: magnitude-one pairs ``HEAVY_PAIRS``, weight 3/5 on the other five
LIGHT_PAIRS = tuple(p for p in PAIRS if p not in HEAVY_PAIRS)


def _pair_pos(i, j):
    return pair_pos(i, j)[0]


def pair_drop_sum(L, kl, mn) -> float:
    """sum lam_i lam_j over i<j<=5, minus lam_k lam_l and lam_m lam_n.

    Indices k, l, m, n must be four distinct values in 1..5.  The value
    never exceeds 2.
    """
    k, l = kl
    m, n = mn
    if len({k, l, m, n}) != 4:
        raise IndexError("need four distinct indices")
    p = lambda_pair_products(L)
    return float(p.sum() - p[_pair_pos(k, l)] - p[_pair_pos(m, n)])


def triple_drop_sum(L, klm) -> float:
    """sum lam_i lam_j over i<j<=5, minus the three products of a triple.

    The value never exceeds 9/5 (tight at lam = (.4, .4, .4, .6, .6, .6)).
    """
    k, l, m = klm
    if len({k, l, m}) != 3:
        raise IndexError("need three distinct indices")
    p = lambda_pair_products(L)
    return float(p.sum() - p[_pair_pos(k, l)] - p[_pair_pos(l, m)] - p[_pair_pos(k, m)])


def zero_lambda_drop(L, kl) -> float:
    """sum lam_i lam_j over i<j<=5 minus one product, given lam_1 = 0.

    Requires lam_1 = 0 and k, l in 2..5; the value never exceeds 9/5.
    """
    lam = _as_lambda(L)
    if lam[0] != 0.0:
        raise PreconditionError("first weight must be exactly zero")
    k, l = kl
    if k == l or not (2 <= k <= 5 and 2 <= l <= 5):
        raise IndexError("indices must be distinct and in 2..5")
    p = lambda_pair_products(lam)
    return float(p.sum() - p[_pair_pos(k, l)])


def weighted_sum(L) -> float:
    """Heavy pairs at weight 1 plus light pairs at weight 3/5; at most 2."""
    p = lambda_pair_products(L)
    heavy = sum(p[_pair_pos(*pair)] for pair in HEAVY_PAIRS)
    light = sum(p[_pair_pos(*pair)] for pair in LIGHT_PAIRS)
    return float(heavy + 0.6 * light)


def ignore_term_bound(a: float, b: float, c: float, x: float, y: float, z: float):
    """Quadratic bound on the zero-sum slice of the cube.

    For a, b, c >= 0 and (x, y, z) in [-1, 1]^3 with x + y + z = 0:

        a x^2 + b y^2 + c z^2  <=  a + b + c - min(a, b, c).

    Returns (value, bound).
    """
    if min(a, b, c) < 0:
        raise PreconditionError("coefficients must be nonnegative")
    if max(abs(x), abs(y), abs(z)) > 1.0 + 1e-12:
        raise PreconditionError("(x, y, z) must lie in [-1, 1]^3")
    if abs(x + y + z) > 1e-9:
        raise PreconditionError("coordinates must sum to zero")
    value = a * x * x + b * y * y + c * z * z
    return float(value), float(a + b + c - min(a, b, c))


# ---------------------------------------------------------------------------
# grid harness
# ---------------------------------------------------------------------------


def _sorted_weight_tuples(n: int):
    """Nondecreasing integer 6-tuples summing to n."""
    out = []

    def rec(prefix, lo, remaining, slots):
        if slots == 1:
            if remaining >= lo:
                out.append(prefix + (remaining,))
            return
        for k in range(lo, remaining // slots + 1):
            rec(prefix + (k,), k, remaining - k, slots - 1)

    rec((), 0, n, 6)
    return np.array(out, dtype=float)


def _weighted_patterns():
    """All relabelings of the 3/5 pattern under permutations of 1..5.

    HEAVY_PAIRS forms a 5-cycle, so exactly 12 distinct patterns exist.
    """
    seen = {}
    for perm in permutations(range(1, 6)):
        sigma = {i + 1: perm[i] for i in range(5)}
        heavy = frozenset(frozenset((sigma[i], sigma[j])) for i, j in HEAVY_PAIRS)
        if heavy not in seen:
            coeff = np.full(10, 0.6)
            for pair in heavy:
                coeff[_pair_pos(*pair)] = 1.0
            seen[heavy] = coeff
    return np.stack(list(seen.values()))


def grid_verify_all(step: float, tol: float = 1e-12) -> dict:
    """Check all four bounds over the simplex grid with the given step.

    Evaluates every index instance of every bound on each grid point and
    returns a report: per-family maxima, any violations beyond ``tol``,
    and the worst signed slack ``max_value = max(value - bound)`` with
    its weight vector.
    """
    if not (0.0 < step <= 0.5):
        raise PreconditionError("step must lie in (0, 0.5]")
    n = round(3.0 / step)  # effective step is 3/n
    K = _sorted_weight_tuples(n)
    lam = 3.0 * K / n
    N = len(lam)

    # ten pairwise products per grid point, PAIRS order over indices 1..5
    P = lambda_pair_products(lam)
    S = P.sum(axis=1)

    families = {}
    violations = []
    best = (-np.inf, None, None)  # excess, lambda, family

    def scan(name, values, bound, labels, weights=lam):
        """Record one family; row r of ``values`` belongs to ``weights[r]``."""
        nonlocal best
        excess = values - bound
        flat = int(np.argmax(excess))
        r, c = divmod(flat, values.shape[1])
        fmax = float(values[r, c])
        families[name] = {
            "bound": bound,
            "max_value": fmax,
            "argmax_lambda": [float(v) for v in weights[r]],
            "instances": values.shape[1],
        }
        if fmax - bound > best[0]:
            best = (fmax - bound, weights[r], name)
        bad = np.argwhere(excess > tol)
        for rr, cc in bad[:100]:
            violations.append(
                {
                    "family": name,
                    "lambda": [float(v) for v in weights[rr]],
                    "indices": labels[cc],
                    "value": float(values[rr, cc]),
                    "bound": bound,
                }
            )

    # pair_drop: all unordered pairs of disjoint index pairs
    combos = []
    labels = []
    for kl, mn in combinations(combinations(range(1, 6), 2), 2):
        if set(kl) & set(mn):
            continue
        combos.append((_pair_pos(*kl), _pair_pos(*mn)))
        labels.append((kl, mn))
    vals = S[:, None] - np.stack([P[:, i] + P[:, j] for i, j in combos], axis=1)
    scan("pair_drop", vals, PAIR_DROP_BOUND, labels)

    # triple_drop: all index triples
    labels = list(combinations(range(1, 6), 3))
    cols = []
    for k, l, m in labels:
        cols.append(P[:, _pair_pos(k, l)] + P[:, _pair_pos(l, m)] + P[:, _pair_pos(k, m)])
    vals = S[:, None] - np.stack(cols, axis=1)
    scan("triple_drop", vals, TRIPLE_DROP_BOUND, labels)

    # zero_lambda: grid rows with a vanishing smallest weight (the first
    # grid tuple, all weight on lam_6, is always one)
    zrows = np.flatnonzero(lam[:, 0] == 0.0)
    labels = list(combinations(range(2, 6), 2))
    vals = S[zrows, None] - np.stack([P[zrows, _pair_pos(k, l)] for k, l in labels], axis=1)
    scan("zero_lambda", vals, ZERO_DROP_BOUND, labels, lam[zrows])

    # weighted: the 12 relabelings of the 3/5 pattern
    patterns = _weighted_patterns()
    vals = P @ patterns.T
    scan("weighted", vals, WEIGHTED_BOUND, [f"pattern_{i}" for i in range(len(patterns))])

    return {
        "step": 3.0 / n,
        "n_points": N,
        "violations": violations,
        "max_value": float(best[0]),
        "argmax_lambda": [float(v) for v in best[1]],
        "worst_family": best[2],
        "families": families,
    }
