"""Weight-product inequalities and their grid verification harness.

All bounds are over weight vectors lam with sum 3 and lam_6 maximal,
and concern the ten products lam_i lam_j with 1 <= i < j <= 5:

* drop two disjoint products          -> at most 2      (tight at all 1/2)
* drop the three products of a triple -> at most 9/5
* lam_1 = 0 and drop one product      -> at most 9/5
* a fixed 3/5-weighted mix            -> at most 2      (tight at all 1/2)

``grid_verify_all`` sweeps every index instance of the four bounds over a
regular simplex grid of step 3/n, restricted to nondecreasing weight
tuples (each family is evaluated in all index permutations, so the
sorted grid covers the full one).  The verdict is exact: at lam = 3k/n
every instance is 9/(5 n^2) times an integer combination of the products
k_i k_j, which one matrix product per block computes without rounding,
so maxima, ties and violations are decided in integers and each reported
value is rounded once.  It streams the grid one block per prefix
(k1, k2), listing each block's nondecreasing (k3, k4, k5) directly as
the columns of one float array: memory grows as n^3 while the grid grows
as n^5, so the finest step, 0.01, runs in about 200 MB.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import NamedTuple

import numpy as np

from .admissible import HEAVY_PAIRS, PAIRS, _PAIR_I, _PAIR_J, _as_lambda, lambda_pair_products, pair_pos
from .errors import PreconditionError

__all__ = [
    "LIGHT_PAIRS",
    "pair_drop_sum",
    "triple_drop_sum",
    "zero_lambda_drop",
    "weighted_sum",
    "grid_verify_all",
    "drop_patterns",
]

#: the 3/5-weighted pattern: full weight on the peculiar family's
#: magnitude-one pairs ``HEAVY_PAIRS``, weight 3/5 on the other five
LIGHT_PAIRS = tuple(p for p in PAIRS if p not in HEAVY_PAIRS)


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
    return float(p.sum() - p[pair_pos(k, l)[0]] - p[pair_pos(m, n)[0]])


def triple_drop_sum(L, klm) -> float:
    """sum lam_i lam_j over i<j<=5, minus the three products of a triple.

    The value never exceeds 9/5 (tight at lam = (.4, .4, .4, .6, .6, .6)).
    """
    k, l, m = klm
    if len({k, l, m}) != 3:
        raise IndexError("need three distinct indices")
    p = lambda_pair_products(L)
    return float(p.sum() - p[pair_pos(k, l)[0]] - p[pair_pos(l, m)[0]] - p[pair_pos(k, m)[0]])


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
    return float(p.sum() - p[pair_pos(k, l)[0]])


def weighted_sum(L) -> float:
    """Heavy pairs at weight 1 plus light pairs at weight 3/5; at most 2."""
    p = lambda_pair_products(L)
    heavy = sum(p[pair_pos(*pair)[0]] for pair in HEAVY_PAIRS)
    light = sum(p[pair_pos(*pair)[0]] for pair in LIGHT_PAIRS)
    return float(heavy + 0.6 * light)


# ---------------------------------------------------------------------------
# grid harness
# ---------------------------------------------------------------------------


def _ramps(lo, hi):
    """The integers lo[g]..hi[g], group g after group g, and the g of each."""
    count = hi - lo + 1
    group = np.repeat(np.arange(len(count)), count)
    return group, np.arange(len(group)) + (lo - np.cumsum(count) + count)[group]


def _grid_blocks(n: int):
    """Nondecreasing integer 6-tuples summing to n, in lexicographic order.

    Yields ``(k1, K)``, one block per prefix (k1, k2): K is a float array
    of shape (6, rows) whose columns are the tuples with that prefix,
    about (n - k1 - k2)^3 / 144 of the grid's n^5 / 86400, so memory
    follows the block, not the grid.  With j = k - k2 a block's tuples are
    the triples j3 <= j4 <= j5 with j3 + j4 + 2 j5 <= s = n - k1 - 5 k2
    (k5 <= k6), listed directly: first the pairs with j3 + 3 j4 <= s, then
    each pair's j5 from j4 to (s - j3 - j4) // 2.
    """
    for k1 in range(n // 6 + 1):
        for k2 in range(k1, (n - k1) // 5 + 1):
            s = n - k1 - 5 * k2
            j3 = np.arange(s // 4 + 1)
            g, j4 = _ramps(j3, (s - j3) // 3)  # the (j3, j4) pairs
            j3 = j3[g]
            g, j5 = _ramps(j4, (s - j3 - j4) // 2)  # each pair's j5
            K = np.empty((6, len(g)))
            K[0], K[1], K[2], K[3], K[4] = k1, k2, j3[g] + k2, j4[g] + k2, j5 + k2
            K[5] = n - K[:5].sum(axis=0)
            yield k1, K


def _weighted_patterns() -> list:
    """The heavy pairs of the 3/5 pattern under every relabeling of 1..5, in order of first appearance.

    HEAVY_PAIRS forms a 5-cycle, so exactly 12 distinct patterns exist.
    """
    relabeled = (frozenset(frozenset((p[i - 1], p[j - 1])) for i, j in HEAVY_PAIRS) for p in permutations(range(1, 6)))
    return list(dict.fromkeys(relabeled))


def _coefficients(instances, base: int, pick: int) -> np.ndarray:
    """One PAIRS row per instance: ``pick`` on the instance's pairs, ``base`` on the rest."""
    coeff = np.full((len(instances), 10), base)
    for row, pairs in zip(coeff, instances):
        row[[pair_pos(*pair)[0] for pair in pairs]] = pick
    return coeff


class _Family(NamedTuple):
    """One bound over its index instances on the grid."""

    name: str
    bound: Fraction
    labels: list
    coeff: np.ndarray  # instances x PAIRS: five times the weight of each product in the instance's sum
    zero_first: bool = False  # defined only where lam_1 = 0


_DISJOINT = [(kl, mn) for kl, mn in combinations(combinations(range(1, 6), 2), 2) if not set(kl) & set(mn)]
_TRIPLES = list(combinations(range(1, 6), 3))
_ZERO = list(combinations(range(2, 6), 2))
_FAMILIES = (
    # the drop families keep a pair at weight 5 and drop it at 0; the 3/5
    # patterns weigh a heavy pair 5 and a light one 3
    _Family("pair_drop", Fraction(2), _DISJOINT, _coefficients(_DISJOINT, 5, 0)),
    _Family("triple_drop", Fraction(9, 5), _TRIPLES, _coefficients([combinations(t, 2) for t in _TRIPLES], 5, 0)),
    _Family("zero_lambda", Fraction(9, 5), _ZERO, _coefficients([(kl,) for kl in _ZERO], 5, 0), zero_first=True),
    _Family("weighted", Fraction(2), [f"pattern_{i}" for i in range(12)], _coefficients(_weighted_patterns(), 3, 5)),
)
#: all 43 instances in family order, and each family's rows among them
_COEFF = np.vstack([f.coeff for f in _FAMILIES]).astype(float)
_ROWS = [slice(end - len(f.labels), end) for f, end in zip(_FAMILIES, accumulate(len(f.labels) for f in _FAMILIES))]


def drop_patterns() -> dict:
    """The drop families' instances by their dropped pairs.

    Maps the PAIRS positions an instance drops (the zero entries of its
    coefficient row) to the family's name: 15 pair drops, 10 triple drops
    and 6 zero-weight drops.  An instance's sum is the objective of the
    admissible sets whose minors are 0 on its dropped pairs and +-1 on
    the rest.
    """
    return {frozenset(np.flatnonzero(row == 0).tolist()): f.name for f in _FAMILIES for row in f.coeff if not row.all()}


def _grid_lambda(k, n: int) -> list:
    return [3.0 * int(v) / n for v in k]


def grid_verify_all(step: float, tol: float = 1e-12) -> dict:
    """Check all four bounds over the simplex grid with the given step.

    Evaluates every index instance of every bound on each grid point and
    returns a report: per-family maxima, the first 100 violations beyond
    ``tol`` of each family (row-major over grid points and instances),
    and the worst signed slack ``max_value = max(value - bound)`` with
    its weight vector.  The grid is visited one prefix block at a time.

    The verdict is exact.  At the grid point lam = 3 k / n an instance's
    value is 9 V / (5 n^2), where V sums the integer products k_i k_j with
    the integer weights of ``_Family.coeff``; V is computed exactly, every
    comparison is made in integers, and each reported value is rounded once.
    """
    if not (0.01 <= step <= 0.5):
        raise PreconditionError("step must lie in [0.01, 0.5]")
    if not math.isfinite(tol):
        raise PreconditionError("tol must be finite")
    n = round(3.0 / step)  # effective step is 3/n
    scale = 5 * n * n  # value = 9 V / scale
    # value > bound + tol  <=>  9 V > scale (bound + tol)  <=>  V > limit, for V >= 0
    limits = [max(-1, math.floor(scale * (f.bound + Fraction(tol)) / 9)) for f in _FAMILIES]
    top = [-1] * len(_FAMILIES)  # each family's largest V so far
    argmax = [None] * len(_FAMILIES)
    bad = [[] for _ in _FAMILIES]
    n_points = 0

    for k1, K in _grid_blocks(n):
        n_points += K.shape[1]
        # V is a sum of nonnegative integer terms no larger than 5 sum_{i<j<=5} k_i k_j
        # <= 5 n^2 / 2 <= 225,000 (n <= 300): every partial sum is an integer
        # below 2^53, so any BLAS summation order gives V exactly
        V = _COEFF @ (K[_PAIR_I] * K[_PAIR_J])
        for f, (fam, rows, limit) in enumerate(zip(_FAMILIES, _ROWS, limits)):
            if fam.zero_first and k1:
                continue
            Vf = V[rows]
            col = Vf.max(axis=0)
            j = col.argmax()
            m = int(col[j])
            if m > top[f]:  # the first strict maximum in row-major order
                top[f], argmax[f] = m, _grid_lambda(K[:, j], n)
            if m <= limit or len(bad[f]) == 100:
                continue  # no violation in this block, or the family's list is full
            for r, c in np.argwhere(Vf.T > limit)[: 100 - len(bad[f])]:
                bad[f].append(
                    {
                        "family": fam.name,
                        "lambda": _grid_lambda(K[:, r], n),
                        "indices": fam.labels[c],
                        "value": float(Fraction(9 * int(Vf[c, r]), scale)),
                        "bound": float(fam.bound),
                    }
                )

    excess = [Fraction(9 * t, scale) - fam.bound for t, fam in zip(top, _FAMILIES)]
    worst = excess.index(max(excess))  # the first family at the largest excess
    return {
        "step": 3.0 / n,
        "n_points": n_points,
        "violations": [v for b in bad for v in b],
        "max_value": float(excess[worst]),
        "argmax_lambda": list(argmax[worst]),
        "worst_family": _FAMILIES[worst].name,
        "families": {
            fam.name: {
                "bound": float(fam.bound),
                "max_value": float(Fraction(9 * t, scale)),
                "argmax_lambda": lam,
                "instances": len(fam.labels),
            }
            for fam, t, lam in zip(_FAMILIES, top, argmax)
        },
    }
