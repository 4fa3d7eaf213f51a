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
k_i k_j, computed without rounding, so maxima, ties and violations are
decided in integers and each reported value is rounded once.  On sorted
tuples one instance of each family is always its largest, and it is
affine in k5 with a nonnegative slope (k6 is in no product), so on each
line of the grid (k1..k4 fixed) its maximum is at the line's high end.
The grid is streamed one block per k1, each block the columns of one
float array of lines, not points; a block costs one 4-row matrix product
over its lines, and only the lines whose maximum passes ``tol`` are
expanded to points and scored on all 43 rows.  Memory grows as n^3 while
the grid grows as n^5: the finest step, 0.01 (33.4M points on 1.06M
lines), runs in about 0.1 s and 50 MB.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import NamedTuple

import numpy as np

from .admissible import HEAVY_PAIRS, LIGHT_PAIRS, PAIRS, _PAIR_I, _PAIR_J, _as_lambda, lambda_pair_products, pair_pos
from .errors import InvariantError, PreconditionError

__all__ = [
    "pair_drop_sum",
    "triple_drop_sum",
    "zero_lambda_drop",
    "weighted_sum",
    "grid_verify_all",
    "drop_patterns",
]

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
    """``HEAVY_PAIRS`` at weight 1 plus ``LIGHT_PAIRS`` at weight 3/5; at most 2."""
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


def _grid_lines(n: int):
    """The lines of the sorted grid of nondecreasing integer 6-tuples summing to n.

    A line fixes (k1, k2, k3, k4) and holds the grid points with k5 from
    k4 to hi = (n - k1 - k2 - k3 - k4) // 2 (k5 <= k6), contiguous in
    lexicographic order.  Yields ``(k1, K)``, one block per k1: K is a
    float array of shape (5, lines) whose columns (k1, k2, k3, k4, hi) are
    the lines in lexicographic order.  With j = k - k2 a line's (j3, j4)
    are the pairs j3 <= j4 with j3 + 3 j4 <= s = n - k1 - 5 k2, listed
    directly: first each k2's j3 up to s // 4, then each (k2, j3)'s j4
    from j3 to (s - j3) // 3.
    """
    for k1 in range(n // 6 + 1):
        k2 = np.arange(k1, (n - k1) // 5 + 1)
        s = n - k1 - 5 * k2
        g, j3 = _ramps(np.zeros_like(s), s // 4)  # each k2's j3
        k2, s = k2[g], s[g]
        g, j4 = _ramps(j3, (s - j3) // 3)  # each (k2, j3)'s j4
        K = np.empty((5, len(g)))
        K[0], K[1], K[2], K[3] = k1, k2[g], j3[g] + k2[g], j4 + k2[g]
        K[4] = (n - K[:4].sum(axis=0)) // 2
        yield k1, K


def _line_points(K, n: int) -> np.ndarray:
    """The grid points of the lines K (columns as ``_grid_lines`` yields them), as a (6, points) float array."""
    g, k5 = _ramps(K[3].astype(int), K[4].astype(int))
    k = np.empty((6, len(g)))
    k[:4], k[4] = K[:4, g], k5
    k[5] = n - k[:5].sum(axis=0)
    return k


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


def _dominant_row(coeff: np.ndarray) -> int:
    """The first instance whose Q = L^T (C + C^T) L is at least every other's, entry by entry.

    C holds an instance's row at (_PAIR_I, _PAIR_J) and L is the
    lower-triangular matrix of ones, so the instance's value is the
    family's maximum at every nondecreasing k (see ``grid_verify_all``).
    """
    C = np.zeros((len(coeff), 5, 5), dtype=np.int64)
    C[:, _PAIR_I, _PAIR_J] = coeff
    L = np.tril(np.ones((5, 5), dtype=np.int64))
    Q = L.T @ (C + C.transpose(0, 2, 1)) @ L
    for r, q in enumerate(Q):
        if (q >= Q).all():
            return r
    raise InvariantError("no instance of the family dominates the others on the sorted grid")


#: each family's dominant instance, and its coefficient row
_DOMINANT = [_dominant_row(f.coeff) for f in _FAMILIES]
_TOP = np.vstack([f.coeff[d] for f, d in zip(_FAMILIES, _DOMINANT)]).astype(float)
#: on a grid line V = A + B k5: A weighs the six products k_i k_j with j <= 4
#: (0-based columns _A_I, _A_J) and B, the slope, weighs k_1..k_4
_A = [pos for pos, (i, j) in enumerate(PAIRS) if j < 5]
_A_I, _A_J, _TOP_A = _PAIR_I[_A], _PAIR_J[_A], _TOP[:, _A]
_TOP_B = _TOP[:, [pair_pos(i, 5)[0] for i in range(1, 5)]]


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

    Checks every index instance of every bound on each grid point and
    returns a report: per-family maxima, the first 100 violations beyond
    ``tol`` of each family (row-major over grid points and instances),
    and the worst signed slack ``max_value = max(value - bound)`` with
    its weight vector.  The grid is visited one block of lines per k1.

    The verdict is exact.  At the grid point lam = 3 k / n an instance's
    value is 9 V / (5 n^2), where V sums the integer products k_i k_j with
    the integer weights of ``_Family.coeff``; V is computed exactly, every
    comparison is made in integers, and each reported value is rounded once.

    One instance per family is evaluated at every point.  The grid holds
    only nondecreasing k, so k_i = t_1 + ... + t_i with every t >= 0, and
    2 V = t^T Q t with Q = L^T (C + C^T) L, C the instance's weights and
    L the lower-triangular matrix of ones.  In each family one instance's
    Q is at least every other's entry by entry (``_dominant_row``, picked
    at import), so its V is the family's maximum at every grid point, in
    integers: by rearrangement, it drops or lightens the smallest
    products.

    It is scored once per line, not per point.  With k1..k4 fixed V is
    A + B k5, since k5 appears only in the products k_i k5 (i < 5) and k6
    in none, and B >= 0 as every weight is.  So a line's maximum is V at
    its high end, reached first at the high end, or at the low end when
    B = 0 and V is constant.  A line's points are contiguous in row-major
    order, so a block's first maximum is on its first line that reaches
    it.  A point violates only on a line whose maximum passes ``tol``, and
    each such line holds a violation: only the first 100 - len(list) of
    them are expanded to points and scored on all of the family's
    instances, to list the violations.
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

    for k1, K in _grid_lines(n):
        n_points += K.shape[1] + int((K[4] - K[3]).sum())
        # V is a sum of nonnegative integer terms no larger than 5 sum_{i<j<=5} k_i k_j
        # <= 5 n^2 / 2 <= 225,000 (n <= 300): every partial sum is an integer
        # below 2^53, so any BLAS summation order gives A, B and V exactly
        B = _TOP_B @ K[:4]
        V = _TOP_A @ (K[_A_I] * K[_A_J]) + B * K[4]  # each family's maximum, at each line's high end
        for f, (fam, rows, limit) in enumerate(zip(_FAMILIES, _ROWS, limits)):
            if fam.zero_first and k1:
                continue
            j = V[f].argmax()
            m = int(V[f, j])
            if m > top[f]:  # the first strict maximum in row-major order
                k5 = K[4, j] if B[f, j] else K[3, j]  # a line with B = 0 is constant: its low end comes first
                top[f], argmax[f] = m, _grid_lambda([*K[:4, j], k5, n - K[:4, j].sum() - k5], n)
            if m <= limit or len(bad[f]) == 100:
                continue  # no violation in this block, or the family's list is full
            # each line whose maximum passes the limit holds a violation, and no other line does
            k = _line_points(K[:, np.flatnonzero(V[f] > limit)[: 100 - len(bad[f])]], n)
            Vf = _COEFF[rows] @ (k[_PAIR_I] * k[_PAIR_J])
            for r, c in np.argwhere(Vf.T > limit)[: 100 - len(bad[f])]:
                bad[f].append(
                    {
                        "family": fam.name,
                        "lambda": _grid_lambda(k[:, r], n),
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
