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
sorted grid covers the full one).  It streams the grid one block per
prefix (k1, k2): memory grows as n^3 while the grid grows as n^5, so the
finest step, 0.01, runs in about 300 MB.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple

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


def _grid_blocks(n: int):
    """Nondecreasing integer 6-tuples summing to n, in lexicographic order.

    Yields ``(k1, block)``, one block per prefix (k1, k2): every tuple
    with that prefix, about (n - k1 - k2)^3 / 144 rows of the grid's
    n^5 / 86400, so memory follows the block, not the grid.
    """
    for k1 in range(n // 6 + 1):
        for k2 in range(k1, (n - k1) // 5 + 1):
            r = n - k1 - k2
            a, b, c = np.ogrid[k2 : r // 4 + 1, k2 : r // 3 + 1, k2 : r // 2 + 1]
            k3, k4, k5 = (k2 + i for i in np.nonzero((a <= b) & (b <= c) & (a + b + 2 * c <= r)))
            yield k1, np.column_stack([np.full_like(k3, k1), np.full_like(k3, k2), k3, k4, k5, r - k3 - k4 - k5])


def _weighted_patterns():
    """The 3/5 pattern under every relabeling of 1..5, in order of first appearance.

    HEAVY_PAIRS forms a 5-cycle, so exactly 12 distinct patterns exist.
    """
    relabeled = (frozenset(frozenset((p[i - 1], p[j - 1])) for i, j in HEAVY_PAIRS) for p in permutations(range(1, 6)))
    cycles = dict.fromkeys(relabeled)
    coeff = np.full((len(cycles), 10), 0.6)
    for row, heavy in zip(coeff, cycles):
        row[[_pair_pos(*pair) for pair in heavy]] = 1.0
    return coeff


class _Family(NamedTuple):
    """One bound over its index instances on the grid."""

    name: str
    bound: float
    labels: list
    drop: np.ndarray | None  # PAIRS columns each instance takes off the full sum; None: the 3/5 patterns
    zero_first: bool = False  # defined only where lam_1 = 0


def _drop(instances) -> np.ndarray:
    return np.array([[_pair_pos(*pair) for pair in pairs] for pairs in instances])


_DISJOINT = [(kl, mn) for kl, mn in combinations(combinations(range(1, 6), 2), 2) if not set(kl) & set(mn)]
_TRIPLES = list(combinations(range(1, 6), 3))
_ZERO = list(combinations(range(2, 6), 2))
_FAMILIES = (
    _Family("pair_drop", PAIR_DROP_BOUND, _DISJOINT, _drop(_DISJOINT)),
    _Family("triple_drop", TRIPLE_DROP_BOUND, _TRIPLES, _drop([((k, l), (l, m), (k, m)) for k, l, m in _TRIPLES])),
    _Family("zero_lambda", ZERO_DROP_BOUND, _ZERO, _drop([(kl,) for kl in _ZERO]), zero_first=True),
    _Family("weighted", WEIGHTED_BOUND, [f"pattern_{i}" for i in range(12)], None),
)
_PATTERNS = _weighted_patterns()


def grid_verify_all(step: float, tol: float = 1e-12) -> dict:
    """Check all four bounds over the simplex grid with the given step.

    Evaluates every index instance of every bound on each grid point and
    returns a report: per-family maxima, the first 100 violations beyond
    ``tol`` of each family (row-major over grid points and instances),
    and the worst signed slack ``max_value = max(value - bound)`` with
    its weight vector.  The grid is visited one prefix block at a time.
    """
    if not (0.01 <= step <= 0.5):
        raise PreconditionError("step must lie in [0.01, 0.5]")
    n = round(3.0 / step)  # effective step is 3/n
    n_points = 0
    fams = {
        f.name: {"bound": f.bound, "max_value": -np.inf, "argmax_lambda": None, "instances": len(f.labels)}
        for f in _FAMILIES
    }
    bad = {f.name: [] for f in _FAMILIES}

    for k1, K in _grid_blocks(n):
        lam = 3.0 * K / n
        n_points += len(lam)
        # ten pairwise products per grid point, PAIRS order over indices 1..5
        P = lambda_pair_products(lam)
        S = P.sum(axis=1)
        for f in _FAMILIES:
            if f.zero_first and k1:
                continue
            if f.drop is not None:
                values = S[:, None] - P[:, f.drop].sum(-1)
            else:  # numpy sends a one-row product to gemv, which sums in another
                # order than gemm; one extra row keeps every block on gemm
                values = (np.vstack([P, P[:1]]) @ _PATTERNS.T)[:-1]
            excess = values - f.bound
            r, c = np.unravel_index(np.argmax(excess), excess.shape)
            fam = fams[f.name]
            if excess[r, c] > fam["max_value"] - f.bound:  # the first strict maximum
                fam["max_value"], fam["argmax_lambda"] = float(values[r, c]), [float(v) for v in lam[r]]
            if not (excess[r, c] > tol and len(bad[f.name]) < 100):
                continue  # no violation in this block, or the family's list is full
            for rr, cc in np.argwhere(excess > tol)[: 100 - len(bad[f.name])]:
                bad[f.name].append(
                    {
                        "family": f.name,
                        "lambda": [float(v) for v in lam[rr]],
                        "indices": f.labels[cc],
                        "value": float(values[rr, cc]),
                        "bound": f.bound,
                    }
                )

    worst = max(fams, key=lambda name: fams[name]["max_value"] - fams[name]["bound"])
    return {
        "step": 3.0 / n,
        "n_points": n_points,
        "violations": [v for f in _FAMILIES for v in bad[f.name]],
        "max_value": fams[worst]["max_value"] - fams[worst]["bound"],
        "argmax_lambda": list(fams[worst]["argmax_lambda"]),
        "worst_family": worst,
        "families": fams,
    }
