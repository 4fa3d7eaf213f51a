"""Determinant coordinates of contact configurations and their algebra.

For six unit directions u_1..u_6 (weights sorted so u_6 carries the
largest one) set a_ij = det(u_i, u_j, u_6) for 1 <= i < j <= 5.  These
ten numbers satisfy five quadratic relations

    a13 a24 - a14 a23 = a12 a34        a13 a25 - a15 a23 = a12 a35
    a14 a25 - a15 a24 = a12 a45        a14 a35 - a15 a34 = a13 a45
    a24 a35 - a25 a34 = a23 a45

and |a_ij| <= 1.  A ten-tuple with these properties is an *admissible
set*; the weighted square sum sum lam_i lam_j a_ij^2 equals 1 for any
decomposition reproducing the identity, and its maximum over admissible
sets (the subject of the certifier module) is 2.

This module is the one home of that algebra: the pair index (``PAIRS``,
``pair_pos``), the relation table behind ``relation_residuals``, the
weight sampler, the peculiar boundary family (its magnitude-one pairs
``HEAVY_PAIRS``, the other five ``LIGHT_PAIRS`` and the forced
magnitudes ``peculiar_forced``), the
planar region Omega with its self-map g, and
``peculiar_sweep``, which checks the ceiling over the family and the
region bounds over Omega.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError, PreconditionError
from .geom import det3

__all__ = [
    "PAIRS",
    "HEAVY_PAIRS",
    "LIGHT_PAIRS",
    "CEILING",
    "NINE_SIXTEENTHS",
    "AdmissibleSet",
    "pair_pos",
    "lambda_pair_products",
    "sample_lambda",
    "from_contact_vectors",
    "check_relations",
    "relation_residuals",
    "objective",
    "peculiar_forced",
    "peculiar_from",
    "peculiar_sweep",
    "omega_contains",
    "g_map",
    "five_square_max",
]

#: index pairs (i, j), 1-based, in storage order
PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

_PAIR_POS = {p: k for k, p in enumerate(PAIRS)}

#: the 0-based columns (i - 1, j - 1) of ``PAIRS``; on a trailing axis use ``take``,
#: which returns a C-ordered array where x[..., _PAIR_I] does not
_PAIR_I, _PAIR_J = (np.array(ix) - 1 for ix in zip(*PAIRS))

#: maximum of the weighted square sum over admissible sets
CEILING = 2.0

#: bound on the five squares over the region Omega
NINE_SIXTEENTHS = 9.0 / 16.0

# each relation: (i, j, k, l, m, n) meaning a_i a_j - a_k a_l = a_m a_n
# with letters indexing into the storage order above
_RELATIONS = np.array(
    [
        (1, 5, 2, 4, 0, 7),
        (1, 6, 3, 4, 0, 8),
        (2, 6, 3, 5, 0, 9),
        (2, 8, 3, 7, 1, 9),
        (5, 8, 6, 7, 4, 9),
    ]
)


def pair_pos(i: int, j: int) -> tuple[int, int]:
    """Position k in ``PAIRS`` and sign s with a_ij = s * a[k]; a_ji = -a_ij."""
    if i == j or not (1 <= i <= 5 and 1 <= j <= 5):
        raise IndexError("indices must be distinct and in 1..5")
    return (_PAIR_POS[(i, j)], 1) if i < j else (_PAIR_POS[(j, i)], -1)


def relation_residuals(values) -> np.ndarray:
    """The five relation defects a_i a_j - a_k a_l - a_m a_n; (..., 10) -> (..., 5)."""
    a = values.a if isinstance(values, AdmissibleSet) else np.asarray(values, dtype=float)
    if a.shape[-1:] != (10,):
        raise PreconditionError("expected 10 entries in PAIRS order")
    g = a[..., _RELATIONS]  # (..., 5, 6): the six letters of each relation
    return g[..., 0] * g[..., 1] - g[..., 2] * g[..., 3] - g[..., 4] * g[..., 5]


def check_relations(values, tol: float = 1e-9) -> bool:
    """Do all five determinant relations hold within tol?"""
    return bool(np.max(np.abs(relation_residuals(values))) <= tol)


def _as_ten(values) -> np.ndarray:
    if isinstance(values, AdmissibleSet):
        return values.a
    a = np.asarray(values, dtype=float)
    if a.shape != (10,):
        raise PreconditionError("expected 10 entries in PAIRS order")
    return a


class AdmissibleSet:
    """Validated ten-tuple a_ij, 1 <= i < j <= 5, in ``PAIRS`` order."""

    __slots__ = ("a",)

    def __init__(self, values, rel_tol: float = 1e-9):
        a = np.asarray(values, dtype=float)
        if a.shape != (10,):
            raise InvariantError("an admissible set has 10 entries")
        if not np.max(np.abs(a)) <= 1.0 + 1e-9:  # a NaN fails too
            raise InvariantError("entries must lie in [-1, 1]")
        res = relation_residuals(a)
        if not np.max(np.abs(res)) <= rel_tol:
            raise InvariantError(f"relations violated by {np.max(np.abs(res)):.3e}")
        self.a = a

    def get(self, i: int, j: int) -> float:
        """Entry a_ij for distinct 1-based indices, antisymmetric in (i, j)."""
        k, sign = pair_pos(i, j)
        return sign * float(self.a[k])

    def as_array(self) -> np.ndarray:
        return self.a.copy()

    def __repr__(self):
        return f"AdmissibleSet({np.array2string(self.a, precision=6, suppress_small=True)})"


def _as_lambda(L) -> np.ndarray:
    """Checked weights over a trailing axis of 6, clipped at zero."""
    v = np.asarray(L, dtype=float)
    if v.shape[-1:] != (6,):
        raise InvariantError("need six weights")
    if (v < -1e-12).any():
        raise InvariantError("weights must be nonnegative")
    if (abs(v.sum(axis=-1) - 3.0) > 1e-9).any():
        raise InvariantError("weights must sum to 3")
    if (v[..., 5:] < v - 1e-12).any():
        raise InvariantError("the sixth weight must be the maximum")
    return np.clip(v, 0.0, None)


def lambda_pair_products(L) -> np.ndarray:
    """The ten products lam_i lam_j in ``PAIRS`` order (indices 1..5); (..., 6) -> (..., 10)."""
    lam = _as_lambda(L)
    return lam.take(_PAIR_I, axis=-1) * lam.take(_PAIR_J, axis=-1)


def sample_lambda(rng, first_weight_zero: bool = False) -> np.ndarray:
    """Uniform weight vector: spacings of sorted cuts, scaled to sum 3.

    ``first_weight_zero`` pins the smallest weight to zero.
    """
    if first_weight_zero:
        cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
        return np.concatenate([[0.0], np.sort(np.diff(np.concatenate([[0.0], cuts, [1.0]]))) * 3.0])
    cuts = np.sort(rng.uniform(0.0, 1.0, size=5))
    return np.sort(np.diff(np.concatenate([[0.0], cuts, [1.0]]))) * 3.0


def from_contact_vectors(u) -> AdmissibleSet:
    """Admissible set of six unit directions: a_ij = det(u_i, u_j, u_6).

    The relations hold automatically (exactly, up to rounding) and
    Hadamard's inequality keeps every entry in [-1, 1].
    """
    arr = np.asarray(u, dtype=float)
    if arr.shape != (6, 3):
        raise PreconditionError("expected six 3-vectors")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise PreconditionError("directions must be unit vectors")
    arr = arr / norms[:, None]
    vals = det3(arr[_PAIR_I].T, arr[_PAIR_J].T, arr[5])
    return AdmissibleSet(np.clip(vals, -1.0, 1.0), rel_tol=1e-7)


def objective(values, L) -> float:
    """Weighted square sum  sum_{i<j<=5} lam_i lam_j a_ij^2.

    For any decomposition sum lam_i u_i u_i^T = Id of a contact frame the
    value is 1.  Accepts raw ten-entry arrays as well, so hypothetical
    (inadmissible) configurations can be scored.
    """
    a = _as_ten(values)
    return float(np.dot(lambda_pair_products(L), a * a))


# ---------------------------------------------------------------------------
# peculiar boundary family
# ---------------------------------------------------------------------------

#: the peculiar family's magnitude-one pairs; they form a 5-cycle on 1..5
HEAVY_PAIRS = ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))

#: the other five pairs, in ``PAIRS`` order: the family's free magnitudes,
#: each squared by one of ``_five_squares``
LIGHT_PAIRS = tuple(p for p in PAIRS if p not in HEAVY_PAIRS)


def peculiar_forced(x: float, y: float) -> dict:
    """The magnitudes forced by |a14| = x and |a15| = y, keyed by pair.

        |a23| = (x + y - 1) / (x y)
        |a25| = (1 - y) / x
        |a34| = (1 - x) / y
    """
    return {(2, 3): (x + y - 1.0) / (x * y), (2, 5): (1.0 - y) / x, (3, 4): (1.0 - x) / y}


#: the members' signs in ``PAIRS`` order: those of the minors of V (see ``peculiar_from``)
_PECULIAR_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])

#: values a sweep block's objective screen may hold (rows x weight vectors)
_SCREEN_VALUES = 1 << 17

#: rows a sweep block may hold: magnitude pairs for the objective screen, points for the Omega screens
_BLOCK_ROWS = 1024


def _peculiar_members(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The members at feasible pairs (x, y), shape (rows, 10), row for row
    what ``peculiar_from`` returns.

    Each row is the minors of V (see ``peculiar_from``): the
    magnitudes times one constant sign vector, so no sign is searched.
    The relations hold identically in V, and are still checked per row
    as ``AdmissibleSet`` would: the first row with an entry beyond
    1 + 1e-9 or a relation defect beyond 1e-9 (a NaN fails both) raises
    InvariantError.
    """
    a = np.ones((len(x), 10))  # magnitude one on HEAVY_PAIRS
    a[:, _PAIR_POS[(1, 4)]] = x
    a[:, _PAIR_POS[(1, 5)]] = y
    for p, m in peculiar_forced(x, y).items():
        a[:, _PAIR_POS[p]] = m
    a *= _PECULIAR_SIGNS
    res = np.abs(relation_residuals(a)).max(axis=1)
    out_of_box = ~(np.abs(a).max(axis=1) <= 1.0 + 1e-9)
    bad = out_of_box | ~(res <= 1e-9)
    if bad.any():
        r = int(bad.argmax())
        if out_of_box[r]:
            raise InvariantError("entries must lie in [-1, 1]")
        raise InvariantError(f"relations violated by {res[r]:.3e}")
    return a


def peculiar_from(a14_abs: float, a15_abs: float) -> AdmissibleSet:
    """Member of the boundary family with prescribed |a14|, |a15|.

    The entries on ``HEAVY_PAIRS`` (a12, a13, a24, a35, a45) have
    magnitude one and ``peculiar_forced`` gives |a23|, |a25| and |a34|,
    which requires |a14| + |a15| >= 1 (PreconditionError otherwise).
    The member is the minors det(v_i, v_j) of the 2x5 matrix
    V = [[1, 0, p, -1, s], [0, 1, 1, x, y]], p = (1 - x - y)/(xy),
    s = (1 - y)/x: those magnitudes signed by ``_PECULIAR_SIGNS``, with
    a12 = a13 = +1.  The other seven valid sign patterns with a12 = a13
    = +1 are a_ij -> g e_i e_j a_ij for column signs e and a global sign g.
    """
    x, y = float(a14_abs), float(a15_abs)
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise PreconditionError("|a14|, |a15| must lie in (0, 1]")
    if x + y < 1.0:
        raise PreconditionError("|a14| + |a15| must be at least 1")
    return AdmissibleSet(_peculiar_members(np.array([x]), np.array([y]))[0])


def _accepted_blocks(rng, low: float, accept, n: int, rows: int):
    """The first n uniform points of [low, 1)^2 that ``accept`` keeps, in
    blocks of ``rows`` (the last block may be shorter).

    Candidates are drawn ``_BLOCK_ROWS`` at a time.  A generator yields the
    same stream however it is cut into draws, so the points kept do not
    depend on the block sizes, and memory holds one draw and one block.
    """
    kept = np.empty((0, 2))
    for lo in range(0, n, rows):
        want = min(rows, n - lo)
        while len(kept) < want:
            cand = rng.uniform(low, 1.0, size=(_BLOCK_ROWS, 2))
            kept = np.concatenate([kept, cand[accept(cand)]])
        yield kept[:want]
        kept = kept[want:]


def _feasible(cand: np.ndarray) -> np.ndarray:
    """Feasible magnitude pairs: x, y in (0, 1], x + y >= 1."""
    return (cand.sum(axis=1) >= 1.0) & (cand > 0.0).all(axis=1)


def _near(screen: np.ndarray, level: float) -> np.ndarray:
    """Rows whose screened value reaches ``level`` less 1e-12 relative.

    Every screen here sums or compares nonnegative terms, so it is within
    a few ulps of the exact value; a row outside the margin cannot reach
    the level exactly.
    """
    return screen >= level - 1e-12 * abs(level)


def peculiar_sweep(n: int, n_lambda: int, seed: int, tol: float) -> dict:
    """Ceiling checks over the peculiar family and over the region Omega.

    Scores the family's members at ``n`` random feasible magnitude pairs
    (x, y) against ``n_lambda`` random weight vectors.  Then, at ``n``
    random points of Omega, checks the five-square bound 9/16 and the
    total f + (products on ``HEAVY_PAIRS``) against the ceiling (f is
    ``_f_value``),
    pairing point k with weight vector k mod ``n_lambda``.  Every value
    above its bound by more than ``tol`` is listed as a violation.
    Counts above 10^6 samples or 10^4 weight vectors are refused, and so
    are a tol that is not finite (a NaN one would pass every value) and a
    seed that is not a nonnegative integer.

    The pairs are drawn and taken in blocks of at most ``_SCREEN_VALUES
    // n_lambda`` rows (and ``_BLOCK_ROWS``), the region points in blocks
    of ``_BLOCK_ROWS``, so memory follows a block.
    Each block builds its members at once (``_peculiar_members``: the
    minors of V, signed by one constant vector, every row still checked
    against the relations within 1e-9 and entries within 1 + 1e-9) and
    screens the objective with one matmul.  A matmul sums in another order than the per-pair product,
    and numpy's ``** 2`` is not Python's, so screens only select rows:
    every row within 1e-12 relative of the running maximum or of its
    bound + ``tol`` is recomputed by the per-pair expression (the
    objective) or by ``five_square_max`` and ``_f_value`` (the region), and
    only recomputed values are reported.
    """
    if not (1 <= n <= 10**6 and 1 <= n_lambda <= 10**4):
        raise PreconditionError("need 1 to 10^6 samples and 1 to 10^4 weight vectors")
    if not np.isfinite(tol):
        raise PreconditionError("tol must be finite")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise PreconditionError("seed must be a nonnegative integer")
    violations = []

    lam = np.array([sample_lambda(np.random.default_rng([seed, 102, k])) for k in range(n_lambda)])
    products = lambda_pair_products(lam)

    obj_max, obj_arg = -np.inf, None
    limit = CEILING + tol
    rows = min(_BLOCK_ROWS, max(1, _SCREEN_VALUES // n_lambda))
    for pairs in _accepted_blocks(np.random.default_rng([seed, 101]), 0.0, _feasible, n, rows):
        x, y = pairs.T
        a = _peculiar_members(x, y)
        screen = (a**2 @ products.T).max(axis=1)
        for r in np.flatnonzero(_near(screen, max(obj_max, screen.max())) | _near(screen, limit)):
            worst = float((products @ a[r] ** 2).max())
            if worst > obj_max:
                obj_max, obj_arg = worst, [float(x[r]), float(y[r])]
            if worst > limit:
                violations.append({"kind": "objective", "pair": [float(x[r]), float(y[r])], "value": worst})

    # region sweep: five squared coordinates stay below 9/16 and the
    # two-variable bound keeps every weighted total below the ceiling
    heavy = sum(products[:, _PAIR_POS[p]] for p in HEAVY_PAIRS)
    fsq_max = total_max = -np.inf
    omega_pts = _accepted_blocks(np.random.default_rng([seed, 103]), 0.5, _in_omega, n, _BLOCK_ROWS)
    for lo, pts in zip(range(0, n, _BLOCK_ROWS), omega_pts):
        x, y = pts.T
        k = np.arange(lo, lo + len(x)) % n_lambda
        screen = np.maximum.reduce(_five_squares(x, y))
        for r in np.flatnonzero(_near(screen, max(fsq_max, screen.max()))):
            fsq_max = max(fsq_max, five_square_max(float(x[r]), float(y[r])))
        screen = _f_value(lam[k], x, y) + heavy[k]
        for r in np.flatnonzero(_near(screen, max(total_max, screen.max()))):
            total_max = max(total_max, float(_f_value(lam[k[r]], float(x[r]), float(y[r]))) + float(heavy[k[r]]))
    if fsq_max > NINE_SIXTEENTHS + tol:
        violations.append({"kind": "five_square", "value": fsq_max})
    if total_max > CEILING + tol:
        violations.append({"kind": "region_total", "value": float(total_max)})

    return {
        "n_pairs": n,
        "n_lambda": n_lambda,
        "seed": seed,
        "objective_bound": CEILING,
        "objective_max": float(obj_max),
        "argmax_pair": obj_arg,
        "region_points": n,
        "five_square_max": float(fsq_max),
        "five_square_bound": NINE_SIXTEENTHS,
        "region_total_max": float(total_max),
        "region_total_bound": CEILING,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# planar region calculus
# ---------------------------------------------------------------------------


def omega_contains(x: float, y: float) -> bool:
    """Closed region: x, y >= 1/2, xy <= 1/2, 2y - xy <= 1, 2x - xy <= 1.

    Elementwise (a boolean array) when x and y are arrays.
    """
    inside = (x >= 0.5) & (y >= 0.5) & (x * y <= 0.5) & (2.0 * y - x * y <= 1.0) & (2.0 * x - x * y <= 1.0)
    return inside if np.ndim(inside) else bool(inside)


def _in_omega(cand: np.ndarray) -> np.ndarray:
    return omega_contains(cand[:, 0], cand[:, 1])


def g_map(x: float, y: float):
    """The substitution map g(x, y) = ((1 - x)/(1 - xy), 1 - xy).

    Maps the region Omega into itself.  Undefined where xy = 1.
    """
    d = 1.0 - x * y
    if d == 0.0:
        raise PreconditionError("g is undefined where xy = 1")
    return ((1.0 - x) / d, d)


def five_square_max(x: float, y: float) -> float:
    """max of the five squares x^2, y^2, (1-xy)^2 and the two g-ratios.

    On Omega the value never exceeds 9/16.
    """
    if 1.0 - x * y == 0.0:
        raise PreconditionError("undefined where xy = 1")
    return float(max(_five_squares(x, y)))


def _five_squares(x, y) -> tuple:
    """The five squares of ``five_square_max``, one per pair of ``LIGHT_PAIRS``
    (a14, a15, a23, a25, a34): ((1-x)/d)^2, ((1-y)/d)^2, d^2, y^2 and x^2
    with d = 1 - xy, on floats or elementwise on arrays."""
    d = 1.0 - x * y
    return ((1.0 - x) / d) ** 2, ((1.0 - y) / d) ** 2, d * d, y * y, x * x


def _f_value(lam: np.ndarray, x, y):
    """The two-variable envelope of the objective over the peculiar family:
    f = sum of l_i l_j times its square of ``_five_squares`` over ``LIGHT_PAIRS``.

    Defined for (x, y) in [0,1]^2 away from (1, 1); elementwise on arrays,
    weights (..., 6).  Adding the five products on ``HEAVY_PAIRS`` keeps
    the total at most 2 for any valid weight vector.  The polynomial
    squares multiply in one factor at a time, ((l_i l_j) d) d; l_i l_j (d d)
    would round otherwise, and ``peculiar`` prints this sum.
    """
    l14, l15, l23, l25, l34 = (lam[..., i - 1] * lam[..., j - 1] for i, j in LIGHT_PAIRS)
    d = 1.0 - x * y
    return l14 * ((1.0 - x) / d) ** 2 + l15 * ((1.0 - y) / d) ** 2 + l23 * d * d + l25 * y * y + l34 * x * x
