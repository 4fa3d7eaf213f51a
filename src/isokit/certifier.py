"""Numerical certification of the value-2 ceiling.

For a fixed weight vector the program is

    maximize   sum_{i<j<=5} lam_i lam_j a_ij^2
    subject to a in [-1, 1]^10 satisfying the five determinant relations.

The relation variety splits into two charts: |a12| >= eps with
(a34, a35, a45) determined by the other seven entries, and a12 = 0 with
|a13| >= eps determining (a24, a25, a45).  On each chart the objective
restricted to one free coordinate is a convex one-dimensional function
(quadratic for the linear coordinates, s + 1/s shaped for the pivot), so
every coordinate step moves to an endpoint of the exactly-computed
feasible interval.  Multistart ascent over both charts gives the
certified maximum; a hard-coded equality case pins the ceiling from
below at exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .admissible import (
    CEILING,
    HEAVY_PAIRS,
    PAIRS,
    _as_lambda,
    lambda_pair_products,
    objective,
    pair_pos,
    peculiar_forced,
    sample_lambda,
)
from .errors import PreconditionError

__all__ = [
    "CEILING",
    "ZERO_WEIGHT_CEILING",
    "WITNESS_SET",
    "WITNESS_LAMBDA",
    "CeilingCertificate",
    "witness_value",
    "maximize_objective",
    "certify_random",
    "boundary_structure_check",
]

ZERO_WEIGHT_CEILING = 9.0 / 5.0

#: equality case: the sqrt(2)-rescaled edge-direction frame of a regular
#: tetrahedron (PAIRS order); objective 2 at equal weights
WITNESS_SET = np.array([1.0, 0.0, 1.0, -1.0, -1.0, 0.0, -1.0, 1.0, -1.0, -1.0])
WITNESS_LAMBDA = np.full(6, 0.5)

# chart descriptions: local state = a[free]; local index 0 is the pivot
# (bounded away from zero by eps); each derived entry is
# (s[A] * s[B] - s[C] * s[D]) / s[0], with C = D = -1 meaning no second
# product
_CHART_A = {
    "name": "a12",
    "free": [pair_pos(*p)[0] for p in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))],
    "derived": [pair_pos(*p)[0] for p in ((3, 4), (3, 5), (4, 5))],
    "quads": ((1, 5, 2, 4), (1, 6, 3, 4), (2, 6, 3, 5)),
}
_CHART_B = {
    "name": "a13",
    "free": [pair_pos(*p)[0] for p in ((1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5))],
    "derived": [pair_pos(*p)[0] for p in ((2, 4), (2, 5), (4, 5))],
    "quads": ((1, 3, -1, -1), (2, 3, -1, -1), (1, 5, 2, 4)),
}


@dataclass(frozen=True)
class CeilingCertificate:
    """Best value found for one weight vector, with the attaining set."""

    value: float
    argmax: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    chart: str
    restarts: int
    sweeps: int
    boundary: dict = field(repr=False)


def witness_value() -> float:
    """Objective of the hard-coded equality case at equal weights."""
    return objective(WITNESS_SET, WITNESS_LAMBDA)


def _numerator(S, quad):
    """Chart numerator S_A S_B - S_C S_D, shape (R,), for local state S of shape (R, n)."""
    A, B, C, D = quad
    num = S[:, A] * S[:, B]
    if C >= 0:
        num = num - S[:, C] * S[:, D]
    return num


def _derived(S, quads):
    """Derived entries on a chart, (R, 3) for local state S of shape (R, n)."""
    return np.stack([_numerator(S, quad) / S[:, 0] for quad in quads], axis=1)


def _chart_value(S, chart, w10):
    wf = w10[chart["free"]]
    wd = w10[chart["derived"]]
    return (S * S) @ wf + (_derived(S, chart["quads"]) ** 2) @ wd


def _linear_step(S, c, chart, w10):
    """Move local coordinate c (>= 1) to the best end of its interval."""
    quads = chart["quads"]
    wd = w10[chart["derived"]]
    wc = w10[chart["free"][c]]
    R = len(S)
    lo = np.full(R, -1.0)
    hi = np.full(R, 1.0)
    A_coef = np.full(R, wc)
    B_coef = np.zeros(R)
    t = S[:, c]
    for k, quad in enumerate(quads):
        A, B, C, D = quad
        if c == A:
            p = S[:, B] / S[:, 0]
        elif c == B:
            p = S[:, A] / S[:, 0]
        elif c == C:
            p = -S[:, D] / S[:, 0]
        elif c == D:
            p = -S[:, C] / S[:, 0]
        else:
            continue
        q = _numerator(S, quad) / S[:, 0] - p * t
        nz = p != 0.0
        b1 = np.where(nz, (-1.0 - q) / np.where(nz, p, 1.0), -1.0)
        b2 = np.where(nz, (1.0 - q) / np.where(nz, p, 1.0), 1.0)
        lo = np.maximum(lo, np.where(nz, np.minimum(b1, b2), -1.0))
        hi = np.minimum(hi, np.where(nz, np.maximum(b1, b2), 1.0))
        A_coef = A_coef + wd[k] * p * p
        B_coef = B_coef + 2.0 * wd[k] * p * q
    ok = lo <= hi
    phi_lo = A_coef * lo * lo + B_coef * lo
    phi_hi = A_coef * hi * hi + B_coef * hi
    t_new = np.where(phi_lo >= phi_hi, lo, hi)
    S[:, c] = np.where(ok, t_new, t)


def _pivot_step(S, chart, w10, eps):
    """Move the pivot; the objective is w0 s + kappa / s in s = pivot^2."""
    quads = chart["quads"]
    wd = w10[chart["derived"]]
    w0 = w10[chart["free"][0]]
    nums = np.stack([_numerator(S, quad) for quad in quads], axis=1)
    kappa = (nums * nums) @ wd
    t_lo = np.maximum(eps, np.abs(nums).max(axis=1))
    ok = t_lo <= 1.0
    s_lo = t_lo * t_lo
    phi_lo = w0 * s_lo + kappa / s_lo
    phi_hi = w0 + kappa
    s_new = np.where(phi_lo >= phi_hi, s_lo, 1.0)
    t = S[:, 0]
    S[:, 0] = np.where(ok, np.sign(t) * np.sqrt(s_new), t)


def _relabel(a, sigma):
    """Entries after renaming indices 1..5 by ``sigma`` (6 stays fixed)."""
    out = np.empty(10)
    for k, (i, j) in enumerate(PAIRS):
        pos, sign = pair_pos(sigma[i - 1], sigma[j - 1])
        out[k] = sign * a[pos]
    return out


def _init_chart(rng, R, chart, eps):
    """Feasible starts: random frames plus relabelings of the equality case.

    Determinant coordinates of any six unit vectors satisfy the relations
    and the box automatically, so random frames give generic interior
    starts; relabeled copies of the known value-2 corner probe the tight
    stratum where a violation would have to live.
    """
    pivot_pos = chart["free"][0]
    n_corner = R // 2
    rows = []
    while len(rows) < n_corner:
        sigma = tuple(rng.permutation(5) + 1)
        a = _relabel(WITNESS_SET, sigma)
        if abs(a[0]) >= eps if chart["name"] == "a12" else (a[0] == 0.0 and abs(a[1]) >= eps):
            rows.append(a[chart["free"]])
    out = np.empty((R, len(chart["free"])))
    out[:n_corner] = np.array(rows)[:n_corner] if n_corner else np.empty((0, len(chart["free"])))
    filled = n_corner
    while filled < R:
        U = rng.normal(size=(R - filled, 6, 3))
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        if chart["name"] == "a13":
            # force a12 = 0: put the second vector in the span of u1, u6
            ab = rng.normal(size=(R - filled, 2))
            v = ab[:, :1] * U[:, 0] + ab[:, 1:] * U[:, 5]
            U[:, 1] = v / np.linalg.norm(v, axis=1, keepdims=True)
        A = np.empty((R - filled, 10))
        for k, (i, j) in enumerate(PAIRS):
            A[:, k] = np.einsum(
                "rk,rk->r", np.cross(U[:, i - 1], U[:, j - 1]), U[:, 5]
            )
        good = np.abs(A[:, pivot_pos]) >= eps
        take = A[good][: R - filled]
        out[filled : filled + len(take)] = take[:, chart["free"]]
        filled += len(take)
    return out


def _ascend(lam_products, chart, R, rng, eps, max_sweeps, ftol):
    S = _init_chart(rng, R, chart, eps)
    value = _chart_value(S, chart, lam_products)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        _pivot_step(S, chart, lam_products, eps)
        # random sweep order breaks fixed-cycle stalls
        for c in rng.permutation(S.shape[1] - 1) + 1:
            _linear_step(S, int(c), chart, lam_products)
        new_value = _chart_value(S, chart, lam_products)
        gain = float(np.max(new_value - value))
        value = new_value
        if gain < ftol:
            break
    best = int(np.argmax(value))
    a = np.zeros(10)
    a[chart["free"]] = S[best]
    a[chart["derived"]] = np.clip(_derived(S[best : best + 1], chart["quads"])[0], -1.0, 1.0)
    return float(value[best]), a, sweeps


def maximize_objective(
    lam,
    restarts: int = 64,
    seed=0,
    eps: float = 1e-3,
    max_sweeps: int = 200,
    ftol: float = 1e-13,
) -> CeilingCertificate:
    """Certified-from-below maximum of the objective for one weight vector.

    Runs ``restarts`` coordinate-ascent climbs, split between the two
    charts of the relation variety, from feasible random frames.  The
    reported value is a true lower bound for the constrained maximum;
    the ceiling claim is that it never exceeds 2 (9/5 when the smallest
    weight is zero).
    """
    lam = _as_lambda(lam)
    if not (0.0 < eps < 0.1):
        raise PreconditionError("eps must lie in (0, 0.1)")
    w10 = lambda_pair_products(lam)
    rng = np.random.default_rng(seed)
    r_a = max(1, restarts // 2)
    r_b = max(1, restarts - r_a)
    va, aa, sa = _ascend(w10, _CHART_A, r_a, rng, eps, max_sweeps, ftol)
    vb, ab, sb = _ascend(w10, _CHART_B, r_b, rng, eps, max_sweeps, ftol)
    if va >= vb:
        value, a, chart = va, aa, _CHART_A["name"]
    else:
        value, a, chart = vb, ab, _CHART_B["name"]
    return CeilingCertificate(
        value=value,
        argmax=a,
        lam=lam.copy(),
        chart=chart,
        restarts=r_a + r_b,
        sweeps=max(sa, sb),
        boundary=boundary_structure_check(a),
    )


def certify_random(
    n_lambda: int = 1000,
    restarts: int = 64,
    seed: int = 0,
    first_weight_zero: bool = False,
    eps: float = 1e-3,
    tol: float = 1e-6,
) -> dict:
    """Ceiling check over random weight vectors.

    Draws ``n_lambda`` weight vectors (optionally with the smallest
    weight pinned to zero), maximizes the objective for each, and
    reports the worst case against the applicable ceiling.
    """
    bound = ZERO_WEIGHT_CEILING if first_weight_zero else CEILING
    if first_weight_zero:
        max_value, argmax_lam, argmax_set = -np.inf, None, None
    else:
        # the frozen equality case always participates in the global max,
        # so a witness-only run (n_lambda=0) reports exactly 2.0
        max_value = witness_value()
        argmax_lam = WITNESS_LAMBDA
        argmax_set = WITNESS_SET
    violations = []
    kinds = {"zero_entry": 0, "peculiar": 0, "unclassified": 0}
    for k in range(n_lambda):
        rng = np.random.default_rng([seed, k])
        lam = sample_lambda(rng, first_weight_zero)
        cert = maximize_objective(lam, restarts=restarts, seed=[seed, k, 1], eps=eps)
        if cert.value > max_value:
            max_value = cert.value
            argmax_lam = lam
            argmax_set = cert.argmax
        if cert.value > bound + tol:
            violations.append({"lambda": [float(v) for v in lam], "value": cert.value})
        b = cert.boundary
        if b["zero_pairs"]:
            kinds["zero_entry"] += 1
        elif b["peculiar_permutation"] is not None:
            kinds["peculiar"] += 1
        else:
            kinds["unclassified"] += 1
    return {
        "n_lambda": n_lambda,
        "restarts": restarts,
        "bound": bound,
        "tol": tol,
        "max_value": None if argmax_lam is None else float(max_value),
        "argmax_lambda": None if argmax_lam is None else [float(v) for v in argmax_lam],
        "argmax_set": None if argmax_set is None else [float(v) for v in argmax_set],
        "violations": violations,
        "witness_value": witness_value() if not first_weight_zero else None,
        "boundary_kinds": kinds,
    }


def boundary_structure_check(a, tol: float = 1e-4) -> dict:
    """Classify the structure of a maximizing admissible set.

    Reports near-zero entries and, when some relabeling of indices 1..5
    matches the peculiar family's magnitude pattern, the permutation
    that does it.
    """
    arr = np.asarray(a, float)
    mag = np.abs(arr)
    zero_pairs = [PAIRS[k] for k in range(10) if mag[k] <= tol]

    def m(i, j, perm):
        return mag[pair_pos(perm[i - 1], perm[j - 1])[0]]

    peculiar_perm = None
    for perm in permutations(range(1, 6)):
        if any(abs(m(i, j, perm) - 1.0) > tol for i, j in HEAVY_PAIRS):
            continue
        x, y = m(1, 4, perm), m(1, 5, perm)
        if x <= tol or y <= tol or x + y < 1.0 - tol:
            continue
        if all(abs(m(i, j, perm) - f) <= 10.0 * tol for (i, j), f in peculiar_forced(x, y).items()):
            peculiar_perm = list(perm)
            break
    return {
        "zero_pairs": zero_pairs,
        "peculiar_permutation": peculiar_perm,
        "classified": bool(zero_pairs) or peculiar_perm is not None,
    }
