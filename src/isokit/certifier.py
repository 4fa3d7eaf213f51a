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

The ascent is batched: a block of weight vectors climbs in lockstep, its
state one array of shape (N, R, n) holding the R restarts of each of the
N vectors on a chart with n free coordinates.  Every vector keeps its own
random stream (chart-A starts, one sweep order per chart-A sweep, then the
same for chart B) and leaves the block once its gain drops below ``_FTOL``,
so each certificate is the one a block of one produces.  Weighted sums go
through one matrix-vector product per vector, as for a single vector.
``certify_random`` runs blocks of at most ``_BLOCK_ROWS`` rows, so memory
does not grow with the number of weight vectors.
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

#: rows (weight vectors times restarts) one block of ``certify_random`` holds
_BLOCK_ROWS = 4096
#: sweep cap and gain threshold of every climb
_MAX_SWEEPS, _FTOL = 200, 1e-13

#: the relabelings of indices 1..5 in ``itertools.permutations`` order;
#: entry k of ``a`` relabeled by permutation p is
#: ``_RELABEL_SIGN[p, k] * a[_RELABEL_POS[p, k]]``
_PERMS = list(permutations(range(1, 6)))
_RELABEL_POS, _RELABEL_SIGN = np.moveaxis(
    np.array([[pair_pos(s[i - 1], s[j - 1]) for i, j in PAIRS] for s in _PERMS]), -1, 0
)
_WITNESS_RELABELED = _RELABEL_SIGN * WITNESS_SET[_RELABEL_POS]
_PERM_ROW = {perm: p for p, perm in enumerate(_PERMS)}
#: PAIRS as 0-based index arrays (i - 1, j - 1)
_PAIR_I, _PAIR_J = (np.array(c) - 1 for c in zip(*PAIRS))
_HEAVY_POS = [pair_pos(i, j)[0] for i, j in HEAVY_PAIRS]


def _chart(name, free, derived, quads):
    """Chart description: local state = a[free]; local index 0 is the pivot.

    The pivot is bounded away from zero by eps; each derived entry is
    (s[A] * s[B] - s[C] * s[D]) / s[0], with C = D = -1 meaning no second
    product.  The role table says how each sweep column c enters quad k:
    the derived entry moves by ``sign[k, c] * s[partner[k, c]] / s[0]`` per
    unit of s[c], with sign 0 where c is not in the quad.
    """
    partner = np.zeros((len(quads), len(free)), dtype=int)
    sign = np.zeros((len(quads), len(free)))
    for k, (A, B, C, D) in enumerate(quads):
        for c, other, s in ((A, B, 1.0), (B, A, 1.0), (C, D, -1.0), (D, C, -1.0)):
            if c >= 0:
                partner[k, c], sign[k, c] = other, s
    return {
        "name": name,
        "free": [pair_pos(*p)[0] for p in free],
        "derived": [pair_pos(*p)[0] for p in derived],
        "quads": quads,
        "partner": partner,
        "sign": sign,
    }


_CHART_A = _chart(
    "a12",
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)),
    ((3, 4), (3, 5), (4, 5)),
    ((1, 5, 2, 4), (1, 6, 3, 4), (2, 6, 3, 5)),
)
_CHART_B = _chart(
    "a13",
    ((1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)),
    ((2, 4), (2, 5), (4, 5)),
    ((1, 3, -1, -1), (2, 3, -1, -1), (1, 5, 2, 4)),
)


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
    """Chart numerator S_A S_B - S_C S_D over the last axis of the local state S."""
    A, B, C, D = quad
    num = S[..., A] * S[..., B]
    if C >= 0:
        num = num - S[..., C] * S[..., D]
    return num


def _derived(S, quads):
    """Derived entries on a chart, shape (..., 3), for local state S of shape (..., n)."""
    return np.stack([_numerator(S, quad) / S[..., 0] for quad in quads], axis=-1)


# The block state S is stored columns first, shape (n, N, R): local
# coordinate c of all R restarts of all N weight vectors is the contiguous
# slice S[c].  The helpers above see it as ``S.transpose(1, 2, 0)``, of
# shape (N, R, n).


def _numerators(S, chart):
    """The three chart numerators of the block state, quads first: (3, N, R)."""
    V = S.transpose(1, 2, 0)
    return np.array([_numerator(V, quad) for quad in chart["quads"]])


def _weighted(X, w):
    """Per-vector weighted sums of X (N, R, m) with w (N, m).

    A C-ordered X makes this one BLAS gemv per vector, which sums as the
    product for a single vector does.
    """
    return (np.ascontiguousarray(X) @ w[:, :, None])[..., 0]


def _chart_value(S, chart, wf, wd):
    V = S.transpose(1, 2, 0)
    return _weighted(V * V, wf) + _weighted(_derived(V, chart["quads"]) ** 2, wd)


def _linear_step(S, cols, chart, wf, wd):
    """Move local coordinate cols[i] (>= 1) of every restart of vector i to the best end of its interval."""
    vec = np.arange(len(cols))
    t = S[cols, vec]
    S0 = S[0]
    # quads first, (3, N, R): derived entry k is p[k] * t + q[k]
    p = chart["sign"][:, cols, None] * (S[chart["partner"][:, cols], vec] / S0)
    q = _numerators(S, chart) / S0 - p * t
    nz = p != 0.0
    pnz = np.where(nz, p, 1.0)
    b1 = np.where(nz, (-1.0 - q) / pnz, -1.0)
    b2 = np.where(nz, (1.0 - q) / pnz, 1.0)
    lo = np.maximum(np.minimum(b1, b2).max(axis=0), -1.0)
    hi = np.minimum(np.maximum(b1, b2).min(axis=0), 1.0)
    # the objective along t is A t^2 + B t, summed quad by quad as the
    # single-vector step did: a regrouped sum can move the last bit
    wd = wd.T[..., None]
    pa = wd * p * p
    pb = 2.0 * wd * p * q
    A_coef = wf[vec, cols][:, None] + pa[0] + pa[1] + pa[2]
    B_coef = pb[0] + pb[1] + pb[2]
    phi_lo = A_coef * lo * lo + B_coef * lo
    phi_hi = A_coef * hi * hi + B_coef * hi
    S[cols, vec] = np.where(lo <= hi, np.where(phi_lo >= phi_hi, lo, hi), t)


def _pivot_step(S, chart, wf, wd, eps):
    """Move the pivot; the objective is w0 s + kappa / s in s = pivot^2."""
    nums = _numerators(S, chart)
    kappa = _weighted((nums * nums).transpose(1, 2, 0), wd)
    t_lo = np.maximum(eps, np.abs(nums).max(axis=0))
    ok = t_lo <= 1.0
    s_lo = t_lo * t_lo
    w0 = wf[:, :1]
    phi_lo = w0 * s_lo + kappa / s_lo
    phi_hi = w0 + kappa
    s_new = np.where(phi_lo >= phi_hi, s_lo, 1.0)
    t = S[0]
    S[0] = np.where(ok, np.sign(t) * np.sqrt(s_new), t)


def _init_chart(rng, R, chart, eps):
    """Feasible starts: random frames plus relabelings of the equality case.

    Determinant coordinates of any six unit vectors satisfy the relations
    and the box automatically, so random frames give generic interior
    starts; relabeled copies of the known value-2 corner probe the tight
    stratum where a violation would have to live.
    """
    pivot_pos = chart["free"][0]
    corner_ok = np.abs(_WITNESS_RELABELED[:, pivot_pos]) >= eps
    if chart["name"] == "a13":
        corner_ok &= _WITNESS_RELABELED[:, 0] == 0.0
    corners = []
    while len(corners) < R // 2:
        p = _PERM_ROW[tuple(rng.permutation(5) + 1)]
        if corner_ok[p]:
            corners.append(p)
    out = np.empty((R, len(chart["free"])))
    out[: len(corners)] = _WITNESS_RELABELED[corners][:, chart["free"]]
    filled = len(corners)
    while filled < R:
        U = rng.normal(size=(R - filled, 6, 3))
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        if chart["name"] == "a13":
            # force a12 = 0: put the second vector in the span of u1, u6
            ab = rng.normal(size=(R - filled, 2))
            v = ab[:, :1] * U[:, 0] + ab[:, 1:] * U[:, 5]
            U[:, 1] = v / np.linalg.norm(v, axis=1, keepdims=True)
        A = np.einsum("rpk,rk->rp", np.cross(U[:, _PAIR_I], U[:, _PAIR_J]), U[:, 5])
        take = A[np.abs(A[:, pivot_pos]) >= eps][: R - filled]
        out[filled : filled + len(take)] = take[:, chart["free"]]
        filled += len(take)
    return out


def _ascend(W, chart, R, rngs, eps):
    """Climb R restarts per weight vector on one chart, all vectors in lockstep.

    ``W`` holds the pair products of N weight vectors, shape (N, 10), and
    ``rngs`` their streams.  Returns per vector the best value, the set
    attaining it and the sweeps run.
    """
    free, derived = chart["free"], chart["derived"]
    S = np.stack([_init_chart(rng, R, chart, eps).T for rng in rngs], axis=1)
    wf, wd = W[:, free], W[:, derived]
    value = _chart_value(S, chart, wf, wd)
    best = np.empty(len(W))
    argmax = np.zeros((len(W), 10))
    sweeps = np.zeros(len(W), dtype=int)
    active = np.arange(len(W))

    def leave(done, n_sweeps):
        v = value[done]
        rows = S.transpose(1, 2, 0)[done, np.argmax(v, axis=1)]
        i = active[done]
        best[i] = v.max(axis=1)
        argmax[i[:, None], free] = rows
        argmax[i[:, None], derived] = np.clip(_derived(rows, chart["quads"]), -1.0, 1.0)
        sweeps[i] = n_sweeps

    sweep = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        _pivot_step(S, chart, wf, wd, eps)
        # random sweep order breaks fixed-cycle stalls
        order = np.array([rngs[i].permutation(len(S) - 1) + 1 for i in active])
        for cols in order.T:
            _linear_step(S, cols, chart, wf, wd)
        new_value = _chart_value(S, chart, wf, wd)
        done = np.max(new_value - value, axis=1) < _FTOL
        value = new_value
        if done.any():
            leave(done, sweep)
            keep = ~done
            S, wf, wd, value, active = S[:, keep], wf[keep], wd[keep], value[keep], active[keep]
            if not len(active):
                break
    if len(active):
        leave(np.ones(len(active), dtype=bool), sweep)
    return best, argmax, sweeps


def _maximize_block(lam, rngs, restarts, eps):
    """Certificates for checked weight vectors ``lam`` of shape (N, 6), vector i climbing from ``rngs[i]``."""
    if not (0.0 < eps < 0.1):
        raise PreconditionError("eps must lie in (0, 0.1)")
    W = lambda_pair_products(lam)
    r_a = max(1, restarts // 2)
    r_b = max(1, restarts - r_a)
    # chart B starts only when chart A is done, as for a single vector
    va, aa, sa = _ascend(W, _CHART_A, r_a, rngs, eps)
    vb, ab, sb = _ascend(W, _CHART_B, r_b, rngs, eps)
    certs = []
    for i in range(len(lam)):
        if va[i] >= vb[i]:
            value, a, chart = va[i], aa[i], _CHART_A["name"]
        else:
            value, a, chart = vb[i], ab[i], _CHART_B["name"]
        certs.append(
            CeilingCertificate(
                value=float(value),
                argmax=a,
                lam=lam[i].copy(),
                chart=chart,
                restarts=r_a + r_b,
                sweeps=int(max(sa[i], sb[i])),
                boundary=boundary_structure_check(a),
            )
        )
    return certs


def maximize_objective(lam, restarts: int = 64, seed=0, eps: float = 1e-3) -> CeilingCertificate:
    """Certified-from-below maximum of the objective for one weight vector.

    Runs ``restarts`` coordinate-ascent climbs, split between the two
    charts of the relation variety, from feasible random frames.  The
    reported value is a true lower bound for the constrained maximum;
    the ceiling claim is that it never exceeds 2 (9/5 when the smallest
    weight is zero).
    """
    lam = _as_lambda(lam)[None]
    return _maximize_block(lam, [np.random.default_rng(seed)], restarts, eps)[0]


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
    reports the worst case against the applicable ceiling.  Vector k
    is drawn from ``default_rng([seed, k])`` and climbs from
    ``default_rng([seed, k, 1])``, whichever block it runs in.
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
    block = max(1, _BLOCK_ROWS // max(restarts, 1))
    for start in range(0, n_lambda, block):
        ks = range(start, min(start + block, n_lambda))
        lams = [sample_lambda(np.random.default_rng([seed, k]), first_weight_zero) for k in ks]
        rngs = [np.random.default_rng([seed, k, 1]) for k in ks]
        certs = _maximize_block(_as_lambda(np.array(lams)), rngs, restarts, eps)
        for lam, cert in zip(lams, certs):
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
    that does it (the first in ``itertools.permutations`` order).
    """
    arr = np.asarray(a, float)
    mag = np.abs(arr)
    zero_pairs = [PAIRS[k] for k in range(10) if mag[k] <= tol]
    # magnitudes of every relabeling at once, one row per permutation
    M = mag[_RELABEL_POS]
    x, y = M[:, pair_pos(1, 4)[0]], M[:, pair_pos(1, 5)[0]]
    heavy_ok = ~(np.abs(M[:, _HEAVY_POS] - 1.0) > tol).any(axis=1)
    cand = np.flatnonzero(heavy_ok & ~((x <= tol) | (y <= tol) | (x + y < 1.0 - tol)))
    match = np.ones(len(cand), dtype=bool)
    for (i, j), f in peculiar_forced(x[cand], y[cand]).items():
        match &= np.abs(M[cand, pair_pos(i, j)[0]] - f) <= 10.0 * tol
    hits = cand[match]
    peculiar_perm = list(_PERMS[hits[0]]) if len(hits) else None
    return {
        "zero_pairs": zero_pairs,
        "peculiar_permutation": peculiar_perm,
        "classified": bool(zero_pairs) or peculiar_perm is not None,
    }
