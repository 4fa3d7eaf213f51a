"""Numerical certification of the value-2 ceiling.

For a fixed weight vector the program is

    maximize   sum_{i<j<=5} lam_i lam_j a_ij^2
    subject to a in [-1, 1]^10 satisfying the five determinant relations.

The five relations are the Plücker relations of Gr(2, 5): the solutions
are exactly the minors a_ij = det(v_i, v_j) of real 2x5 matrices
V = (v_1 .. v_5), and V is feasible when every minor lies in [-1, 1].  By
Cauchy-Binet the objective is det(V diag(lam_1..lam_5) V^T).  The climb
keeps V as its state, so no part of the variety is left out.

Hold every column but v_k.  The objective is then
det A + lam_k v_k^T adj(A) v_k with A = sum_{j != k} lam_j v_j v_j^T, a
convex function of v_k, on the polygon |det(v_k, v_j)| <= 1 (j != k); its
maximum sits at a corner.  The corner on the lines det(v_k, v_a) = s_a and
det(v_k, v_b) = s_b is

    v_k = (s_b v_a - s_a v_b) / m_ab,    m_ab = det(v_a, v_b),

with minors s_a, s_b and x_j = (s_b m_aj - s_a m_bj) / m_ab with the
other two columns, and column value lam_k sum_j lam_j det(v_k, v_j)^2.
A corner and its negative score alike, so s_a = 1: a step scores 6 pairs
times 2 signs.  It builds each corner and computes its four minors from
it, takes the corner only when all four lie in [-1, 1] (with no slack),
and moves v_k to the best one that beats the column's current value.
The minors come from the corner itself, not from the formula for x_j:
when v_a and v_b are parallel up to rounding, m_ab is rounding noise and
the corner is an arbitrary vector, which the formula can pass as
feasible.  A sweep steps the columns in order 1..5.

The ascent is batched: a block of weight vectors climbs in lockstep, its
state one array of shape (N, R, 2, 5) holding the R restarts of each of
the N vectors.  Vector i draws its R Gaussian starts from its own stream
and leaves the block once its gain drops below ``_FTOL``, so each
certificate is the one a block of one produces.  Weighted sums go through
one matrix-vector product per vector, as for a single vector.
``certify_random`` runs blocks of at most ``_BLOCK_ROWS`` rows, so memory
does not grow with the number of weight vectors.

A column of weight 0 scores 0 at every corner and never moves, so a
certificate sets its minors, and any other minor of weight 0, to 0; the
value does not change.  Each certificate then names the drop family
(``bounds.drop_patterns``) whose pattern its live minors form: 0 on the
family instance's dropped pairs and +-1 on the others, or "other".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .admissible import CEILING, _PAIR_I, _PAIR_J, _as_lambda, lambda_pair_products, objective, sample_lambda
from .bounds import drop_patterns
from .errors import PreconditionError

__all__ = [
    "ZERO_WEIGHT_CEILING",
    "WITNESS_SET",
    "WITNESS_LAMBDA",
    "CeilingCertificate",
    "witness_value",
    "certify_random",
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

#: the drop families' patterns: dropped PAIRS positions -> family name
_PATTERNS = drop_patterns()


@dataclass(frozen=True)
class CeilingCertificate:
    """Best value found for one weight vector, with the attaining set and its drop pattern."""

    value: float
    argmax: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    restarts: int
    sweeps: int
    pattern: str


def witness_value() -> float:
    """Objective of the hard-coded equality case at equal weights."""
    return objective(WITNESS_SET, WITNESS_LAMBDA)


def _minors(V):
    """The ten minors det(v_i, v_j) of 2x5 matrices V (..., 2, 5), in PAIRS order: (..., 10)."""
    X, Y = V[..., 0, :], V[..., 1, :]
    # one pair at a time: four (..., 10) temporaries would double a block's peak memory
    return np.stack([X[..., i] * Y[..., j] - Y[..., i] * X[..., j] for i, j in zip(_PAIR_I, _PAIR_J)], axis=-1)


def _weighted(X, w):
    """Per-vector weighted sums of X (N, R, m) with w (N, m).

    A C-ordered X makes this one BLAS gemv per vector, which sums as the
    product for a single vector does.
    """
    return (np.ascontiguousarray(X) @ w[:, :, None])[..., 0]


def _column_step(V, k, lam):
    """Move column k of every climb in V (N, R, 2, 5) to its best feasible corner.

    ``lam`` holds the N vectors' first five weights, shape (N, 5).  A climb
    moves only when the corner beats its current column value.
    """
    X, Y = V[..., 0, :], V[..., 1, :]
    w = lam[:, :, None]  # (N, 5, 1): weight of column j, broadcast over restarts
    others = [j for j in range(5) if j != k]

    def minors(x, y):
        return [x * Y[..., j] - y * X[..., j] for j in others]

    best = w[:, k] * sum(w[:, j] * d * d for j, d in zip(others, minors(X[..., k], Y[..., k])))
    new_x, new_y = X[..., k].copy(), Y[..., k].copy()
    for a, b in combinations(others, 2):
        m = X[..., a] * Y[..., b] - Y[..., a] * X[..., b]
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in (1.0, -1.0):
                # m = 0 makes the corner infinite or nan, which fails the box test
                x, y = (s * X[..., a] - X[..., b]) / m, (s * Y[..., a] - Y[..., b]) / m
                d = minors(x, y)
                score = w[:, k] * sum(w[:, j] * dj * dj for j, dj in zip(others, d))
                win = score > best
                for dj in d:
                    win &= np.abs(dj) <= 1.0
                best = np.where(win, score, best)
                new_x, new_y = np.where(win, x, new_x), np.where(win, y, new_y)
    V[..., 0, k], V[..., 1, k] = new_x, new_y


def _starts(rngs, R):
    """R Gaussian 2x5 matrices from each stream, each scaled so that its largest minor has magnitude 1.

    Returns the starts (N, R, 2, 5) and their minors (N, R, 10).  The
    scaling rounds, so a start whose computed minors still exceed 1 is
    shrunk, by 1 - 2^-52 and then by a step that doubles, until none does:
    the box holds with no slack.  The step must grow, because each shrink
    rounds the entries apart: a minor that cancels two products larger
    than itself can drift away from the box under a fixed step of 2^-52.
    """
    V = np.stack([rng.normal(size=(R, 2, 5)) for rng in rngs])
    V /= np.sqrt(np.abs(_minors(V)).max(axis=-1))[..., None, None]
    M = _minors(V)
    step = 2.0**-52
    while (over := np.abs(M).max(axis=-1) > 1.0).any():
        V[over] *= 1.0 - step
        M[over] = _minors(V[over])
        step *= 2.0
    return V, M


def _pattern(a, live) -> str:
    """The drop family whose pattern the ``live`` minors of ``a`` form, or "other".

    Every live minor must be 0 or +-1 within 1e-9, and its zero set must be
    the dropped pairs of a family instance.
    """
    mag = np.abs(a[live])
    zero = mag <= 1e-9
    if not (zero | (np.abs(mag - 1.0) <= 1e-9)).all():
        return "other"
    return _PATTERNS.get(frozenset(np.flatnonzero(live)[zero].tolist()), "other")


def _maximize_block(lam, rngs, restarts):
    """Certificates for checked weight vectors ``lam`` of shape (N, 6), vector i climbing from ``rngs[i]``."""
    W = lambda_pair_products(lam)
    V, M = _starts(rngs, restarts)
    value = _weighted(M * M, W)
    L = lam[:, :5]
    best = np.empty(len(lam))
    argmax = np.empty((len(lam), 10))
    sweeps = np.zeros(len(lam), dtype=int)
    active = np.arange(len(lam))
    for sweep in range(1, _MAX_SWEEPS + 1):
        for k in range(5):
            _column_step(V, k, L)
        M = _minors(V)
        new_value = _weighted(M * M, W[active])
        done = (np.max(new_value - value, axis=1) < _FTOL) | (sweep == _MAX_SWEEPS)
        value = new_value
        if done.any():
            i = active[done]
            best[i] = value[done].max(axis=1)
            argmax[i] = M[done, np.argmax(value[done], axis=1)]
            sweeps[i] = sweep
            keep = ~done
            V, L, value, active = V[keep], L[keep], value[keep], active[keep]
            if not len(active):
                break
    live = W != 0.0
    argmax[~live] = 0.0  # a column of weight 0 never moves from its start
    return [
        CeilingCertificate(
            value=float(best[i]),
            argmax=argmax[i],
            lam=lam[i].copy(),
            restarts=restarts,
            sweeps=int(sweeps[i]),
            pattern=_pattern(argmax[i], live[i]),
        )
        for i in range(len(lam))
    ]


def certify_random(
    n_lambda: int = 1000,
    restarts: int = 64,
    seed: int = 0,
    first_weight_zero: bool = False,
    tol: float = 1e-6,
) -> dict:
    """Ceiling check over random weight vectors: the ``certify`` command's report.

    Draws ``n_lambda`` weight vectors (optionally with the smallest
    weight pinned to zero), maximizes the objective for each, and
    reports the worst case against the applicable ceiling, in print
    order.  Vector k is drawn from ``default_rng([seed, k])`` and climbs
    from ``default_rng([seed, k, 1])``, whichever block it runs in.
    Counts outside [0, 10^5] are refused: 10^5 weight vectors take
    about ten minutes at 64 restarts.  So are restarts outside [1, 10^4],
    a tol that is not finite (a NaN one would pass every value) and a
    seed that is not a nonnegative integer.
    """
    if not 0 <= n_lambda <= 10**5:
        raise PreconditionError("samples must lie in [0, 10^5]")
    if not 1 <= restarts <= 10**4:
        raise PreconditionError("restarts must lie in [1, 10^4]")
    if not np.isfinite(tol):
        raise PreconditionError("tol must be finite")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise PreconditionError("seed must be a nonnegative integer")
    bound = ZERO_WEIGHT_CEILING if first_weight_zero else CEILING
    if first_weight_zero:
        witness, max_value, argmax_lam, argmax_set = None, -np.inf, None, None
    else:
        # the frozen equality case always participates in the global max,
        # so a witness-only run (n_lambda=0) reports exactly 2.0
        witness = max_value = witness_value()
        argmax_lam = WITNESS_LAMBDA
        argmax_set = WITNESS_SET
    violations = []
    kinds = dict.fromkeys([*_PATTERNS.values(), "other"], 0)
    block = max(1, _BLOCK_ROWS // restarts)
    for start in range(0, n_lambda, block):
        ks = range(start, min(start + block, n_lambda))
        lams = [sample_lambda(np.random.default_rng([seed, k]), first_weight_zero) for k in ks]
        rngs = [np.random.default_rng([seed, k, 1]) for k in ks]
        certs = _maximize_block(_as_lambda(np.array(lams)), rngs, restarts)
        for lam, cert in zip(lams, certs):
            if cert.value > max_value:
                max_value = cert.value
                argmax_lam = lam
                argmax_set = cert.argmax
            if cert.value > bound + tol:
                violations.append({"lambda": [float(v) for v in lam], "value": cert.value})
            kinds[cert.pattern] += 1
    return {
        "n_lambda": n_lambda,
        "restarts": restarts,
        "bound": bound,
        "tol": tol,
        "global_max": None if argmax_lam is None else float(max_value),
        "argmax_lambda": None if argmax_lam is None else [float(v) for v in argmax_lam],
        "argmax_set": None if argmax_set is None else [float(v) for v in argmax_set],
        "witness_value": witness,
        "boundary_kinds": kinds,
        "violations": violations,
    }
