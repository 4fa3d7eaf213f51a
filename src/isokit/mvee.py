"""Minimum-volume enclosing ellipsoid of an origin-symmetric point set.

The solver works on the centered formulation only: for points +-s_i the
ellipsoid is {x : x^T M x <= 1} with no translation term, and finding it
is the classical D-optimal design problem

    maximize  log det V(u),   V(u) = sum_i u_i s_i s_i^T,   u in simplex.

At the optimum M = V^{-1} / 3, and the optimal design weights u_i are
(up to the factor 3) contact-point weights (Kiefer-Wolfowitz): with
T = M^(1/2), sum_i 3 u_i (T s_i)(T s_i)^T = Id.  The leverages
w_i = s_i^T V^{-1} s_i are at most 3 everywhere and equal 3 on the
support, and the solver stops once both hold within the relative gap tol.

The problem is linearly equivariant, so the solver works in a whitened
frame Y = X L (second moment Id, from a QR factor), where M_Y is well
conditioned however thin the points are; no other module sees it.  At
exit, with T_Y = M_Y^(1/2), the polar decomposition T_Y L^T = U T gives
T = M^(1/2), and the contacts T s_i = U^T T_Y y_i come from whitened rows.
It starts from uniform weights when they are already optimal (the cube
returns at iteration 0), else from a core set
of three points, each the farthest from the span of the ones before
(Kumar & Yildirim 2005).  Each round then tries a Newton polish: the
support plus the worst violator, which enters at the Frank-Wolfe
line-search weight, solves w_i = 3 with the Jacobian -(G o G),
G = S V^{-1} S^T.  Whenever the support changes (at the polish's start
and after a drop) a Caratheodory elimination keeps V and shrinks it to at
most six points with independent outer products, so G o G stays
nonsingular; a step that would make a weight negative stops at the
boundary and drops that point.  Each step's two small systems go straight
to LAPACK's gesv, which costs a fraction of np.linalg.solve's overhead.
A polish is kept only if it converges and raises log det V.  Otherwise
the round is a Wolfe-Atwood Frank-Wolfe step (with away steps and an
exact line search), and the next polish waits 1, 2, 4, ... rounds.  So
det V is nondecreasing throughout, the Frank-Wolfe steps keep their
convergence guarantee, and on the right support Newton converges
quadratically.
Every Frank-Wolfe and every Newton step counts as one iteration.

At exit, after T is built, one more Caratheodory elimination (rank
tolerance 1e-12) reduces the optimal design to at most six points with
independent outer products, the John decomposition's support: V, T and
the gap stay as they were.  The uniform start and the Frank-Wolfe rounds
can leave more than six points in the design, and a polished support is
only independent to within 1e-7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InvariantError, NoConvergence, PreconditionError

__all__ = ["Ellipsoid", "mvee_centered", "svec", "caratheodory"]

_SUPPORT_EPS = 1e-15
#: the finest tol the solver takes: a relative gap in doubles stalls near
#: 1e-14, so a finer tol would run to the iteration cap and never close
TOL_FLOOR = 1e-12
#: the polish support's outer products count as dependent when their
#: smallest singular value is at most this times the largest
_POLISH_RANK_RTOL = 1e-7
#: the same at exit, for the design the solver returns: finer than the
#: polish's, since a step along an approximate null vector whose singular
#: value is near 1e-7 can move V by about that much
_RANK_RTOL = 1e-12
#: Newton steps one polish may take before it counts as failed
_POLISH_STEPS = 30


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid {x : |T x| <= 1} with solver metadata.

    ``T`` is the symmetric positive-definite map onto the unit ball, and
    ``M`` = T^2 the shape matrix: x^T M x = |T x|^2.  ``weights`` is the
    solver's optimal design u, one weight per input point, reduced to a
    support of at most six points whose outer products are independent
    and zero off it: the points with u_i > 0 lie on the boundary within
    the gap, and sum_i 3 u_i (T s_i)(T s_i)^T = Id is the contact
    decomposition.  ``contacts`` holds their images T s_i, unit vectors
    within the gap, in the order of ``np.flatnonzero(weights)``.
    ``fw_steps`` counts the Frank-Wolfe steps among the ``iterations``:
    nonzero only once a Newton polish has failed.
    """

    T: np.ndarray
    iterations: int = 0
    gap: float = 0.0
    fw_steps: int = 0
    weights: np.ndarray | None = field(default=None, repr=False)
    contacts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        if T.shape != (3, 3):
            raise InvariantError("ball map must be 3x3")
        if not np.allclose(T, T.T, atol=1e-9 * max(1.0, float(np.abs(T).max()))):
            raise InvariantError("ball map must be symmetric")
        if np.linalg.eigvalsh(0.5 * (T + T.T))[0] <= 0:
            raise InvariantError("ball map must be positive definite")
        object.__setattr__(self, "T", 0.5 * (T + T.T))

    @property
    def M(self) -> np.ndarray:
        return self.T @ self.T


def svec(points) -> np.ndarray:
    """Isometric vectorizations of the outer products p p^T (Frobenius norm
    preserved), one column per row of ``points``: a (6, k) array."""
    P = np.asarray(points, dtype=float)
    a, b, c = P[:, 0], P[:, 1], P[:, 2]
    r2 = np.sqrt(2.0)
    return np.array([a * a, b * b, c * c, r2 * a * b, r2 * a * c, r2 * b * c])


def caratheodory(C, lam, rtol: float, protect: int | None = None):
    """Caratheodory elimination on the nonnegative combination ``C @ lam``.

    Each step moves the weights along a null vector gamma of the support
    columns (C gamma ~ 0, so C @ lam stays put) until the first weight
    reaches zero (the ratio test), and drops that column.  Steps run while
    more than six columns carry weight (the columns of ``svec`` live in a
    6-dimensional space, so such a support always has a null vector) and
    while the smallest singular value of the support columns is at most
    ``rtol`` times the largest.  The weight at index ``protect`` does not
    decrease when the null vector allows it.

    Returns (support, weights): the indices still carrying weight above
    1e-15 and the new weight vector.
    """
    lam = np.array(lam, dtype=float)
    support = np.flatnonzero(lam > 0.0)
    while len(support):
        _, s, vh = np.linalg.svd(C[:, support])
        if len(support) <= 6 and s[-1] > rtol * s[0]:
            break
        gamma = vh[-1]  # null direction: C[:, support] @ gamma ~ 0
        pos = np.flatnonzero(support == protect)  # empty once the protected column is gone
        if len(pos) and gamma[pos[0]] > 0.0 and gamma.min() < 0.0:
            gamma = -gamma
        if gamma.max() <= 0.0:
            gamma = -gamma
        ratios = _elim_ratios(gamma, lam[support])
        drop = int(np.argmin(ratios))
        lam_s = np.clip(lam[support] - ratios[drop] * gamma, 0.0, None)
        lam_s[drop] = 0.0
        lam[support] = lam_s
        support = support[lam_s > 1e-15]
    return support, lam


def _elim_ratios(gamma, lam_s):
    """Elimination ratios lam_i / gamma_i, inf where gamma_i is not positive."""
    out = np.full(len(gamma), np.inf)
    pos = gamma > 1e-14
    out[pos] = lam_s[pos] / gamma[pos]
    return out


def _leverages(Y, V):
    """(V^{-1}, w) with w_i = y_i^T V^{-1} y_i."""
    Vinv = np.linalg.inv(V)
    return Vinv, np.einsum("ij,jk,ik->i", Y, Vinv, Y)


def _gap(w, u) -> float:
    """Relative duality gap: the largest leverage above 3, or the smallest
    on the support below 3."""
    return max(float(w.max()) / 3.0 - 1.0, 1.0 - float(w[u > _SUPPORT_EPS].min()) / 3.0)


def _core_set(Y) -> np.ndarray:
    """Weight 1/3 on three points, each the farthest from the span of the ones before."""
    R = Y.copy()
    u = np.zeros(len(Y))
    for _ in range(3):
        j = int(np.argmax(np.einsum("ij,ij->i", R, R)))
        u[j] = 1.0 / 3.0
        q = R[j] / np.linalg.norm(R[j])
        R -= np.outer(R @ q, q)
    return u


def _polish(Y, u, w, tol, budget):
    """Newton on w_i = 3 over the support plus the worst violator.

    Returns (steps taken, (u, V) or None): the polished design, weights
    summing to one, if Newton converged within ``budget`` steps (the
    violator's entry counts as one) and log det V rose; None otherwise.
    """
    # LAPACK's gesv directly: on these 3x3 and at most 7x7 systems
    # np.linalg.solve costs several times as much in call overhead.  scipy
    # loads here, as for the float hull, so importing isokit does not load it
    from scipy.linalg.lapack import dgesv

    budget = min(budget, _POLISH_STEPS)
    S = np.flatnonzero(u > _SUPPORT_EPS)
    us = u[S]
    logdet0 = np.linalg.slogdet((Y[S].T * us) @ Y[S])[1]
    steps, protect = 0, None
    jp = int(np.argmax(w))
    kp = float(w[jp])
    if kp > 3.0 and u[jp] <= _SUPPORT_EPS:  # the violator enters at the line-search weight
        beta = (kp - 3.0) / (3.0 * (kp - 1.0))
        S, us = np.append(S, jp), np.append((1.0 - beta) * us, beta)
        protect, steps = len(S) - 1, 1
    changed = True  # whether the support changed since the last rank check
    while True:
        # the rank check reads only the support's points, so it runs when
        # the support changes: at entry, after a drop at the boundary, or
        # when a weight lands on 0.0 (the elimination drops it); between
        # those it would find the same singular values and keep everything
        if changed:
            # keep the violator: it is the point the new design needs
            keep, lam = caratheodory(svec(Y[S]), us, rtol=_POLISH_RANK_RTOL, protect=protect)
            protect = None
            S, us = S[keep], lam[keep]
            Ys = Y[S]
        V = (Ys.T * us) @ Ys
        *_, X, info = dgesv(V, Ys.T)
        if info:  # the support lost rank
            return steps, None
        G = Ys @ X
        r = np.diag(G) - 3.0
        if np.abs(r).max() <= 0.75 * tol:
            break
        if steps >= budget:
            return steps, None
        steps += 1
        *_, d, info = dgesv(G * G, r)
        if info:
            return steps, None
        new = us + d
        low = float(new.min())
        changed = low <= 0.0
        if low < 0.0:  # stop at the boundary and drop the point that reaches it
            neg = np.flatnonzero(new < 0.0)
            hit = neg[np.argmin(us[neg] / -d[neg])]
            new = np.clip(us - us[hit] / d[hit] * d, 0.0, None)
            new[hit] = 0.0
            S, new = S[new > 0.0], new[new > 0.0]
        us = new
    total = float(us.sum())
    V /= total
    if steps == 0 or not np.linalg.slogdet(V)[1] > logdet0:
        return steps, None
    out = np.zeros(len(u))
    out[S] = us / total
    return steps, (out, V)


def whiten(points):
    """(Y, L) with Y = X L and Y^T Y / m = Id, for the (m, 3) array X.

    L = sqrt(m) R^{-1} comes from the QR factor of X: the frame of
    chol(inv(X^T X / m)) up to a rotation, without squaring the condition
    number.  The MVEE of Y is {y : y^T M_Y y <= 1}, and X's is M = L M_Y L^T.
    The rank test reads the singular values of the 3x3 R, which are X's,
    relative to the largest coordinate: scale-free.

    Raises PreconditionError on a non-finite coordinate or a map L past
    the double range (a body near the subnormal scale), and
    DegenerateInput if the points span fewer than 3 dimensions.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise DegenerateInput("expected an (m, 3) point array")
    if not np.isfinite(X).all():
        raise PreconditionError("non-finite coordinate")
    m = X.shape[0]
    Q, R = np.linalg.qr(X)
    if m < 3 or np.linalg.svd(R, compute_uv=False)[-1] <= 1e-12 * float(np.abs(X).max()):
        raise DegenerateInput("points span fewer than 3 dimensions")
    with np.errstate(over="ignore"):
        L = np.linalg.inv(R) * math.sqrt(m)
    if not np.isfinite(L).all():
        raise PreconditionError("whitening map is not finite: the body's scale is past the double range")
    return Q * math.sqrt(m), L


def mvee_centered(points, tol: float = 1e-9, max_iter: int | None = None, trace=None) -> Ellipsoid:
    """MVEE of the symmetric set {+-s : s in points}.

    Parameters
    ----------
    points : (m, 3) array-like
        One representative per antipodal pair is enough; duplicates,
        explicit negatives and points inside the hull of the others are
        harmless (a point set and its hull share their MVEE).
    tol : float
        Relative duality gap at exit: all points satisfy s^T M s <= 1 + tol
        and the support satisfies s^T M s >= 1 - tol.
    max_iter : int, optional
        Cap on Frank-Wolfe plus Newton steps; default 100 * m * log(1/tol).
    trace : list, optional
        If given, (det V, det M_feasible) is appended at the start and
        after every Frank-Wolfe step and every kept polish, where
        M_feasible is the current iterate rescaled to contain all points.

    Raises
    ------
    PreconditionError
        If tol is not finite or is below ``TOL_FLOOR``, or a coordinate
        is not finite.
    DegenerateInput
        If the points span fewer than 3 dimensions.
    NoConvergence
        If the iteration cap is reached before the gap closes.
    """
    if not math.isfinite(tol):
        raise PreconditionError("tol must be finite")
    if tol < TOL_FLOOR:
        raise PreconditionError(f"tol {tol:.3e} is below the solver's floor {TOL_FLOOR:.0e}")
    Y, L = whiten(points)
    m = len(Y)
    if max_iter is None:
        max_iter = int(100 * m * math.log(1.0 / min(tol, 0.5)))
    if trace is not None:
        det_l2 = float(np.linalg.det(L)) ** 2

    u = np.full(m, 1.0 / m)
    V = (Y.T * u) @ Y
    if _gap(_leverages(Y, V)[1], u) > tol:
        u = _core_set(Y)
        V = (Y.T * u) @ Y
    it = fw_steps = wait = 0
    backoff = 1
    while True:
        try:
            Vinv, w = _leverages(Y, V)
        except np.linalg.LinAlgError:
            V = (Y.T * u) @ Y
            Vinv, w = _leverages(Y, V)
        jp = int(np.argmax(w))
        kp = float(w[jp])
        if trace is not None:
            trace.append((float(np.linalg.det(V)) / det_l2, float(np.linalg.det(Vinv / kp)) * det_l2))
        gap = _gap(w, u)
        if gap <= tol:
            vals, vecs = np.linalg.eigh(Vinv / max(kp, 3.0))
            T_Y = (vecs * np.sqrt(vals)) @ vecs.T
            W, sigma, Vt = np.linalg.svd(T_Y @ L.T)  # polar: T_Y L^T = (W Vt) T
            sup = np.flatnonzero(u > _SUPPORT_EPS)
            keep, lam = caratheodory(svec(Y[sup]), u[sup], rtol=_RANK_RTOL)
            sup = sup[keep]
            weights = np.zeros(m)
            weights[sup] = lam[keep]
            T, contacts = (Vt.T * sigma) @ Vt, Y[sup] @ T_Y.T @ (W @ Vt)
            return Ellipsoid(T=T, iterations=it, gap=gap, fw_steps=fw_steps, weights=weights, contacts=contacts)
        if it >= max_iter:
            raise NoConvergence(
                f"ellipsoid solver did not reach tol={tol} in {max_iter} iterations: "
                f"gap {gap:.3e} above tol {tol:.3e} by {gap - tol:.3e}"
            )
        if wait == 0:
            steps, polished = _polish(Y, u, w, tol, max_iter - it)
            it += steps
            if polished is not None:
                u, V = polished
                continue
            wait, backoff = backoff, 2 * backoff
            if it >= max_iter:
                continue
        sup = u > _SUPPORT_EPS
        jm = int(np.flatnonzero(sup)[np.argmin(w[sup])])
        km = float(w[jm])
        if kp - 3.0 >= 3.0 - km:
            j, k = jp, kp
            beta = (k - 3.0) / (3.0 * (k - 1.0))
        else:
            # away step; for k <= 1 the objective is monotone along the
            # ray, so the best feasible move drops the point entirely
            j, k = jm, km
            floor = -u[j] / (1.0 - u[j])
            beta = max((k - 3.0) / (3.0 * (k - 1.0)), floor) if k > 1.0 else floor
        y = Y[j]
        u *= 1.0 - beta
        u[j] += beta
        np.clip(u, 0.0, None, out=u)
        V = (1.0 - beta) * V + beta * np.outer(y, y)
        it += 1
        wait -= 1
        fw_steps += 1
        if fw_steps % 256 == 0:
            V = (Y.T * u) @ Y  # refresh accumulated rank-one drift
