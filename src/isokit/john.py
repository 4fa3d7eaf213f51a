"""Contact-point decompositions and the normalizing transform.

Pipeline: for a polytope K, compute the minimum-volume enclosing
ellipsoid {x : x^T M x <= 1} of the difference body K - K, and map by
T = M^(1/2).  A point set and its hull share that ellipsoid, so the solver
runs on the vertex differences of K and no hull of K - K is built.  Then
T(K - K) has the unit ball as its enclosing ellipsoid,
the contact directions u_i admit nonnegative weights with

    sum_i lam_i u_i u_i^T = Id,      sum_i lam_i = 3,

(the ellipsoid solver's optimal design is such a decomposition, so no
second solve is needed), and the isodiametric quotient vol(TK) /
diam(TK)^3 is at least sqrt(2)/12.  The witness for that bound is a
vector triple among the contact directions whose determinant is at least
1/sqrt(2) in absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvariantError, NoDecomposition, PreconditionError
from .geom import float_hull
from .mvee import caratheodory, mvee_centered, svec

__all__ = [
    "IDQ_LOWER_BOUND",
    "WITNESS_LOWER_BOUND",
    "JohnDecomposition",
    "NormalizationResult",
    "john_weights",
    "witness_triple",
    "normalize",
]

#: vol(K)/diam(K)^3 is at least this after normalization (simplex value)
IDQ_LOWER_BOUND = float(np.sqrt(2.0) / 12.0)

#: guaranteed witness determinant
WITNESS_LOWER_BOUND = float(1.0 / np.sqrt(2.0))

#: |sum lam_i u_i u_i^T - Id| above this is no decomposition
RESIDUAL_BOUND = 1e-7

#: normalize refuses bodies with more vertices: it holds n(n - 1)/2 vertex
#: differences, and 3,000 vertices (4.5 M differences) already take about
#: 655 MB
MAX_VERTICES = 3000

#: the kept directions' outer products count as dependent when their
#: smallest singular value is at most this times the largest
_RANK_RTOL = 1e-12

#: the 20 index triples of six directions, in lexicographic order
_TRIPLES = np.array(list(combinations(range(6), 3)))


@dataclass(frozen=True)
class JohnDecomposition:
    """Six unit directions u_i with weights lam_i, sum lam_i u_i u_i^T = Id.

    Entries are sorted by weight, so ``lambdas[5]`` is the maximum; padded
    zero-weight entries (for supports smaller than six) come first.
    """

    lambdas: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if lam.shape != (6,) or u.shape != (6, 3):
            raise InvariantError("need six weights and six directions")
        if np.any(lam < -1e-12):
            raise InvariantError("weights must be nonnegative")
        if np.any(np.abs(np.linalg.norm(u, axis=1) - 1.0) > 1e-9):
            raise InvariantError("directions must be unit vectors")
        if lam[5] < lam.max() - 1e-12:
            raise InvariantError("weights must place the maximum last")
        resid = np.einsum("i,ij,ik->jk", lam, u, u) - np.eye(3)
        if np.linalg.norm(resid) > 1e-7:
            raise InvariantError("weights do not reproduce the identity")
        if abs(float(lam.sum()) - 3.0) > 1e-7:
            raise InvariantError("weights must sum to 3")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "u", u)

    @property
    def residual(self) -> float:
        return float(np.linalg.norm(np.einsum("i,ij,ik->jk", self.lambdas, self.u, self.u) - np.eye(3)))


@dataclass(frozen=True)
class NormalizationResult:
    """Output of ``normalize``: the map T plus the certifying decomposition."""

    T: np.ndarray
    idq: float
    decomposition: JohnDecomposition
    witness_ijk: tuple
    witness_value: float

    def to_json_dict(self) -> dict:
        return {
            "T": [float(x) for x in np.asarray(self.T).reshape(9)],
            "idq": float(self.idq),
            "lambda": [float(x) for x in self.decomposition.lambdas],
            "u": [[float(c) for c in row] for row in self.decomposition.u],
            "witness": {
                "ijk": [i + 1 for i in self.witness_ijk],
                "value": float(self.witness_value),
            },
        }


def john_weights(directions, weights) -> JohnDecomposition:
    """Six-entry decomposition from unit directions and weights reproducing Id.

    Caratheodory elimination moves the weights, keeping sum_i lam_i u_i u_i^T,
    onto at most six directions whose outer products are independent (the
    outer products live in a 6-dimensional space; antipodal or repeated
    directions share one).  Supports smaller than six are padded with
    zero-weight entries: eliminated directions first, then repeats.

    Raises NoDecomposition if |sum lam_i u_i u_i^T - Id| exceeds
    ``RESIDUAL_BOUND``.
    """
    dirs = np.asarray(directions, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) < 1 or lam.shape != (len(dirs),):
        raise PreconditionError("need an (m, 3) array of directions and m weights")
    if np.any(lam < 0.0):
        raise PreconditionError("weights must be nonnegative")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise PreconditionError("contact directions must be unit vectors")
    dirs = dirs / norms[:, None]

    C = svec(dirs)  # (6, m)
    support, lam = caratheodory(C, lam, rtol=_RANK_RTOL)
    rnorm = float(np.linalg.norm(C[:, support] @ lam[support] - [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    if rnorm > RESIDUAL_BOUND:
        raise NoDecomposition(
            f"identity not reproducible: residual {rnorm:.3e} above bound {RESIDUAL_BOUND:.3e} "
            f"by {rnorm - RESIDUAL_BOUND:.3e}"
        )

    entries = [(float(lam[i]), tuple(dirs[i])) for i in support]
    kept = set(support.tolist())
    spare = [tuple(d) for i, d in enumerate(dirs) if i not in kept]
    spare.sort()
    pad_pool = spare + [e[1] for e in entries] * 6
    while len(entries) < 6:
        entries.append((0.0, pad_pool[0]))
        pad_pool = pad_pool[1:]
    # round the weight in the sort key so float noise cannot reorder ties
    entries.sort(key=lambda e: (round(e[0], 9), e[1]))
    # the exact maximum goes last: rounding can tie a smaller weight with it
    top = max(range(6), key=lambda i: entries[i][0])
    if entries[5][0] < entries[top][0]:
        entries.append(entries.pop(top))
    return JohnDecomposition(
        lambdas=np.array([e[0] for e in entries]),
        u=np.array([e[1] for e in entries]),
    )


def witness_triple(decomp: JohnDecomposition):
    """Triple of contact directions maximizing |det|, with the value.

    Returns ((i, j, k), value) with 0-based indices into ``decomp.u``.
    For any pipeline decomposition the value is at least 1/sqrt(2).
    """
    vals = np.abs(np.linalg.det(decomp.u[_TRIPLES])).tolist()
    best = 0
    for k, val in enumerate(vals):
        if val > vals[best] + 1e-15:
            best = k
    return tuple(_TRIPLES[best].tolist()), vals[best]


def normalize(points, tol: float = 1e-9) -> NormalizationResult:
    """Normalizing map T for the convex hull K of (n, 3) float points, with certificate.

    Computes the MVEE of the difference body, T = M^(1/2), the
    isodiametric quotient of TK, and the contact decomposition whose
    witness triple certifies idq >= sqrt(2)/12 - 10 * tol.  Only K's own
    hull is built, by ``float_hull``: the MVEE of K - K is that of the
    differences D, one row v_i - v_j per vertex pair i < j (the solver
    takes them up to sign).  The solver returns T and the contact points
    c_i = T s_i of its support, both from its own well-conditioned frame,
    and its optimal design u is the John decomposition (Kiefer-Wolfowitz):
    lam_i is proportional to u_i |c_i|^2, scaled to sum 3, on the
    direction of c_i.

    Raises PreconditionError if K has more than ``MAX_VERTICES`` vertices,
    if tol is below the solver's floor, or if idq is not finite (a body
    too large for double arithmetic).
    """
    A, vol = float_hull(points)
    if len(A) > MAX_VERTICES:
        raise PreconditionError(f"normalize takes at most {MAX_VERTICES} vertices, got {len(A)}")
    i, j = np.triu_indices(len(A), 1)
    D = A[i] - A[j]
    E = mvee_centered(D, tol=tol)
    T = E.T
    # vol(TK) = |det T| vol(K), and diam(TK) is the longest T-image of a
    # vertex difference: no hull of TK is needed
    TD = D @ T.T
    diam = math.sqrt(float(np.einsum("ij,ij->i", TD, TD).max()))
    # det T overflows for a body near the bottom of the double range;
    # idq is then not finite, which the refusal below names
    with np.errstate(over="ignore"):
        det = float(abs(np.linalg.det(T)))
    idq = det * vol / diam**3
    if not math.isfinite(idq):
        raise PreconditionError(f"idq is not finite: vol(K) = {vol:.17g}, diam(TK) = {diam:.17g}, idq = {idq}")
    sq = np.einsum("ij,ij->i", E.contacts, E.contacts)
    lam = E.weights[E.weights > 0.0] * sq
    decomp = john_weights(E.contacts / np.sqrt(sq)[:, None], 3.0 * lam / lam.sum())
    ijk, wval = witness_triple(decomp)
    return NormalizationResult(T=T, idq=idq, decomposition=decomp, witness_ijk=ijk, witness_value=wval)
