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

from .errors import InvariantError, PreconditionError
from .geom import float_hull
from .mvee import mvee_centered

__all__ = [
    "IDQ_LOWER_BOUND",
    "WITNESS_LOWER_BOUND",
    "JohnDecomposition",
    "NormalizationResult",
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
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "u", u)
        resid = self.residual
        if resid > RESIDUAL_BOUND:
            raise InvariantError(
                f"weights do not reproduce the identity: residual {resid:.3e} above bound "
                f"{RESIDUAL_BOUND:.3e} by {resid - RESIDUAL_BOUND:.3e}"
            )
        if abs(float(lam.sum()) - 3.0) > 1e-7:
            raise InvariantError("weights must sum to 3")

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


def _six_entries(lam, dirs) -> JohnDecomposition:
    """The decomposition sum_i lam_i d_i d_i^T = Id as six entries.

    A support smaller than six is padded with zero-weight repeats of its
    own directions.  Entries are sorted by weight rounded to nine digits
    (so float noise cannot reorder ties), then by direction, and the
    exact maximum goes last.
    """
    entries = [(float(w), tuple(d)) for w, d in zip(lam, dirs)]
    n = len(entries)
    entries += [(0.0, entries[k % n][1]) for k in range(6 - n)]
    entries.sort(key=lambda e: (round(e[0], 9), e[1]))
    # rounding can tie a smaller weight with the maximum
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
    and its optimal design u, reduced to at most six points, is the John
    decomposition (Kiefer-Wolfowitz): lam_i is proportional to
    u_i |c_i|^2, scaled to sum 3, on the direction of c_i.

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
    dirs = E.contacts / np.sqrt(sq)[:, None]
    # the second division, by the row norm, moves u by an ulp on some
    # bodies; the pinned outputs were computed with it
    decomp = _six_entries(3.0 * lam / lam.sum(), dirs / np.linalg.norm(dirs, axis=1)[:, None])
    ijk, wval = witness_triple(decomp)
    return NormalizationResult(T=T, idq=idq, decomposition=decomp, witness_ijk=ijk, witness_value=wval)
