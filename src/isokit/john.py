"""Contact-point decompositions and the normalizing transform.

Pipeline: for a polytope K, take the difference body K - K, compute its
minimum-volume enclosing ellipsoid {x : x^T M x <= 1}, and map by
T = M^(1/2).  Then T(K - K) has the unit ball as its enclosing ellipsoid,
the contact directions u_i admit nonnegative weights with

    sum_i lam_i u_i u_i^T = Id,      sum_i lam_i = 3,

and the isodiametric quotient vol(TK) / diam(TK)^3 is at least
sqrt(2)/12.  The witness for that bound is a vector triple among the
contact directions whose determinant is at least 1/sqrt(2) in absolute
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

from .errors import InvariantError, NoDecomposition, PreconditionError
from .geom import Polytope, diameter, difference_body, volume
from .mvee import Ellipsoid, contact_points, mvee_centered

__all__ = [
    "JohnDecomposition",
    "NormalizationResult",
    "transform_to_ball",
    "john_weights",
    "witness_triple",
    "normalize",
]

#: vol(K)/diam(K)^3 is at least this after normalization (simplex value)
IDQ_LOWER_BOUND = float(np.sqrt(2.0) / 12.0)

#: guaranteed witness determinant
WITNESS_LOWER_BOUND = float(1.0 / np.sqrt(2.0))


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


def transform_to_ball(ellipsoid: Ellipsoid) -> np.ndarray:
    """Symmetric positive-definite square root T of the shape matrix.

    T maps the ellipsoid onto the unit ball: for y = Tx,
    x^T M x = ||y||^2.
    """
    vals, vecs = np.linalg.eigh(ellipsoid.M)
    if vals[0] <= 0:
        raise PreconditionError("shape matrix must be positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _svec(u: np.ndarray) -> np.ndarray:
    """Isometric vectorization of u u^T (Frobenius norm preserved)."""
    r2 = np.sqrt(2.0)
    return np.array(
        [u[0] * u[0], u[1] * u[1], u[2] * u[2], r2 * u[0] * u[1], r2 * u[0] * u[2], r2 * u[1] * u[2]]
    )


def john_weights(contacts, residual_tol: float = 1e-7) -> JohnDecomposition:
    """Nonnegative weights on unit contact directions reproducing Id.

    Solves the nonnegative least-squares problem over the outer products
    u_i u_i^T, then reduces the support to at most six entries by
    Caratheodory elimination (the outer products live in a 6-dimensional
    space, so larger supports always contain a removable direction).
    Supports smaller than six are padded with zero-weight entries.

    Raises NoDecomposition if the best residual exceeds ``residual_tol``.
    """
    dirs = np.asarray(contacts, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) < 1:
        raise PreconditionError("contacts must be an (m, 3) array")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise PreconditionError("contact directions must be unit vectors")
    dirs = dirs / norms[:, None]

    C = np.stack([_svec(d) for d in dirs], axis=1)  # (6, m)
    b = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    lam, rnorm = nnls(C, b)
    if rnorm > residual_tol:
        raise NoDecomposition(f"identity not reproducible: residual {rnorm:.3e}")

    support = list(np.flatnonzero(lam > 0.0))
    while len(support) > 6:
        Cs = C[:, support]
        gamma = np.linalg.svd(Cs)[2][-1]  # null direction: Cs @ gamma ~ 0
        if gamma.max() <= 0.0:
            gamma = -gamma
        ratios = _elim_ratios(gamma, lam[support])
        drop = int(np.argmin(ratios))
        lam_s = np.clip(lam[support] - ratios[drop] * gamma, 0.0, None)
        lam_s[drop] = 0.0
        for idx, v in zip(support, lam_s):
            lam[idx] = v
        support = [i for i in support if lam[i] > 1e-15]

    entries = [(float(lam[i]), tuple(dirs[i])) for i in support]
    spare = [tuple(d) for i, d in enumerate(dirs) if i not in set(support)]
    spare.sort()
    pad_pool = spare + [e[1] for e in entries] * 6
    while len(entries) < 6:
        entries.append((0.0, pad_pool[0]))
        pad_pool = pad_pool[1:]
    # round the weight in the sort key so float noise cannot reorder ties
    entries.sort(key=lambda e: (round(e[0], 9), e[1]))
    # rounding can tie a smaller weight with the maximum and order it last
    top = max(range(6), key=lambda i: entries[i][0])
    if entries[5][0] < entries[top][0] - 1e-12:
        entries.append(entries.pop(top))
    return JohnDecomposition(
        lambdas=np.array([e[0] for e in entries]),
        u=np.array([e[1] for e in entries]),
    )


def _elim_ratios(gamma, lam_s):
    """Elimination ratios lam_i / gamma_i, inf where gamma_i is not positive."""
    out = np.full(len(gamma), np.inf)
    pos = gamma > 1e-14
    out[pos] = lam_s[pos] / gamma[pos]
    return out


def witness_triple(decomp: JohnDecomposition):
    """Triple of contact directions maximizing |det|, with the value.

    Returns ((i, j, k), value) with 0-based indices into ``decomp.u``.
    For any pipeline decomposition the value is at least 1/sqrt(2).
    """
    best = (-1.0, (0, 1, 2))
    for ijk in combinations(range(6), 3):
        val = abs(float(np.linalg.det(decomp.u[list(ijk)])))
        if val > best[0] + 1e-15:
            best = (val, ijk)
    return best[1], best[0]


def normalize(P: Polytope, tol: float = 1e-9, contact_tol: float | None = None) -> NormalizationResult:
    """Normalizing map T for a polytope, with certificate.

    Computes the MVEE of the difference body, T = M^(1/2), the
    isodiametric quotient of TK, and the contact decomposition whose
    witness triple certifies idq >= sqrt(2)/12 - 10 * tol.
    """
    if contact_tol is None:
        contact_tol = max(100.0 * tol, 1e-8)
    arr = P.as_array()
    D = difference_body(Polytope(arr))
    E = mvee_centered(D.as_array(), tol=tol)
    T = transform_to_ball(E)
    TP = Polytope(arr @ T.T)
    idq = float(volume(TP) / diameter(TP) ** 3)
    contacts = contact_points(E, D.as_array(), tol=contact_tol)
    dirs = contacts @ T.T
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    decomp = john_weights(dirs)
    ijk, wval = witness_triple(decomp)
    return NormalizationResult(T=T, idq=idq, decomposition=decomp, witness_ijk=ijk, witness_value=wval)
