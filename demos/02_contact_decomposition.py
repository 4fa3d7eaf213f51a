"""
Contact points and the witness triple
=====================================

The normalization guarantee is certified combinatorially: after mapping
the difference body's minimum-volume enclosing ellipsoid to a ball, six
contact directions u_1..u_6 carry weights lambda_i with

    sum_i lambda_i u_i u_i^T = Id,   sum_i lambda_i = 3,

and some triple of them spans a parallelepiped of volume >= 1/sqrt(2).
The weights need no second solve: the ellipsoid solver's optimal design
already is this decomposition (Kiefer-Wolfowitz).
"""

from pathlib import Path

import numpy as np

from isokit import (
    float_hull,
    from_contact_vectors,
    mvee_centered,
    normalize,
    objective,
    points_from_json,
    witness_triple,
)

DATA = Path(__file__).parent / "data"

body = points_from_json((DATA / "random_12.json").read_text(), False)

# Step 1: the difference body K - K is centrally symmetric, so its MVEE
# is centered and can be written {x : x^T M x <= 1}.  A point set and its
# hull share their MVEE, so the solver needs no hull of K - K: it takes
# one difference v_i - v_j per vertex pair, as normalize does, and returns
# the normalizing map T = M^(1/2) together with its optimal design, one
# weight per difference.  K itself is the float hull of the body's points.
V, _ = float_hull(body)
i, j = np.triu_indices(len(V), 1)
D = V[i] - V[j]
E = mvee_centered(D)
print("normalizing map T:")
print(np.array2string(E.T, precision=4))

# Step 2: the differences carrying weight lie on the ellipsoid boundary,
# and T sends them to unit contact vectors T s_i, which the solver
# returns with the design.
C = E.contacts
print(f"\n{len(C)} of {len(D)} differences carry weight; |T s| - 1 on them:",
      np.array2string(np.linalg.norm(C, axis=1) - 1.0, precision=1))

# Step 3: the design is the decomposition.  The solver has already reduced
# it to at most six differences with independent outer products, so
# lambda_i = 3 u_i |T s_i|^2 (scaled to sum 3) on the unit vectors
# T s_i / |T s_i| reproduce the identity with no further elimination.
sq = np.einsum("ij,ij->i", C, C)
lam = E.weights[E.weights > 0.0] * sq
lam = 3.0 * lam / lam.sum()
dirs = C / np.sqrt(sq)[:, None]
print("\nweights:", np.round(lam, 6))
print("sum of weights:", round(float(np.sum(lam)), 12))
resid = np.linalg.norm(np.einsum("i,ij,ik->jk", lam, dirs, dirs) - np.eye(3))
print("|sum lambda_i u_i u_i^T - Id| =", f"{resid:.2e}")

# Step 4: the witness triple.  normalize pads a support smaller than six
# with zero-weight repeats and sorts the entries by weight, the largest
# last: the six-entry decomposition the certificate is stated for.
res = normalize(body)
decomp = res.decomposition
ijk, value = witness_triple(decomp)
print(f"\nwitness triple {tuple(i + 1 for i in ijk)}: |det| = {value:.9f}")
print(f"guaranteed floor:                1/sqrt(2) = {2**-0.5:.9f}")

# The determinants a_ij = det(u_i, u_j, u_6) of the contact frame form an
# admissible set whose weighted square sum is exactly 1 — the identity
# that powers the whole bound.
S = from_contact_vectors(decomp.u)
total = objective(S.as_array(), decomp.lambdas)
print(f"\nsum lambda_i lambda_j a_ij^2 = {total:.12f}  (identity value 1)")

# One call does all of the above.
print(f"\nnormalize() end to end: idq = {res.idq:.9f}, witness = {res.witness_value:.9f}")
