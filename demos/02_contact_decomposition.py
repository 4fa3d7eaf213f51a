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
    difference_body,
    from_contact_vectors,
    john_weights,
    mvee_centered,
    normalize,
    objective,
    polytope_from_json,
    transform_to_ball,
    witness_triple,
)

DATA = Path(__file__).parent / "data"

body = polytope_from_json((DATA / "random_12.json").read_text())

# Step 1: the difference body K - K is centrally symmetric, so its MVEE
# is centered and can be written {x : x^T M x <= 1}.  The solver returns
# M together with its optimal design: one weight per vertex of K - K.
D = difference_body(body).as_array()
E = mvee_centered(D)
print("MVEE matrix M:")
print(np.array2string(E.M, precision=4))

# Step 2: the vertices carrying weight lie on the ellipsoid boundary; the
# normalizing map T = M^(1/2) sends them to unit contact vectors.
support = E.weights > 0.0
T = transform_to_ball(E)
TS = D[support] @ T.T
print(f"\n{len(TS)} of {len(D)} vertices carry weight; |T s| - 1 on them:",
      np.array2string(np.linalg.norm(TS, axis=1) - 1.0, precision=1))

# Step 3: 3 u_i on the unit vectors T s_i / |T s_i| reproduce the identity
# (normalize does the same in a whitened frame, where M is well
# conditioned however thin K is).  Caratheodory elimination keeps at most
# six directions; smaller supports are padded with zero weights.
sq = np.einsum("ij,ij->i", TS, TS)
lam = E.weights[support] * sq
decomp = john_weights(TS / np.sqrt(sq)[:, None], 3.0 * lam / lam.sum())
print("\nweights:", np.round(decomp.lambdas, 6))
print("sum of weights:", round(float(np.sum(decomp.lambdas)), 12))
print("|sum lambda_i u_i u_i^T - Id| =", f"{decomp.residual:.2e}")

# Step 4: the witness triple.
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
res = normalize(body)
print(f"\nnormalize() end to end: idq = {res.idq:.9f}, witness = {res.witness_value:.9f}")
