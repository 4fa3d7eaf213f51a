"""
Certifying the optimization ceiling
===================================

For weights lambda (six nonnegative reals summing to 3, largest last)
the objective sum lambda_i lambda_j a_ij^2 over admissible sets with
entries in [-1, 1] never exceeds 2.  A hard-coded set attains 2 at equal
weights; multistart ascent probes the ceiling everywhere else.  Every
admissible set is the ten 2x2 minors det(v_i, v_j) of a 2x5 matrix, and
the ascent moves one column at a time to the best corner of its feasible
polygon.  Every maximum found is a {0, +-1} pattern of minors whose
value is one of the weight-product drop sums; the certificate names it.
"""

import numpy as np

from isokit import AdmissibleSet, certify_random, maximize_objective, witness_value
from isokit.certifier import WITNESS_LAMBDA, WITNESS_SET

# The equality case: entries 0 or +-1, objective exactly 2 at lambda = (1/2,...).
print("witness set:", WITNESS_SET.astype(int).tolist())
print("objective at equal weights:", witness_value())
AdmissibleSet(WITNESS_SET)  # passes the determinant-relation validator

# The maximizer search reproduces the ceiling at equal weights...
cert = maximize_objective(WITNESS_LAMBDA, restarts=64, seed=0)
print(f"\nmaximize at (1/2,...): value = {cert.value:.15f} ({cert.sweeps} sweeps)")
print("minors of the best 2x5 matrix:", np.round(cert.argmax, 12).tolist())

# ...and names the drop family whose pattern the maximizer forms: its
# minors are 0 on the pairs the family instance drops and +-1 elsewhere.
print("drop pattern of the maximizer:", cert.pattern)

# Away from equal weights the maximum drops strictly below 2.
rng = np.random.default_rng(5)
for _ in range(3):
    lam = np.sort(rng.dirichlet(np.ones(6)) * 3.0)
    cert = maximize_objective(lam, restarts=32, seed=1)
    print(f"lambda = {np.round(lam, 3)} -> max = {cert.value:.9f}")

# Pinning the smallest weight to zero caps the ceiling at 9/5.
lam0 = np.array([0.0, 0.6, 0.6, 0.6, 0.6, 0.6])
cert = maximize_objective(lam0, restarts=64, seed=2)
print(f"\nzero-pinned tight case {lam0.tolist()}: max = {cert.value:.12f} (9/5 = 1.8)")

# Randomized end-to-end certification (small run; the acceptance suite
# does 1000 x 64).
summary = certify_random(n_lambda=50, restarts=32, seed=42)
print(f"\n50 random weight vectors: global max = {summary['max_value']:.12f} <= 2")
print("violations:", summary["violations"])
print("drop patterns of the maximizers:", summary["boundary_kinds"])

summary = certify_random(n_lambda=20, restarts=32, seed=42, first_weight_zero=True)
print(f"20 zero-pinned weight vectors: global max = {summary['max_value']:.12f} <= 9/5")
print("drop patterns of the maximizers:", summary["boundary_kinds"])
