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

from isokit import AdmissibleSet, certify_random, witness_value
from isokit.certifier import WITNESS_SET

# The equality case: entries 0 or +-1, objective exactly 2 at lambda = (1/2,...).
print("witness set:", WITNESS_SET.astype(int).tolist())
print("objective at equal weights:", witness_value())
AdmissibleSet(WITNESS_SET)  # passes the determinant-relation validator

# A run with no random weight vectors reports the equality case alone.
summary = certify_random(n_lambda=0)
print(f"witness-only run: global max = {summary['global_max']} at lambda = {summary['argmax_lambda']}")

# Randomized certification (small run; the acceptance suite does
# 1000 x 64).  Each weight vector climbs from its own restarts, and the
# report counts the drop families its maximizer's pattern names: minors
# 0 on the pairs the family instance drops and +-1 elsewhere.
summary = certify_random(n_lambda=50, restarts=32, seed=42)
print(f"\n50 random weight vectors: global max = {summary['global_max']:.12f} <= 2")
print("violations:", summary["violations"])
print("drop patterns of the maximizers:", summary["boundary_kinds"])

# Pinning the smallest weight to zero caps the ceiling at 9/5; the best
# maximizer's minors form a {0, +-1} pattern.
summary = certify_random(n_lambda=20, restarts=32, seed=42, first_weight_zero=True)
print(f"\n20 zero-pinned weight vectors: global max = {summary['global_max']:.12f} <= 9/5")
print("attained at lambda =", np.round(summary["argmax_lambda"], 3).tolist())
print("minors of the best 2x5 matrix:", np.round(summary["argmax_set"], 12).tolist())
print("drop patterns of the maximizers:", summary["boundary_kinds"])
