"""
Weight-product bounds on a simplex grid
=======================================

Four closed-form bounds control sums of products lambda_i * lambda_j
over six nonnegative weights that sum to 3.  Each is verified over a
full grid of weight vectors, and each is attained at a known witness.
"""

from isokit import (
    grid_verify_all,
    pair_drop_sum,
    triple_drop_sum,
    weighted_sum,
    zero_lambda_drop,
)

# The four bounds at their canonical witnesses: equality on the nose.
HALF = [0.5] * 6
print("pair_drop   at (.5,...):          ", pair_drop_sum(HALF, (1, 2), (3, 4)), "  (bound 2)")
print("triple_drop at (.4,.4,.4,.6,...): ", triple_drop_sum([0.4, 0.4, 0.4, 0.6, 0.6, 0.6], (1, 2, 3)), " (bound 9/5)")
print("zero_lambda at (0,.6,...):        ", zero_lambda_drop([0.0, 0.6, 0.6, 0.6, 0.6, 0.6], (2, 3)), " (bound 9/5)")
print("weighted    at (.5,...):          ", weighted_sum(HALF), "  (bound 2)")

# Sweep every weight vector on a grid of step 0.1 (multisets only: the
# families are closed under relabeling, so sorted tuples cover all cases).
rep = grid_verify_all(0.1)
print(f"\ngrid step {rep['step']}: {rep['n_points']} weight vectors, "
      f"{len(rep['violations'])} violations")
print(f"worst signed excess over all bounds: {rep['max_value']:+.2e}")
print(f"attained at lambda = {rep['argmax_lambda']} ({rep['worst_family']})")

for name, fam in rep["families"].items():
    print(f"  {name:12s} max {fam['max_value']:.12f} of bound {fam['bound']}"
          f"  ({fam['instances']} index choices)")

# A finer grid tells the same story.
rep = grid_verify_all(0.05)
print(f"\ngrid step {rep['step']}: {rep['n_points']} weight vectors, "
      f"{len(rep['violations'])} violations, worst excess {rep['max_value']:+.2e}")
