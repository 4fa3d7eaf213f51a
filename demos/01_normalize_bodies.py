"""
Normalizing convex bodies
=========================

Every convex body K in R^3 has a volume-preserving-class linear image
whose volume is at least (sqrt(2)/12) * diameter^3.  This demo runs the
normalization pipeline on a few bodies and checks the guarantee.
"""

import json
import math
from pathlib import Path

import numpy as np

from isokit import Polytope, diameter, normalize, polytope_from_json, volume

DATA = Path(__file__).parent / "data"
BOUND = math.sqrt(2.0) / 12.0

print(f"guaranteed lower bound: sqrt(2)/12 = {BOUND:.9f}\n")

# The regular tetrahedron attains the bound exactly: the isodiametric
# quotient vol / diam^3 of its normalized image equals sqrt(2)/12.
tetra = polytope_from_json((DATA / "tetrahedron.json").read_text())
res = normalize(tetra)
print(f"regular tetrahedron: idq = {res.idq:.9f}  (gap {res.idq - BOUND:+.2e})")

# The cube normalizes to itself up to scale; its quotient 3^(-3/2) sits
# comfortably above the bound.
cube = polytope_from_json((DATA / "cube.json").read_text())
res = normalize(cube)
print(f"unit cube:           idq = {res.idq:.9f}  (3^-1.5 = {3.0**-1.5:.9f})")

# A nearly flat slab starts far below the bound...
slab = polytope_from_json((DATA / "flat_slab.json").read_text())
raw = volume(slab) / diameter(slab) ** 3
res = normalize(slab)
print(f"flat slab:           raw quotient = {raw:.2e}, normalized idq = {res.idq:.9f}")

# ...because the normalizing map T stretches the thin direction until the
# John ellipsoid of the difference body becomes a ball.
print("\nnormalizing map for the slab (rows of T):")
for row in np.asarray(res.T):
    print("   ", np.array2string(row, precision=4, suppress_small=True))

# Random bodies always clear the bound too.
rng = np.random.default_rng(1)
worst = min(
    normalize(Polytope(rng.uniform(-1, 1, size=(10, 3)))).idq for _ in range(20)
)
print(f"\n20 random 10-vertex bodies: worst idq = {worst:.9f} >= {BOUND:.9f}")
