"""
Lattice width and the volume corollary
======================================

The lattice width of a polytope is the smallest number of lattice
hyperplanes needed to cover it, minus one — computed here exactly in
rational arithmetic.  The normalization theorem yields the corollary

    vol(K) >= width(K)^3 / 12,

with equality for one particular simplex.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np

from isokit import (
    LatticeBasis,
    Polytope,
    density,
    is_nonseparable_unit_lattice,
    lattice_width,
    polytope_from_json,
    verify_width_volume_corollary,
    width_in_direction,
)

DATA = Path(__file__).parent / "data"

# The extremal simplex conv{0, (1,1/2,1/2), (1/2,1,1/2), (1/2,1/2,1)}.
simplex = polytope_from_json(
    (DATA / "extremal_simplex.json").read_text(), mode="rational"
)
res = lattice_width(simplex)
print(f"extremal simplex: width = {res.value} in direction {res.direction}")
print(f"  (searched {res.checked} primitive directions)")

rep = verify_width_volume_corollary(simplex)
print(f"  volume = {rep['volume']}, bound = width^3/12 = {rep['bound']}, "
      f"slack = {rep['slack']} -- equality, exactly")

# Individual directions: the width in (1,0,0) is the x-extent; doubling
# the direction doubles the reported width.
print("\nwidth in (1,0,0):", width_in_direction(simplex, (1, 0, 0)))
print("width in (1,1,1):", width_in_direction(simplex, (1, 1, 1)))
print("width in (2,0,0):", width_in_direction(simplex, (2, 0, 0)))

# A body of width >= 1 cannot be separated from the lattice by slabs:
cube = Polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                mode="rational")
print(f"\nunit cube: width = {lattice_width(cube).value}, "
      f"nonseparable = {is_nonseparable_unit_lattice(cube)}, density = {density(cube)}")

half = Polytope([tuple(Fraction(c) / 2 for c in v) for v in simplex.vertices],
                mode="rational")
print(f"half-scale simplex: width = {lattice_width(half).value}, "
      f"nonseparable = {is_nonseparable_unit_lattice(half)}")

# Width is measured against a lattice; changing the lattice basis
# changes the answer predictably.
doubled_x = LatticeBasis([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
print(f"cube against the 2Z x Z x Z lattice: width = {doubled_x.width(cube).value}")

# Random integer-vertex polytopes: the corollary holds with exact
# rational slack every time.
rng = np.random.default_rng(11)
worst = None
for _ in range(20):
    while True:
        pts = rng.integers(0, 4, size=(6, 3))
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == 3:
            break
    P = Polytope([tuple(int(c) for c in p) for p in pts], mode="rational")
    rep = verify_width_volume_corollary(P)
    if worst is None or rep["slack"] < worst:
        worst = rep["slack"]
print(f"\n20 random lattice polytopes: min exact slack = {worst} (never negative)")
