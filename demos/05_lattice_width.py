"""
Lattice width and the volume corollary
======================================

The lattice width of a polytope is the smallest number of lattice
hyperplanes needed to cover it, minus one — computed here exactly in
rational arithmetic.  The normalization theorem yields the corollary

    vol(K) >= width(K)^3 / 12,

with equality for one particular simplex.
"""

from pathlib import Path

import numpy as np

from isokit import (
    Polytope,
    lattice_width,
    points_from_json,
    verify_width_volume_corollary,
    width_in_direction,
)

DATA = Path(__file__).parent / "data"

# The extremal simplex conv{0, (1,1/2,1/2), (1/2,1,1/2), (1/2,1/2,1)}.
simplex = Polytope(points_from_json((DATA / "extremal_simplex.json").read_text(), True))
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
cube = Polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
rep = verify_width_volume_corollary(cube)
print(f"\nunit cube: width = {rep['omega']}, nonseparable = {rep['nonseparable']}, "
      f"density vol/width^3 = {rep['volume'] / rep['omega'] ** 3}")

half = Polytope([tuple(c / 2 for c in v) for v in simplex.vertices])
rep = verify_width_volume_corollary(half)
print(f"half-scale simplex: width = {rep['omega']}, nonseparable = {rep['nonseparable']}")

# A float body gets the same exact report, read at the exact binary value
# of its vertices: the float unit cube has width exactly 1.
cube_f = Polytope([(float(x), float(y), float(z)) for x, y, z in cube.vertices])
rep = verify_width_volume_corollary(cube_f)
print(f"float unit cube: width = {rep['omega']}, slack = {rep['slack']}, "
      f"nonseparable = {rep['nonseparable']} (exact: {rep['exact']})")

# Random integer-vertex polytopes: the corollary holds with exact
# rational slack every time.
rng = np.random.default_rng(11)
worst = None
for _ in range(20):
    while True:
        pts = rng.integers(0, 4, size=(6, 3))
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == 3:
            break
    P = Polytope([tuple(int(c) for c in p) for p in pts])
    rep = verify_width_volume_corollary(P)
    if worst is None or rep["slack"] < worst:
        worst = rep["slack"]
print(f"\n20 random lattice polytopes: min exact slack = {worst} (never negative)")
