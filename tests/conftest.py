"""Shared test helpers: seeded random bodies and reference constructions."""

import math
from fractions import Fraction

import numpy as np
import pytest

# one line per top-level acceptance criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# reference bodies -----------------------------------------------------------

UNIT_CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]

# regular tetrahedron with edge length 1
_s = 1.0 / (2.0 * math.sqrt(2.0))
REGULAR_TETRA = [
    (_s, _s, _s),
    (_s, -_s, -_s),
    (-_s, _s, -_s),
    (-_s, -_s, _s),
]

# simplex attaining vol = width^3 / 12 with lattice width 1
EXTREMAL_SIMPLEX = [
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
]

FLAT_SLAB = [
    (1.0, 1.0, 0.0),
    (1.0, -1.0, 0.0),
    (-1.0, 1.0, 0.0),
    (-1.0, -1.0, 0.0),
    (0.0, 0.0, 0.01),
    (0.0, 0.0, -0.01),
]

# The lattice benchmark's body shapes, unshifted: pairs (K, UK) of the
# extremal simplex and of seeded integer bodies of 8, 12, 20 and 30 points,
# UK a unimodular shear of K.  Coordinates are ints or exact "p/q" strings.
LATTICE_CATALOGUE = [
    [[0, 0, 0], [1, "1/2", "1/2"], ["1/2", 1, "1/2"], ["1/2", "1/2", 1]],
    [[0, 0, 0], [1, "-1/2", 2], ["1/2", "1/2", 2], ["1/2", 0, 2]],
    [[3, 2, 2], [1, 1, 0], [0, 0, 0], [3, 2, 3], [2, 2, 3], [2, 2, 2], [2, 3, 1], [3, 2, 0]],
    [[3, -1, 0], [1, 0, 0], [0, 0, 0], [3, -1, 1], [2, 0, 3], [2, 0, 2], [2, 1, 3], [3, -1, -2]],
    [
        [1, 4, 2], [0, 3, 3], [4, 0, 0], [4, 0, 2], [0, 1, 2], [2, 2, 0], [0, 0, 0], [3, 2, 3], [1, 3, 3],
        [1, 2, 4], [4, 4, 1], [3, 4, 3],
    ],
    [
        [1, 5, 8], [0, 3, 9], [4, 4, -8], [4, 4, -6], [0, 1, 4], [2, 4, 0], [0, 0, 0], [3, 5, 1], [1, 4, 7],
        [1, 3, 6], [4, 8, 1], [3, 7, 5],
    ],
    [
        [5, 4, 4], [2, 5, 0], [3, 4, 5], [3, 2, 1], [2, 2, 4], [5, 0, 5], [3, 2, 4], [3, 1, 1], [4, 3, 3],
        [2, 4, 2], [1, 5, 1], [1, 4, 3], [0, 0, 2], [4, 2, 4], [1, 1, 4], [5, 0, 0], [4, 2, 3], [0, 5, 2],
        [5, 4, 4], [1, 4, 0],
    ],
    [
        [5, 9, -2], [2, 7, 1], [3, 7, 3], [3, 5, -3], [2, 4, 2], [5, 5, -5], [3, 5, 0], [3, 4, -4],
        [4, 7, -2], [2, 6, 2], [1, 6, 4], [1, 5, 5], [0, 0, 2], [4, 6, -2], [1, 2, 3], [5, 5, -10],
        [4, 6, -3], [0, 5, 7], [5, 9, -2], [1, 5, 2],
    ],
    [
        [3, 2, 6], [1, 6, 0], [4, 4, 6], [2, 6, 4], [6, 1, 5], [6, 0, 2], [4, 0, 3], [4, 5, 6], [2, 3, 3],
        [6, 1, 3], [0, 2, 6], [4, 2, 6], [4, 6, 0], [3, 5, 5], [2, 3, 2], [3, 1, 5], [0, 2, 1], [5, 5, 4],
        [6, 6, 1], [0, 0, 5], [6, 6, 4], [6, 6, 0], [0, 6, 0], [6, 5, 6], [2, 1, 3], [6, 2, 6], [2, 5, 1],
        [3, 2, 1], [6, 5, 0], [6, 6, 1],
    ],
    [
        [3, 5, 4], [1, 7, 10], [4, 8, 6], [2, 8, 12], [6, 7, -5], [6, 6, -10], [4, 4, -5], [4, 9, 8],
        [2, 5, 5], [6, 7, -7], [0, 2, 10], [4, 6, 2], [4, 10, 4], [3, 8, 9], [2, 5, 4], [3, 4, 1], [0, 2, 5],
        [5, 10, 4], [6, 12, 1], [0, 0, 5], [6, 12, 4], [6, 12, 0], [0, 6, 12], [6, 11, 4], [2, 3, 1],
        [6, 8, -2], [2, 7, 7], [3, 5, -1], [6, 11, -2], [6, 12, 1],
    ],
]


def random_lattice_polytope(rng, lo=0, hi=3, n_max=10):
    """Full-dimensional exact polytope with integer vertices."""
    from isokit.geom import Polytope

    while True:
        n = int(rng.integers(4, n_max + 1))
        pts = rng.integers(lo, hi + 1, size=(n, 3))
        if np.linalg.matrix_rank(pts[1:] - pts[0]) == 3:
            return Polytope([tuple(int(c) for c in p) for p in pts])


def difference_points(vertices):
    """All pairwise differences p - q of the vertices: their hull is K - K."""
    return [tuple(a - b for a, b in zip(p, q)) for p in vertices for q in vertices]


def difference_hull(P):
    """The exact hull of K - K."""
    from isokit.geom import Polytope

    return Polytope(difference_points(P.vertices))


def float_difference_vertices(points):
    """The vertex array of the float hull of K - K, K the float hull of ``points``."""
    from isokit.geom import float_hull

    return float_hull(difference_points(float_hull(points)[0].tolist()))[0]


def reference_float_polytope(points):
    """(vertices, volume) of a float body, built one Python tuple per point.

    The reference for ``float_hull``, which keeps a float body as one
    array: coerce each point to a tuple of floats (+ 0.0 folds -0.0 into
    0.0), sort the set of tuples, hand the sorted points to Qhull, keep
    the points its hull uses and fan the triangles from their centroid,
    one triangle at a time.
    """
    from scipy.spatial import ConvexHull

    from isokit.geom import _sub, det3

    pts = sorted({tuple(float(c) + 0.0 for c in p) for p in points})
    hull = ConvexHull(np.asarray(pts, dtype=float))
    vertices = [pts[i] for i in sorted(hull.vertices.tolist())]
    tris = [(pts[a], pts[b], pts[c]) for a, b, c in hull.simplices.tolist()]
    c = tuple(float(x) for x in np.mean(np.array(vertices), axis=0))
    total = 0.0
    for a, b, d in tris:
        total += abs(det3(_sub(a, c), _sub(b, c), _sub(d, c)))
    return vertices, total / 6.0


def unimodular_image(points, U):
    """The exact images U p of ``points`` under an integer matrix U of determinant +-1."""
    assert round(abs(np.linalg.det(np.array(U, dtype=float)))) == 1
    return [tuple(sum(u * c for u, c in zip(row, p)) for row in U) for p in points]


def maximize_one(lam, restarts=64, seed=0):
    """One weight vector's ceiling certificate: a block of one climb from ``default_rng(seed)``."""
    from isokit.admissible import _as_lambda
    from isokit.certifier import _maximize_block

    return _maximize_block(_as_lambda(lam)[None], [np.random.default_rng(seed)], restarts)[0]


def random_polytope_vertices(rng, n_min=4, n_max=20):
    """Vertices of a random full-dimensional polytope in [-1, 1]^3."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        # full-dimensional iff some tetrahedron has non-tiny volume
        d = pts[1:] - pts[0]
        if n >= 4 and abs(np.linalg.det(d[:3])) > 1e-3:
            return pts


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
