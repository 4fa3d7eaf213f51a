import itertools
import json
import math
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from isokit.errors import DegenerateInput, PreconditionError
from isokit.geom import (
    Polytope,
    _homogeneous,
    _initial_simplex,
    det3,
    float_hull,
    points_from_json,
    volume,
)

from conftest import (
    EXTREMAL_SIMPLEX,
    LATTICE_CATALOGUE,
    REGULAR_TETRA,
    UNIT_CUBE,
    difference_hull,
    difference_points,
    random_polytope_vertices,
    random_rotation,
    reference_float_polytope,
    unimodular_image,
)

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def in_convex_hull_lp(point, others):
    """LP oracle: is `point` a convex combination of `others`?"""
    k = len(others)
    A_eq = np.vstack([np.asarray(others, dtype=float).T, np.ones(k)])
    b_eq = np.append(np.asarray(point, dtype=float), 1.0)
    res = linprog(np.zeros(k), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * k, method="highs")
    return res.status == 0


# -- Polytope ----------------------------------------------------------------


def test_hull_cube_with_center_point():
    P = Polytope(UNIT_CUBE + [(0.5, 0.5, 0.5)])
    assert len(P) == 8
    assert P.vertices == [tuple(map(Fraction, v)) for v in UNIT_CUBE]
    assert all(type(c) is Fraction for v in P.vertices for c in v)


def test_hull_of_simplex_is_identity():
    # floats are read at their exact binary value
    P = Polytope(REGULAR_TETRA)
    assert P.vertices == sorted(tuple(map(Fraction, v)) for v in REGULAR_TETRA)


def test_hull_extremality_against_lp_oracle(rng):
    pts = rng.normal(size=(100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.0, 1.0, size=(100, 1)) ** (1 / 3)
    verts, _ = float_hull(pts)
    for i in range(len(verts)):
        others = np.delete(verts, i, axis=0)
        assert not in_convex_hull_lp(verts[i], others), "reported vertex is not extreme"
    # hull of output equals hull of input: support functions agree
    for _ in range(50):
        d = rng.normal(size=3)
        assert abs(np.max(pts @ d) - np.max(verts @ d)) < 1e-9


def test_hull_extremality_rational_mode(rng):
    pts = [tuple(Fraction(int(c), 8) for c in row) for row in rng.integers(-12, 13, size=(40, 3))]
    P = Polytope(pts)
    verts = np.array(P.vertices, dtype=float)
    for i in range(len(verts)):
        others = np.delete(verts, i, axis=0)
        assert not in_convex_hull_lp(verts[i], others)
    all_pts = np.array([[float(c) for c in p] for p in pts])
    for _ in range(50):
        d = rng.normal(size=3)
        assert abs(np.max(all_pts @ d) - np.max(verts @ d)) < 1e-9


def test_hull_collinear_and_midface_points_dropped():
    pts = [
        (0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (3, 3, 0), (3, 0, 3), (0, 3, 3), (3, 3, 3),
        (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 3), (1, 2, 2),
    ]
    P = Polytope(pts)
    assert len(P) == 8
    assert volume(P) == 27


def test_hull_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateInput):
        float_hull([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    with pytest.raises(DegenerateInput):
        Polytope([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    with pytest.raises(DegenerateInput):
        Polytope([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])
    with pytest.raises(DegenerateInput):
        Polytope([(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0)])


# -- float bodies against the one-tuple-per-point construction ----------------


def _bits(x):
    """Nested floats as hex strings, so that == compares bits (-0.0 is not 0.0)."""
    return x.hex() if isinstance(x, float) else tuple(_bits(y) for y in x)


def _json_body(rows):
    """(reference points, float hull) of JSON rows: "p/q" strings read as exact rationals first."""
    data = json.loads(json.dumps({"vertices": rows}))
    points = [[Fraction(c) if isinstance(c, str) else c for c in v] for v in data["vertices"]]
    return points, float_hull(points_from_json(data, False))


def _float_cases():
    rng = np.random.default_rng(18)
    cases = {}
    for i in range(8):  # numpy-array input
        pts = random_polytope_vertices(rng, 4, 20)
        cases[f"uniform-{i}"] = (pts, float_hull(pts))
    for n in (20, 200, 2000):
        cases[f"gauss{n}"] = _json_body(rng.normal(size=(n, 3)).tolist())
    for i in range(3):
        cond = 10.0 ** rng.uniform(1.0, 3.0)
        scale = np.diag([1.0, cond ** rng.uniform(0.0, 1.0), cond])
        cases[f"aniso-{i}"] = _json_body((rng.normal(size=(50, 3)) @ (random_rotation(rng) @ scale).T).tolist())
        eps = 10.0 ** rng.uniform(-3.0, -1.0)
        slab = np.column_stack([rng.uniform(-1, 1, (30, 2)), rng.uniform(-eps, eps, 30)]) @ random_rotation(rng).T
        cases[f"slab-{i}"] = ([tuple(p) for p in slab.tolist()], float_hull([tuple(p) for p in slab.tolist()]))
    for f in sorted(DEMO_DATA.glob("*.json")):
        cases[f"demo-{f.stem}"] = _json_body(json.loads(f.read_text())["vertices"])
    # repeated points, and ties in x that the lexicographic sort must break
    cube = [list(v) for v in UNIT_CUBE]
    cases["repeated"] = _json_body(cube + [[0.5, 0.5, 0.5]] * 5 + cube[::-1] + [[1, 0.5, 0.25], [1.0, 0.5, 0.25]])
    grid = [[x, y, z] for x in range(3) for y in range(3) for z in range(3)]
    cases["grid"] = _json_body(grid[::-1])
    signed = [[-0.0, 0, 0], [0.0, 0, 0], [0, -0.0, -0.0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [-0.0, 1, -0.0], [0.0, 1, 1]]
    cases["negative-zero"] = _json_body(signed)
    arr = np.array(signed, dtype=float)
    cases["negative-zero-array"] = (arr, float_hull(arr))
    # any iterable of points: a generator is read once, a set in its own order
    cases["generator"] = (signed, float_hull(tuple(p) for p in signed))
    cases["set"] = (signed, float_hull({tuple(float(c) for c in p) for p in signed}))
    cases["ints-and-floats"] = _json_body([[0, 0, 0], [1.0, 0, 0], [0, 1, 0.0], [0, 0, 1], [1, 1, 1.0], [3, 2, 1]])
    big = 2**53 + 1  # rounds to 2**53, as float() rounds it
    cases["ints-past-2**53"] = _json_body([[big, 0, 0], [0, big, 0.0], [0, 0, big], [0, 0, 0], [big, big, 2.0**53], [3, 2, 1]])
    cases["p/q-strings"] = _json_body([["1/3", "2/7", 0], ["-5/11", 1, "1/2"], [0, "3/13", 1], [1, 1, "1/9"], [0.1, "-2/3", 0.3]])
    return cases


FLOAT_CASES = _float_cases()


@pytest.mark.parametrize("case", list(FLOAT_CASES))
def test_float_polytope_matches_the_tuple_reference(case):
    # the array fan adds the same triangle determinants in the same order
    # as the tuple loop, so vertices and volume agree bit for bit
    points, (A, vol) = FLOAT_CASES[case]
    vertices, ref_vol = reference_float_polytope(points)
    assert _bits(A.tolist()) == _bits(vertices)
    assert not A.flags.writeable
    assert type(vol) is float and vol.hex() == ref_vol.hex()


def test_float_polytope_refusals():
    with pytest.raises(PreconditionError, match="points must be 3-dimensional"):
        float_hull([(0.0, 0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    with pytest.raises(PreconditionError, match="points must be 3-dimensional"):
        float_hull(np.zeros((5, 2)))
    with pytest.raises(DegenerateInput, match="need at least 4 distinct points"):
        float_hull([])
    with pytest.raises(DegenerateInput, match="need at least 4 distinct points"):
        float_hull([(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    # NaN rows are never duplicates of one another, so the count passes and the finiteness check refuses
    with pytest.raises(PreconditionError, match="non-finite coordinate"):
        float_hull([(math.nan, 0.0, 0.0)] * 3 + [(0.0, 0.0, 1.0)])


# -- exact hull against a brute-force oracle ----------------------------------


def _sub3(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return sum(x * y for x, y in zip(a, b))


def brute_force_hull(points):
    """(sorted vertices, volume) of conv(points), in Fractions, without the hull code.

    Every point triple whose plane leaves all points on one side spans a
    facet plane.  A point is a vertex exactly when the normals of the facet
    planes through it have rank 3.  The volume adds up, over the facets,
    the cones from the vertex centroid over the facet polygon, fanned from
    its lexicographically least vertex in angular order.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    facets = {}  # (outward normal, offset), scaled by the first nonzero |entry| -> points on it
    for a, b, c in itertools.combinations(pts, 3):
        n = _cross3(_sub3(b, a), _sub3(c, a))
        if n == (0, 0, 0):
            continue
        side = [_dot3(n, _sub3(p, a)) for p in pts]
        if min(side) < 0 < max(side):
            continue
        if max(side) > 0:
            n = tuple(-x for x in n)
        s = abs(next(x for x in n if x != 0))
        n = tuple(x / s for x in n)
        facets[(n, _dot3(n, a))] = [p for p, t in zip(pts, side) if t == 0]
    vertices = [
        p
        for p in pts
        if any(
            _dot3(u, _cross3(v, w)) != 0
            for u, v, w in itertools.combinations([n for (n, _), on in facets.items() if p in on], 3)
        )
    ]
    centroid = tuple(sum(v[k] for v in vertices) / len(vertices) for k in range(3))
    total = Fraction(0)
    for (n, _), on in facets.items():
        poly = [p for p in on if p in vertices]
        v0, rest = poly[0], poly[1:]
        rest.sort(key=cmp_to_key(lambda p, q: -_dot3(n, _cross3(_sub3(p, v0), _sub3(q, v0)))))
        for p, q in zip(rest, rest[1:]):
            total += abs(_dot3(_sub3(v0, centroid), _cross3(_sub3(p, centroid), _sub3(q, centroid))))
    return vertices, total / 6


def _rational_body(rng, n, denominators):
    """n points with coordinates p/q, q drawn without repeats from ``denominators``."""
    q = rng.choice(denominators, size=(n, 3), replace=False)
    return [tuple(Fraction(int(rng.integers(-3 * d, 3 * d + 1)), int(d)) for d in row) for row in q]


def distinct_denominators(rng):
    pts = _rational_body(rng, 14, np.arange(2, 200))
    return pts, Polytope(pts)


def integers_and_fractions(rng):
    pts = [tuple(int(c) for c in rng.integers(-3, 4, size=3)) for _ in range(7)]
    pts += _rational_body(rng, 7, np.arange(2, 60))
    return pts, Polytope(pts)


def cube_with_edge_and_face_points(rng):
    # [0, 2]^3 with points mid-edge, mid-face, elsewhere on a face and inside
    pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    pts += [(1, 0, 0), (2, 1, 0), (0, 0, 1), (1, 2, 2), (1, 1, 0), (2, 1, 1), (Fraction(1, 3), 2, Fraction(1, 2))]
    pts += [(1, 1, 1)]
    return pts, Polytope(pts)


def lattice_basis_image(rng):
    # a rational body sheared by a unimodular basis of Z^3
    pts = unimodular_image(_rational_body(rng, 9, np.arange(2, 40)), [[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    return pts, Polytope(pts)


def small_grid_points(rng):
    # repeated, collinear and coplanar draws from {0, 1, 2}^3: many inserted
    # points lie on facet planes and on the lines of horizon edges
    pts = [tuple(int(c) for c in rng.integers(0, 3, size=3)) for _ in range(30)]
    return pts, Polytope(pts)


def rational_difference_body(rng):
    K = Polytope(_rational_body(rng, 5, np.arange(2, 30)))
    return [_sub3(a, b) for a in K.vertices for b in K.vertices], difference_hull(K)


@pytest.mark.parametrize(
    "case",
    [
        distinct_denominators,
        integers_and_fractions,
        cube_with_edge_and_face_points,
        lattice_basis_image,
        small_grid_points,
        rational_difference_body,
    ],
    ids=lambda f: f.__name__,
)
def test_exact_hull_matches_brute_force_oracle(case):
    points, P = case(np.random.default_rng(2024))
    vertices, vol = brute_force_hull(points)
    assert P.vertices == vertices
    assert volume(P) == vol


def _first_simplex_reference(pts):
    """The seed simplex in Fractions: p0 the least point, then the first
    point farthest from p0, from the line p0p1 and from the plane p0p1p2."""
    i0 = min(range(len(pts)), key=lambda i: pts[i])
    e = [_sub3(p, pts[i0]) for p in pts]
    i1 = max(range(len(pts)), key=lambda i: _dot3(e[i], e[i]))
    c = [_cross3(e[i1], d) for d in e]
    i2 = max(range(len(pts)), key=lambda i: _dot3(c[i], c[i]))
    i3 = max(range(len(pts)), key=lambda i: abs(_dot3(c[i2], e[i])))
    return i0, i1, i2, i3


def test_initial_simplex_takes_the_first_maximizer():
    # lattice_width prunes with the edges of this simplex, so its choice
    # among tied points must stay the one the Fraction predicates made
    rng = np.random.default_rng(5)
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    bodies = [grid, grid[1:], UNIT_CUBE, EXTREMAL_SIMPLEX] + LATTICE_CATALOGUE
    for _ in range(20):  # coordinates k/2 with |k| <= 2: many ties
        bodies.append([[Fraction(int(k), 2) for k in rng.integers(-2, 3, 3)] for _ in range(12)])
    for body in bodies:
        pts = sorted({tuple(Fraction(c) for c in p) for p in body})
        assert _initial_simplex([_homogeneous(p) for p in pts]) == _first_simplex_reference(pts)


def test_exact_hull_of_distinct_six_digit_denominators_in_budget():
    # 1,200 distinct six-digit denominators: a denominator common to all
    # points would be some 24,000 bits long and every predicate with it
    pts = _rational_body(np.random.default_rng(400), 400, np.arange(100_000, 1_000_000))
    t0 = perf_counter()
    P = Polytope(pts)
    vol = volume(P)
    dt = perf_counter() - t0
    assert vol > 0 and set(P.vertices) <= set(pts)
    assert dt < 5.0, f"exact hull of 400 points took {dt:.1f}s (budget 5s)"


# -- volume ------------------------------------------------------------------


def test_volume_cube():
    assert volume(Polytope(UNIT_CUBE)) == 1
    assert float_hull(UNIT_CUBE)[1] == pytest.approx(1.0, abs=1e-12)


def test_volume_regular_tetrahedron():
    # oracle: vol = |det(b-a, c-a, d-a)| / 6
    a, b, c, d = (np.array(v) for v in REGULAR_TETRA)
    expected = abs(np.linalg.det(np.array([b - a, c - a, d - a]))) / 6.0
    assert expected == pytest.approx(math.sqrt(2) / 12, rel=1e-12)
    assert float_hull(REGULAR_TETRA)[1] == pytest.approx(expected, rel=1e-12)


def test_volume_extremal_simplex_exact():
    P = Polytope(EXTREMAL_SIMPLEX)
    assert volume(P) == Fraction(1, 12)


def test_volume_matches_qhull_oracle(rng):
    for _ in range(10):
        pts = random_polytope_vertices(rng)
        assert float_hull(pts)[1] == pytest.approx(ConvexHull(pts).volume, rel=1e-10)


def test_volume_scales_by_det(rng):
    pts = random_polytope_vertices(rng)
    v0 = float_hull(pts)[1]
    T = rng.normal(size=(3, 3))
    while abs(np.linalg.det(T)) < 0.1:
        T = rng.normal(size=(3, 3))
    v1 = float_hull(pts @ T.T)[1]
    assert v1 == pytest.approx(abs(np.linalg.det(T)) * v0, rel=1e-9)


# -- hulls of K - K (conftest.difference_hull): many repeated and inner points


def test_difference_body_cube():
    D = difference_hull(Polytope(UNIT_CUBE))
    assert len(D) == 8
    assert set(D.vertices) == {(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)}


def test_difference_body_tetrahedron():
    D = difference_hull(Polytope(REGULAR_TETRA))
    assert len(D) == 12
    # Rogers-Shephard equality for a simplex: vol(K-K) = 20 vol(K)
    assert volume(D) == 20 * volume(Polytope(REGULAR_TETRA))
    assert float(volume(D)) == pytest.approx(20 * math.sqrt(2) / 12, rel=1e-9)


def test_difference_body_invariants(rng):
    for _ in range(5):
        A, vol = float_hull(random_polytope_vertices(rng))
        D, vol_d = float_hull(difference_points(A.tolist()))
        vs = set(map(tuple, D.tolist()))
        assert all(tuple(-c for c in v) in vs for v in vs), "not origin-symmetric"
        assert vol_d >= 8 * vol - 1e-9


def test_difference_body_exact_simplex():
    P = Polytope(EXTREMAL_SIMPLEX)
    D = difference_hull(P)
    assert volume(D) == Fraction(20, 12)


def test_det3_matches_numpy(rng):
    for _ in range(20):
        m = rng.normal(size=(3, 3))
        assert det3(m[0], m[1], m[2]) == pytest.approx(np.linalg.det(m), rel=1e-9, abs=1e-12)


# -- JSON --------------------------------------------------------------------


def test_polytope_json_roundtrip_rational():
    P = Polytope(points_from_json({"vertices": [["0/1", "0/1", "0/1"], ["1/1", "1/2", "1/2"],
                                                ["1/2", "1/1", "1/2"], ["1/2", "1/2", "1/1"]]}, True))
    assert volume(P) == Fraction(1, 12)
    Q = Polytope(points_from_json({"vertices": [[str(c) for c in v] for v in P.vertices]}, True))
    assert Q.vertices == P.vertices


def test_polytope_json_decimal_is_read_exactly():
    pts = points_from_json({"vertices": [[0, 0, 0], [1, 0.5, 0.5], [0.5, 1, 0.5], [0.1, 0.5, 1]]}, True)
    assert all(type(c) is Fraction for p in pts for c in p)
    assert pts[3][0] == Fraction(1, 10)
    assert volume(Polytope(pts[:3] + [(0.5, 0.5, 1)])) == Fraction(1, 12)


def test_polytope_json_bad_input():
    for exact in (False, True):
        with pytest.raises(PreconditionError):
            points_from_json({"verts": []}, exact)
        with pytest.raises(PreconditionError):
            points_from_json({"vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]}, exact)
        with pytest.raises(PreconditionError):
            points_from_json({"vertices": [["a/b", "0", "0"]] * 4}, exact)
    # past the double range: refused as doubles, read exactly as Fractions
    for big in (10**400, "1e400"):
        data = {"vertices": [[big, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]}
        with pytest.raises(PreconditionError, match="out of float range: its integer part has 401 digits"):
            points_from_json(data, False)
        assert max(v[0] for v in Polytope(points_from_json(data, True)).vertices) == 10**400
