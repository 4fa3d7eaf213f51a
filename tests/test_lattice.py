"""Exact lattice widths and the width-volume inequality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import EXTREMAL_SIMPLEX, LATTICE_CATALOGUE, difference_hull, random_lattice_polytope, unimodular_image

from isokit.errors import PreconditionError
from isokit.geom import Polytope
from isokit.lattice import lattice_width, verify_width_volume_corollary, width_in_direction

CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_width_in_direction_verbatim():
    P = Polytope(EXTREMAL_SIMPLEX)
    assert width_in_direction(P, (1, 0, 0)) == Fraction(1)
    assert width_in_direction(P, (2, 0, 0)) == Fraction(2)  # no gcd reduction
    assert width_in_direction(P, (1, 1, 1)) == Fraction(2)
    with pytest.raises(PreconditionError):
        width_in_direction(P, (0, 0, 0))


def test_extremal_simplex_attains_equality():
    P = Polytope(EXTREMAL_SIMPLEX)
    res = lattice_width(P)
    assert res.value == Fraction(1)
    assert res.direction == (1, 1, -1)  # lexicographically greatest tie
    rep = verify_width_volume_corollary(P)
    assert rep["exact"] is True
    assert rep["volume"] == Fraction(1, 12)
    assert rep["bound"] == Fraction(1, 12)
    assert rep["slack"] == 0
    assert rep["holds"] is True


def test_cube_width_and_density():
    Q = Polytope(CUBE)
    res = lattice_width(Q)
    assert res.value == Fraction(1)
    assert res.direction == (1, 0, 0)
    rep = verify_width_volume_corollary(Q)
    assert rep["volume"] / rep["omega"] ** 3 == Fraction(1)  # the density
    assert rep["nonseparable"] is True


def test_sub_threshold_width():
    half = Polytope([tuple(Fraction(c) / 2 for c in v) for v in EXTREMAL_SIMPLEX])
    res = lattice_width(half)
    assert res.value == Fraction(1, 2)
    rep = verify_width_volume_corollary(half)
    assert rep["nonseparable"] is False
    assert rep["slack"] == 0  # scaling preserves equality
    assert rep["volume"] == Fraction(1, 96)


def test_float_cube_gets_an_exact_report():
    # a float body is read at the exact binary value of its vertices, so a
    # width of exactly 1 is decided, not refused
    Qf = Polytope([(float(x), float(y), float(z)) for x, y, z in CUBE])
    assert Qf.vertices == Polytope(CUBE).vertices
    rep = verify_width_volume_corollary(Qf)
    assert rep == verify_width_volume_corollary(Polytope(CUBE))
    assert rep["omega"] == 1 and isinstance(rep["omega"], Fraction)
    assert rep["slack"] == Fraction(11, 12)
    assert rep["exact"] is True and rep["holds"] is True and rep["nonseparable"] is True
    # 0.9 is not a binary fraction: the float body's width is the double's exact value
    shrunk = verify_width_volume_corollary(Polytope([(0.9 * x, 0.9 * y, 0.9 * z) for x, y, z in CUBE]))
    assert shrunk["omega"] == Fraction(0.9) != Fraction(9, 10)
    assert shrunk["volume"] == Fraction(0.9) ** 3 and shrunk["nonseparable"] is False


def test_translation_invariance(rng):
    P = random_lattice_polytope(rng)
    shifted = Polytope([(x + 7, y - 4, z + 2) for x, y, z in P.vertices])
    a, b = lattice_width(P), lattice_width(shifted)
    assert a.value == b.value
    assert a.direction == b.direction


def test_unimodular_invariance(rng):
    U = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]  # det 1
    for _ in range(5):
        P = random_lattice_polytope(rng)
        img = Polytope(unimodular_image(P.vertices, U))
        assert lattice_width(img).value == lattice_width(P).value


def test_width_equals_difference_body_support(rng):
    P = random_lattice_polytope(rng)
    D = difference_hull(P)
    for u in [(1, 0, 0), (1, 1, -1), (2, -1, 3), (0, 1, 1)]:
        w = width_in_direction(P, u)
        h = max(vx * u[0] + vy * u[1] + vz * u[2] for vx, vy, vz in D.vertices)
        assert w == h  # exact Fractions


def test_corollary_random_lattice_polytopes(rng):
    for _ in range(25):
        P = random_lattice_polytope(rng)
        rep = verify_width_volume_corollary(P)
        assert rep["exact"] and rep["holds"]
        assert rep["slack"] >= 0
        assert rep["volume"] / rep["omega"] ** 3 >= Fraction(1, 12)  # the density


def _brute_force_width(vertices, W0):
    """Minimum width over every canonical primitive direction in [-W0, W0]^3,
    with the lexicographically greatest direction attaining it."""
    best, best_u = None, None
    r = range(-W0, W0 + 1)
    for u in ((a, b, c) for a in r for b in r for c in r):
        # canonical: primitive, its first nonzero entry positive
        if u == (0, 0, 0) or math.gcd(*u) != 1 or next(x for x in u if x) < 0:
            continue
        dots = [x * u[0] + y * u[1] + z * u[2] for x, y, z in vertices]
        w = max(dots) - min(dots)
        if best is None or w < best or (w == best and u > best_u):
            best, best_u = w, u
    return best, best_u


def _unimodular(rng):
    """Product of random integer shears and a coordinate swap: det ±1."""
    M = np.eye(3, dtype=int)
    for _ in range(3):
        i, j = rng.choice(3, size=2, replace=False)
        E = np.eye(3, dtype=int)
        E[i, j] = int(rng.integers(-2, 3))
        M = E @ M
    return M[rng.permutation(3)]


def test_lattice_width_matches_brute_force(rng):
    # Each body holds a translate of conv{0, e1, e2, e3}, whose width along
    # u is max|u_i|; so every direction of width <= W0 lies in [-W0, W0]^3
    # and the scan below is complete.
    for _ in range(30):
        p = rng.integers(0, 3, size=3)
        extra = rng.integers(0, int(rng.integers(2, 5)) + 1, size=(int(rng.integers(0, 6)), 3))
        pts = [tuple(int(x) for x in p + e) for e in np.vstack([np.zeros((1, 3), int), np.eye(3, dtype=int)])]
        pts += [tuple(int(x) for x in q) for q in extra]
        P = Polytope(pts)
        W0 = int(min(width_in_direction(P, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        res = lattice_width(P)
        assert (res.value, res.direction) == _brute_force_width(P.vertices, W0)
        M = _unimodular(rng)
        img = Polytope([tuple(int(x) for x in M @ np.array(v, dtype=object)) for v in P.vertices])
        assert lattice_width(img).value == res.value


def test_lattice_width_builds_no_hull(rng, monkeypatch):
    import isokit.geom as geom

    P = random_lattice_polytope(rng)
    Pf = Polytope([tuple(float(c) for c in v) for v in P.vertices])
    # a box of width 7/13 along e1, sheared by a unimodular map: width 7/13
    box = [(Fraction(7, 13) * x, 3 * y, 3 * z) for x, y, z in CUBE]
    img = Polytope(unimodular_image(box, [[1, 2, 0], [0, 1, 0], [1, 1, 1]]))
    expected = lattice_width(P)

    def no_hull(*args, **kwargs):
        raise AssertionError("lattice_width must not build a hull")

    monkeypatch.setattr(geom, "_hull_exact", no_hull)
    monkeypatch.setattr(geom, "float_hull", no_hull)
    assert lattice_width(P) == expected
    res = lattice_width(Pf)
    assert (res.value, res.direction) == (expected.value, expected.direction)
    assert type(res.value) is Fraction
    assert lattice_width(img).value == Fraction(7, 13)


def test_catalogue_search_effort_is_pinned():
    # the search prunes with the slabs of the vertex simplex that
    # _initial_simplex picks, so its count of checked directions pins that pick
    bodies = [Polytope([[Fraction(c) for c in v] for v in body]) for body in LATTICE_CATALOGUE]
    assert [lattice_width(P).checked for P in bodies] == [9, 9, 5, 1, 5, 5, 3, 3, 4, 3]
