"""Exact lattice widths and the width-volume inequality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import EXTREMAL_SIMPLEX, random_lattice_polytope

from isokit.errors import PreconditionError, SingularLattice
from isokit.geom import Polytope, difference_body
from isokit.lattice import (
    LatticeBasis,
    LatticeDirection,
    density,
    is_nonseparable_unit_lattice,
    lattice_width,
    verify_width_volume_corollary,
    width_in_direction,
)

CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_direction_canonicalization():
    assert LatticeDirection((-2, 4, 0)).u == (1, -2, 0)
    assert LatticeDirection((0, -3, 6)).u == (0, 1, -2)
    assert LatticeDirection((4, 6, 10)).u == (2, 3, 5)
    with pytest.raises(PreconditionError):
        LatticeDirection((0, 0, 0))
    with pytest.raises(PreconditionError):
        LatticeDirection((1.5, 0, 0))


def test_width_in_direction_verbatim():
    P = Polytope(EXTREMAL_SIMPLEX, mode="rational")
    assert width_in_direction(P, (1, 0, 0)) == Fraction(1)
    assert width_in_direction(P, (2, 0, 0)) == Fraction(2)  # no gcd reduction
    assert width_in_direction(P, LatticeDirection((2, 0, 0))) == Fraction(1)
    assert width_in_direction(P, (1, 1, 1)) == Fraction(2)
    with pytest.raises(PreconditionError):
        width_in_direction(P, (0, 0, 0))


def test_extremal_simplex_attains_equality():
    P = Polytope(EXTREMAL_SIMPLEX, mode="rational")
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
    Q = Polytope(CUBE, mode="rational")
    res = lattice_width(Q)
    assert res.value == Fraction(1)
    assert res.direction == (1, 0, 0)
    assert density(Q) == Fraction(1)
    assert is_nonseparable_unit_lattice(Q) is True


def test_sub_threshold_width():
    half = Polytope([tuple(Fraction(c) / 2 for c in v) for v in EXTREMAL_SIMPLEX], mode="rational")
    res = lattice_width(half)
    assert res.value == Fraction(1, 2)
    assert is_nonseparable_unit_lattice(half) is False
    rep = verify_width_volume_corollary(half)
    assert rep["slack"] == 0  # scaling preserves equality
    assert rep["volume"] == Fraction(1, 96)


def test_float_knife_edge_refused():
    Qf = Polytope([(float(x), float(y), float(z)) for x, y, z in CUBE])
    assert Qf.mode == "float"
    with pytest.raises(PreconditionError):
        is_nonseparable_unit_lattice(Qf)
    big = Polytope([(1.5 * x, 1.5 * y, 1.5 * z) for x, y, z in CUBE])
    assert is_nonseparable_unit_lattice(big) is True


def test_translation_invariance(rng):
    P = random_lattice_polytope(rng)
    shifted = Polytope([(x + 7, y - 4, z + 2) for x, y, z in P.vertices], mode="rational")
    a, b = lattice_width(P), lattice_width(shifted)
    assert a.value == b.value
    assert a.direction == b.direction


def test_unimodular_invariance(rng):
    U = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]  # det 1
    for _ in range(5):
        P = random_lattice_polytope(rng)
        img = Polytope(
            [
                (x * U[0][0] + y * U[0][1] + z * U[0][2],
                 x * U[1][0] + y * U[1][1] + z * U[1][2],
                 x * U[2][0] + y * U[2][1] + z * U[2][2])
                for x, y, z in P.vertices
            ],
            mode="rational",
        )
        assert lattice_width(img).value == lattice_width(P).value


def test_width_equals_difference_body_support(rng):
    P = random_lattice_polytope(rng)
    D = difference_body(P)
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
        assert density(P) >= Fraction(1, 12)


def test_lattice_basis():
    Q = Polytope(CUBE, mode="rational")
    assert LatticeBasis(np.eye(3, dtype=int)).width(Q).value == Fraction(1)
    assert LatticeBasis([[2, 0, 0], [0, 1, 0], [0, 0, 1]]).width(Q).value == Fraction(1, 2)
    assert LatticeBasis([[1, 1, 0], [0, 1, 0], [0, 0, 1]]).width(Q).value == Fraction(1)
    with pytest.raises(SingularLattice):
        LatticeBasis([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        LatticeBasis([[1, 0], [0, 1]])

def _brute_force_width(vertices, W0):
    """Minimum width over every canonical primitive direction in [-W0, W0]^3,
    with the lexicographically greatest direction attaining it."""
    best, best_u = None, None
    r = range(-W0, W0 + 1)
    for u in ((a, b, c) for a in r for b in r for c in r):
        if u == (0, 0, 0) or math.gcd(*u) != 1 or LatticeDirection(u).u != u:
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
        P = Polytope(pts, mode="rational")
        W0 = int(min(width_in_direction(P, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        res = lattice_width(P)
        assert (res.value, res.direction) == _brute_force_width(P.vertices, W0)
        M = _unimodular(rng)
        img = Polytope([tuple(int(x) for x in M @ np.array(v, dtype=object)) for v in P.vertices], mode="rational")
        assert lattice_width(img).value == res.value


def test_lattice_width_builds_no_hull(rng, monkeypatch):
    import isokit.geom as geom

    P = random_lattice_polytope(rng)
    Pf = Polytope([tuple(float(c) for c in v) for v in P.vertices])
    box = Polytope([(7 * x, 3 * y, 3 * z) for x, y, z in CUBE], mode="rational")
    # columns of B span 13Z x Z x Z, sheared by a unimodular map: width 7/13
    img = LatticeBasis([[13, 26, 0], [0, 1, 0], [1, 1, 1]]).transform(box)
    expected = lattice_width(P)

    def no_hull(*args, **kwargs):
        raise AssertionError("lattice_width must not build a hull")

    monkeypatch.setattr(geom, "_hull_exact", no_hull)
    monkeypatch.setattr(geom, "_hull_float", no_hull)
    assert lattice_width(P) == expected
    res = lattice_width(Pf)
    assert isinstance(res.value, float)
    assert (res.value, res.direction) == (float(expected.value), expected.direction)
    assert lattice_width(img).value == Fraction(7, 13)
