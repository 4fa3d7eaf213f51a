"""Contact decompositions, witness triples, and the normalization pipeline."""

import math

import numpy as np
import pytest
from conftest import FLAT_SLAB, REGULAR_TETRA, UNIT_CUBE, random_polytope_vertices, random_rotation

from isokit.errors import InvariantError, NoDecomposition
from isokit.geom import Polytope
from isokit.john import (
    IDQ_LOWER_BOUND,
    WITNESS_LOWER_BOUND,
    JohnDecomposition,
    john_weights,
    normalize,
    transform_to_ball,
    witness_triple,
)
from isokit.mvee import Ellipsoid

SQRT2 = math.sqrt(2.0)


def test_bound_constants():
    assert IDQ_LOWER_BOUND == pytest.approx(SQRT2 / 12.0, abs=0)
    assert WITNESS_LOWER_BOUND == pytest.approx(1.0 / SQRT2, abs=0)


def test_transform_is_spd_sqrt(rng):
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        M = A @ A.T + 0.1 * np.eye(3)
        T = transform_to_ball(Ellipsoid(M=M))
        assert np.allclose(T, T.T, atol=1e-12)
        assert np.allclose(T @ T, M, atol=1e-9 * np.abs(M).max())
        assert np.linalg.eigvalsh(T)[0] > 0


def test_john_weights_orthonormal_basis():
    d = john_weights(np.eye(3))
    assert np.allclose(d.lambdas, [0, 0, 0, 1, 1, 1], atol=1e-12)
    assert d.residual <= 1e-12
    assert np.allclose(np.linalg.norm(d.u, axis=1), 1.0)


def test_john_weights_cube_diagonals():
    diag = np.array(
        [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)], float
    ) / math.sqrt(3.0)
    d = john_weights(diag)
    assert np.allclose(d.lambdas, [0, 0, 0.75, 0.75, 0.75, 0.75], atol=1e-10)
    assert d.residual <= 1e-9


def test_coplanar_contacts_rejected():
    ang = np.linspace(0.0, np.pi, 5, endpoint=False)
    flat = np.stack([np.cos(ang), np.sin(ang), np.zeros(5)], axis=1)
    with pytest.raises(NoDecomposition):
        john_weights(flat)


def test_caratheodory_reduction(rng):
    # three rotated orthonormal frames give a feasible 9-direction instance;
    # the decomposition must come back on at most six of them
    for _ in range(10):
        frames = np.vstack([random_rotation(rng) for _ in range(3)])
        d = john_weights(frames)
        assert d.lambdas.shape == (6,)
        assert d.residual <= 1e-7
        assert abs(d.lambdas.sum() - 3.0) <= 1e-7
        assert np.all(d.lambdas >= 0.0)


def test_decomposition_validation():
    u = np.vstack([np.eye(3), np.eye(3)])
    lam_ok = np.array([0.5] * 6)
    JohnDecomposition(lambdas=lam_ok, u=u)
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([0.5] * 5 + [0.6]), u=u)  # sum != 3
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([1.5, 1.5, 1.0, -1.0, 0, 0]), u=u)
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([1.0, 1.0, 1.0, 0, 0, 0]), u=u)  # max not last
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=lam_ok, u=2.0 * u)  # not unit


def test_normalize_regular_tetra():
    res = normalize(Polytope(REGULAR_TETRA))
    # the difference body's ellipsoid is the unit ball: T is the identity
    assert np.allclose(res.T, np.eye(3), atol=1e-9)
    assert abs(res.idq - SQRT2 / 12.0) <= 1e-12
    assert np.allclose(res.decomposition.lambdas, 0.5, atol=1e-9)
    assert abs(res.witness_value - 1.0 / SQRT2) <= 1e-9


def test_normalize_unit_cube():
    res = normalize(Polytope(UNIT_CUBE))
    assert np.allclose(res.T, np.eye(3) / math.sqrt(3.0), atol=1e-9)
    assert abs(res.idq - 3.0 ** -1.5) <= 1e-12
    assert np.allclose(np.sort(res.decomposition.lambdas), [0, 0, 0.75, 0.75, 0.75, 0.75], atol=1e-9)
    # best triple of the four main diagonals
    assert abs(res.witness_value - 4.0 / (3.0 * math.sqrt(3.0))) <= 1e-9


def test_witness_matches_brute_force(rng):
    for _ in range(5):
        res = normalize(Polytope(random_polytope_vertices(rng)))
        best = max(
            abs(np.linalg.det(res.decomposition.u[[i, j, k]]))
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        )
        ijk, val = witness_triple(res.decomposition)
        assert val == pytest.approx(best, abs=1e-12)
        assert len(set(ijk)) == 3 and all(0 <= i < 6 for i in ijk)


def test_normalize_affine_invariance(rng):
    base = random_polytope_vertices(rng)
    ref = normalize(Polytope(base), tol=1e-10)
    for _ in range(5):
        A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
        res = normalize(Polytope(base @ A.T), tol=1e-10)
        assert res.idq == pytest.approx(ref.idq, abs=1e-7)
        assert res.witness_value == pytest.approx(ref.witness_value, abs=1e-5)


def test_normalize_random_batch(rng):
    for _ in range(20):
        res = normalize(Polytope(random_polytope_vertices(rng)))
        assert res.idq >= SQRT2 / 12.0 - 1e-9
        assert res.witness_value >= 1.0 / SQRT2 - 1e-9
        assert res.decomposition.residual <= 1e-7


def test_normalize_flat_slab():
    res = normalize(Polytope(FLAT_SLAB))
    assert res.idq >= SQRT2 / 12.0 - 1e-9
    assert res.witness_value >= 1.0 / SQRT2 - 1e-9


#: seven points whose six contact weights all equal 1/2 within 1e-9, so
#: they round alike at nine digits
TIED_WEIGHTS_BODY = [
    [-0.23819718583817862, -0.5128549993957083, -0.41127248495224045],
    [-0.16016233759485, 0.9245227898295085, -0.08227886203683399],
    [0.9002700242246349, -0.9389358568328889, -0.867779482853561],
    [-0.9443681876054615, 0.33188927652470857, -0.5595346177724096],
    [0.152840362586097, 0.5907322712108491, -0.3363721626829925],
    [-0.5086450145818264, 0.45081717428114976, -0.048204413400859236],
    [-0.7015797079013988, -0.8251097650606227, 0.4743350022788413],
]


def test_normalize_tied_weights_keep_the_maximum_last():
    for s in range(10):
        q, r = np.linalg.qr(np.random.default_rng([s, 17]).normal(size=(3, 3)))
        res = normalize(Polytope(np.array(TIED_WEIGHTS_BODY) @ (q * np.sign(np.diag(r))).T))
        lam = res.decomposition.lambdas
        assert lam[5] == lam.max(), s
        assert np.allclose(lam, 0.5, atol=1e-8)
        assert res.idq >= SQRT2 / 12.0 - 1e-9


def test_json_dict_shape():
    res = normalize(Polytope(REGULAR_TETRA))
    d = res.to_json_dict()
    assert set(d) == {"T", "idq", "lambda", "u", "witness"}
    assert len(d["T"]) == 9 and len(d["lambda"]) == 6 and len(d["u"]) == 6
    assert sorted(d["witness"]["ijk"]) == list(d["witness"]["ijk"])
    assert all(1 <= i <= 6 for i in d["witness"]["ijk"])
    assert d["witness"]["value"] >= 1.0 / SQRT2 - 1e-9
