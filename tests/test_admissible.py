"""Determinant coordinates of contact frames and the peculiar family."""

import math

import numpy as np
import pytest
from conftest import REGULAR_TETRA, random_polytope_vertices

from isokit.admissible import (
    PAIRS,
    AdmissibleSet,
    LambdaVector,
    check_relations,
    f_eval,
    five_square_max,
    from_contact_vectors,
    g_map,
    lambda_pair_products,
    objective,
    omega_contains,
    parseval_sum,
    peculiar_from,
    relation_residuals,
    sample_lambda,
)
from isokit.errors import (
    InfeasibleMagnitudes,
    InvariantError,
    PreconditionError,
    SingularPoint,
)
from isokit.geom import Polytope
from isokit.john import normalize

SQRT2 = math.sqrt(2.0)

# determinant coordinates of the edge-direction frame of a regular
# tetrahedron, rescaled by sqrt(2): the known equality case of the
# value-2 ceiling (PAIRS order)
VALUE2_SET = [1.0, 0.0, 1.0, -1.0, -1.0, 0.0, -1.0, 1.0, -1.0, -1.0]

HALF = [0.5] * 6


def test_pairs_order():
    assert PAIRS == ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))


def test_value2_set_is_admissible_and_tight():
    S = AdmissibleSet(VALUE2_SET)
    assert np.max(np.abs(relation_residuals(S.as_array()))) == 0.0
    assert objective(S.as_array(), HALF) == 2.0


def test_get_is_antisymmetric():
    S = AdmissibleSet(VALUE2_SET)
    assert S.get(1, 2) == 1.0
    assert S.get(2, 1) == -1.0
    assert S.get(3, 4) == 1.0
    assert S.get(4, 3) == -1.0
    for bad in [(1, 1), (0, 2), (1, 6), (6, 2)]:
        with pytest.raises(IndexError):
            S.get(*bad)


def test_admissible_validation():
    with pytest.raises(InvariantError):
        AdmissibleSet([0.0] * 9)
    too_big = list(VALUE2_SET)
    too_big[0] = 1.5
    with pytest.raises(InvariantError):
        AdmissibleSet(too_big)
    broken = list(VALUE2_SET)
    broken[0] += 1e-3  # breaks a three-term relation
    assert not check_relations(broken)
    with pytest.raises(InvariantError):
        AdmissibleSet(broken)


def test_lambda_vector_validation():
    L = LambdaVector(np.array(HALF))
    assert L[5] == 0.5
    with pytest.raises(InvariantError):
        LambdaVector(np.array([0.5] * 5 + [0.6]))
    with pytest.raises(InvariantError):
        LambdaVector(np.array([-0.1, 0.5, 0.5, 0.5, 0.5, 1.1]))
    with pytest.raises(InvariantError):
        LambdaVector(np.array([1.0, 0.5, 0.5, 0.5, 0.4, 0.1]))


def test_pair_products_order():
    p = lambda_pair_products(HALF)
    assert p.shape == (10,)
    assert np.allclose(p, 0.25)


def test_batched_pair_products_are_exact(rng):
    lam = np.array([sample_lambda(rng, first_weight_zero=k % 3 == 0) for k in range(200)])
    rows = np.array([lambda_pair_products(row) for row in lam])
    batched = lambda_pair_products(lam)
    assert batched.shape == (200, 10)
    assert np.array_equal(batched, rows)


def test_tetra_frame_is_value2_case():
    # the tetrahedron's six edge directions give the equality case: eight
    # magnitudes 1/sqrt(2), two zeros, and objective exactly 2 after the
    # sqrt(2) rescaling
    res = normalize(Polytope(REGULAR_TETRA))
    S = from_contact_vectors(res.decomposition.u)
    mags = np.sort(np.abs(S.as_array()))
    assert np.allclose(mags[:2], 0.0, atol=1e-9)
    assert np.allclose(mags[2:], 1.0 / SQRT2, atol=1e-9)
    assert parseval_sum(S.as_array(), res.decomposition.lambdas) == pytest.approx(1.0, abs=1e-12)
    scaled = SQRT2 * S.as_array()
    assert objective(scaled, res.decomposition.lambdas) == pytest.approx(2.0, abs=1e-9)
    assert check_relations(scaled, tol=1e-9)


def test_parseval_identity_pipeline(rng):
    # sum of lam_i lam_j a_ij^2 over i<j<=5 equals 1 for every frame the
    # pipeline produces
    for _ in range(10):
        res = normalize(Polytope(random_polytope_vertices(rng)))
        S = from_contact_vectors(res.decomposition.u)
        total = parseval_sum(S.as_array(), res.decomposition.lambdas)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_objective_envelope_all_ones():
    # with every magnitude at the box bound the weight products alone cap
    # the value at 2.5, attained at equal weights
    ones = np.ones(10)
    assert float(lambda_pair_products(HALF).sum()) == pytest.approx(2.5, abs=1e-15)
    assert objective(ones, HALF) == pytest.approx(2.5, abs=1e-15)


def test_peculiar_frozen_cases():
    S = peculiar_from(1.0, 1.0)
    assert np.allclose(S.as_array(), [1, 1, 1, 1, 1, 1, 0, 0, -1, -1], atol=0)
    S = peculiar_from(1.0, 0.5)
    mags = {pair: abs(S.get(*pair)) for pair in PAIRS}
    assert mags[(2, 3)] == pytest.approx(1.0, abs=1e-15)
    assert mags[(2, 5)] == pytest.approx(0.5, abs=1e-15)
    assert mags[(3, 4)] == pytest.approx(0.0, abs=1e-15)
    for pair in [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4)]:
        assert mags[pair] == pytest.approx(1.0, abs=1e-15)
    assert mags[(1, 5)] == pytest.approx(0.5, abs=1e-15)


def test_peculiar_relations_and_ceiling(rng):
    for _ in range(300):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(max(0.0, 1.0 - x), 1.0))
        if x <= 0.0:
            continue
        S = peculiar_from(x, y)
        arr = S.as_array()
        assert np.max(np.abs(relation_residuals(arr))) <= 1e-9
        assert np.max(np.abs(arr)) <= 1.0 + 1e-12
        raw = np.sort(rng.uniform(0.0, 1.0, size=5))
        lam = np.diff(np.concatenate([[0.0], raw, [1.0]])) * 3.0
        lam = np.sort(lam)
        assert objective(arr, lam) <= 2.0 + 1e-9


def test_peculiar_infeasible():
    with pytest.raises(InfeasibleMagnitudes):
        peculiar_from(0.3, 0.3)  # x + y < 1
    with pytest.raises(InfeasibleMagnitudes):
        peculiar_from(1.2, 0.5)
    with pytest.raises(InfeasibleMagnitudes):
        peculiar_from(0.0, 1.0)


def test_peculiar_sign_seed():
    a = peculiar_from(0.8, 0.7)
    b = peculiar_from(0.8, 0.7, sign_seed=5)
    assert np.allclose(np.abs(a.as_array()), np.abs(b.as_array()), atol=1e-12)
    assert check_relations(b.as_array())


def test_omega_membership():
    inside = [(0.5, 0.5), (2.0 / 3.0, 0.75), (0.75, 2.0 / 3.0), (0.6, 0.7)]
    outside = [(0.49, 0.6), (0.8, 0.8), (0.95, 0.5), (0.5, 1.0), (1.0, 0.5)]
    for x, y in inside:
        assert omega_contains(x, y)
    for x, y in outside:
        assert not omega_contains(x, y)


def test_g_maps_omega_into_itself(rng):
    assert g_map(0.5, 0.5) == pytest.approx((2.0 / 3.0, 0.75), abs=1e-15)
    pts = rng.uniform(0.5, 1.0, size=(4000, 2))
    checked = 0
    for x, y in pts:
        if omega_contains(x, y):
            assert omega_contains(*g_map(x, y))
            checked += 1
    assert checked > 200


def test_five_square_max_on_omega(rng):
    assert five_square_max(0.5, 0.5) == pytest.approx(9.0 / 16.0, abs=1e-15)
    assert five_square_max(0.75, 2.0 / 3.0) == pytest.approx(9.0 / 16.0, abs=1e-15)
    pts = rng.uniform(0.5, 1.0, size=(20000, 2))
    for x, y in pts:
        if omega_contains(x, y):
            assert five_square_max(x, y) <= 9.0 / 16.0 + 1e-12
    with pytest.raises(SingularPoint):
        five_square_max(1.0, 1.0)


def test_f_eval_values_and_total(rng):
    assert f_eval(HALF, 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert f_eval(HALF, 0.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(PreconditionError):
        f_eval(HALF, 1.2, 0.0)
    with pytest.raises(SingularPoint):
        f_eval(HALF, 1.0, 1.0)
    # adding the five untouched products keeps any weight vector at or
    # below the value-2 ceiling
    heavy = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    for _ in range(500):
        raw = np.sort(rng.uniform(0.0, 1.0, size=5))
        lam = np.sort(np.diff(np.concatenate([[0.0], raw, [1.0]])) * 3.0)
        x, y = rng.uniform(0.0, 1.0, size=2)
        if x * y == 1.0:
            continue
        rest = sum(lam[i - 1] * lam[j - 1] for i, j in heavy)
        assert f_eval(lam, x, y) + rest <= 2.0 + 1e-9


def test_f_eval_consistent_with_peculiar(rng):
    # reparametrize: x' = (1-x)/(1-xy), y' = (1-y)/(1-xy) gives a peculiar
    # set whose free magnitudes are (1-xy, y, x)
    for _ in range(100):
        x, y = rng.uniform(0.05, 0.95, size=2)
        d = 1.0 - x * y
        xp, yp = (1.0 - x) / d, (1.0 - y) / d
        S = peculiar_from(xp, yp)
        assert abs(S.get(2, 3)) == pytest.approx(d, abs=1e-12)
        assert abs(S.get(2, 5)) == pytest.approx(y, abs=1e-12)
        assert abs(S.get(3, 4)) == pytest.approx(x, abs=1e-12)
