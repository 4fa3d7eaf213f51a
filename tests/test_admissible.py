"""Determinant coordinates of contact frames and the peculiar family."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import REGULAR_TETRA, random_polytope_vertices

from isokit import admissible
from isokit.admissible import (
    HEAVY_PAIRS,
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
    peculiar_forced,
    peculiar_from,
    peculiar_sweep,
    relation_residuals,
    sample_lambda,
    sample_omega,
)
from isokit.errors import (
    InfeasibleMagnitudes,
    InvariantError,
    NoSignAssignment,
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


def _first_valid_member(x, y):
    # the exhaustive search: every pattern's full relation_residuals, first hit
    mag = np.ones(10)
    mag[PAIRS.index((1, 4))], mag[PAIRS.index((1, 5))] = x, y
    for pair, m in peculiar_forced(x, y).items():
        mag[PAIRS.index(pair)] = m
    cand = admissible._SIGNS * mag
    return cand[np.flatnonzero(np.max(np.abs(relation_residuals(cand)), axis=1) <= 1e-9)[0]]


def test_batched_members_match_peculiar_from():
    rng = np.random.default_rng(8)
    pairs = rng.uniform(0.0, 1.0, size=(4000, 2))
    pairs = pairs[(pairs.sum(axis=1) >= 1.0) & (pairs > 0.0).all(axis=1)][:2000]
    edge = np.arange(1, 64) / 64.0  # x + y = 1 exactly
    pairs = np.vstack([pairs, [(1.0, 1.0), (1.0, 0.5), (0.5, 0.5)], np.column_stack([edge, 1.0 - edge])])
    assert len(pairs) == 2066 and (pairs[-63:].sum(axis=1) == 1.0).all()
    mag, pick = admissible._peculiar_members(pairs[:, 0], pairs[:, 1])
    members = admissible._SIGNS[pick] * mag
    for (x, y), a in zip(pairs, members):
        assert a.tobytes() == peculiar_from(float(x), float(y)).a.tobytes(), (x, y)
        assert a.tobytes() == _first_valid_member(float(x), float(y)).tobytes(), (x, y)


def test_batched_members_refuse_as_the_per_pair_search():
    # the first faulty row decides, as when each pair was built alone: an
    # entry beyond 1 fails AdmissibleSet, a NaN leaves no sign pattern
    x, y = np.array([0.9, 0.3, np.nan]), np.array([0.9, 0.3, 0.5])
    with pytest.raises(InvariantError, match="entries must lie in"):
        admissible._peculiar_members(x, y)
    with pytest.raises(NoSignAssignment, match=r"\(nan, 0.5\)"):
        admissible._peculiar_members(x[[0, 2, 1]], y[[0, 2, 1]])


@pytest.mark.parametrize(
    "args, digest, maxima, n_violations",
    [
        (
            (10**4, 100, 0, 1e-9),
            "1fe3810b909b8184",
            ("0x1.b57ac10525cc2p+0", "0x1.1f9377db5f504p-1", "0x1.7a12d56e2b2bbp+0"),
            0,
        ),
        (
            (10**4, 100, 42, 1e-9),
            "b44f49dca76e560a",
            ("0x1.b08e12ae7166ap+0", "0x1.1f8e5d6d1f1c2p-1", "0x1.720350fc13f65p+0"),
            0,
        ),
        (
            (2500, 37, 7, -0.05),
            "8c8eedad1cd9cd4f",
            ("0x1.b012b96dbc902p+0", "0x1.1f53096eb0f9cp-1", "0x1.751376318c865p+0"),
            1,
        ),
        (
            (2500, 37, 7, -0.4),
            "ad67159c808e89a0",
            ("0x1.b012b96dbc902p+0", "0x1.1f53096eb0f9cp-1", "0x1.751376318c865p+0"),
            99,
        ),
    ],
)
def test_peculiar_sweep_output_is_pinned(args, digest, maxima, n_violations):
    # reports of the per-pair sweep that preceded the batched one; the
    # digest covers every maximum, the argmax pair and every violation in
    # order, the hex strings the three maxima bit for bit
    out = peculiar_sweep(*args)
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16] == digest
    assert tuple(float(out[k]).hex() for k in ("objective_max", "five_square_max", "region_total_max")) == maxima
    assert len(out["violations"]) == n_violations


@pytest.mark.parametrize("seed", [1, 2])
def test_peculiar_sweep_matches_the_per_pair_loop(seed):
    # the per-pair sweep as the reference: every pair scored alone by its
    # own matrix-vector product, every region point by the scalar functions
    n, n_lambda, tol = 1500, 23, -0.35
    out = peculiar_sweep(n, n_lambda, seed, tol)
    rng = np.random.default_rng([seed, 101])
    pairs = np.empty((0, 2))
    while pairs.shape[0] < n:
        cand = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        pairs = np.vstack([pairs, cand[(cand.sum(axis=1) >= 1.0) & (cand > 0.0).all(axis=1)]])
    lam = np.array([sample_lambda(np.random.default_rng([seed, 102, k])) for k in range(n_lambda)])
    products = lambda_pair_products(lam)
    worst = [float((products @ peculiar_from(float(x), float(y)).a ** 2).max()) for x, y in pairs[:n]]
    k = int(np.argmax(worst))
    assert (out["objective_max"], out["argmax_pair"]) == (worst[k], pairs[k].tolist())
    expected = [[float(x), float(y), w] for (x, y), w in zip(pairs[:n], worst) if w > 2.0 + tol]
    assert [v["pair"] + [v["value"]] for v in out["violations"] if v["kind"] == "objective"] == expected
    omega = sample_omega(np.random.default_rng([seed, 103]), n)
    heavy = sum(products[:, PAIRS.index(p)] for p in HEAVY_PAIRS)
    assert out["five_square_max"] == max(five_square_max(float(x), float(y)) for x, y in omega)
    totals = (f_eval(lam[j % n_lambda], x, y) + float(heavy[j % n_lambda]) for j, (x, y) in enumerate(omega.tolist()))
    assert out["region_total_max"] == max(totals)


def test_screens_keep_every_row_near_a_level():
    # a screened value may sit a few ulps off the value it stands for, so
    # every row within 1e-12 relative of a maximum or bound is recomputed
    screen = np.array([1.0, 1.0 - 1e-13, 1.0 - 1e-11, 0.5, 0.0])
    assert admissible._near(screen, 1.0).tolist() == [True, True, False, False, False]
    assert admissible._near(screen, 1.0 + 1e-13).tolist() == [True, True, False, False, False]
    assert admissible._near(screen, -0.5).all()
    assert not admissible._near(screen, np.inf).any()


@pytest.mark.parametrize("n, n_lambda", [(1000, 10**4), (10**4, 100), (2 * 10**5, 100)])
def test_peculiar_sweep_memory_follows_a_block(n, n_lambda):
    # the per-pair sweep peaked at 3.2 and 1.7 MiB here; blocks not sized
    # by the weight count (1,024 pairs at 10^4 weight vectors) held 78 MiB.
    # Candidates drawn 2n and 4n rows at a time, all n pairs and points
    # held at once, peaked at 37 MiB at 2 * 10^5 pairs; drawn per block,
    # the sweep peaks at 3.7 MiB there as at 10^4
    tracemalloc.start()
    try:
        peculiar_sweep(n, n_lambda, 3, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
