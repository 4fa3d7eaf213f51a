"""Determinant coordinates of contact frames and the peculiar family."""

import hashlib
import itertools
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
    _f_value,
    check_relations,
    five_square_max,
    from_contact_vectors,
    g_map,
    lambda_pair_products,
    objective,
    omega_contains,
    peculiar_forced,
    peculiar_from,
    peculiar_sweep,
    relation_residuals,
    sample_lambda,
)
from isokit.errors import InvariantError, PreconditionError
from isokit.geom import det3
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


def test_admissible_set_refuses_nan():
    # NaN compares False with every bound, so the box check must fail it
    with pytest.raises(InvariantError, match="entries must lie in"):
        AdmissibleSet([np.nan] * 10)


def test_lambda_vector_validation():
    # weights are checked where they enter: six, nonnegative, summing to 3, the largest last
    assert lambda_pair_products(HALF)[-1] == 0.25
    for bad in ([0.5] * 5, [0.5] * 5 + [0.6], [-0.1, 0.5, 0.5, 0.5, 0.5, 1.1], [1.0, 0.5, 0.5, 0.5, 0.4, 0.1]):
        with pytest.raises(InvariantError):
            lambda_pair_products(bad)


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


def test_pair_columns_match_the_per_pair_loop(rng):
    # the shared pair columns give bit for bit what a loop over PAIRS gives
    lam = np.array([sample_lambda(rng) for _ in range(50)])
    loop = np.stack([lam[:, i - 1] * lam[:, j - 1] for i, j in PAIRS], axis=-1)
    assert np.array_equal(lambda_pair_products(lam), loop)
    for _ in range(50):
        u = rng.normal(size=(6, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = u / np.linalg.norm(u, axis=1)[:, None]  # from_contact_vectors normalizes once more
        loop = [det3(v[i - 1], v[j - 1], v[5]) for i, j in PAIRS]
        assert np.array_equal(from_contact_vectors(u).a, np.clip(loop, -1.0, 1.0))


def test_tetra_frame_is_value2_case():
    # the tetrahedron's six edge directions give the equality case: eight
    # magnitudes 1/sqrt(2), two zeros, and objective exactly 2 after the
    # sqrt(2) rescaling
    res = normalize(REGULAR_TETRA)
    S = from_contact_vectors(res.decomposition.u)
    mags = np.sort(np.abs(S.as_array()))
    assert np.allclose(mags[:2], 0.0, atol=1e-9)
    assert np.allclose(mags[2:], 1.0 / SQRT2, atol=1e-9)
    assert objective(S.as_array(), res.decomposition.lambdas) == pytest.approx(1.0, abs=1e-12)
    scaled = SQRT2 * S.as_array()
    assert objective(scaled, res.decomposition.lambdas) == pytest.approx(2.0, abs=1e-9)
    assert check_relations(scaled, tol=1e-9)


def test_parseval_identity_pipeline(rng):
    # sum of lam_i lam_j a_ij^2 over i<j<=5 equals 1 for every frame the
    # pipeline produces
    for _ in range(10):
        res = normalize(random_polytope_vertices(rng))
        S = from_contact_vectors(res.decomposition.u)
        total = objective(S.as_array(), res.decomposition.lambdas)
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
    with pytest.raises(PreconditionError, match=r"\|a14\| \+ \|a15\| must be at least 1"):
        peculiar_from(0.3, 0.3)  # x + y < 1
    with pytest.raises(PreconditionError, match=r"\|a14\|, \|a15\| must lie in \(0, 1\]"):
        peculiar_from(1.2, 0.5)
    with pytest.raises(PreconditionError, match=r"\|a14\|, \|a15\| must lie in \(0, 1\]"):
        peculiar_from(0.0, 1.0)


# every sign pattern with a12 = a13 = +1, + before - in each later position
_ALL_SIGNS = np.array([(1.0, 1.0) + rest for rest in itertools.product((1.0, -1.0), repeat=8)])


def _magnitudes(x, y):
    mag = np.ones(10)
    mag[PAIRS.index((1, 4))], mag[PAIRS.index((1, 5))] = x, y
    for pair, m in peculiar_forced(x, y).items():
        mag[PAIRS.index(pair)] = m
    return mag


def _valid_patterns(x, y):
    # the exhaustive search: every pattern's full relation_residuals
    cand = _ALL_SIGNS * _magnitudes(x, y)
    return np.flatnonzero(np.max(np.abs(relation_residuals(cand)), axis=1) <= 1e-9)


def _feasible_pairs_and_edges():
    rng = np.random.default_rng(8)
    pairs = rng.uniform(0.0, 1.0, size=(4000, 2))
    pairs = pairs[(pairs.sum(axis=1) >= 1.0) & (pairs > 0.0).all(axis=1)][:2000]
    edge = np.arange(1, 64) / 64.0
    one = np.ones_like(edge)
    # the edges x + y = 1, x = 1 and y = 1, where one forced magnitude is 0, and their corner
    edges = [np.column_stack([edge, 1.0 - edge]), np.column_stack([one, edge]), np.column_stack([edge, one])]
    pairs = np.vstack([pairs, *edges, [(1.0, 1.0)]])
    assert len(pairs) == 2190 and (pairs[-190:-127].sum(axis=1) == 1.0).all()
    return pairs


def test_peculiar_members_are_the_minors_of_v():
    # V = [[1, 0, p, -1, s], [0, 1, 1, x, y]]: the Plucker relations hold
    # identically in its minors, which is why no sign needs searching
    x, y = _feasible_pairs_and_edges().T
    p, s = (1.0 - x - y) / (x * y), (1.0 - y) / x
    one, zero = np.ones_like(x), np.zeros_like(x)
    V = np.array([[one, zero, p, -one, s], [zero, one, one, x, y]])  # (2, 5, rows)
    minors = np.stack([V[0, i - 1] * V[1, j - 1] - V[0, j - 1] * V[1, i - 1] for i, j in PAIRS], axis=1)
    assert np.abs(minors - admissible._peculiar_members(x, y)).max() <= 1e-14


def test_batched_members_match_peculiar_from():
    pairs = _feasible_pairs_and_edges()
    members = admissible._peculiar_members(pairs[:, 0], pairs[:, 1])
    for (x, y), a in zip(pairs, members):
        valid = _valid_patterns(float(x), float(y))
        # compared by value: where a forced magnitude is 0 the search may sign it +0.0
        assert np.array_equal(a, _ALL_SIGNS[valid[0]] * _magnitudes(float(x), float(y))), (x, y)
        assert np.array_equal(a, peculiar_from(float(x), float(y)).a), (x, y)
        if (a != 0.0).all():
            # a_ij -> g e_i e_j a_ij (column signs e, global sign g), the constant vector first
            assert len(valid) == 8, (x, y)
            assert np.array_equal(_ALL_SIGNS[valid[0]], admissible._PECULIAR_SIGNS), (x, y)


def test_batched_members_refuse_as_the_per_pair_search():
    # the first faulty row decides, as when each pair was built alone: an
    # entry beyond 1 fails AdmissibleSet, and so does a NaN
    x, y = np.array([0.9, 0.3, np.nan]), np.array([0.9, 0.3, 0.5])
    with pytest.raises(InvariantError, match="entries must lie in"):
        admissible._peculiar_members(x, y)
    with pytest.raises(InvariantError):
        admissible._peculiar_members(x[[0, 2, 1]], y[[0, 2, 1]])
    with pytest.raises(InvariantError):
        admissible._peculiar_members(x[[2]], y[[2]])


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_peculiar_sweep_refuses_a_non_finite_tol(tol):
    # a NaN tol compares false against every value and would drop every violation
    with pytest.raises(PreconditionError, match="^tol must be finite$"):
        peculiar_sweep(100, 5, 0, tol)
    assert len(peculiar_sweep(100, 5, 0, -0.5)["violations"]) == 1  # a negative finite tol still runs


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5])
def test_peculiar_sweep_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # numpy raises its own ValueError or TypeError on these, which is no IsokitError
    with pytest.raises(PreconditionError, match="^seed must be a nonnegative integer$"):
        peculiar_sweep(1, 1, seed, 1e-9)


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
    rng = np.random.default_rng([seed, 103])
    omega = np.empty((0, 2))
    while omega.shape[0] < n:
        cand = rng.uniform(0.5, 1.0, size=(2 * n, 2))
        omega = np.vstack([omega, cand[omega_contains(cand[:, 0], cand[:, 1])]])
    omega = omega[:n]
    heavy = sum(products[:, PAIRS.index(p)] for p in HEAVY_PAIRS)
    assert out["five_square_max"] == max(five_square_max(float(x), float(y)) for x, y in omega)
    totals = (
        float(_f_value(lam[j % n_lambda], x, y)) + float(heavy[j % n_lambda]) for j, (x, y) in enumerate(omega.tolist())
    )
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
    with pytest.raises(PreconditionError, match="undefined where xy = 1"):
        five_square_max(1.0, 1.0)


def test_f_eval_values_and_total(rng):
    # the region sweep's envelope f (``_f_value``)
    assert _f_value(np.array(HALF), 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert _f_value(np.array(HALF), 0.0, 0.0) == pytest.approx(0.75, abs=1e-15)
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
        assert _f_value(lam, x, y) + rest <= 2.0 + 1e-9


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
