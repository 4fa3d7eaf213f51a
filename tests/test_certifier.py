"""Ceiling certification: witness, ascent quality, determinism, summaries."""

import hashlib
import json
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

import isokit.certifier as certifier
from isokit.admissible import (
    HEAVY_PAIRS,
    PAIRS,
    AdmissibleSet,
    objective,
    pair_pos,
    peculiar_forced,
    peculiar_from,
    relation_residuals,
)
from isokit.certifier import (
    _CHART_A,
    _CHART_B,
    _derived,
    CEILING,
    WITNESS_LAMBDA,
    WITNESS_SET,
    ZERO_WEIGHT_CEILING,
    boundary_structure_check,
    certify_random,
    maximize_objective,
    witness_value,
)
from isokit.cli import main
from isokit.errors import InvariantError, PreconditionError


def sample_lambda(rng, zero_first=False):
    cuts = np.sort(rng.uniform(0.0, 1.0, size=4 if zero_first else 5))
    lam = np.sort(np.diff(np.concatenate([[0.0], cuts, [1.0]])) * 3.0)
    if zero_first:
        return np.concatenate([[0.0], lam])
    return lam


def test_witness_is_exact():
    assert witness_value() == 2.0
    AdmissibleSet(WITNESS_SET)  # relations and box hold exactly
    assert objective(WITNESS_SET, WITNESS_LAMBDA) == 2.0
    b = boundary_structure_check(WITNESS_SET)
    assert b["classified"]
    assert len(b["zero_pairs"]) == 2
    assert b["peculiar_permutation"] is not None


def test_equal_weights_attain_ceiling():
    cert = maximize_objective([0.5] * 6, seed=1)
    assert cert.value == pytest.approx(2.0, abs=1e-9)
    assert cert.value <= CEILING + 1e-9
    assert cert.restarts == 64


def test_zero_weight_tight_case():
    cert = maximize_objective([0.0, 0.6, 0.6, 0.6, 0.6, 0.6], seed=2)
    assert cert.value == pytest.approx(ZERO_WEIGHT_CEILING, abs=1e-9)
    assert cert.value <= ZERO_WEIGHT_CEILING + 1e-9


def test_random_lambdas_below_ceiling(rng):
    for k in range(30):
        lam = sample_lambda(rng)
        cert = maximize_objective(lam, seed=[11, k], restarts=32)
        assert cert.value <= CEILING + 1e-6


def test_zero_first_below_reduced_ceiling(rng):
    for k in range(10):
        lam = sample_lambda(rng, zero_first=True)
        cert = maximize_objective(lam, seed=[13, k], restarts=32)
        assert cert.value <= ZERO_WEIGHT_CEILING + 1e-6


def test_argmax_is_admissible(rng):
    for k in range(5):
        lam = sample_lambda(rng)
        cert = maximize_objective(lam, seed=[17, k], restarts=16)
        S = AdmissibleSet(cert.argmax, rel_tol=1e-8)
        assert objective(S.as_array(), cert.lam) == pytest.approx(cert.value, abs=1e-12)


def test_determinism():
    a = maximize_objective([0.5] * 6, seed=42)
    b = maximize_objective([0.5] * 6, seed=42)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)
    assert a.chart == b.chart


def test_parameter_validation():
    with pytest.raises(InvariantError):
        maximize_objective([1.0] * 6)  # weights sum to 6
    with pytest.raises(InvariantError):
        maximize_objective([1.0, 0.5, 0.5, 0.5, 0.4, 0.1])  # max not last
    with pytest.raises(PreconditionError):
        maximize_objective([0.5] * 6, eps=0.5)
    with pytest.raises(PreconditionError):
        maximize_objective([0.5] * 6, eps=0.0)


def test_certify_random_summary():
    rep = certify_random(n_lambda=5, restarts=16, seed=0)
    assert rep["n_lambda"] == 5
    assert rep["bound"] == CEILING
    assert rep["violations"] == []
    assert rep["max_value"] <= CEILING + 1e-6
    assert rep["witness_value"] == 2.0
    assert sum(rep["boundary_kinds"].values()) == 5
    assert len(rep["argmax_lambda"]) == 6 and len(rep["argmax_set"]) == 10


def test_certify_random_zero_first():
    rep = certify_random(n_lambda=4, restarts=16, seed=1, first_weight_zero=True)
    assert rep["bound"] == ZERO_WEIGHT_CEILING
    assert rep["violations"] == []
    assert rep["witness_value"] is None
    assert all(v["lambda"][0] == 0.0 for v in rep["violations"])


def test_generic_frame_unclassified(rng):
    from isokit.admissible import from_contact_vectors

    U = rng.normal(size=(6, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    b = boundary_structure_check(from_contact_vectors(U).as_array())
    assert not b["classified"]


@pytest.mark.parametrize("chart", [_CHART_A, _CHART_B], ids=lambda c: c["name"])
def test_charts_obey_the_relation_table(rng, chart):
    # free coordinates anywhere in the box, the pivot away from zero; the
    # derived entries must complete a solution of all five relations
    S = rng.uniform(-1.0, 1.0, size=(500, len(chart["free"])))
    S[:, 0] = rng.choice([-1.0, 1.0], size=500) * rng.uniform(0.2, 1.0, size=500)
    a = np.zeros((500, 10))
    a[:, chart["free"]] = S
    a[:, chart["derived"]] = _derived(S, chart["quads"])
    res = relation_residuals(a)
    assert res.shape == (500, 5)
    assert np.max(np.abs(res)) <= 1e-12


def test_peculiar_members_classify_as_peculiar(rng):
    # the constructor and the classifier share one magnitude pattern, so
    # every member away from the tol edges is found unpermuted
    checked = 0
    while checked < 200:
        x, y = rng.uniform(0.01, 1.0, size=2)
        if x + y < 1.0:
            continue
        b = boundary_structure_check(peculiar_from(x, y).a)
        assert b["peculiar_permutation"] == [1, 2, 3, 4, 5], (x, y)
        checked += 1


def _same_certificate(a, b):
    return (
        a.value == b.value
        and a.argmax.tobytes() == b.argmax.tobytes()
        and a.lam.tobytes() == b.lam.tobytes()
        and (a.chart, a.restarts, a.sweeps, a.boundary) == (b.chart, b.restarts, b.sweeps, b.boundary)
    )


@pytest.mark.parametrize(
    "n_lambda, restarts, zero_first, budget",
    [(6, 16, False, None), (4, 16, True, None), (7, 16, False, 32), (5, 3, True, 8)],
)
def test_a_block_changes_no_certificate(monkeypatch, n_lambda, restarts, zero_first, budget):
    # every weight vector of a certify_random block gets, bit for bit, the
    # certificate it gets alone; the small budgets split a run into blocks
    # of two vectors
    blocks = []

    def spy(lam, rngs, *args):
        certs = maximize_block(lam, rngs, *args)
        blocks.append(certs)
        return certs

    maximize_block = certifier._maximize_block
    monkeypatch.setattr(certifier, "_maximize_block", spy)
    if budget is not None:
        monkeypatch.setattr(certifier, "_BLOCK_ROWS", budget)
    certify_random(n_lambda=n_lambda, restarts=restarts, seed=9, first_weight_zero=zero_first)
    monkeypatch.undo()
    certs = [c for block in blocks for c in block]
    assert len(certs) == n_lambda
    assert len(blocks) == (1 if budget is None else -(-n_lambda // 2))
    for k, cert in enumerate(certs):
        alone = maximize_objective(cert.lam, restarts=restarts, seed=[9, k, 1])
        assert _same_certificate(cert, alone), k


@pytest.mark.parametrize(
    "zero_first, global_max, argmax_lambda, digest",
    [
        (False, "0x1.0000000000000p+1", [0.5] * 6, "56ba7b5b8b81ce4f"),
        (
            True,
            "0x1.ac6f310c81e9cp+0",
            [0.0, 0.4754030298003722, 0.48224251844123667, 0.6194919378231366, 0.6849865419110396, 0.737875972024215],
            "c427e6da28a78b5c",
        ),
    ],
)
def test_certify_seeded_streams_are_pinned(capsys, monkeypatch, zero_first, global_max, argmax_lambda, digest):
    # ``certify --samples 20 --restarts 64 --seed 42`` as the per-vector
    # ascent that preceded the batched one reported it; the digest covers
    # every certificate's value, argmax bits, chart and sweeps, which the
    # report alone does not pin (the maxima are robust to the starts)
    certs = []

    def spy(*args):
        block = maximize_block(*args)
        certs.extend(block)
        return block

    maximize_block = certifier._maximize_block
    monkeypatch.setattr(certifier, "_maximize_block", spy)
    argv = ["certify", "--samples", "20", "--restarts", "64", "--seed", "42"]
    assert main(argv + (["--zero-first"] if zero_first else [])) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["global_max"]).hex() == global_max
    assert out["argmax_lambda"] == argmax_lambda
    assert out["boundary_kinds"] == {"zero_entry": 20, "peculiar": 0, "unclassified": 0}
    assert out["violations"] == []
    h = hashlib.sha256()
    for c in certs:
        h.update(np.float64(c.value).tobytes() + c.argmax.tobytes() + f"{c.chart}:{c.sweeps};".encode())
    assert (len(certs), h.hexdigest()[:16]) == (20, digest)


def test_certify_memory_follows_a_block(monkeypatch):
    # with a budget of 256 rows, 8 weight vectors at 128 restarts are four
    # blocks of two; the traced peak was 74 KiB, and 174 KiB with the whole
    # run in one block (the budget is shrunk so that the test takes about a
    # second; the peak grows with the rows a block holds)
    monkeypatch.setattr(certifier, "_BLOCK_ROWS", 256)
    certify_random(n_lambda=1, restarts=8, seed=1)
    tracemalloc.start()
    try:
        certify_random(n_lambda=8, restarts=128, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * 1024


def _relabeled(a, sigma):
    return np.array([s * a[k] for k, s in (pair_pos(sigma[i - 1], sigma[j - 1]) for i, j in PAIRS)])


def _reference_peculiar_permutation(a, tol=1e-4):
    # one permutation at a time, in itertools order
    mag = np.abs(np.asarray(a, float))

    def m(i, j, perm):
        return mag[pair_pos(perm[i - 1], perm[j - 1])[0]]

    for perm in permutations(range(1, 6)):
        if any(abs(m(i, j, perm) - 1.0) > tol for i, j in HEAVY_PAIRS):
            continue
        x, y = m(1, 4, perm), m(1, 5, perm)
        if x <= tol or y <= tol or x + y < 1.0 - tol:
            continue
        if all(abs(m(i, j, perm) - f) <= 10.0 * tol for (i, j), f in peculiar_forced(x, y).items()):
            return list(perm)
    return None


def test_boundary_check_matches_the_permutation_loop(rng):
    sets = [_relabeled(WITNESS_SET, sigma) for sigma in permutations(range(1, 6))]
    while len(sets) < 120 + 400:
        x, y = rng.uniform(0.01, 1.0, size=2)
        if x + y >= 1.0:
            a = peculiar_from(x, y).a
            sets += [a, _relabeled(a, tuple(rng.permutation(5) + 1))]
    found = set()
    for a in sets:
        b = boundary_structure_check(a)
        assert b["peculiar_permutation"] == _reference_peculiar_permutation(a), a
        found.add(tuple(b["peculiar_permutation"] or ()))
    assert len(found) > 10  # the relabelings reach many different first matches


def test_tight_families_stay_under_the_ceiling_at_1024_restarts():
    # the tight cases named by the bounds, three weights at 0.4 and three at
    # 0.6, and equal weights 1/2, with small perturbations of 1/2 that keep
    # the sum 3 and the largest weight last
    rng = np.random.default_rng(2024)
    lams = [np.array([0.4, 0.4, 0.4, 0.6, 0.6, 0.6]), WITNESS_LAMBDA]
    for eps in (1e-6, 1e-4, 1e-2, 1e-2, 5e-2):
        d = rng.uniform(-1.0, 1.0, size=6)
        lams.append(np.sort(0.5 + eps * (d - d.mean())))
    for k, lam in enumerate(lams):
        cert = maximize_objective(lam, restarts=1024, seed=[31, k])
        assert cert.value <= CEILING + 1e-9, (lam, cert.value)
    assert cert.restarts == 1024
