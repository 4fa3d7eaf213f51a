"""Ceiling certification: witness, ascent quality, determinism, summaries."""

import numpy as np
import pytest

from isokit.admissible import AdmissibleSet, objective, peculiar_from, relation_residuals
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
