"""Ceiling certification: witness, ascent quality, determinism, summaries."""

import hashlib
import json
import signal
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from conftest import maximize_one

import isokit.certifier as certifier
from isokit.admissible import (
    CEILING,
    PAIRS,
    AdmissibleSet,
    from_contact_vectors,
    objective,
    pair_pos,
    peculiar_from,
    relation_residuals,
)
from isokit.bounds import pair_drop_sum, triple_drop_sum, zero_lambda_drop
from isokit.certifier import (
    _minors,
    _pattern,
    WITNESS_LAMBDA,
    WITNESS_SET,
    ZERO_WEIGHT_CEILING,
    certify_random,
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
    # zero on the disjoint pairs 13 and 24, +-1 elsewhere
    assert _pattern(WITNESS_SET, np.ones(10, dtype=bool)) == "pair_drop"


def test_pattern_names_drop_families_only(rng):
    live = np.ones(10, dtype=bool)
    # three parallel columns and two independent ones drop a triple
    V = np.array([[[1.0, 1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0]]])
    assert _pattern(_minors(V)[0], live) == "triple_drop"
    assert _pattern(-WITNESS_SET, live) == "pair_drop"
    off = WITNESS_SET.copy()
    off[0] -= 1e-8
    assert _pattern(off, live) == "other"
    # the peculiar family and a generic frame form no drop pattern
    assert _pattern(peculiar_from(0.6, 0.7).a, live) == "other"
    U = rng.normal(size=(6, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    assert _pattern(from_contact_vectors(U).a, live) == "other"
    # the minors of a weight-zero column are left out
    a = WITNESS_SET.copy()
    a[:4] = rng.uniform(-1.0, 1.0, size=4)
    assert _pattern(a, live) == "other"
    live[:4] = False
    assert _pattern(a, live) == "zero_lambda"


def test_equal_weights_attain_ceiling():
    cert = maximize_one([0.5] * 6, seed=1)
    assert cert.value == pytest.approx(2.0, abs=1e-9)
    assert cert.value <= CEILING + 1e-9
    assert cert.restarts == 64


def test_restarts_means_climbs():
    assert maximize_one([0.5] * 6, restarts=1).restarts == 1


def test_zero_weight_tight_case():
    cert = maximize_one([0.0, 0.6, 0.6, 0.6, 0.6, 0.6], seed=2)
    assert cert.value == pytest.approx(ZERO_WEIGHT_CEILING, abs=1e-9)
    assert cert.value <= ZERO_WEIGHT_CEILING + 1e-9


def test_random_lambdas_below_ceiling(rng):
    for k in range(30):
        lam = sample_lambda(rng)
        cert = maximize_one(lam, seed=[11, k], restarts=32)
        assert cert.value <= CEILING + 1e-6


def test_zero_first_below_reduced_ceiling(rng):
    for k in range(10):
        lam = sample_lambda(rng, zero_first=True)
        cert = maximize_one(lam, seed=[13, k], restarts=32)
        assert cert.value <= ZERO_WEIGHT_CEILING + 1e-6


def test_argmax_is_admissible(rng):
    for k in range(5):
        lam = sample_lambda(rng)
        cert = maximize_one(lam, seed=[17, k], restarts=16)
        S = AdmissibleSet(cert.argmax, rel_tol=1e-8)
        assert objective(S.as_array(), cert.lam) == pytest.approx(cert.value, abs=1e-12)


def test_determinism():
    a = maximize_one([0.5] * 6, seed=42)
    b = maximize_one([0.5] * 6, seed=42)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)
    assert a.sweeps == b.sweeps


def test_parameter_validation():
    with pytest.raises(InvariantError):
        maximize_one([1.0] * 6)  # weights sum to 6
    with pytest.raises(InvariantError):
        maximize_one([1.0, 0.5, 0.5, 0.5, 0.4, 0.1])  # max not last
    for restarts in (0, 10**4 + 1):
        with pytest.raises(PreconditionError, match="restarts"):
            certify_random(n_lambda=1, restarts=restarts)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_certify_random_refuses_a_non_finite_tol(tol):
    # a NaN tol compares false against every value and would drop every violation
    with pytest.raises(PreconditionError, match="^tol must be finite$"):
        certify_random(5, 8, 0, False, tol)
    assert len(certify_random(5, 8, 0, False, -1.0)["violations"]) == 3  # a negative finite tol still runs


def test_certify_random_summary():
    rep = certify_random(n_lambda=5, restarts=16, seed=0)
    assert rep["n_lambda"] == 5
    assert rep["bound"] == CEILING
    assert rep["violations"] == []
    assert rep["global_max"] <= CEILING + 1e-6
    assert rep["witness_value"] == 2.0
    assert sum(rep["boundary_kinds"].values()) == 5
    assert len(rep["argmax_lambda"]) == 6 and len(rep["argmax_set"]) == 10


def test_certify_random_zero_first():
    rep = certify_random(n_lambda=4, restarts=16, seed=1, first_weight_zero=True)
    assert rep["bound"] == ZERO_WEIGHT_CEILING
    assert rep["violations"] == []
    assert rep["witness_value"] is None
    assert all(v["lambda"][0] == 0.0 for v in rep["violations"])


#: the two affine charts of the relation variety: pivot pair, free pairs; the
#: entries neither free nor derived (a_12 on the a_13 chart) are zero
_CHARTS = {
    "a12": ((1, 2), ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    "a13": ((1, 3), ((1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5))),
}


@pytest.mark.parametrize("chart", sorted(_CHARTS))
def test_charts_obey_the_relation_table(rng, chart):
    # every chart point, free coordinates anywhere in the box and the pivot
    # away from zero, is the minor vector of v_1 = (1, 0), v_j = (0, a_1j),
    # v_i = (a_ij / a_1j, a_1i): the column parametrization reaches both
    # charts, gives back their free entries and solves all five relations
    (_, j), free = _CHARTS[chart]
    S = rng.uniform(-1.0, 1.0, size=(500, len(free)))
    S[:, 0] = rng.choice([-1.0, 1.0], size=500) * rng.uniform(0.2, 1.0, size=500)
    entry = {p: S[:, c] for c, p in enumerate(free)}

    def a(i, k):
        pos, s = pair_pos(i, k)
        return s * entry.get(PAIRS[pos], np.zeros(500))

    V = np.zeros((500, 2, 5))
    V[:, 0, 0] = 1.0
    for i in range(2, 6):
        V[:, 1, i - 1] = a(1, i)
        if i != j:
            V[:, 0, i - 1] = a(i, j) / S[:, 0]
    m = _minors(V)
    assert np.max(np.abs(m[:, [pair_pos(*p)[0] for p in free]] - S)) <= 1e-15
    if (1, 2) not in free:
        assert not m[:, pair_pos(1, 2)[0]].any()
    res = relation_residuals(m)
    assert res.shape == (500, 5)
    assert np.max(np.abs(res)) <= 1e-12


def test_minors_obey_the_relation_table(rng):
    # the minors of any 2x5 matrix solve the five relations, and by
    # Cauchy-Binet det(V diag(lam_1..lam_5) V^T) is the objective
    V = rng.normal(size=(2000, 2, 5))
    a = _minors(V)
    res = relation_residuals(a)
    assert res.shape == (2000, 5)
    assert np.max(np.abs(res)) <= 1e-13
    lam = np.array([sample_lambda(rng) for _ in range(2000)])
    det = np.linalg.det(V @ (lam[:, :5, None] * V.transpose(0, 2, 1)))
    value = np.array([objective(ai, li) for ai, li in zip(a, lam)])
    assert np.max(np.abs(det - value) / value) <= 1e-13


def _same_certificate(a, b):
    return (
        a.value == b.value
        and a.argmax.tobytes() == b.argmax.tobytes()
        and a.lam.tobytes() == b.lam.tobytes()
        and (a.restarts, a.sweeps, a.pattern) == (b.restarts, b.sweeps, b.pattern)
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
        alone = maximize_one(cert.lam, restarts=restarts, seed=[9, k, 1])
        assert _same_certificate(cert, alone), k


@pytest.mark.parametrize(
    "zero_first, global_max, argmax_lambda, kinds, digest",
    [
        (False, "0x1.0000000000000p+1", [0.5] * 6, {"pair_drop": 11, "triple_drop": 9}, "aa5869f284fd605f"),
        (
            True,
            "0x1.ac6f310c81e9dp+0",
            [0.0, 0.4754030298003722, 0.48224251844123667, 0.6194919378231366, 0.6849865419110396, 0.737875972024215],
            {"zero_lambda": 20},
            "61930fce4da41a39",
        ),
    ],
)
def test_certify_seeded_streams_are_pinned(capsys, monkeypatch, zero_first, global_max, argmax_lambda, kinds, digest):
    # ``certify --samples 20 --restarts 64 --seed 42``; the digest covers
    # every certificate's value, argmax bits and sweeps, which the report
    # alone does not pin (the maxima are robust to the starts)
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
    assert out["boundary_kinds"] == {"pair_drop": 0, "triple_drop": 0, "zero_lambda": 0, "other": 0} | kinds
    assert out["violations"] == []
    h = hashlib.sha256()
    for c in certs:
        h.update(np.float64(c.value).tobytes() + c.argmax.tobytes() + f"{c.sweeps};".encode())
    assert (len(certs), h.hexdigest()[:16]) == (20, digest)


def test_starts_settle_in_the_box():
    # vector 40 of ``certify --seed 1253616351``: its start 38 has a minor
    # of -1 - 9e-16 that cancels two products of about 6, and a fixed
    # shrink of 2^-52 rounds it further from the box on every round, so the
    # rescaling must end by a growing step (the alarm turns a hang into a
    # failure)
    def hang(*_):
        raise TimeoutError("start rescaling did not settle")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        V, M = certifier._starts([np.random.default_rng([1253616351, 40, 1])], 64)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.array_equal(M, _minors(V))
    assert np.abs(M).max() <= 1.0
    assert np.abs(M).max(axis=-1).min() >= 1.0 - 1e-12  # each start still touches the box


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
        cert = maximize_one(lam, restarts=1024, seed=[31, k])
        assert cert.value <= CEILING + 1e-9, (lam, cert.value)
    assert cert.restarts == 1024


_DISJOINT_PAIRS = [(kl, mn) for kl, mn in combinations(combinations(range(1, 6), 2), 2) if not set(kl) & set(mn)]
_TRIPLES = list(combinations(range(1, 6), 3))


def _instance_sum(pattern, lam, dropped):
    """The named drop instance's sum, from the pairs it drops, by the bound functions."""
    if pattern == "pair_drop":
        return pair_drop_sum(lam, *dropped)
    if pattern == "triple_drop":
        return triple_drop_sum(lam, sorted({i for pair in dropped for i in pair}))
    return zero_lambda_drop(lam, *dropped)


#: the patterns of criterion 6's certificates, by ``zero_first``
_CENSUS = {False: {"pair_drop": 611, "triple_drop": 389}, True: {"zero_lambda": 200}}


@pytest.mark.parametrize("n_lambda, zero_first", [(1000, False), (200, True)])
def test_certificates_reach_every_drop_pattern(monkeypatch, n_lambda, zero_first):
    # criterion 6's runs, checked apart from the solver: each of the 15 pair
    # drops and 10 triple drops is the value of an admissible set with
    # columns e1, e2 and (1, 1) (v_k = v_l = e1, v_m = v_n = e2, v_r = (1, 1)
    # drops kl and mn), so no certificate may fall below the best of them;
    # each argmax is an admissible set, within rounding, of that value; and
    # each names the drop instance it attains: its zero minors, those of the
    # weight-zero column 1 left out, are the instance's dropped pairs, and
    # its value is the instance's sum
    certs = []

    def spy(*args):
        block = maximize_block(*args)
        certs.extend(block)
        return block

    maximize_block = certifier._maximize_block
    monkeypatch.setattr(certifier, "_maximize_block", spy)
    rep = certify_random(n_lambda=n_lambda, restarts=64, seed=42, first_weight_zero=zero_first)
    assert len(certs) == n_lambda
    assert rep["boundary_kinds"] == {"pair_drop": 0, "triple_drop": 0, "zero_lambda": 0, "other": 0} | _CENSUS[zero_first]
    a = np.array([c.argmax for c in certs])
    assert np.abs(a).max() <= 1.0
    if zero_first:
        assert not a[:, :4].any()  # the minors of column 1, of weight 0
    assert np.abs(relation_residuals(a)).max() <= 1e-13
    assert max(abs(objective(c.argmax, c.lam) - c.value) for c in certs) <= 1e-14
    low = []
    for k, c in enumerate(certs):
        drops = [pair_drop_sum(c.lam, kl, mn) for kl, mn in _DISJOINT_PAIRS]
        drops += [triple_drop_sum(c.lam, t) for t in _TRIPLES]
        if c.value < max(drops) - 1e-12:
            low.append((k, c.value, max(drops)))
        assert c.pattern != "other", k
        dropped = [PAIRS[p] for p in np.flatnonzero(np.abs(c.argmax) <= 1e-9) if PAIRS[p][0] != 1 or not zero_first]
        assert abs(c.value - _instance_sum(c.pattern, c.lam, dropped)) <= 1e-12, k
    assert low == []
