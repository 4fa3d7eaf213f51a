"""Weight-product inequalities: tight cases, random sweeps, grid harness."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from isokit.admissible import HEAVY_PAIRS, PAIRS, lambda_pair_products, sample_lambda
from isokit.bounds import (
    drop_patterns,
    grid_verify_all,
    pair_drop_sum,
    triple_drop_sum,
    weighted_sum,
    zero_lambda_drop,
)
from isokit.cli import render_json
from isokit.errors import PreconditionError

HALF = [0.5] * 6
TRIPLE_TIGHT = [0.4, 0.4, 0.4, 0.6, 0.6, 0.6]
ZERO_TIGHT = [0.0, 0.6, 0.6, 0.6, 0.6, 0.6]


def random_lambda(rng):
    raw = np.sort(rng.uniform(0.0, 1.0, size=5))
    return np.sort(np.diff(np.concatenate([[0.0], raw, [1.0]])) * 3.0)


def test_tight_values():
    assert pair_drop_sum(HALF, (2, 3), (1, 4)) == pytest.approx(2.0, abs=1e-12)
    assert triple_drop_sum(TRIPLE_TIGHT, (1, 2, 3)) == pytest.approx(9.0 / 5.0, abs=1e-12)
    assert zero_lambda_drop(ZERO_TIGHT, (2, 3)) == pytest.approx(9.0 / 5.0, abs=1e-12)
    assert weighted_sum(HALF) == pytest.approx(2.0, abs=1e-12)


def test_index_validation():
    with pytest.raises(IndexError):
        pair_drop_sum(HALF, (1, 2), (2, 3))  # overlapping
    with pytest.raises(IndexError):
        pair_drop_sum(HALF, (1, 1), (2, 3))
    with pytest.raises(IndexError):
        triple_drop_sum(HALF, (1, 2, 2))
    with pytest.raises(IndexError):
        zero_lambda_drop(ZERO_TIGHT, (1, 2))  # index 1 not allowed
    with pytest.raises(PreconditionError):
        zero_lambda_drop(HALF, (2, 3))  # first weight must vanish


def test_random_sweep_all_instances(rng):
    # every index instance of every bound on random weight vectors
    from itertools import combinations

    pair_instances = [
        (kl, mn)
        for kl, mn in combinations(list(combinations(range(1, 6), 2)), 2)
        if not set(kl) & set(mn)
    ]
    for _ in range(200):
        lam = random_lambda(rng)
        for kl, mn in pair_instances:
            assert pair_drop_sum(lam, kl, mn) <= 2.0 + 1e-9
        for klm in combinations(range(1, 6), 3):
            assert triple_drop_sum(lam, klm) <= 9.0 / 5.0 + 1e-9
        assert weighted_sum(lam) <= 2.0 + 1e-9
        lam0 = lam.copy()
        lam0[1] += lam0[0]
        lam0[0] = 0.0
        lam0 = np.sort(lam0)
        for kl in combinations(range(2, 6), 2):
            assert zero_lambda_drop(lam0, kl) <= 9.0 / 5.0 + 1e-9


def test_grid_coarse_tight_at_half():
    rep = grid_verify_all(0.25)
    assert rep["violations"] == []
    assert rep["n_points"] == 58
    assert rep["max_value"] == pytest.approx(0.0, abs=1e-12)
    assert rep["argmax_lambda"] == [0.5] * 6
    fams = rep["families"]
    assert fams["pair_drop"]["max_value"] == pytest.approx(2.0, abs=1e-12)
    assert fams["weighted"]["max_value"] == pytest.approx(2.0, abs=1e-12)
    assert fams["pair_drop"]["instances"] == 15
    assert fams["triple_drop"]["instances"] == 10
    assert fams["zero_lambda"]["instances"] == 6
    assert fams["weighted"]["instances"] == 12


def test_grid_fine_no_violations():
    rep = grid_verify_all(0.05)
    assert rep["violations"] == []
    assert rep["max_value"] <= 1e-12
    fams = rep["families"]
    assert fams["triple_drop"]["max_value"] == pytest.approx(9.0 / 5.0, abs=1e-12)
    assert fams["zero_lambda"]["max_value"] == pytest.approx(9.0 / 5.0, abs=1e-12)


def test_grid_step_domain():
    with pytest.raises(PreconditionError):
        grid_verify_all(0.0)
    with pytest.raises(PreconditionError):
        grid_verify_all(0.6)
    with pytest.raises(PreconditionError):
        grid_verify_all(0.009)  # below the finest legal step, 0.01
    grid_verify_all(0.5)  # coarsest legal grid


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
def test_grid_tol_must_be_finite(tol):
    with pytest.raises(PreconditionError):  # the verdict compares against tol exactly
        grid_verify_all(0.5, tol=tol)


def _sorted_grid(n):
    """Nondecreasing integer 6-tuples summing to n, brute force, in lexicographic order."""
    return [list(t) for t in combinations_with_replacement(range(n + 1), 6) if sum(t) == n]


_DISJOINT = [(kl, mn) for kl, mn in combinations(combinations(range(1, 6), 2), 2) if not set(kl) & set(mn)]
#: name -> (bound, index instances, scalar reference, rows it covers)
_SCALAR_FAMILIES = {
    "pair_drop": (2.0, _DISJOINT, lambda lam, ix: pair_drop_sum(lam, *ix), lambda lam: True),
    "triple_drop": (9.0 / 5.0, list(combinations(range(1, 6), 3)), triple_drop_sum, lambda lam: True),
    "zero_lambda": (9.0 / 5.0, list(combinations(range(2, 6), 2)), zero_lambda_drop, lambda lam: lam[0] == 0),
}


def _reference_blocks(n):
    """The prefix blocks by masking a box of (k3, k4, k5) candidates, as (k1, rows x 6 ints)."""
    for k1 in range(n // 6 + 1):
        for k2 in range(k1, (n - k1) // 5 + 1):
            r = n - k1 - k2
            a, b, c = np.ogrid[k2 : r // 4 + 1, k2 : r // 3 + 1, k2 : r // 2 + 1]
            k3, k4, k5 = (k2 + i for i in np.nonzero((a <= b) & (b <= c) & (a + b + 2 * c <= r)))
            yield k1, np.column_stack([np.full_like(k3, k1), np.full_like(k3, k2), k3, k4, k5, r - k3 - k4 - k5])


@pytest.mark.parametrize("n", [6, 7, 12, 25])
def test_grid_blocks_enumerate_the_sorted_grid_in_order(n):
    from isokit.bounds import _grid_blocks

    blocks = list(_grid_blocks(n))
    assert np.concatenate([K for _, K in blocks], axis=1).T.tolist() == _sorted_grid(n)
    for k1, K in blocks:  # one block per (k1, k2) prefix, one grid point per column
        assert K.shape[0] == 6 and (K[0] == k1).all() and (K[1] == K[1, 0]).all()
    assert len({tuple(K[:2, 0]) for _, K in blocks}) == len(blocks)


@pytest.mark.parametrize("n", [6, 7, 12, 25, 60, 150])
def test_grid_blocks_match_the_masked_box(n):
    from isokit.bounds import _grid_blocks

    got, want = list(_grid_blocks(n)), list(_reference_blocks(n))
    assert len(got) == len(want)
    for (k1, K), (ref_k1, ref) in zip(got, want):
        assert k1 == ref_k1 and K.dtype == float and np.array_equal(K.T, ref)


def test_grid_violations_are_the_first_100_in_row_major_order():
    grid = [[3.0 * k / 12 for k in t] for t in _sorted_grid(12)]  # step 0.25
    rep = grid_verify_all(0.25, tol=-10.0)  # every instance is a violation
    assert rep["n_points"] == len(grid) == 58
    got = rep["violations"]
    assert len(got) == 4 * 100
    families = dict(_SCALAR_FAMILIES, weighted=(2.0, [f"pattern_{i}" for i in range(12)], None, None))
    for f, (name, (bound, labels, value, covers)) in enumerate(families.items()):
        want = [(lam, ix) for lam in grid if covers is None or covers(lam) for ix in labels][:100]
        for v, (lam, ix) in zip(got[100 * f : 100 * (f + 1)], want):
            assert (v["family"], v["lambda"], v["indices"], v["bound"]) == (name, lam, ix, bound)
            if value is not None:
                assert v["value"] == pytest.approx(value(lam, ix), abs=1e-12)
            elif ix == "pattern_0":  # the unrelabeled pattern is weighted_sum's
                assert v["value"] == pytest.approx(weighted_sum(lam), abs=1e-12)


def test_grid_violations_where_some_blocks_have_none():
    # at tol -0.32 only some prefix blocks hold a violation; a block is
    # scanned only when its maximum excess passes tol, and none that holds
    # one may be skipped (step 0.25 keeps every value exact)
    grid = [[k / 4 for k in t] for t in _sorted_grid(12)]
    rep = grid_verify_all(0.25, tol=-0.32)
    for name, (bound, labels, value, covers) in _SCALAR_FAMILIES.items():
        want = [(lam, ix) for lam in grid if covers(lam) for ix in labels if value(lam, ix) > bound - 0.32]
        got = [(v["lambda"], v["indices"]) for v in rep["violations"] if v["family"] == name]
        assert got == want[:100] and 0 < len(want) < sum(map(covers, grid)) * len(labels), name


def test_grid_argmax_is_the_first_maximum_in_row_major_order():
    # at step 0.25 every weight is a multiple of 1/4, so all values are
    # exact and ties between grid points are real ties
    grid = [[k / 4 for k in t] for t in _sorted_grid(12)]
    rep = grid_verify_all(0.25)
    for name, (bound, labels, value, covers) in _SCALAR_FAMILIES.items():
        rows = [lam for lam in grid if covers(lam)]
        best = [max(value(lam, ix) for ix in labels) for lam in rows]
        fam = rep["families"][name]
        assert fam["max_value"] == max(best)
        assert fam["argmax_lambda"] == rows[best.index(max(best))], name
    assert rep["families"]["zero_lambda"]["argmax_lambda"] == [0, 0, 0.75, 0.75, 0.75, 0.75]


def test_grid_memory_follows_a_block_not_the_grid():
    import tracemalloc

    tracemalloc.start()
    try:
        rep = grid_verify_all(0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["n_points"] == 189509 and rep["violations"] == []
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_drop_patterns_are_the_drop_instances():
    # each key is the set of pairs an instance drops, and the objective of
    # a pattern that is 0 there and +-1 elsewhere is that instance's sum
    table = drop_patterns()
    assert Counter(table.values()) == {"pair_drop": 15, "triple_drop": 10, "zero_lambda": 6}
    rng = np.random.default_rng(4)
    lam, lam0 = sample_lambda(rng), sample_lambda(rng, True)
    for zero, name in table.items():
        dropped = [PAIRS[k] for k in zero]
        if name == "pair_drop":
            L, want = lam, pair_drop_sum(lam, *dropped)
        elif name == "triple_drop":
            L, want = lam, triple_drop_sum(lam, sorted({i for pair in dropped for i in pair}))
        else:
            L, want = lam0, zero_lambda_drop(lam0, *dropped)
        p = lambda_pair_products(L)
        assert p.sum() - p[sorted(zero)].sum() == pytest.approx(want, abs=1e-15), (name, dropped)


#: the twelve relabelings of the 3/5 pattern, as heavy pairs, in order of first appearance
_PATTERNS = list(
    dict.fromkeys(frozenset(frozenset((p[i - 1], p[j - 1])) for i, j in HEAVY_PAIRS) for p in permutations(range(1, 6)))
)
_EXACT_BOUNDS = {
    "pair_drop": Fraction(2),
    "triple_drop": Fraction(9, 5),
    "zero_lambda": Fraction(9, 5),
    "weighted": Fraction(2),
}


def _exact_instances(lam):
    """family -> [(indices, value)] at one weight vector of Fractions, every instance in order."""
    prod = {(i, j): lam[i - 1] * lam[j - 1] for i, j in combinations(range(1, 6), 2)}
    total = sum(prod.values())
    return {
        "pair_drop": [((kl, mn), total - prod[kl] - prod[mn]) for kl, mn in _DISJOINT],
        "triple_drop": [
            ((k, l, m), total - prod[k, l] - prod[l, m] - prod[k, m]) for k, l, m in combinations(range(1, 6), 3)
        ],
        "zero_lambda": [(kl, total - prod[kl]) for kl in combinations(range(2, 6), 2)] if lam[0] == 0 else [],
        "weighted": [
            (f"pattern_{i}", sum(v if frozenset(pair) in heavy else Fraction(3, 5) * v for pair, v in prod.items()))
            for i, heavy in enumerate(_PATTERNS)
        ],
    }


@pytest.mark.parametrize("n", [7, 15])  # steps 3/7 and 0.2: neither is dyadic, so no float sum is exact
def test_grid_matches_an_exact_oracle(n):
    rows = [([3.0 * k / n for k in t], _exact_instances([Fraction(3 * k, n) for k in t])) for t in _sorted_grid(n)]
    rep = grid_verify_all(3 / n)
    every = grid_verify_all(3 / n, tol=-10.0)  # every instance is a violation
    assert rep["n_points"] == every["n_points"] == len(rows)
    assert rep["violations"] == []  # every bound holds, at 3/7 with slack and at 0.2 with equality
    excess = {}
    for name, bound in _EXACT_BOUNDS.items():
        best = [(max(v for _, v in inst[name]), lam) for lam, inst in rows if inst[name]]
        top = max(b for b, _ in best)
        fam = rep["families"][name]
        assert fam["max_value"] == float(top), name
        assert fam["argmax_lambda"] == next(lam for b, lam in best if b == top), name
        want = [(lam, ix, float(v)) for lam, inst in rows for ix, v in inst[name]][:100]
        got = [(v["lambda"], v["indices"], v["value"]) for v in every["violations"] if v["family"] == name]
        assert got == want, name
        excess[name] = top - bound
    worst = max(excess, key=excess.get)
    assert (rep["worst_family"], rep["max_value"]) == (worst, float(excess[worst]))
    assert rep["argmax_lambda"] == rep["families"][worst]["argmax_lambda"]


def test_grid_maxima_are_exact_at_step_0_02():
    rep = grid_verify_all(0.02)
    maxima = {name: fam["max_value"] for name, fam in rep["families"].items()}
    assert maxima == {"pair_drop": 2.0, "triple_drop": 1.8, "zero_lambda": 1.8, "weighted": 2.0}
    assert rep["max_value"] == 0.0 and rep["worst_family"] == "pair_drop"
    assert rep["argmax_lambda"] == [0.5] * 6
    assert rep["violations"] == [] and rep["n_points"] == 1229120


def test_grid_report_at_step_0_02_is_pinned():
    # 400 violations, each family's first 100 in row-major order, rounded once
    rep = grid_verify_all(0.02, tol=-0.32)
    assert len(rep["violations"]) == 400
    digest = hashlib.sha256(render_json(rep).encode()).hexdigest()
    assert digest == "2cbf8b1eb9fb403ef1fbae0a070cf240a4cc9fab856652ec85e116a640852720"
