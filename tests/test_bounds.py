"""Weight-product inequalities: tight cases, random sweeps, grid harness."""

import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
import pytest

from isokit.admissible import HEAVY_PAIRS, PAIRS, _f_value, lambda_pair_products, omega_contains, sample_lambda
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


def _expand_lines(K, n):
    """Each line (k1, k2, k3, k4, hi) from its low end k5 = k4 to its high end, as rows x 6 ints."""
    rows = [[*line[:4], k5] for line in K.T.astype(int).tolist() for k5 in range(line[3], line[4] + 1)]
    k = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return np.column_stack([k, n - k.sum(axis=1)])


@pytest.mark.parametrize("n", [6, 7, 12, 25])
def test_grid_lines_enumerate_the_sorted_grid_in_order(n):
    from isokit.bounds import _grid_lines

    blocks = list(_grid_lines(n))
    assert [k1 for k1, _ in blocks] == list(range(n // 6 + 1))  # one block per k1
    for k1, K in blocks:  # one line per (k2, k3, k4), none empty, k5 up to k6
        assert K.shape[0] == 5 and (K[0] == k1).all() and (K[3] <= K[4]).all()
        assert np.array_equal(K[4], (n - K[:4].sum(axis=0)) // 2)
    assert np.concatenate([_expand_lines(K, n) for _, K in blocks]).tolist() == _sorted_grid(n)


@pytest.mark.parametrize("n", [6, 7, 12, 25, 60, 150])
def test_grid_lines_match_the_masked_box(n):
    from isokit.bounds import _grid_lines, _line_points

    want = {}
    for k1, ref in _reference_blocks(n):
        want.setdefault(k1, []).append(ref)
    got = list(_grid_lines(n))
    assert [k1 for k1, _ in got] == list(want)
    for k1, K in got:
        ref = np.concatenate(want[k1])
        assert K.dtype == float and np.array_equal(_expand_lines(K, n), ref)
        assert np.array_equal(_line_points(K, n).T, ref)


def test_grid_report_matches_every_instance_at_every_point():
    # n = 60 (step 0.05): lines of up to 31 points; at tol -0.32 each
    # family's first 100 violations lie on 17 to 31 lines, and three of the
    # lists end between two violating instances of one point
    from isokit.bounds import _COEFF, _FAMILIES, _ROWS

    n, tol = 60, -0.32
    k = np.concatenate([ref for _, ref in _reference_blocks(n)])  # the grid in row-major order
    V = np.stack([k[:, i - 1] * k[:, j - 1] for i, j in PAIRS], axis=1) @ _COEFF.T.astype(np.int64)
    scale = 5 * n * n  # a value is 9 V / scale
    rep = grid_verify_all(3 / n, tol=tol)
    assert rep["n_points"] == len(k)
    for fam, rows in zip(_FAMILIES, _ROWS):
        pts = np.flatnonzero(k[:, 0] == 0) if fam.zero_first else np.arange(len(k))
        Vf = V[pts, rows]
        best = Vf.max(axis=1)
        got = rep["families"][fam.name]
        assert got["max_value"] == float(Fraction(9 * int(best.max()), scale)), fam.name
        assert got["argmax_lambda"] == [3.0 * v / n for v in k[pts[best.argmax()]].tolist()], fam.name
        limit = math.floor(scale * (fam.bound + Fraction(tol)) / 9)  # 9 V / scale > bound + tol <=> V > limit
        where = np.argwhere(Vf > limit)
        assert len(where) > 100 and len(np.unique(where[:100, 0])) > 1, fam.name
        want = [
            ([3.0 * v / n for v in k[pts[r]].tolist()], fam.labels[c], float(Fraction(9 * int(Vf[r, c]), scale)))
            for r, c in where[:100]
        ]
        assert [(v["lambda"], v["indices"], v["value"]) for v in rep["violations"] if v["family"] == fam.name] == want


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
    # at tol -0.32 only some lines hold a violation; a line is listed
    # point by point only when its maximum excess passes tol, and none that
    # holds one may be skipped (step 0.25 keeps every value exact)
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

    # a block per k1 holds its lines, not their points, and only violating
    # lines are expanded: 0.75, 2.00 and 15.7 MiB measured (2.35, 7.79 and
    # 61.2 with a block per (k1, k2) of every point)
    for step, points, cap in [(0.03, 189509, 1.2), (0.02, 1229120, 3), (0.01, 33377536, 24)]:
        tracemalloc.start()
        try:
            rep = grid_verify_all(step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["n_points"] == points and rep["violations"] == []
        assert peak < cap * 2**20, f"step {step}: peak {peak / 2**20:.1f} MiB"


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


def test_drop_patterns_are_the_minimal_zero_sets_of_the_integer_sets():
    # the {0, +-1} tuples that satisfy the five relations, in integers: the
    # three-term Plucker relations a_ij a_kl - a_ik a_jl + a_il a_jk = 0
    # over the four-subsets of 1..5; their inclusion-minimal zero sets are
    # the pair and triple drops, derived here from the algebra alone
    a = np.array(list(product((0, 1, -1), repeat=10)))
    col = {pair: a[:, pos] for pos, pair in enumerate(PAIRS)}
    holds = np.ones(len(a), dtype=bool)
    for i, j, k, l in combinations(range(1, 6), 4):
        holds &= col[i, j] * col[k, l] - col[i, k] * col[j, l] + col[i, l] * col[j, k] == 0
    assert holds.sum() == 2021
    zeros = {frozenset(np.flatnonzero(row == 0).tolist()) for row in a[holds]}
    minimal = {z for z in zeros if not any(w < z for w in zeros)}
    assert minimal == {z for z, name in drop_patterns().items() if name != "zero_lambda"}
    assert Counter(drop_patterns()[z] for z in minimal) == {"pair_drop": 15, "triple_drop": 10}


def test_region_total_is_at_most_the_weighted_sum():
    # on Omega each of the five squares is at most 9/16 < 3/5, so
    # f + heavy <= heavy + (3/5) light = weighted_sum: the region total
    # is bounded by the 3/5-weighted family
    rng = np.random.default_rng(16)
    lam = np.array([sample_lambda(rng) for _ in range(20_000)])
    xy = np.empty((0, 2))
    while len(xy) < len(lam):
        cand = rng.uniform(0.5, 1.0, size=(len(lam), 2))
        xy = np.vstack([xy, cand[omega_contains(cand[:, 0], cand[:, 1])]])
    x, y = xy[: len(lam)].T
    heavy = lambda_pair_products(lam)[:, [PAIRS.index(pair) for pair in HEAVY_PAIRS]].sum(axis=1)
    total = _f_value(lam, x, y) + heavy
    margin = total - np.array([weighted_sum(v) for v in lam])
    assert margin.max() < 0, margin.max()


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


def _instance_sums(prod):
    """family -> [(indices, sum)] over the products prod[i, j] (i < j <= 5), every instance in order."""
    total = sum(prod.values())
    return {
        "pair_drop": [((kl, mn), total - prod[kl] - prod[mn]) for kl, mn in _DISJOINT],
        "triple_drop": [
            ((k, l, m), total - prod[k, l] - prod[l, m] - prod[k, m]) for k, l, m in combinations(range(1, 6), 3)
        ],
        "zero_lambda": [(kl, total - prod[kl]) for kl in combinations(range(2, 6), 2)],
        "weighted": [
            (f"pattern_{i}", sum(v if frozenset(pair) in heavy else Fraction(3, 5) * v for pair, v in prod.items()))
            for i, heavy in enumerate(_PATTERNS)
        ],
    }


def _exact_instances(lam):
    """family -> [(indices, value)] at one weight vector of Fractions, every instance in order."""
    inst = _instance_sums({(i, j): lam[i - 1] * lam[j - 1] for i, j in combinations(range(1, 6), 2)})
    if lam[0] != 0:
        inst["zero_lambda"] = []
    return inst


def _instance_weights():
    """family -> [(indices, C)]: C[i-1, j-1] is five times the weight of lam_i lam_j (i < j) in the instance's sum."""
    pairs = list(combinations(range(1, 6), 2))
    # the weight of one product is the sum with that product 1 and the others 0
    units = {p: _instance_sums({q: Fraction(q == p) for q in pairs}) for p in pairs}
    weights = {}
    for name, inst in units[pairs[0]].items():
        for r, (ix, _) in enumerate(inst):
            C = np.zeros((5, 5), dtype=np.int64)
            for (i, j), unit in units.items():
                w = 5 * unit[name][r][1]
                assert w.denominator == 1
                C[i - 1, j - 1] = int(w)
            weights.setdefault(name, []).append((ix, C))
    return weights


def test_grid_dominant_instance_dominates_its_family():
    # on nondecreasing k = L t (t >= 0) twice a sum is t^T Q t, Q = L^T (C + C^T) L, so
    # a Q at least every other entry by entry is the family's maximum at every grid point
    from isokit.bounds import _DOMINANT, _FAMILIES

    L = np.tril(np.ones((5, 5), dtype=np.int64))
    weights = _instance_weights()
    chosen = {}
    for fam, d in zip(_FAMILIES, _DOMINANT):
        Q = {ix: L.T @ (C + C.T) @ L for ix, C in weights[fam.name]}
        assert list(Q) == fam.labels, fam.name
        chosen[fam.name] = fam.labels[d]
        assert all((Q[fam.labels[d]] >= q).all() for q in Q.values()), (fam.name, fam.labels[d])
    assert chosen == {
        "pair_drop": ((1, 4), (2, 3)),
        "triple_drop": (1, 2, 3),
        "zero_lambda": (2, 3),
        "weighted": "pattern_0",
    }


def test_grid_dominant_row_is_the_family_maximum():
    from isokit.bounds import _DOMINANT, _FAMILIES

    n = 150
    cuts = np.sort(np.random.default_rng(26).integers(0, n + 1, size=(10_000, 5)), axis=1)
    k = np.sort(np.diff(cuts, prepend=0, append=n, axis=1), axis=1)  # sorted 6-tuples summing to n
    assert (k.sum(axis=1) == n).all()
    prod = np.stack([k[:, i - 1] * k[:, j - 1] for i, j in PAIRS], axis=1)
    weights = _instance_weights()
    for fam, d in zip(_FAMILIES, _DOMINANT):
        every = np.einsum("rij,pi,pj->pr", np.array([C for _, C in weights[fam.name]]), k[:, :5], k[:, :5])
        assert np.array_equal(prod @ fam.coeff[d], every.max(axis=1)), fam.name


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
