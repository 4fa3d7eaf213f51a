"""Top-level acceptance run: every headline guarantee, one line each.

Each test exercises one end-to-end criterion at its stated tolerance and
time budget and records a single [PASS]/[FAIL] line that is echoed in
the terminal summary after the run.
"""

import json
import math
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from conftest import (
    ACCEPTANCE_LINES,
    REGULAR_TETRA,
    random_lattice_polytope,
    random_polytope_vertices,
)

from isokit.admissible import (
    PAIRS,
    check_relations,
    five_square_max,
    from_contact_vectors,
    g_map,
    objective,
    peculiar_from,
)
from isokit.bounds import (
    pair_drop_sum,
    triple_drop_sum,
    weighted_sum,
    zero_lambda_drop,
)
from isokit.cli import main as cli_main
from isokit.john import normalize
from isokit.lattice import verify_width_volume_corollary

SQRT2_12 = math.sqrt(2.0) / 12.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def run_cli(capsys, *argv):
    t0 = perf_counter()
    code = cli_main(list(argv))
    elapsed = perf_counter() - t0
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None), elapsed


@pytest.fixture(scope="module")
def tetra_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("acc") / "tetra.json"
    p.write_text(json.dumps({"vertices": [list(v) for v in REGULAR_TETRA]}))
    return str(p)


@pytest.fixture(scope="module")
def extremal_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("acc") / "extremal.json"
    p.write_text(
        json.dumps(
            {
                "vertices": [
                    ["0", "0", "0"],
                    ["1", "1/2", "1/2"],
                    ["1/2", "1", "1/2"],
                    ["1/2", "1/2", "1"],
                ]
            }
        )
    )
    return str(p)


@pytest.fixture(scope="module")
def theorem_sweep():
    """100 random polytopes through the full pipeline, shared by 2 and 3."""
    rng = np.random.default_rng(42)
    t0 = perf_counter()
    results = [
        normalize(random_polytope_vertices(rng, 4, 20)) for _ in range(100)
    ]
    return results, perf_counter() - t0


def test_criterion_1_tetrahedron_equality(tetra_file, capsys):
    code, out, dt = run_cli(capsys, "normalize", tetra_file)
    err = abs(out["idq"] - SQRT2_12) if out else float("inf")
    ok = code == 0 and err <= 1e-6 and dt < 1.0
    report(1, ok, f"tetrahedron idq={out['idq']:.9f} |err|={err:.2e} <= 1e-6 ({dt:.2f}s < 1s)")


def test_criterion_2_theorem_sweep(theorem_sweep):
    results, dt = theorem_sweep
    idq_min = min(r.idq for r in results)
    wit_min = min(r.witness_value for r in results)
    ok = idq_min >= SQRT2_12 - 1e-6 and wit_min >= INV_SQRT2 - 1e-6 and dt < 30.0
    report(
        2,
        ok,
        f"100 polytopes: min idq={idq_min:.9f} >= {SQRT2_12:.9f}-1e-6, "
        f"min witness={wit_min:.9f} >= {INV_SQRT2:.9f}-1e-6 ({dt:.1f}s < 30s)",
    )


def test_criterion_3_parseval_identity(theorem_sweep):
    results, _ = theorem_sweep
    worst = max(
        abs(
            objective(
                from_contact_vectors(r.decomposition.u).as_array(),
                r.decomposition.lambdas,
            )
            - 1.0
        )
        for r in results
    )
    ok = worst <= 1e-6
    report(3, ok, f"identity over 100 decompositions: max |sum-1|={worst:.2e} <= 1e-6")


def test_criterion_4_lemma_grid(capsys):
    code, out, dt = run_cli(capsys, "verify-lemmas", "--grid-step", "0.05")
    fam = out["families"]
    tight = {
        "pair_drop": 2.0,
        "triple_drop": 9.0 / 5.0,
        "zero_lambda": 9.0 / 5.0,
        "weighted": 2.0,
    }
    # the bounds are attained exactly at their canonical witnesses
    at_witness = (
        pair_drop_sum([0.5] * 6, (1, 2), (3, 4)),
        triple_drop_sum([0.4, 0.4, 0.4, 0.6, 0.6, 0.6], (1, 2, 3)),
        zero_lambda_drop([0.0, 0.6, 0.6, 0.6, 0.6, 0.6], (2, 3)),
        weighted_sum([0.5] * 6),
    )
    tight_err = max(
        max(abs(fam[k]["max_value"] - v) for k, v in tight.items()),
        max(abs(a - b) for a, b in zip(at_witness, (2.0, 1.8, 1.8, 2.0))),
    )
    ok = code == 0 and out["violations"] == [] and tight_err <= 1e-12 and dt < 60.0
    report(
        4,
        ok,
        f"step 0.05 grid ({out['n_points']} points): 0 violations, "
        f"tight values 2, 9/5, 9/5, 2 reproduced to {tight_err:.1e} <= 1e-12 ({dt:.1f}s < 60s)",
    )


def test_criterion_5_omega_monte_carlo():
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.5, 1.0, size=(10**6, 2))
    x, y = pts[:, 0], pts[:, 1]
    inside = (x * y <= 0.5) & (2 * y - x * y <= 1.0) & (2 * x - x * y <= 1.0)
    x, y = x[inside], y[inside]

    p = 1.0 - x * y
    gx, gy = (1.0 - x) / p, p  # image under the region self-map
    img_ok = (
        (gx >= 0.5 - 1e-12)
        & (gy >= 0.5 - 1e-12)
        & (gx * gy <= 0.5 + 1e-12)
        & (2 * gy - gx * gy <= 1.0 + 1e-12)
        & (2 * gx - gx * gy <= 1.0 + 1e-12)
    )
    five = np.max(
        np.stack([x**2, y**2, p**2, ((1 - x) / p) ** 2, ((1 - y) / p) ** 2]), axis=0
    )
    dt = perf_counter() - t0

    # cross-check the vectorized formulas against the library on a subsample
    sub = np.random.default_rng(7).integers(0, x.size, 200)
    lib_ok = all(
        np.allclose(g_map(x[i], y[i]), (gx[i], gy[i]), atol=1e-12)
        and abs(five_square_max(x[i], y[i]) - five[i]) <= 1e-12
        for i in sub
    )
    ok = bool(img_ok.all()) and float(five.max()) <= 9.0 / 16.0 + 1e-12 and lib_ok and dt < 10.0
    report(
        5,
        ok,
        f"{x.size} region points of 10^6 draws: g-image inside; "
        f"max five-square={five.max():.12f} <= 9/16+1e-12 ({dt:.1f}s < 10s)",
    )


def test_criterion_6_optimization_ceiling(capsys):
    code, out, dt1 = run_cli(
        capsys, "certify", "--samples", "1000", "--restarts", "64", "--seed", "42",
        "--tol", "1e-6",
    )
    code0, out0, dt2 = run_cli(
        capsys, "certify", "--samples", "200", "--restarts", "64", "--seed", "42",
        "--zero-first", "--tol", "1e-6",
    )
    dt = dt1 + dt2
    ok = (
        code == 0
        and out["global_max"] <= 2.0 + 1e-6
        and abs(out["witness_value"] - 2.0) <= 1e-9
        and code0 == 0
        and out0["global_max"] <= 9.0 / 5.0 + 1e-6
        and dt < 300.0
    )
    report(
        6,
        ok,
        f"1000 weight vectors x 64 restarts: max={out['global_max']:.12f} <= 2+1e-6, "
        f"witness={out['witness_value']:.12f}; 200 zero-pinned: "
        f"max={out0['global_max']:.12f} <= 9/5+1e-6 ({dt:.0f}s < 300s)",
    )


def test_criterion_7_lattice_corollary(extremal_file, capsys):
    code, out, dt1 = run_cli(capsys, "width", extremal_file)
    exact_ok = (
        code == 0
        and out["omega"] == "1"
        and out["volume"] == "1/12"
        and out["slack"] == "0"
        and out["exact"] is True
    )
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    holds = []
    for _ in range(50):
        rep = verify_width_volume_corollary(random_lattice_polytope(rng))
        holds.append(rep["exact"] and rep["holds"] and rep["slack"] >= 0)
    dt = dt1 + perf_counter() - t0
    ok = exact_ok and all(holds) and dt < 60.0
    report(
        7,
        ok,
        f"extremal simplex: omega=1, vol=1/12, slack=0 exactly; "
        f"50/50 random lattice polytopes satisfy vol >= omega^3/12 exactly ({dt:.1f}s < 60s)",
    )


def test_criterion_8_peculiar_family():
    t0 = perf_counter()
    rng = np.random.default_rng(42)

    lam = np.diff(
        np.concatenate(
            [np.zeros((1000, 1)), np.sort(rng.uniform(0, 1, (1000, 5)), axis=1), np.ones((1000, 1))],
            axis=1,
        ),
        axis=1,
    ) * 3.0
    rows = np.arange(1000)
    top = lam.argmax(axis=1)
    mx = lam[rows, top].copy()
    lam[rows, top] = lam[rows, 5]
    lam[rows, 5] = mx
    lam_prod = np.stack([lam[:, i - 1] * lam[:, j - 1] for i, j in PAIRS], axis=1)

    pairs = np.empty((0, 2))
    while pairs.shape[0] < 10**4:
        cand = rng.uniform(0.0, 1.0, size=(3 * 10**4, 2))
        cand = cand[(cand.sum(axis=1) >= 1.0) & (cand > 0.0).all(axis=1)]
        pairs = np.vstack([pairs, cand])
    pairs = pairs[: 10**4]

    relations_ok = True
    worst = -np.inf
    for xx, yy in pairs:
        A = peculiar_from(float(xx), float(yy))
        relations_ok = relations_ok and check_relations(A.a, tol=1e-9)
        worst = max(worst, float((lam_prod @ (A.a**2)).max()))
    dt = perf_counter() - t0
    ok = relations_ok and worst <= 2.0 + 1e-9 and dt < 120.0
    report(
        8,
        ok,
        f"10^4 feasible magnitude pairs: all satisfy the determinant relations; "
        f"max objective over 10^3 weight vectors each = {worst:.12f} <= 2+1e-9 ({dt:.0f}s < 120s)",
    )