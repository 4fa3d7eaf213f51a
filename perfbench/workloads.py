"""The four workloads: seeded inputs, the CLI calls of one job, and their checks.

Every workload is a closed loop with one caller: a job is a fixed list
of ``isokit`` command lines, and each call starts after the previous one
has returned.  ``build`` draws all inputs from the workload seed and
writes them to disk before anything is timed; job ``j`` of a run draws
its own inputs from ``(seed, j)``.  Where the cost of a body depends
steeply on its shape, the shapes come from a fixed catalogue and the
seed draws the maps applied to them, so that every seed asks for the
same work.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

TOL = 1e-9  # the CLI's default --tol
CERTIFY_TOL = 1e-6  # criterion 6's tolerance for the ceiling

_S = 1.0 / (2.0 * math.sqrt(2.0))
REGULAR_TETRA = [[_S * x, _S * y, _S * z] for x, y, z in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
EXTREMAL_SIMPLEX = [["0", "0", "0"], ["1", "1/2", "1/2"], ["1/2", "1", "1/2"], ["1/2", "1/2", "1"]]

#: bodies of each kind drawn for a normalize job, less KNOWN_DEFECT (smoke: one of each)
NORMALIZE_MIX = {"uniform": 80, "gauss20": 20, "gauss200": 20, "gauss2000": 20, "aniso": 40, "slab": 30}
#: indices of NORMALIZE_MIX draws left out of the catalogue because
#: ``isokit normalize`` fails on them: draw 17, a uniform body of 7
#: points, has six contact weights equal to 1/2 within 1e-10, which
#: ``john_weights`` orders on nine-digit rounding while
#: ``JohnDecomposition`` wants the largest last within 1e-12, so about half
#: of its rotations exit 3 ("weights must place the maximum last").
#: ``tests/test_perfbench.py::test_known_defect_draws_normalize`` fails
#: once that is fixed; the draw then goes back into the catalogue.
KNOWN_DEFECT = frozenset({17})
#: (points, box side h) of the integer bodies in one width job
LATTICE_SIZES = ((8, 3), (12, 4), (20, 5), (30, 6))
#: (weight vectors, zero-first) of the certify calls in one job
CERTIFY_CALLS = ((100, False), (30, True))
RESTARTS = 64
GRID_STEP = 0.02
PECULIAR_SAMPLES, PECULIAR_LAMBDAS = 10_000, 100


@dataclass
class Call:
    """One CLI invocation, the ops it stands for, and how to check its output.

    ``check(out, earlier)`` gets the parsed output and the parsed outputs
    of the job's earlier calls, and returns a list of problems.
    """

    argv: list
    ops: int
    check: Callable = field(repr=False)


@dataclass
class Plan:
    jobs: list  # list of lists of Call, one list per job
    smallest: Call  # the untimed warm-up, and the fresh processes of setup_s


def _write(path: Path, vertices) -> str:
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _float_body(kind: str, rng) -> np.ndarray:
    if kind == "uniform":  # criterion 2: 4-20 points in the cube, not flat
        while True:
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 21)), 3))
            if abs(np.linalg.det(pts[1:4] - pts[0])) > 1e-3:
                return pts
    if kind.startswith("gauss"):
        return rng.normal(size=(int(kind[5:]), 3))
    if kind == "aniso":  # linear image with condition number 10 to 1e3
        cond = 10.0 ** rng.uniform(1.0, 3.0)
        scale = np.diag([1.0, cond ** rng.uniform(0.0, 1.0), cond])
        return rng.normal(size=(50, 3)) @ (_rotation(rng) @ scale @ _rotation(rng)).T
    if kind == "slab":  # thickness 1e-3 to 1e-1 of the width, randomly turned
        n = int(rng.integers(8, 41))
        eps = 10.0 ** rng.uniform(-3.0, -1.0)
        pts = np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.uniform(-eps, eps, n)])
        return pts @ _rotation(rng).T
    raise ValueError(kind)


def _check_normalize(out, earlier):
    return checks.normalize(out, TOL)


def _normalize_draws() -> list:
    """(kind, points) of every NORMALIZE_MIX draw, KNOWN_DEFECT included."""
    rng = np.random.default_rng(0)
    return [(kind, _float_body(kind, rng)) for kind, count in NORMALIZE_MIX.items() for _ in range(count)]


def _normalize_catalogue() -> list:
    """(kind, points) of the NORMALIZE_MIX shapes, the same in every run.

    A few random bodies cost a hundred times the median (slow MVEE
    convergence), so bodies drawn afresh per seed would make the figures
    depend on the seed; drawing the shapes once keeps the work per job
    fixed while the seed still draws every input.
    """
    return [body for i, body in enumerate(_normalize_draws()) if i not in KNOWN_DEFECT]


def _normalize(workdir: Path, seed: int, n_jobs: int, smoke: bool) -> Plan:
    """The catalogue under a seeded rotation and shift per body, in seeded order.

    The MVEE iteration is invariant under linear maps, so its work per
    body does not depend on the seed.
    """
    catalogue = _normalize_catalogue()
    if smoke:  # the first body of each kind
        first = {}
        for kind, pts in catalogue:
            first.setdefault(kind, (kind, pts))
        catalogue = list(first.values())
    jobs = []
    for j in range(n_jobs):
        rng = np.random.default_rng([seed, 1, j])
        calls = []
        for b in rng.permutation(len(catalogue)):
            pts = catalogue[b][1] @ _rotation(rng).T + rng.normal(size=3)
            calls.append(Call(["normalize", _write(workdir / f"n{j}_{b}.json", pts.tolist())], 1, _check_normalize))
        jobs.append(calls)
    tetra = Call(["normalize", _write(workdir / "tetra.json", REGULAR_TETRA)], 1, _check_normalize)
    return Plan(jobs, tetra)


def _shear(rng) -> np.ndarray:
    """Random lower unitriangular integer matrix: determinant one, and
    the lattice width moves off the axes."""
    L = np.eye(3, dtype=np.int64)
    L[1, 0], L[2, 0], L[2, 1] = rng.choice([-2, -1, 1, 2], size=3)
    return L


def _lattice_catalogue() -> list:
    """Pairs (K, UK): the extremal simplex and one integer body per size
    in LATTICE_SIZES, each with a sheared copy; the same in every run.

    The exact hull's cost grows steeply with the vertex count, which
    varies by more than 3x between random bodies of one size, and the
    lattice search depends on the shear; drawing them once keeps the work
    per job the same for every seed.
    """
    rng = np.random.default_rng(0)
    bodies = [np.array([[Fraction(c) for c in v] for v in EXTREMAL_SIMPLEX], dtype=object)]
    for n, h in LATTICE_SIZES:
        while True:
            pts = rng.integers(0, h + 1, size=(n, 3))
            if np.linalg.matrix_rank(pts[1:] - pts[0]) == 3:
                bodies.append(pts)
                break
    return [(K, K @ _shear(rng).T.astype(object)) for K in bodies]


def _check_width(out, earlier, vertices, twin=None):
    return checks.width(out, vertices, None if twin is None else earlier[twin])


def _width_call(path: str, vertices, twin=None) -> Call:
    frac = [tuple(Fraction(c) for c in v) for v in vertices]
    return Call(["width", path], 1, functools.partial(_check_width, vertices=frac, twin=twin))


def _lattice(workdir: Path, seed: int, n_jobs: int, smoke: bool) -> Plan:
    """Each catalogue pair under seeded integer shifts, which change
    neither the width nor the work; K and UK must agree exactly on width
    and volume.

    With five bodies of well-separated cost, the median and the tail
    latency of a job each fall inside one body's pair of calls.
    """
    extremal = _width_call(_write(workdir / "extremal.json", EXTREMAL_SIMPLEX), EXTREMAL_SIMPLEX)
    catalogue = _lattice_catalogue()[: 2 if smoke else None]
    jobs = []
    for j in range(n_jobs):
        rng = np.random.default_rng([seed, 3, j])
        calls = []
        for b, pair in enumerate(catalogue):
            for tag, body in zip(("", "u"), pair):
                pts = (body + rng.integers(0, 4, size=3)).tolist()
                vertices = [[c if isinstance(c, int) else f"{c.numerator}/{c.denominator}" for c in v] for v in pts]
                path = _write(workdir / f"w{j}_{b}{tag}.json", vertices)
                calls.append(_width_call(path, pts, twin=len(calls) - 1 if tag else None))
        jobs.append(calls)
    return Plan(jobs, extremal)


def _check_certify(out, earlier, samples, zero_first):
    return checks.certify(out, samples, RESTARTS, zero_first, CERTIFY_TOL)


def _certify_call(samples: int, zero_first: bool, seed: int) -> Call:
    argv = ["certify", "--samples", str(samples), "--restarts", str(RESTARTS)]
    argv += ["--seed", str(seed), "--tol", str(CERTIFY_TOL)] + (["--zero-first"] if zero_first else [])
    check = functools.partial(_check_certify, samples=samples, zero_first=zero_first)
    return Call(argv, max(samples, 1), check)


def _certify(workdir: Path, seed: int, n_jobs: int, smoke: bool) -> Plan:
    jobs = []
    for j in range(n_jobs):
        rng = np.random.default_rng([seed, 2, j])
        jobs.append(
            [
                _certify_call(max(1, samples // 50) if smoke else samples, zero_first, int(rng.integers(2**32)))
                for samples, zero_first in CERTIFY_CALLS
            ]
        )
    witness = _certify_call(0, False, 0)
    return Plan(jobs, witness)


def _lemma_call(step: float) -> Call:
    check = lambda out, earlier: checks.lemmas(out, step)  # noqa: E731
    return Call(["verify-lemmas", "--grid-step", str(step)], 1, check)


def _peculiar_call(samples: int, lambdas: int, seed: int) -> Call:
    check = lambda out, earlier: checks.peculiar(out, samples, lambdas, TOL)  # noqa: E731
    argv = ["peculiar", "--samples", str(samples), "--lambdas", str(lambdas), "--seed", str(seed)]
    return Call(argv, 1, check)


def _lemmas(workdir: Path, seed: int, n_jobs: int, smoke: bool) -> Plan:
    jobs = []
    for j in range(n_jobs):
        rng = np.random.default_rng([seed, 4, j])
        grid = _lemma_call(0.1 if smoke else GRID_STEP)
        samples, lambdas = (100, 10) if smoke else (PECULIAR_SAMPLES, PECULIAR_LAMBDAS)
        jobs.append([grid, _peculiar_call(samples, lambdas, int(rng.integers(2**32)))])
    coarse = _lemma_call(0.25)
    return Plan(jobs, coarse)


BUILDERS = {
    "normalize-bodies": _normalize,
    "certify-ceiling": _certify,
    "lattice-exact": _lattice,
    "lemma-sweeps": _lemmas,
}


def build(name: str, workdir: Path, seed: int, n_jobs: int, smoke: bool = False) -> Plan:
    """Draw and write the inputs of ``n_jobs`` jobs of workload ``name``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](workdir, seed, n_jobs, smoke)
