"""Output checks that re-derive every claim without calling isokit.

Each check takes the parsed JSON a CLI call printed, plus what the
benchmark itself knows about the input, and returns a list of problems
(empty when the output is right).  The checks use only the stdlib and
numpy: floats are re-derived from the printed vectors, rationals are
parsed as ``Fraction`` and compared exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

IDQ_BOUND = math.sqrt(2.0) / 12.0
WITNESS_BOUND = 1.0 / math.sqrt(2.0)
NINE_SIXTEENTHS = 9.0 / 16.0

#: index pairs (i, j) of the ten products, in the CLI's storage order
PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

#: a_i a_j - a_k a_l = a_m a_n over storage indices: the determinant
#: relations every admissible ten-tuple satisfies
RELATIONS = (
    (1, 5, 2, 4, 0, 7),
    (1, 6, 3, 4, 0, 8),
    (2, 6, 3, 5, 0, 9),
    (2, 8, 3, 7, 1, 9),
    (5, 8, 6, 7, 4, 9),
)

#: each grid family's bound and the weight vector attaining it
TIGHT = {
    "pair_drop": (2.0, (Fraction(1, 2),) * 6),
    "triple_drop": (1.8, (Fraction(2, 5),) * 3 + (Fraction(3, 5),) * 3),
    "zero_lambda": (1.8, (Fraction(0),) + (Fraction(3, 5),) * 5),
    "weighted": (2.0, (Fraction(1, 2),) * 6),
}

#: canonical primitive directions with entries in {-1, 0, 1}
SMALL_DIRECTIONS = [
    d for d in product((-1, 0, 1), repeat=3) if d != (0, 0, 0) and next(x for x in d if x) > 0
]


def grid_size(n: int, parts: int = 6) -> int:
    """Nondecreasing nonnegative integer ``parts``-tuples summing to n.

    That is the number of partitions of n into at most ``parts`` parts,
    counted through the conjugate partitions into parts of size at most
    ``parts``.
    """
    ways = [1] + [0] * n
    for k in range(1, parts + 1):
        for s in range(k, n + 1):
            ways[s] += ways[s - k]
    return ways[n]


def normalize(out: dict, tol: float) -> list:
    """The certificate of ``isokit normalize``: weights, frame, witness, idq."""
    problems = []
    lam = np.asarray(out["lambda"], dtype=float)
    u = np.asarray(out["u"], dtype=float)
    T = np.asarray(out["T"], dtype=float)
    if lam.shape != (6,) or u.shape != (6, 3) or T.shape != (9,):
        return ["certificate has the wrong shape"]
    if not (np.isfinite(lam).all() and np.isfinite(u).all() and np.isfinite(T).all()):
        return ["non-finite number in certificate"]
    if lam.min() < -1e-12:
        problems.append(f"negative weight {lam.min():.3e}")
    if abs(lam.sum() - 3.0) > 1e-7:
        problems.append(f"weights sum to {lam.sum():.12f}, not 3")
    norm_err = float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max())
    if norm_err > 1e-9:
        problems.append(f"directions are not unit vectors (error {norm_err:.3e})")
    resid = float(np.linalg.norm(np.einsum("i,ij,ik->jk", lam, u, u) - np.eye(3)))
    if resid > 1e-7:
        problems.append(f"|sum lam u u^T - Id| = {resid:.3e}")
    if np.linalg.det(T.reshape(3, 3)) <= 0.0:
        problems.append("T is not orientation-preserving and invertible")
    ijk = [int(i) - 1 for i in out["witness"]["ijk"]]
    if len(set(ijk)) != 3 or not all(0 <= i < 6 for i in ijk):
        return problems + [f"bad witness indices {out['witness']['ijk']}"]
    det = abs(float(np.linalg.det(u[ijk])))
    if det < WITNESS_BOUND - 1e-6:
        problems.append(f"witness |det| {det:.12f} below 1/sqrt(2)")
    if abs(det - float(out["witness"]["value"])) > 1e-9:
        problems.append(f"printed witness {out['witness']['value']} but |det| is {det}")
    if float(out["idq"]) < IDQ_BOUND - 10.0 * tol:
        problems.append(f"idq {out['idq']} below sqrt(2)/12 - 10 tol")
    return problems


def _width_along(vertices, d) -> Fraction:
    dots = [v[0] * d[0] + v[1] * d[1] + v[2] * d[2] for v in vertices]
    return max(dots) - min(dots)


def width(out: dict, vertices, twin: dict | None = None) -> list:
    """The exact report of ``isokit width`` on integer or rational vertices.

    ``twin`` is the output for a unimodular image of the same body, whose
    width and volume must be identical.
    """
    problems = []
    omega, volume = Fraction(out["omega"]), Fraction(out["volume"])
    bound, slack = Fraction(out["bound"]), Fraction(out["slack"])
    d = tuple(out["direction"])
    if out["exact"] is not True or out["holds"] is not True:
        problems.append("report is not exact or does not hold")
    if bound != omega**3 / 12:
        problems.append(f"bound {bound} != omega^3/12 = {omega**3 / 12}")
    if slack != volume - bound or slack < 0:
        problems.append(f"slack {slack} != volume - bound = {volume - bound}, or negative")
    if volume <= 0 or omega <= 0:
        problems.append("volume and width must be positive")
    if len(d) != 3 or not all(isinstance(x, int) for x in d) or d == (0, 0, 0):
        return problems + [f"direction {d} is not a nonzero integer vector"]
    if math.gcd(*d) != 1:
        problems.append(f"direction {d} is not primitive")
    if _width_along(vertices, d) != omega:
        problems.append(f"width along {d} is {_width_along(vertices, d)}, not omega = {omega}")
    beaten = [e for e in SMALL_DIRECTIONS if _width_along(vertices, e) < omega]
    if beaten:
        problems.append(f"direction {beaten[0]} is narrower than omega = {omega}")
    if out["nonseparable"] is not (omega >= 1):
        problems.append(f"nonseparable = {out['nonseparable']} but omega = {omega}")
    if twin is not None:
        if Fraction(twin["omega"]) != omega or Fraction(twin["volume"]) != volume:
            problems.append("width or volume changed under a unimodular map")
    return problems


def objective(a, lam) -> float:
    """sum over i < j <= 5 of lam_i lam_j a_ij^2, in PAIRS order."""
    return float(sum(lam[i - 1] * lam[j - 1] * a[k] ** 2 for k, (i, j) in enumerate(PAIRS)))


def certify(out: dict, samples: int, restarts: int, zero_first: bool, tol: float) -> list:
    """The ceiling report of ``isokit certify``."""
    problems = []
    bound = 1.8 if zero_first else 2.0
    if out["n_lambda"] != samples or out["restarts"] != restarts:
        problems.append("report does not echo the requested samples and restarts")
    if out["violations"]:
        problems.append(f"{len(out['violations'])} ceiling violations")
    if sum(out["boundary_kinds"].values()) != samples:
        problems.append("boundary kinds do not add up to the weight vectors")
    if zero_first:
        if out["witness_value"] is not None:
            problems.append("zero-pinned run printed a witness value")
        if samples == 0:
            return problems
    elif abs(out["witness_value"] - 2.0) > 1e-12:
        problems.append(f"witness value {out['witness_value']} != 2")
    gmax = float(out["global_max"])
    if gmax > bound + tol:
        problems.append(f"global max {gmax!r} above the ceiling {bound} + {tol}")
    if not zero_first and gmax < 2.0 - 1e-12:
        problems.append(f"global max {gmax!r} below the frozen witness value 2")
    a = np.asarray(out["argmax_set"], dtype=float)
    lam = np.asarray(out["argmax_lambda"], dtype=float)
    if a.shape != (10,) or lam.shape != (6,):
        return problems + ["argmax has the wrong shape"]
    if abs(objective(a, lam) - gmax) > 1e-9:
        problems.append(f"objective at the argmax is {objective(a, lam)!r}, not {gmax!r}")
    if np.abs(a).max() > 1.0 + 1e-9 or abs(lam.sum() - 3.0) > 1e-9 or lam.min() < 0.0:
        problems.append("argmax leaves the box or the weight simplex")
    resid = max(abs(a[i] * a[j] - a[k] * a[l] - a[m] * a[n]) for i, j, k, l, m, n in RELATIONS)
    if resid > 1e-8:
        problems.append(f"argmax violates the determinant relations by {resid:.3e}")
    return problems


def lemmas(out: dict, step: float) -> list:
    """The grid report of ``isokit verify-lemmas``."""
    problems = []
    n = round(3.0 / step)
    if out["n_points"] != grid_size(n):
        problems.append(f"{out['n_points']} grid points, expected {grid_size(n)}")
    if out["violations"]:
        problems.append(f"{len(out['violations'])} grid violations")
    if out["max_value"] > 1e-12:
        problems.append(f"worst excess {out['max_value']!r} above 0")
    for family, (bound, witness) in TIGHT.items():
        fmax = out["families"][family]["max_value"]
        if fmax > bound + 1e-12:
            problems.append(f"{family} max {fmax!r} above {bound}")
        on_grid = all((w * n / 3).denominator == 1 for w in witness)
        if on_grid and abs(fmax - bound) > 1e-12:
            problems.append(f"{family} max {fmax!r} misses its tight value {bound}")
    return problems


def peculiar(out: dict, samples: int, lambdas: int, tol: float) -> list:
    """The boundary-family and region report of ``isokit peculiar``."""
    problems = []
    if (out["n_pairs"], out["n_lambda"], out["region_points"]) != (samples, lambdas, samples):
        problems.append("report does not echo the requested sample counts")
    if out["violations"]:
        problems.append(f"{len(out['violations'])} violations")
    if out["objective_max"] > 2.0 + tol:
        problems.append(f"objective max {out['objective_max']!r} above 2")
    if out["five_square_max"] > NINE_SIXTEENTHS + tol:
        problems.append(f"five-square max {out['five_square_max']!r} above 9/16")
    if out["region_total_max"] > 2.0 + tol:
        problems.append(f"region total {out['region_total_max']!r} above 2")
    x, y = out["argmax_pair"]
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0 and x + y >= 1.0):
        problems.append(f"argmax pair {(x, y)} is not a feasible magnitude pair")
    return problems
