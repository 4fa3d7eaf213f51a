"""Command-line front end: JSON in, JSON out.

Subcommands
-----------
normalize      volume-preserving normalization certificate for a polytope
width          lattice width and the width-volume inequality report
verify-lemmas  grid verification of the four weight-product bounds
certify        randomized certification of the objective ceiling
peculiar       boundary-family sampling plus the region sweep

Exit codes: 0 success; 2 bad input or configuration; 3 a mathematical
bound failed to verify.  Code 3 is an alarm — it signals a numerical
fault in the library, never a user error.

All output is a single JSON document written to stdout at the end of the
run.  Floats carry 17 significant digits; exact rationals appear as
"p/q" strings.  Runs are deterministic given the input file and flags.
Set ISOKIT_THREADS before launching Python to cap BLAS parallelism (the
package exports the standard thread-count variables on import).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import grid_verify_all
from .certifier import CEILING, certify_random
from .errors import DegenerateInput, IsokitError, PreconditionError
from .geom import polytope_from_json
from .john import IDQ_LOWER_BOUND, normalize
from .lattice import is_nonseparable_width, verify_width_volume_corollary

NINE_SIXTEENTHS = 9.0 / 16.0


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Config:
    """Validated run parameters shared by the subcommands."""

    tolerance: float = 1e-9
    seed: int = 42
    restarts: int = 64
    grid_step: float = 0.05
    mode: str = "float"

    def __post_init__(self):
        if not (isinstance(self.tolerance, float) and self.tolerance > 0.0):
            raise PreconditionError("tolerance must be a positive real")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise PreconditionError("seed must be a 64-bit unsigned integer")
        if not (isinstance(self.restarts, int) and self.restarts >= 1):
            raise PreconditionError("restarts must be a positive count")
        if not 0.0 < self.grid_step <= 0.25:
            raise PreconditionError("grid_step must lie in (0, 0.25]")
        if self.mode not in ("rational", "float"):
            raise PreconditionError('mode must be "rational" or "float"')


def _config(args: argparse.Namespace, default_mode: str = "float") -> Config:
    return Config(
        tolerance=float(args.tol),
        seed=args.seed,
        restarts=args.restarts,
        grid_step=float(getattr(args, "grid_step", 0.05)),
        mode=getattr(args, "mode", None) or default_mode,
    )


# ---------------------------------------------------------------------------
# JSON output (serializer owns the number formats)


def _scalar_token(o):
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return str(int(o))
    if isinstance(o, Fraction):
        return json.dumps(str(o))
    if isinstance(o, (float, np.floating)):
        x = float(o)
        if not math.isfinite(x):
            raise ValueError("non-finite number in output")
        return format(x, ".17g")
    if isinstance(o, str):
        return json.dumps(o)
    return None


def _emit(o, out: list, indent: int) -> None:
    tok = _scalar_token(o)
    if tok is not None:
        out.append(tok)
        return
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(o.items()):
            out.append(inner + json.dumps(str(k)) + ": ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(o) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(o, (list, tuple, np.ndarray)):
        items = list(o)
        if not items:
            out.append("[]")
            return
        toks = [_scalar_token(x) for x in items]
        if all(t is not None for t in toks):
            out.append("[" + ", ".join(toks) + "]")
        else:
            out.append("[\n")
            for i, x in enumerate(items):
                out.append(inner)
                _emit(x, out, indent + 1)
                out.append(",\n" if i < len(items) - 1 else "\n")
            out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(o).__name__}")


def render_json(payload) -> str:
    out: list = []
    _emit(payload, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# input


def _load_polytope(path: str, mode: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    try:
        return polytope_from_json(text, mode=mode)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise PreconditionError(f"cannot parse {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit_code)


def cmd_normalize(args, cfg: Config):
    P = _load_polytope(args.file, cfg.mode)
    res = normalize(P, tol=cfg.tolerance)
    payload = res.to_json_dict()
    threshold = IDQ_LOWER_BOUND - 10.0 * cfg.tolerance
    if res.idq < threshold:
        print(
            f"alarm: idq {res.idq:.17g} below guaranteed bound {threshold:.17g}",
            file=sys.stderr,
        )
        return payload, 3
    return payload, 0


def cmd_width(args, cfg: Config):
    P = _load_polytope(args.file, cfg.mode)
    rep = verify_width_volume_corollary(P)
    payload = {
        "omega": rep["width"],
        "direction": list(rep["direction"]),
        "volume": rep["volume"],
        "bound": rep["bound"],
        "slack": rep["slack"],
        "exact": rep["exact"],
        "holds": rep["holds"],
        "nonseparable": is_nonseparable_width(rep["width"], P.mode),
    }
    if not rep["holds"]:
        print("alarm: width-volume inequality violated", file=sys.stderr)
        return payload, 3
    return payload, 0


def cmd_verify_lemmas(args, cfg: Config):
    rep = grid_verify_all(cfg.grid_step)
    if rep["violations"]:
        print(
            f"alarm: {len(rep['violations'])} grid violations, "
            f"worst excess {rep['max_value']:.3e}",
            file=sys.stderr,
        )
        return rep, 3
    return rep, 0


def cmd_certify(args, cfg: Config):
    if args.samples < 0:
        raise PreconditionError("--samples must be >= 0")
    summary = certify_random(
        n_lambda=args.samples,
        restarts=cfg.restarts,
        seed=cfg.seed,
        first_weight_zero=args.zero_first,
        tol=cfg.tolerance,
    )
    payload = {
        "n_lambda": summary["n_lambda"],
        "restarts": summary["restarts"],
        "bound": summary["bound"],
        "tol": summary["tol"],
        "global_max": summary["max_value"],
        "argmax_lambda": summary["argmax_lambda"],
        "argmax_set": summary["argmax_set"],
        "witness_value": summary["witness_value"],
        "boundary_kinds": summary["boundary_kinds"],
        "violations": summary["violations"],
    }
    if summary["violations"]:
        print(
            f"alarm: objective ceiling exceeded in {len(summary['violations'])} runs",
            file=sys.stderr,
        )
        return payload, 3
    return payload, 0


def _sample_omega_points(rng, n: int) -> np.ndarray:
    """n points of the closed region {x,y >= 1/2, xy <= 1/2, 2x-xy <= 1, 2y-xy <= 1}."""
    pts = np.empty((0, 2))
    while pts.shape[0] < n:
        cand = rng.uniform(0.5, 1.0, size=(4 * n, 2))
        x, y = cand[:, 0], cand[:, 1]
        keep = (x * y <= 0.5) & (2 * y - x * y <= 1.0) & (2 * x - x * y <= 1.0)
        pts = np.vstack([pts, cand[keep]])
    return pts[:n]


def cmd_peculiar(args, cfg: Config):
    from .admissible import PAIRS, f_eval, five_square_max, peculiar_from
    from .bounds import HEAVY_PAIRS
    from .certifier import _sample_lambda

    if args.samples < 1:
        raise PreconditionError("--samples must be >= 1")
    n = args.samples
    n_lam = args.lambdas
    tol = cfg.tolerance
    violations = []

    # feasible magnitude pairs: x, y in (0, 1], x + y >= 1
    rng = np.random.default_rng([cfg.seed, 101])
    pairs = np.empty((0, 2))
    while pairs.shape[0] < n:
        cand = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        cand = cand[(cand.sum(axis=1) >= 1.0) & (cand > 0.0).all(axis=1)]
        pairs = np.vstack([pairs, cand])
    pairs = pairs[:n]

    lam = np.array([_sample_lambda(np.random.default_rng([cfg.seed, 102, k]), False) for k in range(n_lam)])
    lam_prod = np.array([[row[i - 1] * row[j - 1] for (i, j) in PAIRS] for row in lam])

    obj_max, obj_arg = -np.inf, None
    for x, y in pairs:
        A = peculiar_from(float(x), float(y))
        sq = A.a**2
        worst = float((lam_prod @ sq).max())
        if worst > obj_max:
            obj_max, obj_arg = worst, (float(x), float(y))
        if worst > CEILING + tol:
            violations.append({"kind": "objective", "pair": [float(x), float(y)], "value": worst})

    # region sweep: five squared coordinates stay below 9/16 and the
    # two-variable bound keeps every weighted total below the ceiling
    omega_pts = _sample_omega_points(np.random.default_rng([cfg.seed, 103]), n)
    fsq_max = max(five_square_max(float(x), float(y)) for x, y in omega_pts)
    if fsq_max > NINE_SIXTEENTHS + tol:
        violations.append({"kind": "five_square", "value": fsq_max})

    heavy = np.array([sum(row[i - 1] * row[j - 1] for (i, j) in HEAVY_PAIRS) for row in lam])
    total_max = -np.inf
    for k, (x, y) in enumerate(omega_pts):
        L = lam[k % n_lam]
        t = f_eval(L, float(x), float(y)) + float(heavy[k % n_lam])
        if t > total_max:
            total_max = t
    if total_max > CEILING + tol:
        violations.append({"kind": "region_total", "value": float(total_max)})

    payload = {
        "n_pairs": n,
        "n_lambda": n_lam,
        "seed": cfg.seed,
        "objective_bound": CEILING,
        "objective_max": float(obj_max),
        "argmax_pair": list(obj_arg),
        "region_points": int(omega_pts.shape[0]),
        "five_square_max": float(fsq_max),
        "five_square_bound": NINE_SIXTEENTHS,
        "region_total_max": float(total_max),
        "region_total_bound": CEILING,
        "violations": violations,
    }
    if violations:
        print(f"alarm: {len(violations)} ceiling violations", file=sys.stderr)
        return payload, 3
    return payload, 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="isokit", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, mode_default=None):
        p.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
        p.add_argument("--restarts", type=int, default=64, help="optimizer restarts (default 64)")
        if mode_default is not None:
            p.add_argument(
                "--mode",
                choices=("rational", "float"),
                default=mode_default,
                help=f"coordinate arithmetic (default {mode_default})",
            )

    p = sub.add_parser("normalize", help="normalization certificate for a polytope file")
    common(p, mode_default="float")
    p.add_argument("file", help="polytope JSON file")
    p.set_defaults(func=cmd_normalize, default_mode="float")

    p = sub.add_parser("width", help="lattice width and width-volume report")
    common(p, mode_default="rational")
    p.add_argument("file", help="polytope JSON file")
    p.set_defaults(func=cmd_width, default_mode="rational")

    p = sub.add_parser("verify-lemmas", help="grid verification of the weight-product bounds")
    common(p)
    p.add_argument("--grid-step", type=float, default=0.05, help="simplex grid step (default 0.05)")
    p.set_defaults(func=cmd_verify_lemmas, default_mode="float")

    p = sub.add_parser("certify", help="randomized ceiling certification")
    common(p)
    p.add_argument("--samples", type=int, default=0, help="number of weight vectors (default 0: witness only)")
    p.add_argument("--zero-first", action="store_true", help="pin the smallest weight to zero (ceiling 9/5)")
    p.set_defaults(func=cmd_certify, default_mode="float")

    p = sub.add_parser("peculiar", help="boundary-family sampling and region sweep")
    common(p)
    p.add_argument("--samples", type=int, default=1000, help="magnitude pairs / region points (default 1000)")
    p.add_argument("--lambdas", type=int, default=100, help="weight vectors per pair (default 100)")
    p.set_defaults(func=cmd_peculiar, default_mode="float")

    return top


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args, args.default_mode)
        payload, code = args.func(args, cfg)
    except DegenerateInput as exc:
        print(f"error: DegenerateInput: {_first_line(exc)}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {type(exc).__name__}: {_first_line(exc)}", file=sys.stderr)
        return 2
    except IsokitError as exc:
        # internal invariants double as alarms: a violated one means the
        # mathematics failed to verify, not that the user erred
        print(f"alarm: {type(exc).__name__}: {_first_line(exc)}", file=sys.stderr)
        return 3
    sys.stdout.write(render_json(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())