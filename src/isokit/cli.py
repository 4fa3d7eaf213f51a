"""Command-line front end: JSON in, JSON out.

Subcommands, each with only the flags it reads
----------------------------------------------
normalize FILE [--tol] [--mode]   normalization certificate for a polytope
width FILE [--mode]               lattice width and width-volume report
verify-lemmas [--grid-step]       grid check of the four weight-product bounds
certify [--samples --restarts --seed --tol --zero-first]
                                  randomized check of the objective ceiling
peculiar [--samples --lambdas --seed --tol]
                                  boundary-family and region sweep

Each subcommand is one library call plus its payload and exit code.

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
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .admissible import peculiar_sweep
from .bounds import grid_verify_all
from .certifier import certify_random
from .errors import DegenerateInput, IsokitError, PreconditionError
from .geom import polytope_from_json
from .john import IDQ_LOWER_BOUND, normalize
from .lattice import is_nonseparable_width, verify_width_volume_corollary


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Config:
    """Validated run parameters; a subcommand without a field's flag keeps its default."""

    tolerance: float = 1e-9
    seed: int = 42
    restarts: int = 64
    mode: str = "float"

    def __post_init__(self):
        if not (isinstance(self.tolerance, float) and self.tolerance > 0.0):
            raise PreconditionError("tolerance must be a positive real")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise PreconditionError("seed must be a 64-bit unsigned integer")
        if not (isinstance(self.restarts, int) and 1 <= self.restarts <= 10**4):
            raise PreconditionError("restarts must lie in [1, 10^4]")
        if self.mode not in ("rational", "float"):
            raise PreconditionError('mode must be "rational" or "float"')


def _config(args: argparse.Namespace) -> Config:
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config) if hasattr(args, f.name)})


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
    rep = grid_verify_all(args.grid_step)
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


def cmd_peculiar(args, cfg: Config):
    payload = peculiar_sweep(args.samples, args.lambdas, cfg.seed, cfg.tolerance)
    if payload["violations"]:
        print(f"alarm: {len(payload['violations'])} ceiling violations", file=sys.stderr)
        return payload, 3
    return payload, 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="isokit", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    # shared flags; their dest names are the Config fields they set
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", dest="tolerance", metavar="TOL", type=float, default=1e-9, help="tolerance (default 1e-9)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")

    p = sub.add_parser("normalize", parents=[tol], help="normalization certificate for a polytope file")
    p.add_argument("--mode", choices=("rational", "float"), default="float", help="arithmetic (default float)")
    p.add_argument("file", help="polytope JSON file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("width", help="lattice width and width-volume report")
    p.add_argument("--mode", choices=("rational", "float"), default="rational", help="arithmetic (default rational)")
    p.add_argument("file", help="polytope JSON file")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("verify-lemmas", help="grid verification of the weight-product bounds")
    p.add_argument("--grid-step", type=float, default=0.05, help="simplex grid step (default 0.05)")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("certify", parents=[tol, seed], help="randomized ceiling certification")
    p.add_argument("--restarts", type=int, default=64, help="optimizer restarts (default 64)")
    p.add_argument("--samples", type=int, default=0, help="number of weight vectors (default 0: witness only)")
    p.add_argument("--zero-first", action="store_true", help="pin the smallest weight to zero (ceiling 9/5)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("peculiar", parents=[tol, seed], help="boundary-family sampling and region sweep")
    p.add_argument("--samples", type=int, default=1000, help="magnitude pairs / region points (default 1000)")
    p.add_argument("--lambdas", type=int, default=100, help="weight vectors per pair (default 100)")
    p.set_defaults(func=cmd_peculiar)

    return top


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
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