"""Command-line front end: JSON in, JSON out.

Subcommands, each with only the flags it reads
----------------------------------------------
normalize FILE [--tol]            normalization certificate for a polytope
width FILE                        exact lattice width and width-volume report
verify-lemmas [--grid-step]       grid check of the four weight-product bounds
certify [--samples --restarts --seed --tol --zero-first]
                                  randomized check of the objective ceiling
peculiar [--samples --lambdas --seed --tol]
                                  boundary-family and region sweep

Each subcommand is one library call plus its payload and exit code, in
the one arithmetic its result needs: ``normalize`` reads coordinates as
doubles and takes their float hull, ``width`` reads them exactly (a
decimal at face value) into an exact ``Polytope``.

Exit codes: 0 success; 2 bad input or configuration, that is a
``PreconditionError`` (``DegenerateInput`` is one); 3 a mathematical
bound failed to verify, that is an alarm or any other ``IsokitError``.
Code 3 signals a numerical fault in the library, never a user error.

All output is a single JSON document written to stdout at the end of the
run.  Floats carry 17 significant digits; exact rationals appear as
"p/q" strings.  Runs are deterministic given the input file and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .admissible import peculiar_sweep
from .bounds import grid_verify_all
from .certifier import certify_random
from .errors import IsokitError, PreconditionError
from .geom import Polytope, points_from_json
from .john import IDQ_LOWER_BOUND, WITNESS_LOWER_BOUND, normalize
from .lattice import verify_width_volume_corollary


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


def _load_points(path: str, exact: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    try:
        return points_from_json(text, exact)
    except (json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
        raise PreconditionError(f"cannot parse {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit_code)


def _alarm(quantity: str, value, bound, ceiling: bool = False, note: str = "") -> int:
    """Print the alarm for a value past its bound, naming both and the margin; returns exit code 3."""
    margin = float(value - bound) if ceiling else float(bound - value)
    side = "above ceiling" if ceiling else "below guaranteed bound"
    print(f"alarm: {quantity} {float(value):.17g} {side} {float(bound):.17g} by {margin:.3e}{note}", file=sys.stderr)
    return 3


def cmd_normalize(args):
    res = normalize(_load_points(args.file, False), tol=args.tol)
    payload = res.to_json_dict()
    for name, value, bound in (
        ("idq", res.idq, IDQ_LOWER_BOUND),
        ("witness value", res.witness_value, WITNESS_LOWER_BOUND),
    ):
        threshold = bound - 10.0 * args.tol
        if not value >= threshold:  # NaN fails it too
            return payload, _alarm(name, value, threshold)
    return payload, 0


def cmd_width(args):
    payload = verify_width_volume_corollary(Polytope(_load_points(args.file, True)))
    if not payload["holds"]:
        return payload, _alarm("volume", payload["volume"], payload["bound"], note=" (bound omega^3/12)")
    return payload, 0


def cmd_verify_lemmas(args):
    rep = grid_verify_all(args.grid_step)
    if rep["violations"]:
        fam = rep["families"][rep["worst_family"]]
        note = f" ({len(rep['violations'])} grid violations)"
        return rep, _alarm(f"{rep['worst_family']} sum", fam["max_value"], fam["bound"], True, note)
    return rep, 0


def cmd_certify(args):
    payload = certify_random(args.samples, args.restarts, args.seed, args.zero_first, args.tol)
    if payload["violations"]:
        note = f" ({len(payload['violations'])} of {payload['n_lambda']} weight vectors)"
        return payload, _alarm("objective", payload["global_max"], payload["bound"] + payload["tol"], True, note)
    return payload, 0


def cmd_peculiar(args):
    payload = peculiar_sweep(args.samples, args.lambdas, args.seed, args.tol)
    if payload["violations"]:
        # the sweep lists violations in this order: objective, five_square, region_total
        kind = payload["violations"][0]["kind"]
        note = f" ({len(payload['violations'])} violations)"
        return payload, _alarm(kind, payload[f"{kind}_max"], payload[f"{kind}_bound"] + args.tol, True, note)
    return payload, 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # built once per process; the handlers look up library names at call time
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="isokit", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    # shared flags, checked in main before any handler runs
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")

    p = sub.add_parser("normalize", parents=[tol], help="normalization certificate for a polytope file")
    p.add_argument("file", help="polytope JSON file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("width", help="exact lattice width and width-volume report")
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
        if not 0.0 < getattr(args, "tol", 1.0) < math.inf:
            raise PreconditionError("tolerance must be a positive finite real")
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise PreconditionError("seed must be a 64-bit unsigned integer")
        payload, code = args.func(args)
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