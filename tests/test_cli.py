"""End-to-end CLI checks run through a real subprocess."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import EXTREMAL_SIMPLEX, LATTICE_CATALOGUE, REGULAR_TETRA, UNIT_CUBE

from isokit import errors

SQRT2_12 = math.sqrt(2.0) / 12.0
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "isokit.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("polytopes")

    def dump(name, verts):
        p = d / name
        p.write_text(json.dumps({"vertices": [list(v) for v in verts]}))
        return str(p)

    garbage = d / "garbage.json"
    garbage.write_text("{not json")
    return {
        "garbage": str(garbage),
        "tetra": dump("tetra.json", [[float(c) for c in v] for v in REGULAR_TETRA]),
        "cube": dump("cube.json", UNIT_CUBE),
        "extremal": dump(
            "extremal.json",
            [["0", "0", "0"], ["1", "1/2", "1/2"], ["1/2", "1", "1/2"], ["1/2", "1/2", "1"]],
        ),
        "coplanar": dump("coplanar.json", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
        "shrunk": dump("shrunk.json", [[0.9 * x, 0.9 * y, 0.9 * z] for x, y, z in UNIT_CUBE]),
        # coordinates past the double range, as a JSON integer and as a string
        "huge_int": dump("huge_int.json", [[10**400, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        "huge_str": dump("huge_str.json", [["1e400", 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        # the extremal simplex and its inner point (1/2, 1/2, 1/2) at scale 1e200:
        # Qhull accepts it, and its float volume overflows to NaN
        "scaled": dump("scaled.json", [[1e200 * c for c in v] for v in EXTREMAL_SIMPLEX + [(0.5, 0.5, 0.5)]]),
    }


def test_normalize_tetrahedron(files):
    r = run_cli("normalize", files["tetra"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert set(out) == {"T", "idq", "lambda", "u", "witness"}
    assert abs(out["idq"] - SQRT2_12) <= 1e-6
    assert len(out["T"]) == 9 and len(out["lambda"]) == 6
    assert len(out["u"]) == 6 and all(len(row) == 3 for row in out["u"])
    ijk = out["witness"]["ijk"]
    assert len(ijk) == 3 and all(1 <= i <= 6 for i in ijk)
    assert out["witness"]["value"] >= 1.0 / math.sqrt(2.0) - 1e-6


def test_normalize_cube(files):
    r = run_cli("normalize", files["cube"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert abs(out["idq"] - 3.0**-1.5) <= 1e-6


def test_width_extremal_simplex(files):
    r = run_cli("width", files["extremal"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["omega"] == "1"
    assert out["volume"] == "1/12"
    assert out["bound"] == "1/12"
    assert out["slack"] == "0"
    assert out["direction"] == [1, 1, -1]
    assert out["exact"] is True and out["holds"] is True
    assert out["nonseparable"] is True


def test_width_shrunk_cube(files):
    r = run_cli("width", files["shrunk"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["omega"] == "9/10"  # decimals read at face value in rational mode
    assert out["nonseparable"] is False
    assert out["holds"] is True


# SHA-256 of `isokit width` stdout on the LATTICE_CATALOGUE shapes and the
# demo bodies; the ids name the arithmetic, rational, the digests were taken in
WIDTH_STDOUT_SHA256 = [
    ("catalogue-0", "3d2ccd8207653102d769bf7abcb338371dc1b0b06865393f7aa2c031952898c4"),
    ("catalogue-1", "db926d474e6c65008a3306b80a5630ceb0425989a9fa3f25b5c559908e0690e9"),
    ("catalogue-2", "f70be059b12416536efb690eeda4f10b7fb294c63067437369089f5f83bd37a8"),
    ("catalogue-3", "096c4ebde636538892dec983c272628b9167c924da5f3f82414f5cff6c524d7c"),
    ("catalogue-4", "42893463a27ae7556f3e688ba0e6a62648b0e71dcc6f35e6545dae82f5093dd4"),
    ("catalogue-5", "375c5ea342d6805fcf187dc361ed2a3a360b531f2f27c57831ae654ec5c88e6b"),
    ("catalogue-6", "696bd0b66fa7423447b919a92375a8063e18ed9e6a2ff12ebf9cf13db915f482"),
    ("catalogue-7", "568372266386dbba0ef0f0c4ebe209c871e27f46b9b2501d7831cb93237bb28f"),
    ("catalogue-8", "4bd8b84ceeced0caa2047f467ee6641b7bde08fe5deaa4047d68c72f8c6cbdfa"),
    ("catalogue-9", "6e614ba114148615bbb7980b8f3e3632f1778d887f67c454076172bb5cf69ce9"),
    ("cube", "a5572ac0dca92be1b824dd9c0655c84f5ef8bc68965e3374c4d3ce42fd958b6b"),
    ("extremal_simplex", "3d2ccd8207653102d769bf7abcb338371dc1b0b06865393f7aa2c031952898c4"),
    ("flat_slab", "2ec6370518c7c1788af43aea6217665fdb1ea4fe41c322941b4a970d00442744"),
    ("random_12", "3f95a21cce6bec1ba57d21dce0198ec7866977118aacf9af6c36246dc885415d"),
    ("tetrahedron", "2b083c6b7b390d0e23e16fbed5a9d6a5dd25f922bb71afb11620999483a38256"),
]


@pytest.mark.parametrize("body, digest", WIDTH_STDOUT_SHA256, ids=[f"{b}-rational-{d}" for b, d in WIDTH_STDOUT_SHA256])
def test_width_output_is_pinned(tmp_path, capsys, body, digest):
    from isokit import cli

    if body.startswith("catalogue-"):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"vertices": LATTICE_CATALOGUE[int(body[10:])]}))
    else:
        path = DEMO_DATA / f"{body}.json"
    assert cli.main(["width", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of `isokit verify-lemmas --grid-step STEP` stdout; every grid value
# is exact and rounded once, so these do not depend on BLAS summation order
LEMMAS_STDOUT_SHA256 = [
    ("0.5", "a31c333354f5e711f2ff73ddd83ff3b2e8f3e5af2573a109ceabf9d67fbb6dd6"),
    ("0.25", "a33e278498be358aab71a5d155695880600b1c8a66e2f2eb553e414071040a24"),
    ("0.1", "87f9ee91f5bb8d9bddd080f095f61fb1dcdfca7db68e20fe5828d275c752861f"),
    ("0.05", "b598c2465aacc646c59eed2bfaa163d8fd9990020f916e47705907d3f43b921a"),
    ("0.01", "23b1201dda07322747bd07b3580e85d828a0a78a6ed326ac721faa50743d4fa8"),
]


@pytest.mark.parametrize("step, digest", LEMMAS_STDOUT_SHA256)
def test_verify_lemmas_output_is_pinned(capsys, step, digest):
    from isokit import cli

    assert cli.main(["verify-lemmas", "--grid-step", step]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_degenerate_input_exits_2(files):
    r = run_cli("normalize", files["coplanar"])
    assert r.returncode == 2
    assert "DegenerateInput" in r.stderr
    assert r.stdout == ""


def test_normalize_refuses_more_than_3000_vertices(tmp_path):
    # every point of a unit-sphere body is a vertex
    x = np.random.default_rng(0).normal(size=(3001, 3))
    path = tmp_path / "sphere3001.json"
    path.write_text(json.dumps({"vertices": (x / np.linalg.norm(x, axis=1, keepdims=True)).tolist()}))
    r = run_cli("normalize", str(path))
    assert r.returncode == 2
    assert "PreconditionError" in r.stderr and "at most 3000 vertices, got 3001" in r.stderr
    assert r.stdout == ""


def test_parse_error_exits_2(files, tmp_path, capsys):
    r = run_cli("normalize", files["garbage"])
    assert r.returncode == 2
    assert "cannot parse" in r.stderr
    r = run_cli("normalize", "/nonexistent/nope.json")
    assert r.returncode == 2
    assert "cannot read" in r.stderr
    # bytes that are not UTF-8, and lists nested past the JSON parser's recursion limit
    from isokit import cli

    not_utf8, nested = tmp_path / "not_utf8.json", tmp_path / "nested.json"
    not_utf8.write_bytes(b"\xff\xfe")
    nested.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for command in ("normalize", "width"):
        for path, refusal in ((not_utf8, "cannot read"), (nested, "cannot parse")):
            assert cli.main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: PreconditionError: {refusal} {path}: ")


def test_bad_config_exits_2(files):
    assert run_cli("verify-lemmas", "--grid-step", "0.6").returncode == 2
    assert run_cli("verify-lemmas", "--grid-step", "0").returncode == 2
    assert run_cli("normalize", files["tetra"], "--tol", "0").returncode == 2
    assert run_cli("normalize", files["tetra"], "--tol", "inf").returncode == 2
    # below the solver's floor the duality gap cannot close in doubles
    assert run_cli("normalize", files["tetra"], "--tol", "1e-13").returncode == 2
    assert run_cli("certify", "--samples", "3", "--tol", "inf").returncode == 2
    assert run_cli("peculiar", "--tol", "inf").returncode == 2
    # the shared flags are checked in main, before any handler runs
    for argv, first_line in (
        (["certify", "--tol", "0"], "error: PreconditionError: tolerance must be a positive finite real"),
        (["peculiar", "--tol", "-1"], "error: PreconditionError: tolerance must be a positive finite real"),
        (["certify", "--seed", "-1"], "error: PreconditionError: seed must be a 64-bit unsigned integer"),
        (["peculiar", "--seed", str(2**64)], "error: PreconditionError: seed must be a 64-bit unsigned integer"),
    ):
        r = run_cli(*argv)
        assert (r.returncode, r.stderr.splitlines()[0]) == (2, first_line)
    assert run_cli("certify", "--samples", "-1").returncode == 2
    assert run_cli("certify", "--samples", "1", "--restarts", "10001").returncode == 2
    assert run_cli("certify", "--restarts", "0").returncode == 2
    assert run_cli("certify", "--samples", "100001").returncode == 2
    assert run_cli("peculiar", "--samples", "1000001", "--lambdas", "1").returncode == 2
    assert run_cli("peculiar", "--samples", "1", "--lambdas", "10001").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("normalize", files["tetra"], "--bogus-flag").returncode == 2
    # each command has one arithmetic, so neither takes --mode
    assert run_cli("width", files["extremal"], "--mode", "float").returncode == 2
    assert run_cli("normalize", files["tetra"], "--mode", "rational").returncode == 2
    # bodies beyond double arithmetic: refused, never a traceback
    for body in ("huge_int", "huge_str", "scaled"):
        assert run_cli("normalize", files[body]).returncode == 2


# normalize's refusals of malformed bodies: the JSON text and the first stderr line
_SIMPLEX_ROWS = "[0, 1, 0], [0, 0, 1], [0, 0, 0]"
NORMALIZE_REFUSALS = [
    ("nan", f"[[NaN, 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: non-finite coordinate"),
    ("infinity", f"[[Infinity, 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: non-finite coordinate"),
    ("true", f"[[true, 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: bad coordinate True"),
    ("null", f"[[null, 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: bad coordinate None"),
    ("nested-list", f"[[[1], 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: bad coordinate [1]"),
    ("two-coordinates", f"[[1, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: each vertex must be a list of 3 coordinates"),
    (
        "int-past-doubles",
        f"[[{10**400}, 0, 0], {_SIMPLEX_ROWS}]",
        "error: PreconditionError: coordinate out of float range: its integer part has 401 digits",
    ),
    ("1e400", f"[[1e400, 0, 0], {_SIMPLEX_ROWS}]", "error: PreconditionError: non-finite coordinate"),
    ("three-distinct", "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0.0], [-0.0, 0, 0]]", "error: DegenerateInput: need at least 4 distinct points"),
    # "..." stands for the rest of Qhull's own message
    ("flat", "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]]", "error: DegenerateInput: qhull rejected the input: QH6154 ..."),
]


@pytest.mark.parametrize("rows, first_line", [c[1:] for c in NORMALIZE_REFUSALS], ids=[c[0] for c in NORMALIZE_REFUSALS])
def test_normalize_refusals_exit_2(tmp_path, capsys, rows, first_line):
    from isokit import cli

    path = tmp_path / "body.json"
    path.write_text(f'{{"vertices": {rows}}}')
    assert cli.main(["normalize", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    line = err.splitlines()[0]
    assert line.startswith(first_line[:-3]) if first_line.endswith("...") else line == first_line


@pytest.mark.parametrize("scale", [1e-13, 1e-14, 1e-90, 1e-100])
def test_normalize_accepts_small_bodies(tmp_path, capsys, scale):
    # idq does not depend on scale: the rank test is relative, and
    # nothing overflows however large the map T gets
    from isokit import cli

    body = REGULAR_TETRA + [(0.0, 0.0, 0.0)]
    idq = []
    for s in (1.0, scale):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"vertices": [[s * c for c in v] for v in body]}))
        assert cli.main(["normalize", str(path)]) == 0
        idq.append(json.loads(capsys.readouterr().out)["idq"])
    assert idq[1] == pytest.approx(idq[0], rel=1e-12)


TINY_BODIES = [
    # vol(K) underflows and det T overflows: the refusal names the non-finite idq
    *[
        (str(s), np.random.default_rng(0).normal(size=(40, 3)) * s, "error: PreconditionError: idq is not finite: vol(K) = 0, ")
        for s in (1e-150, 1e-200, 1e-300)
    ],
    # subnormal coordinates: the whitening map overflows
    *[(f"cube-{s}", np.array(UNIT_CUBE) * s, "error: PreconditionError: whitening map is not finite") for s in (1e-309, 1e-320)],
]


@pytest.mark.parametrize("pts, first_line", [c[1:] for c in TINY_BODIES], ids=[c[0] for c in TINY_BODIES])
def test_normalize_refuses_tiny_bodies_without_warnings(tmp_path, pts, first_line):
    # no warning escapes the refusal under -W error
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"vertices": pts.tolist()}))
    r = subprocess.run(
        [sys.executable, "-W", "error", "-m", "isokit.cli", "normalize", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(first_line)


@pytest.mark.parametrize("body", ["huge_int", "huge_str", "scaled"])
def test_width_reads_bodies_beyond_doubles_exactly(files, body):
    r = run_cli("width", files[body])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["exact"] is True and out["holds"] is True
    assert Fraction(out["slack"]) >= 0


def loaded_modules(argv, package):
    """Run the CLI in a fresh interpreter; return its stdout and the loaded modules of ``package``."""
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('isokit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})), file=sys.stderr)\n"
    )
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout, r.stderr


@pytest.mark.parametrize("argv", [["certify", "--samples", "0"], ["verify-lemmas", "--grid-step", "0.5"]])
def test_commands_without_hulls_load_no_scipy(argv):
    # scipy is imported by the float hull only, when first used
    stdout, modules = loaded_modules(argv, "scipy")
    assert json.loads(stdout)
    assert modules == "[]\n"


def test_import_sets_no_thread_variables():
    # isokit has no thread setting of its own: BLAS reads the standard variables
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["ISOKIT_THREADS"] = "3"
    code = f"import os, isokit; print([os.environ.get(v) for v in {thread_vars!r}])"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[None, None, None]\n"


def test_normalize_loads_no_scipy_optimize(files):
    # the John decomposition comes from the ellipsoid solver's own weights
    stdout, modules = loaded_modules(["normalize", files["cube"]], "scipy.optimize")
    assert json.loads(stdout)["idq"] > 0.0
    assert modules == "[]\n"


def test_grid_step_domain_is_the_library_one():
    # the library accepts steps in [0.01, 0.5]; the CLI adds no narrower check
    r = run_cli("verify-lemmas", "--grid-step", "0.5")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["step"] == 0.5
    assert out["violations"] == []


def test_flags_a_subcommand_never_reads_exit_2(files):
    assert run_cli("normalize", files["tetra"], "--seed", "1").returncode == 2
    assert run_cli("width", files["extremal"], "--tol", "1e-9").returncode == 2
    assert run_cli("verify-lemmas", "--restarts", "8").returncode == 2
    r = run_cli("peculiar", "--samples", "10", "--restarts", "8")
    assert r.returncode == 2
    assert "unrecognized arguments: --restarts" in r.stderr


def test_peculiar_needs_a_weight_vector():
    r = run_cli("peculiar", "--samples", "10", "--lambdas", "0")
    assert r.returncode == 2
    assert "PreconditionError" in r.stderr


def test_verify_lemmas_coarse_grid():
    r = run_cli("verify-lemmas", "--grid-step", "0.25")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["violations"] == []
    assert out["n_points"] == 58
    assert out["max_value"] == 0.0
    assert out["argmax_lambda"] == [0.5] * 6
    assert set(out["families"]) == {"pair_drop", "triple_drop", "zero_lambda", "weighted"}


def test_certify_witness_only():
    r = run_cli("certify", "--samples", "0")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["global_max"] == 2.0
    assert out["witness_value"] == 2.0
    assert out["argmax_lambda"] == [0.5] * 6
    assert out["violations"] == []


def test_certify_rerun_is_byte_identical():
    a = run_cli("certify", "--samples", "5", "--seed", "7", "--restarts", "8")
    b = run_cli("certify", "--samples", "5", "--seed", "7", "--restarts", "8")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout.endswith("}\n")


def test_certify_zero_first_bound():
    r = run_cli("certify", "--samples", "3", "--restarts", "8", "--zero-first")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["bound"] == 1.8
    assert out["witness_value"] is None
    assert out["global_max"] <= 1.8 + 1e-6


def test_peculiar_sweep():
    r = run_cli("peculiar", "--samples", "100", "--lambdas", "20", "--seed", "3")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["violations"] == []
    assert out["objective_max"] <= 2.0 + 1e-9
    assert out["five_square_max"] <= 9.0 / 16.0 + 1e-12
    assert out["region_total_max"] <= 2.0 + 1e-9
    x, y = out["argmax_pair"]
    assert 0 < x <= 1 and 0 < y <= 1 and x + y >= 1

@pytest.mark.parametrize(
    "field, value, name",
    [("idq", 0.1, "idq"), ("witness_value", 0.7, "witness value")],
)
def test_normalize_alarms_name_the_bound(files, monkeypatch, capsys, field, value, name):
    # a decomposition pushed below its floor: exit 3, and the message
    # names the quantity, its value, the bound and the margin
    import dataclasses

    from isokit import cli, john

    def weakened(points, tol):
        return dataclasses.replace(john.normalize(points, tol=tol), **{field: value})

    monkeypatch.setattr(cli, "normalize", weakened)
    assert cli.main(["normalize", files["tetra"]]) == 3
    bound = {"idq": math.sqrt(2.0) / 12.0, "witness_value": 1.0 / math.sqrt(2.0)}[field] - 1e-8
    err = capsys.readouterr().err
    assert err == f"alarm: {name} {value:.17g} below guaranteed bound {bound:.17g} by {bound - value:.3e}\n"


@pytest.mark.parametrize(
    "argv, target, changes, expected",
    [
        (
            ["width", "extremal"],
            "verify_width_volume_corollary",
            {"volume": Fraction(1, 24), "holds": False},
            "alarm: volume 0.041666666666666664 below guaranteed bound 0.083333333333333329 by 4.167e-02"
            " (bound omega^3/12)",
        ),
        (
            ["verify-lemmas", "--grid-step", "0.5"],
            "grid_verify_all",
            {
                "worst_family": "triple_drop",
                "violations": [{}] * 3,
                "families": {"triple_drop": {"max_value": 1.9, "bound": 1.8}},
            },
            "alarm: triple_drop sum 1.8999999999999999 above ceiling 1.8 by 1.000e-01 (3 grid violations)",
        ),
        (
            ["certify", "--samples", "2", "--restarts", "4", "--tol", "0.0009765625"],
            "certify_random",
            {"global_max": 2.5, "violations": [{}]},
            "alarm: objective 2.5 above ceiling 2.0009765625 by 4.990e-01 (1 of 2 weight vectors)",
        ),
        (
            ["peculiar", "--samples", "10", "--lambdas", "2", "--tol", "0.0009765625"],
            "peculiar_sweep",
            {"five_square_max": 0.6, "violations": [{"kind": "five_square"}, {"kind": "region_total"}]},
            "alarm: five_square 0.59999999999999998 above ceiling 0.5634765625 by 3.652e-02 (2 violations)",
        ),
    ],
)
def test_alarms_name_the_bound(files, monkeypatch, capsys, argv, target, changes, expected):
    # every sweep's alarm names the quantity, its value, the bound and the margin
    from isokit import cli

    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *a, **k: {**real(*a, **k), **changes})
    argv = [files.get(a, a) for a in argv]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == expected + "\n"


@pytest.mark.parametrize("name", errors.__all__)
def test_exit_code_follows_the_exception_type(monkeypatch, capsys, name):
    # a PreconditionError is a refusal (exit 2); any other isokit error is an alarm (exit 3)
    from isokit import cli

    exc = getattr(errors, name)

    def raising(*args, **kwargs):
        raise exc("raised by the library")

    monkeypatch.setattr(cli, "certify_random", raising)
    code = cli.main(["certify"])
    err = capsys.readouterr().err
    if issubclass(exc, errors.PreconditionError):
        assert (code, err) == (2, f"error: {name}: raised by the library\n")
    else:
        assert (code, err) == (3, f"alarm: {name}: raised by the library\n")
