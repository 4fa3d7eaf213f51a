"""End-to-end CLI checks run through a real subprocess."""

import json
import math
import subprocess
import sys

import pytest
from conftest import REGULAR_TETRA, UNIT_CUBE

SQRT2_12 = math.sqrt(2.0) / 12.0


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


def test_degenerate_input_exits_2(files):
    r = run_cli("normalize", files["coplanar"])
    assert r.returncode == 2
    assert "DegenerateInput" in r.stderr
    assert r.stdout == ""


def test_parse_error_exits_2(files):
    r = run_cli("normalize", files["garbage"])
    assert r.returncode == 2
    assert "cannot parse" in r.stderr
    r = run_cli("normalize", "/nonexistent/nope.json")
    assert r.returncode == 2
    assert "cannot read" in r.stderr


def test_bad_config_exits_2(files):
    assert run_cli("verify-lemmas", "--grid-step", "0.6").returncode == 2
    assert run_cli("verify-lemmas", "--grid-step", "0").returncode == 2
    assert run_cli("normalize", files["tetra"], "--tol", "0").returncode == 2
    assert run_cli("certify", "--samples", "-1").returncode == 2
    assert run_cli("certify", "--samples", "1", "--restarts", "10001").returncode == 2
    assert run_cli("peculiar", "--samples", "1000001", "--lambdas", "1").returncode == 2
    assert run_cli("peculiar", "--samples", "1", "--lambdas", "10001").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("normalize", files["tetra"], "--bogus-flag").returncode == 2


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