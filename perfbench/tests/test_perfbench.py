"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke():
    """trace flag -> (process, result) of a smoke run over every workload."""
    runs = {}
    for trace in (0, 1):
        proc = bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
        runs[trace] = proc, json.loads(proc.stdout.splitlines()[-1])
    return runs


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_of_every_workload(smoke, trace):
    proc, result = smoke[trace]
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name in names:
            metric = result["metrics"][f"{workload}/{name}"]
            assert isinstance(metric["value"], float), (workload, name)
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0 and proc.returncode == 0, proc.stderr


def test_smoke_traced_counts_match_the_pipeline(smoke):
    metrics = smoke[1][1]["metrics"]
    assert metrics["normalize-bodies/geom.polytope_calls"]["value"] == 2.0
    assert metrics["lattice-exact/lattice.width_calls"]["value"] == 2.0
    assert metrics["certify-ceiling/mvee.solve_calls"]["value"] == 0.0


def test_missing_boundary_reports_zero_calls():
    boundaries = tracing.BOUNDARIES + (
        tracing.Boundary("mvee.solve", "isokit.john", "no_such_function"),
        tracing.Boundary("lattice.width", "isokit.no_such_module", "lattice_width"),
    )
    tracer = tracing.Tracer(boundaries)
    tracer.install()
    tracer.uninstall()
    assert "isokit.john.no_such_function" in tracer.missing
    assert "isokit.no_such_module.lattice_width" in tracer.missing
    metrics = tracer.metrics(ops=5, overhead_frac=0.0)
    assert metrics["mvee.solve_calls"]["value"] == 0.0
    assert metrics["lattice.width_calls"]["value"] == 0.0


def test_counter_that_no_longer_fits_is_skipped():
    tracer = tracing.Tracer(())
    wrapped = tracer._wrap(tracing.Boundary("mvee.solve", "m", "f", lambda a, r: {"mvee.iterations": r.iterations}), len)
    assert tracer.call(wrapped, [1, 2, 3]) == 3
    assert tracer.metrics(ops=1, overhead_frac=0.0)["mvee.solve_calls"]["value"] == 1.0
    assert tracer.counters == {}


def test_refuses_more_blas_threads_than_cpus():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(run.cpu_count() + 1))
    proc = bench("--workload", "certify-ceiling", "--seed", "1", "--seconds", "0", "--smoke", env=env)
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-sweeps", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_tail_keeps_ten_values_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_grid_size_counts_sorted_weight_tuples():
    assert checks.grid_size(150) == 1_229_120
    assert checks.grid_size(60) == 19_858


def test_width_check_catches_a_wrong_width():
    vertices = [tuple(Fraction(c) for c in v) for v in workloads.EXTREMAL_SIMPLEX]
    good = {
        "omega": "1",
        "direction": [1, 0, 0],
        "volume": "1/12",
        "bound": "1/12",
        "slack": "0",
        "exact": True,
        "holds": True,
        "nonseparable": True,
    }
    assert checks.width(good, vertices) == []
    assert checks.width(dict(good, omega="2", bound="2/3", slack="-7/12"), vertices)
    assert checks.width(good, vertices, twin=dict(good, volume="1/6"))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="isokit normalize fails on workloads.KNOWN_DEFECT")
def test_known_defect_draws_normalize(tmp_path):
    main = run.import_cli()
    draws = workloads._normalize_draws()
    for i in sorted(workloads.KNOWN_DEFECT):
        for s in range(10):
            pts = draws[i][1] @ workloads._rotation(np.random.default_rng([s, i])).T
            path = workloads._write(tmp_path / f"d{i}_{s}.json", pts.tolist())
            code = run.invoke(main, ["normalize", path])[0]
            assert code == 0, f"draw {i}, rotation {s}: exit {code}"


def test_normalize_check_catches_a_broken_certificate():
    lam = [0.5] * 6
    s = 2**-0.5
    u = [[s, s, 0], [s, -s, 0], [s, 0, s], [s, 0, -s], [0, s, s], [0, s, -s]]
    good = {"T": [1, 0, 0, 0, 1, 0, 0, 0, 1], "idq": 0.118, "lambda": lam, "u": u}
    good["witness"] = {"ijk": [1, 3, 5], "value": abs(np.linalg.det(np.array([u[0], u[2], u[4]])))}
    assert checks.normalize(good, 1e-9) == []
    assert checks.normalize(dict(good, **{"lambda": [0.6] + lam[1:]}), 1e-9)
    assert checks.normalize(dict(good, idq=0.1), 1e-9)
