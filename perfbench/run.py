"""Benchmark for the isokit CLI: one seeded workload per run, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The run draws
its inputs from the seed, writes them under ``perfbench/_work/``, makes
one untimed warm-up call, then repeats jobs (closed loop, one caller)
calling ``isokit.cli.main(argv)`` in-process until ``--seconds`` of job
time have passed.  Between calls it launches a fresh
``python -m isokit.cli`` on the workload's smallest input, five times
spread over the run, to measure start-up.  Every output is checked by
``checks.py``, independently of the solver.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each job runs once plain and once with layer spans
(``tracing.py``), and the last line carries the per-layer metrics.  The
lines before it, prefixed ``#``, record the environment, the digest of
the CLI output and how each figure was taken.  A single workload exits 0
once it has printed its result, whose ``correct`` says whether every
output checked out; ``--workload all`` exits 1 if any did not.  Either
exits 2, printing no result, when the run cannot start (no
``src/isokit`` here, or more BLAS threads than CPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("normalize-bodies", "certify-ceiling", "lattice-exact", "lemma-sweeps")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ISOKIT_THREADS")
LAUNCHES = 5  # fresh-process start-ups per run, for setup_s
JOBS = 4  # distinct job inputs drawn per run; longer runs cycle through them
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it
MIN_JOBS = 3  # so that the median job is not an average of two
PROBE_GAP = 0.5  # seconds of job time between two host-speed probes


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_threads(nproc: int) -> None:
    """Refuse more BLAS threads than CPUs; default to one thread."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is None:
            continue
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            fail(f"{var}={value!r}: BLAS threads must be between 1 and nproc = {nproc}")
    default = os.environ.get("ISOKIT_THREADS", "1")
    for var in THREAD_VARS[:3]:
        os.environ.setdefault(var, default)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return sha


def environment(nproc: int) -> dict:
    import numpy

    cpu, l3 = None, None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": nproc,
        "cpu": cpu,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "git_sha": git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_cli():
    """isokit.cli.main from this checkout's src/, or exit 2."""
    if not (SRC / "isokit" / "cli.py").is_file():
        fail(f"no src/isokit/cli.py under {ROOT}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import isokit.cli

    if SRC.resolve() not in Path(isokit.cli.__file__).resolve().parents:
        fail(f"isokit was imported from {isokit.cli.__file__}, not from {SRC}")
    return isokit.cli.main


# ---------------------------------------------------------------------------
# calls and jobs


@dataclass
class JobResult:
    seconds: list = field(default_factory=list)  # one per call
    ops_per_call: list = field(default_factory=list)
    scales: list = field(default_factory=list)  # host-speed factor per call
    ops: int = 0
    failed: int = 0
    stdout: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def scaled_wall(self) -> float:
        return sum(t * k for t, k in zip(self.seconds, self.scales))

    def latencies(self, scaled: bool = True) -> list:
        """Seconds per op of each call."""
        return [t * (k if scaled else 1.0) / n for t, k, n in zip(self.seconds, self.scales, self.ops_per_call)]


def verdict(call, code, text: str, stderr: str, earlier: list):
    """(parsed output or None, problems) for one call."""
    if code != 0:
        return None, [f"exit code {code}: {stderr.strip()[:300]}"]
    try:
        out = json.loads(text)
    except ValueError:
        return None, ["stdout is not one JSON document"]
    try:
        return out, call.check(out, earlier)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return out, [f"malformed output: {exc!r}"]


def invoke(main, argv, tracer=None):
    """(exit code, stdout, stderr, seconds) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.call(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            code = f"uncaught {exc!r}"
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def run_job(main, job, tracer=None, probes: bool = False, between=None) -> JobResult:
    """Run the calls of one job, checking each output.

    With ``probes``, the host-speed kernel is timed before the first call,
    after the last, and after any call that ends PROBE_GAP seconds of calls
    since the previous probe.  A call between probes k and k+1 is scaled
    by the median of probes k-1 to k+2: close in time, and robust to the
    jitter of a single probe.
    """
    import hostspeed

    res = JobResult()
    earlier = []
    kernel = [hostspeed.probe()] if probes else []
    bracket = []  # index of the probe before each call
    since = 0.0
    for i, call in enumerate(job):
        code, text, stderr, seconds = invoke(main, list(call.argv), tracer)
        out, problems = verdict(call, code, text, stderr, earlier)
        earlier.append(out)
        res.seconds.append(seconds)
        res.ops_per_call.append(call.ops)
        res.ops += call.ops
        res.stdout.append(text)
        if problems:
            res.failed += call.ops
            res.problems.append(f"{' '.join(call.argv)}: {'; '.join(problems)}")
        bracket.append(len(kernel) - 1)
        since += seconds
        if probes and (since >= PROBE_GAP or i == len(job) - 1):
            kernel.append(hostspeed.probe())
            since = 0.0
        if between is not None:
            between(seconds)
    if probes:
        res.scales = [hostspeed.REF_SECONDS / statistics.median(kernel[max(k - 1, 0) : k + 3]) for k in bracket]
    else:
        res.scales = [1.0] * len(res.seconds)
    return res


def launch(call):
    """(seconds, problems) of a fresh `python -m isokit.cli` on ``call``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "isokit.cli", *call.argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    seconds = time.perf_counter() - t0
    return seconds, verdict(call, proc.returncode, proc.stdout, proc.stderr, [])[1]


def tail(values: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    With too few values for that, the maximum at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def spread(values: list) -> float:
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# ---------------------------------------------------------------------------
# the two kinds of run


@dataclass
class Tally:
    """Ops attempted and failed, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, res: JobResult) -> None:
        self.attempted += res.ops
        self.failed += res.failed
        self.problems += res.problems

    def extra(self, what: str, problems: list) -> None:
        """A warm-up or start-up call: one op, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def warm_up(main, plan, tally: Tally) -> None:
    code, text, stderr, _ = invoke(main, list(plan.smallest.argv))
    tally.extra("warm-up", verdict(plan.smallest, code, text, stderr, [])[1])


def measure(main, plan, seconds: float, launches: int, tally: Tally, notes: list) -> dict:
    """Untraced run; returns the end-to-end metrics.

    Times are scaled by the host speed the reference kernel saw around
    them (``hostspeed.py``); the raw figures go to the notes.
    """
    import hostspeed

    setup_raw, setup_times = [], []
    elapsed = 0.0  # call time measured so far
    marks = [seconds * k / launches for k in range(launches)]

    def start_up() -> None:
        before = hostspeed.probe()
        t, problems = launch(plan.smallest)
        setup_raw.append(t)
        setup_times.append(t * hostspeed.REF_SECONDS / ((before + hostspeed.probe()) / 2))
        tally.extra("start-up", problems)

    def between(call_seconds: float) -> None:
        # start-ups are due at evenly spaced marks of call time, and run
        # one at a time between two calls
        nonlocal elapsed
        elapsed += call_seconds
        if len(setup_times) < launches and elapsed >= marks[len(setup_times)]:
            start_up()

    warm_up(main, plan, tally)
    between(0.0)
    jobs = []
    while len(jobs) < MIN_JOBS or elapsed < seconds:
        jobs.append(run_job(main, plan.jobs[len(jobs) % len(plan.jobs)], probes=True, between=between))
        tally.add(jobs[-1])
        if len(jobs) == MIN_JOBS:
            # the peak can grow with every job (lemma-sweeps: ~120 MB per
            # job), so it is read at a job count that does not depend on
            # how fast the host runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < launches:
        start_up()

    # percentiles within each job, then the median over jobs: every job
    # asks for the same work, so this does not depend on how many ran
    def per_job(stat, scaled=True):
        return statistics.median(stat(r.latencies(scaled)) for r in jobs)

    tail_pct = tail(jobs[0].latencies())[1]
    digest = hashlib.sha256("".join(jobs[0].stdout).encode()).hexdigest()
    notes.append(f"digest sha256 of job 0 stdout: {digest}")
    notes.append(f"jobs {len(jobs)}: raw walls {[round(r.wall, 4) for r in jobs]}")
    notes.append(
        f"raw: wall_s {statistics.median(r.wall for r in jobs):.4f}, "
        f"op_p50_ms {1e3 * per_job(statistics.median, False):.4f}, "
        f"op_tail_ms {1e3 * per_job(lambda v: tail(v)[0], False):.4f}, "
        f"setup_s {statistics.median(setup_raw):.4f}"
    )
    notes.append(
        f"setup_s: median of {len(setup_times)} start-ups {[round(t, 4) for t in setup_times]}, "
        f"IQR/median {spread(setup_times):.3f} (raw {spread(setup_raw):.3f})"
    )
    notes.append(
        f"op_tail_ms: p{tail_pct:.1f} of the {len(jobs[0].seconds)} calls of a job "
        f"({TAIL_BEYOND if tail_pct < 100 else 0} beyond it), median over jobs"
    )
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.scaled_wall for r in jobs), "s"),
        "op_p50_ms": (1e3 * per_job(statistics.median), "ms"),
        "op_tail_ms": (1e3 * per_job(lambda v: tail(v)[0]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def measure_traced(main, plan, seconds: float, tally: Tally, notes: list) -> dict:
    """Each job plain and traced; returns the per-layer metrics.

    Span times are raw seconds; the tracing overhead compares host-scaled
    job times.
    """
    import tracing

    tracer = tracing.Tracer()
    warm_up(main, plan, tally)
    plain, traced = [], []
    while not plain or sum(r.wall for r in plain + traced) < seconds:
        job = plan.jobs[len(plain) % len(plan.jobs)]
        # the second run of the same inputs tends to be the faster one, so
        # the order alternates
        for with_spans in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not with_spans:
                plain.append(run_job(main, job, probes=True))
                continue
            tracer.install()
            try:
                traced.append(run_job(main, job, tracer, probes=True))
            finally:
                tracer.uninstall()
        tally.add(plain[-1])
        tally.add(traced[-1])
    base = sum(r.scaled_wall for r in plain)
    overhead = sum(r.scaled_wall for r in traced) / base - 1.0
    notes.append(
        f"trace.overhead_frac: host-scaled traced {sum(r.scaled_wall for r in traced):.4f} s "
        f"vs plain {base:.4f} s (raw {sum(r.wall for r in traced):.4f} vs {sum(r.wall for r in plain):.4f})"
    )
    notes.append(f"per-layer figures are per op over {sum(r.ops for r in traced)} traced ops")
    if tracer.missing:
        notes.append(f"boundaries not found (reported as zero): {', '.join(tracer.missing)}")
    return tracer.metrics(sum(r.ops for r in traced), overhead)


def run_one(args) -> int:
    nproc = cpu_count()
    pin_threads(nproc)
    if hasattr(os, "sched_setaffinity"):
        # the probes, the calls and the start-ups then share one core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    main = import_cli()
    import workloads

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env {json.dumps(environment(nproc))}")
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally, notes = Tally(), []
    try:
        plan = workloads.build(args.workload, workdir, args.seed, 1 if args.smoke else JOBS, args.smoke)
        if args.trace:
            metrics = measure_traced(main, plan, args.seconds, tally, notes)
        else:
            metrics = measure(main, plan, args.seconds, 1 if args.smoke else LAUNCHES, tally, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    for note in notes:
        print(f"# {note}")
    print(f"# fail_frac {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        status = max(status, proc.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return max(status, 1)
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return status if combined["correct"] else max(status, 1)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="job time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one start-up: for the tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run_all(args) if args.workload == "all" else run_one(args))
