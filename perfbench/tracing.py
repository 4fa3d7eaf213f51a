"""Per-layer spans recorded from outside the program.

The layers are isokit's modules.  A ``Tracer`` replaces the module-level
names through which one layer calls another (``isokit.john.mvee_centered``,
``isokit.lattice.difference_body``, ...) with timing wrappers, and reads
the work counters the wrapped functions already return
(``Ellipsoid.iterations``, ``CeilingCertificate.sweeps``,
``WidthResult.checked``).  Spans nest: a span's self time is its duration
minus that of the spans it caused.  A name or counter that no longer
exists is skipped, so its metrics read zero instead of failing the run.
"""

from __future__ import annotations

import importlib
import resource
import time
from dataclasses import dataclass
from typing import Callable


def _rss_mb() -> float:
    """Resident set size now, in MB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Boundary:
    """A name in ``module`` whose calls are recorded as ``span``.

    ``count(args, result)`` returns work counters to add up.
    """

    span: str
    module: str
    name: str
    count: Callable | None = None


def _difference_count(args, result):
    return {"geom.difference_vertices": len(result.vertices)}


def _mvee_count(args, result):
    return {"mvee.iterations": result.iterations, "mvee.points": len(args[0])}


BOUNDARIES = (
    Boundary("cli.render", "isokit.cli", "render_json"),
    Boundary("geom.from_json", "isokit.cli", "polytope_from_json"),
    Boundary("john.normalize", "isokit.cli", "normalize"),
    Boundary("lattice.corollary", "isokit.cli", "verify_width_volume_corollary"),
    Boundary("lattice.nonseparable", "isokit.cli", "is_nonseparable_unit_lattice"),
    Boundary("certifier.certify", "isokit.cli", "certify_random"),
    Boundary("bounds.grid", "isokit.cli", "grid_verify_all", lambda a, r: {"bounds.grid_points": r["n_points"]}),
    # the peculiar command imports these at call time, from the modules
    Boundary("admissible.peculiar", "isokit.admissible", "peculiar_from"),
    Boundary("admissible.region", "isokit.admissible", "five_square_max"),
    Boundary("admissible.region", "isokit.admissible", "f_eval"),
    Boundary("geom.polytope", "isokit.john", "Polytope"),
    Boundary("geom.polytope", "isokit.lattice", "Polytope"),
    Boundary("geom.difference_body", "isokit.john", "difference_body", _difference_count),
    Boundary("geom.difference_body", "isokit.lattice", "difference_body", _difference_count),
    Boundary("geom.volume", "isokit.john", "volume"),
    Boundary("geom.volume", "isokit.lattice", "volume"),
    Boundary("geom.diameter", "isokit.john", "diameter"),
    Boundary("mvee.solve", "isokit.john", "mvee_centered", _mvee_count),
    Boundary("mvee.solve", "isokit.lattice", "mvee_centered", _mvee_count),
    Boundary("mvee.contacts", "isokit.john", "contact_points", lambda a, r: {"mvee.contacts": len(r)}),
    Boundary("john.weights", "isokit.john", "john_weights"),
    Boundary("john.nnls", "isokit.john", "nnls"),
    Boundary("john.witness", "isokit.john", "witness_triple"),
    Boundary("lattice.width", "isokit.lattice", "lattice_width", lambda a, r: {"lattice.checked": r.checked}),
    Boundary("lattice.direction", "isokit.lattice", "width_in_direction"),
    Boundary("certifier.maximize", "isokit.certifier", "maximize_objective", lambda a, r: {"certifier.sweeps": r.sweeps}),
    Boundary("certifier.boundary", "isokit.certifier", "boundary_structure_check"),
)

ROOT = "cli.call"

#: per-layer metrics: name, unit, and which direction is better; README.md
#: gives each one's layer and the end-to-end metric it should move
PER_LAYER = (
    ("mvee.solve_s", "s", "lower"),
    ("mvee.solve_calls", "count", "lower"),
    ("mvee.iterations", "count", "lower"),
    ("mvee.points", "count", "lower"),
    ("mvee.us_per_iteration", "us", "lower"),
    ("mvee.contacts_s", "s", "lower"),
    ("mvee.contacts", "count", "lower"),
    ("geom.from_json_s", "s", "lower"),
    ("geom.from_json_calls", "count", "lower"),
    ("geom.polytope_s", "s", "lower"),
    ("geom.polytope_calls", "count", "lower"),
    ("geom.difference_body_s", "s", "lower"),
    ("geom.difference_body_calls", "count", "lower"),
    ("geom.difference_vertices", "count", "lower"),
    ("geom.volume_s", "s", "lower"),
    ("geom.diameter_s", "s", "lower"),
    ("john.normalize_self_s", "s", "lower"),
    ("john.weights_s", "s", "lower"),
    ("john.nnls_s", "s", "lower"),
    ("john.witness_s", "s", "lower"),
    ("lattice.width_s", "s", "lower"),
    ("lattice.width_calls", "count", "lower"),
    ("lattice.checked", "count", "lower"),
    ("lattice.direction_evals", "count", "lower"),
    ("lattice.direction_s", "s", "lower"),
    ("certifier.certify_s", "s", "lower"),
    ("certifier.maximize_s", "s", "lower"),
    ("certifier.lambdas", "count", "lower"),
    ("certifier.sweeps", "count", "lower"),
    ("certifier.ms_per_lambda", "ms", "lower"),
    ("certifier.boundary_s", "s", "lower"),
    ("bounds.grid_s", "s", "lower"),
    ("bounds.grid_points", "count", "higher"),
    ("bounds.points_per_s", "1/s", "higher"),
    ("bounds.rss_delta_mb", "MB", "lower"),
    ("admissible.peculiar_s", "s", "lower"),
    ("admissible.peculiar_calls", "count", "lower"),
    ("admissible.region_s", "s", "lower"),
    ("admissible.region_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Installs timing wrappers at layer boundaries and sums what they see."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans = {}  # span -> [calls, total seconds, self seconds]
        self.counters = {}
        self.missing = []
        self.rss_delta_mb = 0.0
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for b in self.boundaries:
            try:
                module = importlib.import_module(b.module)
            except ImportError:
                module = None
            original = getattr(module, b.name, None)
            if original is None:
                if f"{b.module}.{b.name}" not in self.missing:
                    self.missing.append(f"{b.module}.{b.name}")
                continue
            self._saved.append((module, b.name, original))
            setattr(module, b.name, self._wrap(b, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _enter(self) -> list:
        frame = [0.0]  # time spent in child spans
        self._stack.append(frame)
        return frame

    def _exit(self, span: str, frame: list, seconds: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += seconds
        st = self.spans.setdefault(span, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += seconds
        st[2] += seconds - frame[0]

    def _wrap(self, b: Boundary, original):
        track_rss = b.span == "bounds.grid"

        def wrapper(*args, **kwargs):
            rss_before = _rss_mb() if track_rss else 0.0
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(b.span, frame, time.perf_counter() - t0)
            if track_rss:
                self.rss_delta_mb = max(self.rss_delta_mb, _peak_rss_mb() - rss_before)
            if b.count is not None:
                try:
                    counts = b.count(args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    counts = {}
                for key, value in counts.items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return wrapper

    def call(self, fn, *args):
        """Run one CLI call as the root span; its self time is the CLI's own."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(ROOT, frame, time.perf_counter() - t0)

    def metrics(self, ops: int, overhead_frac: float) -> dict:
        """Every per-layer metric, counts and times per attempted op.

        Ratios (``us_per_iteration``, ``ms_per_lambda``, ``points_per_s``)
        are taken over the whole traced part of the run, and
        ``rss_delta_mb`` is the largest over the traced grid calls.
        """
        ops = max(ops, 1)

        def calls(span):
            return self.spans.get(span, [0, 0.0, 0.0])[0]

        def total(span):
            return self.spans.get(span, [0, 0.0, 0.0])[1]

        def own(span):
            return self.spans.get(span, [0, 0.0, 0.0])[2]

        def count(name):
            return self.counters.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "mvee.solve_s": total("mvee.solve") / ops,
            "mvee.solve_calls": calls("mvee.solve") / ops,
            "mvee.iterations": count("mvee.iterations") / ops,
            "mvee.points": count("mvee.points") / ops,
            "mvee.us_per_iteration": 1e6 * ratio(total("mvee.solve"), count("mvee.iterations")),
            "mvee.contacts_s": total("mvee.contacts") / ops,
            "mvee.contacts": count("mvee.contacts") / ops,
            "geom.from_json_s": total("geom.from_json") / ops,
            "geom.from_json_calls": calls("geom.from_json") / ops,
            "geom.polytope_s": total("geom.polytope") / ops,
            "geom.polytope_calls": calls("geom.polytope") / ops,
            "geom.difference_body_s": total("geom.difference_body") / ops,
            "geom.difference_body_calls": calls("geom.difference_body") / ops,
            "geom.difference_vertices": count("geom.difference_vertices") / ops,
            "geom.volume_s": total("geom.volume") / ops,
            "geom.diameter_s": total("geom.diameter") / ops,
            "john.normalize_self_s": own("john.normalize") / ops,
            "john.weights_s": total("john.weights") / ops,
            "john.nnls_s": total("john.nnls") / ops,
            "john.witness_s": total("john.witness") / ops,
            "lattice.width_s": total("lattice.width") / ops,
            "lattice.width_calls": calls("lattice.width") / ops,
            "lattice.checked": count("lattice.checked") / ops,
            "lattice.direction_evals": calls("lattice.direction") / ops,
            "lattice.direction_s": total("lattice.direction") / ops,
            "certifier.certify_s": total("certifier.certify") / ops,
            "certifier.maximize_s": total("certifier.maximize") / ops,
            "certifier.lambdas": calls("certifier.maximize") / ops,
            "certifier.sweeps": count("certifier.sweeps") / ops,
            "certifier.ms_per_lambda": 1e3 * ratio(total("certifier.maximize"), calls("certifier.maximize")),
            "certifier.boundary_s": total("certifier.boundary") / ops,
            "bounds.grid_s": total("bounds.grid") / ops,
            "bounds.grid_points": count("bounds.grid_points") / ops,
            "bounds.points_per_s": ratio(count("bounds.grid_points"), total("bounds.grid")),
            "bounds.rss_delta_mb": self.rss_delta_mb,
            "admissible.peculiar_s": total("admissible.peculiar") / ops,
            "admissible.peculiar_calls": calls("admissible.peculiar") / ops,
            "admissible.region_s": total("admissible.region") / ops,
            "admissible.region_calls": calls("admissible.region") / ops,
            "cli.self_s": own(ROOT) / ops,
            "cli.render_s": total("cli.render") / ops,
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
