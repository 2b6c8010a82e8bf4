"""Benchmark harness for the colouredhopf verification engine.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-draw --seed 0 --seconds 40 --trace 0

Workloads (see NOTES.md for why each exists and what it should move):

  verify-draw    one request is ``cli.main(["verify", "--seed", k, "--draws", "1", ...])``
  deep-probe     one request runs three symbolic verifiers on one fresh probe of degree <= 4
  rmatrix-sweep  one request is ``cli.main(["sweep", ...])`` over a 4x4x4 colour grid

Every workload is a closed loop with one client in one process and one
thread.  Inputs are made from ``--seed`` by the harness itself, so a change
to the program cannot change them; the exception is ``verify-draw``, whose
request is the CLI's own seeded draw.  Every output is checked against
tolerances held here, not the program's.  Request latency and throughput
are measured in process CPU time (NOTES.md says why).

``--trace 0`` runs the package untouched for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of requests untraced
and then as many further requests with the public functions of each module
wrapped from outside, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives the failure reasons.

The program is imported from ``src/`` beside this directory; without it the
harness exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "colouredhopf"
MODULES = ("coefficients", "pbw_algebra", "colour_group", "coloured_hopf",
           "representation", "cli")

#: environment variables that pin BLAS and OpenMP pools to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: set-ups per untraced run; setup_s is their median.  Each workload's
#: warm-up is sized to about half a second, so that one set-up spans several
#: of the host's speed modes (NOTES.md, Noise) instead of landing in one.
SETUPS = 5

#: the fixed gates of ROADMAP.md, copied so that a loosened program
#: tolerance cannot make the benchmark accept a residual
TOLERANCES = {
    "group_laws": 1e-11,
    "colour_transformations": 1e-10,
    "coassociativity": 1e-10,
    "counit_axiom": 1e-10,
    "antipode_axiom": 1e-10,
    "bialgebra": 1e-10,
    "relation_preservation": 1e-11,
    "reduction": 1e-11,
    "crossval": 1e-12,
    "ybe": 1e-10,
    "ybe_negative_control": 1e-6,
    "intertwiner": 1e-10,
    "hexagons": 1e-10,
    "r_inverse": 1e-12,
}
#: checks that pass when their residual lies above the tolerance
NEGATIVE_CONTROLS = {"ybe_negative_control"}

#: lower bound on |q**2 - 1| and |q**(2c) - 1| for generated points (the CLI default)
GUARD = 0.1

#: exponent keys closer than this (abs + rel) count as one monomial in split_key_share
SPLIT_KEY_TOL = 1e-8


class ProgramMissing(RuntimeError):
    """The checkout holds no importable colouredhopf package under src/."""


def load_program() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules.

    Earlier imports are dropped first, so each set-up pays for the import
    and starts with empty module-level caches.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"{PACKAGE} resolved to {package.__file__}, not under {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def rebind(original, replacement) -> list:
    """Point every name bound to ``original`` in the package at ``replacement``.

    Modules import functions by name (``cli`` imports the verifiers,
    ``representation`` imports ``coproduct``), so patching one module
    namespace is not enough.  Returns the bindings for :func:`restore`.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# input generation (harness-owned, seeded)
# ---------------------------------------------------------------------------

def _annulus(rng: random.Random) -> complex:
    """Modulus uniform in [0.5, 2], angle uniform: the range the program samples."""
    r = rng.uniform(0.5, 2.0)
    phi = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def draw_point(rng: random.Random, n_colours: int) -> tuple[complex, complex, list[complex]]:
    """A deformation point (q, s) and colours whose shifted copies avoid q**2 == 1."""
    while True:
        q = _annulus(rng)
        if abs(q * q - 1.0) >= GUARD:
            break
    s = _annulus(rng)
    colours = []
    while len(colours) < n_colours:
        c = _annulus(rng)
        if abs(cmath.exp(2.0 * c * cmath.log(q)) - 1.0) >= GUARD:
            colours.append(c)
    return q, s, colours


def cli_complex(z: complex) -> str:
    """An "a+bi" literal that round-trips exactly through the CLI parser."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_cli_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _residual_failure(value, tolerance: float, negative: bool = False) -> str | None:
    """Why a residual fails its gate, or None."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "malformed"
    if not math.isfinite(value):
        return "nonfinite"
    ok = value > tolerance if negative else value <= tolerance
    return None if ok else "tolerance"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class VerifyDraw:
    """``verify --seed k --draws 1``: all 14 checks on a fresh draw per request."""

    name = "verify-draw"
    #: nominal untraced requests per second; sizes the traced passes
    rate = 7.0

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.seed = seed
        self.path = workdir / "verify.json"
        # warm-up draws lie far from every measured one
        self.warmup = [10**6 + j for j in range(4)]

    def prepare(self, i: int) -> int:
        self.path.unlink(missing_ok=True)
        return self.seed + i

    def call(self, k: int) -> int:
        return self.mods.cli.main(["verify", "--seed", str(k), "--draws", "1",
                                   "--output", str(self.path)])

    def check(self, k: int, rc: int) -> str | None:
        if rc != 0:
            return "exit"
        try:
            report = json.loads(self.path.read_text(encoding="utf-8"))
            checks = {c["name"]: c for c in report["checks"]}
            if report["seed"] != k or report["draws"] != 1:
                return "malformed"
        except (OSError, ValueError, KeyError, TypeError):
            return "malformed"
        for name, tolerance in TOLERANCES.items():
            if name not in checks:
                return "malformed"
            why = _residual_failure(checks[name].get("max_residual"), tolerance,
                                    name in NEGATIVE_CONTROLS)
            if why:
                return why
        if report.get("pass") is not True or not all(c.get("pass") is True for c in checks.values()):
            return "report_fail"
        return None


class DeepProbe:
    """Coassociativity, antipode and bialgebra checks on large caller-built probes.

    Requests cycle through a few fixed draws, so contexts repeat and the
    per-context caches stay warm; every request brings a fresh probe.
    """

    name = "deep-probe"
    rate = 25.0
    DRAWS = 4
    #: (z_deg, h_deg, plus, minus) of every basis word of degree 1 to 4
    SHAPES = tuple((z, h, plus, minus) for z in range(5) for h in range(5)
                   for plus in (0, 1) for minus in (0, 1)
                   if 1 <= z + h + plus + minus <= 4)
    #: the probe: four terms of degree 3 or 4
    PROBE_SHAPES = tuple(shape for shape in SHAPES if sum(shape) >= 3)
    PROBE_TERMS = 4
    #: the bialgebra partner: two terms of degree at most 2
    PARTNER_SHAPES = tuple(shape for shape in SHAPES if sum(shape) <= 2)
    PARTNER_TERMS = 2

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.seed = seed
        rng = random.Random(f"deep-probe:{seed}")
        self.draws = []
        for _ in range(self.DRAWS):
            q, s, colours = draw_point(rng, 8)
            point = mods.coefficients.ParamPoint(q, s)
            self.draws.append((point, tuple(colours), mods.pbw_algebra.Home(point, colours[-1])))
        # three warm-up probes per draw fill the per-context caches
        self.warmup = [10**6 + j for j in range(3 * self.DRAWS)]

    def _element(self, rng: random.Random, home, shapes, n_terms: int):
        """Random shapes, each term with a random exponential factor."""
        pbw = self.mods.pbw_algebra
        terms = {}
        for _ in range(n_terms):
            z, h, plus, minus = rng.choice(shapes)
            q_exp = complex(rng.gauss(0.0, 0.5), rng.gauss(0.0, 0.5))
            s_exp = complex(rng.gauss(0.0, 0.5), rng.gauss(0.0, 0.5))
            terms[pbw.PBWMonomial(z, h, q_exp, s_exp, plus, minus)] = complex(
                rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        return pbw.AlgebraElement(home, terms)

    def prepare(self, i: int):
        point, colours, home = self.draws[i % self.DRAWS]
        rng = random.Random(f"deep-probe:{self.seed}:{i}")
        x = self._element(rng, home, self.PROBE_SHAPES, self.PROBE_TERMS)
        y = self._element(rng, home, self.PARTNER_SHAPES, self.PARTNER_TERMS)
        return point, colours, x, y

    def call(self, request):
        point, colours, x, y = request
        alpha, beta, gamma, lam, mu, lam2, mu2, nu = colours
        hopf = self.mods.coloured_hopf
        return [
            ("coassociativity", hopf.verify_coassociativity(point, colours, [x])),
            ("antipode_axiom", hopf.verify_antipode_axiom(
                point, (alpha, lam, mu, lam2, mu2, nu), [x])),
            ("bialgebra", hopf.verify_bialgebra(point, (lam, mu, nu), [(x, y)])),
        ]

    def check(self, request, out) -> str | None:
        for name, report in out:
            why = _residual_failure(report.max_residual, TOLERANCES[name])
            if why:
                return why
        return None


class RmatrixSweep:
    """``sweep`` over a seeded k x k x k colour grid at a seeded (q, s)."""

    name = "rmatrix-sweep"
    rate = 35.0
    K = 4
    HEADER = "q,s,lambda,mu,nu,ybe_residual,crossval_residual"

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.seed = seed
        self.path = workdir / "sweep.csv"
        self.warmup = [10**6 + j for j in range(20)]

    def prepare(self, i: int):
        """The grid, and its argv with ``--name=value`` (see NOTES.md, defect 1)."""
        rng = random.Random(f"rmatrix-sweep:{self.seed}:{i}")
        q, s, colours = draw_point(rng, 3 * self.K)
        k = self.K
        grid = q, s, colours[:k], colours[k:2 * k], colours[2 * k:]
        argv = ["sweep", f"--q={cli_complex(q)}", f"--s={cli_complex(s)}",
                "--lambda=" + ",".join(map(cli_complex, grid[2])),
                "--mu=" + ",".join(map(cli_complex, grid[3])),
                "--nu=" + ",".join(map(cli_complex, grid[4])),
                "--output", str(self.path)]
        self.path.unlink(missing_ok=True)
        return grid, argv

    def call(self, request) -> int:
        return self.mods.cli.main(request[1])

    def check(self, request, rc: int) -> str | None:
        (q, s, lams, mus, nus), _ = request
        if rc != 0:
            return "exit"
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            seen = set()
            residuals = []
            for row in rows:
                if len(row) != 7:
                    return "malformed"
                rq, rs, lam, mu, nu = (parse_cli_complex(f) for f in row[:5])
                if (rq, rs) != (q, s):
                    return "malformed"
                seen.add((lam, mu, nu))
                residuals.append((float(row[5]), float(row[6])))
        except (OSError, ValueError):
            return "malformed"
        grid = {(lam, mu, nu) for lam in lams for mu in mus for nu in nus}
        if not lines or lines[0] != self.HEADER or len(rows) != len(grid) or seen != grid:
            return "malformed"
        for ybe, crossval in residuals:
            why = (_residual_failure(ybe, TOLERANCES["ybe"])
                   or _residual_failure(crossval, TOLERANCES["crossval"]))
            if why:
                return why
        return None


WORKLOADS = {w.name: w for w in (VerifyDraw, DeepProbe, RmatrixSweep)}


def serve(workload, i: int, failures: collections.Counter) -> tuple[float, float]:
    """One request: make its input, time the call, then check its output.

    Only the call is timed.  Returns the request's (CPU, wall) seconds.
    """
    request = workload.prepare(i)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = workload.call(request)
    except Exception:  # a request that raises is a failed request, not a crash
        if not failures:
            traceback.print_exc(file=sys.stderr)
        failures["exception"] += 1
        return time.process_time() - c0, time.perf_counter() - t0
    elapsed = time.process_time() - c0, time.perf_counter() - t0
    why = workload.check(request, out)
    if why:
        failures[why] += 1
    return elapsed


def set_up(name: str, seed: int, workdir: Path, failures: collections.Counter):
    """Import the program, build the inputs and run the warm-up requests.

    Warm-up outputs are checked like any other; their time is set-up time.
    """
    mods = load_program()
    workload = WORKLOADS[name](mods, seed, workdir)
    for i in workload.warmup:
        serve(workload, i, failures)
    return workload


# ---------------------------------------------------------------------------
# per-layer tracing
# ---------------------------------------------------------------------------

#: (module, function, kinds).  ``calls`` alone means a counter without a span:
#: spans on these hot scalar helpers would distort the wall time they measure.
TRACED = (
    ("pbw_algebra", "multiply", ("calls", "self_s", "terms_out")),
    ("pbw_algebra", "tensor_multiply", ("calls", "self_s", "terms_out")),
    ("pbw_algebra", "tensor_concat", ("calls", "self_s", "terms_out")),
    ("pbw_algebra", "residual_between", ("calls", "self_s", "split_key_share")),
    ("coloured_hopf", "coproduct", ("calls", "self_s", "terms_out", "repeat_share")),
    ("coloured_hopf", "antipode", ("calls", "self_s", "terms_out")),
    ("coloured_hopf", "counit", ("calls", "self_s")),
    ("coloured_hopf", "verify_colour_transformations", ("calls", "busy_s", "self_s")),
    ("coloured_hopf", "verify_coassociativity", ("calls", "busy_s", "self_s")),
    ("coloured_hopf", "verify_counit_axiom", ("calls", "busy_s", "self_s")),
    ("coloured_hopf", "verify_antipode_axiom", ("calls", "busy_s", "self_s")),
    ("coloured_hopf", "verify_bialgebra", ("calls", "busy_s", "self_s")),
    ("coloured_hopf", "verify_relation_preservation", ("calls", "busy_s", "self_s")),
    ("colour_group", "sigma_pair", ("calls", "self_s", "terms_out")),
    ("colour_group", "check_group_laws", ("calls", "busy_s", "self_s")),
    ("representation", "embed", ("calls", "self_s")),
    ("representation", "coloured_R_closed_form", ("calls", "self_s")),
    ("representation", "r_factorisation", ("calls", "self_s")),
    ("representation", "rep_tensor", ("calls", "self_s")),
    ("representation", "check_coloured_graded_ybe", ("calls", "busy_s", "self_s")),
    ("representation", "check_hexagons", ("calls", "busy_s", "self_s")),
    ("representation", "check_intertwiner", ("calls", "busy_s", "self_s")),
    ("representation", "crossval_residual", ("calls", "busy_s", "self_s", "distinct_share")),
    ("representation", "check_r_inverse", ("calls", "busy_s", "self_s")),
    ("cli", "run_verification", ("calls", "self_s")),
    ("cli", "cmd_sweep", ("calls", "self_s")),
    ("coefficients", "cpow", ("calls",)),
    ("coefficients", "colour_norm", ("calls",)),
    ("coefficients", "as_colour", ("calls",)),
)

UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "terms_out": "count",
         "split_key_share": "share", "repeat_share": "share", "distinct_share": "share"}
BETTER = {"calls": "lower", "self_s": "lower", "busy_s": "lower", "terms_out": "lower",
          "split_key_share": "lower", "repeat_share": "lower", "distinct_share": "higher"}
TRACE_TOTALS = (
    ("trace.requests", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the order BENCHMARK.json gives it."""
    spec = [{"name": f"{module}.{fn}.{kind}", "unit": UNITS[kind], "better": BETTER[kind]}
            for module, fn, kinds in TRACED for kind in kinds]
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_TOTALS]
    return spec


def _monomial_keys(key) -> tuple:
    """A term key as a tuple of monomials (element keys are bare monomials)."""
    return (key,) if hasattr(key, "z_deg") else tuple(key)


def split_keys(x, y) -> bool:
    """Whether x - y holds one monomial under several float-noise exponent keys."""
    clusters: dict[tuple, list[tuple]] = {}
    for key in set(x.terms) | set(y.terms):
        monos = _monomial_keys(key)
        signature = tuple((m.z_deg, m.h_deg, m.plus, m.minus) for m in monos)
        vector = tuple(e for m in monos for e in (complex(m.q_exp), complex(m.s_exp)))
        reps = clusters.setdefault(signature, [])
        for rep in reps:
            if all(abs(a - b) <= SPLIT_KEY_TOL * (1.0 + max(abs(a), abs(b)))
                   for a, b in zip(rep, vector)):
                return True
        reps.append(vector)
    return False


class Tracer:
    """Spans and counters around the package's public functions.

    A span's self time is its duration minus the time covered by its child
    spans; the time its ratio analysis takes is charged to no span, so it
    shows in ``trace.unaccounted_s`` and not in any layer.
    """

    def __init__(self):
        self.stack: list[float] = []
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.busy_s = collections.defaultdict(float)
        self.terms_out = collections.Counter()
        self.hits = collections.Counter()
        self.seen: dict[str, set] = collections.defaultdict(set)
        self.undo: list = []

    def begin_request(self):
        """Repeat and distinct shares are measured within one request."""
        self.seen.clear()

    def _observe(self, key: str, kinds, args, result):
        if "terms_out" in kinds:
            self.terms_out[key] += len(result.terms)
        if "split_key_share" in kinds:
            self.hits[key] += split_keys(args[0], args[1])
        if "repeat_share" in kinds:
            ctx, x = args[:2]
            token = (ctx, x.home, frozenset(x.terms.items()))
            self.hits[key] += token in self.seen[key]
            self.seen[key].add(token)
        if "distinct_share" in kinds:
            token = tuple(args[:3])
            self.hits[key] += token not in self.seen[key]
            self.seen[key].add(token)

    def _spanned(self, key: str, kinds, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += (t1 - t0) - child
                self.busy_s[key] += t1 - t0
            self._observe(key, kinds, args, result)
            if stack:
                stack[-1] += time.perf_counter() - t0
            return result

        return traced

    def _counted(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, mods):
        for module, fn_name, kinds in TRACED:
            key = f"{module}.{fn_name}"
            original = getattr(getattr(mods, module), fn_name)
            wrapper = (self._counted(key, original) if kinds == ("calls",)
                       else self._spanned(key, kinds, original))
            self.undo += rebind(original, wrapper)

    def uninstall(self):
        restore(self.undo)
        self.undo = []

    def metrics(self, wall: float, untraced_wall: float, requests: int) -> dict:
        out = {}
        for module, fn_name, kinds in TRACED:
            key = f"{module}.{fn_name}"
            for kind in kinds:
                if kind == "calls":
                    value = self.calls[key]
                elif kind == "self_s":
                    value = self.self_s[key]
                elif kind == "busy_s":
                    value = self.busy_s[key]
                elif kind == "terms_out":
                    value = self.terms_out[key]
                else:  # a share, whose base is the calls metric beside it
                    value = self.hits[key] / self.calls[key] if self.calls[key] else 0.0
                out[f"{key}.{kind}"] = {"value": value, "unit": UNITS[kind]}
        spanned = sum(self.self_s.values())
        out["trace.requests"] = {"value": requests, "unit": "count"}
        out["trace.wall_s"] = {"value": wall, "unit": "s"}
        out["trace.unaccounted_s"] = {"value": wall - spanned, "unit": "s"}
        out["trace.overhead"] = {"value": wall / untraced_wall, "unit": "ratio"}
        return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _percentile_ms(seconds: list[float], pct: int) -> float:
    """Interpolated percentile (statistics.quantiles, exclusive method) in ms."""
    if len(seconds) < 2:
        return 1000.0 * seconds[0]
    return 1000.0 * statistics.quantiles(seconds, n=100)[pct - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, workdir: Path,
                 setups: int = SETUPS, plant=None) -> dict:
    """Closed loop for ``seconds``; returns the end-to-end metrics.

    ``plant(mods)`` runs after set-up and before the timed loop; the
    benchmark's self-test uses it to inject faults.
    """
    failures = collections.Counter()
    setup_times = []
    for _ in range(setups):
        c0 = time.process_time()
        workload = set_up(name, seed, workdir, failures)
        setup_times.append(time.process_time() - c0)
    undo = plant(workload.mods) if plant else []
    cpu, wall = [], []
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        while True:
            c, w = serve(workload, len(cpu), failures)
            cpu.append(c)
            wall.append(w)
            if time.perf_counter() - t0 >= seconds:
                break
        loop_cpu, loop_wall = time.process_time() - c0, time.perf_counter() - t0
    finally:
        restore(undo)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "request_p90_ms": {"value": _percentile_ms(cpu, 90), "unit": "ms"},
        "requests_per_s": {"value": len(cpu) / loop_cpu, "unit": "1/s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    # printed but not gated: the median flips between the host's speed modes
    # (NOTES.md, Noise), and the wall clock carries the hypervisor's steal
    ungated = {
        "request_p50_ms": {"value": _percentile_ms(cpu, 50), "unit": "ms"},
        "wall_request_p50_ms": {"value": _percentile_ms(wall, 50), "unit": "ms"},
        "wall_request_p90_ms": {"value": _percentile_ms(wall, 90), "unit": "ms"},
        "wall_requests_per_s": {"value": len(wall) / loop_wall, "unit": "1/s"},
    }
    attempted = setups * len(workload.warmup) + len(cpu)
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "ungated": ungated}


def trace_requests(name: str, seconds: float) -> int:
    """Requests per traced-run pass; fixed by workload and seconds, never by the clock.

    The untraced pass plus a traced pass at about twice the cost fill the run.
    """
    return max(2, round(seconds * WORKLOADS[name].rate / 3.0))


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """A fixed untraced pass, then a fixed traced pass over the next requests."""
    failures = collections.Counter()
    workload = set_up(name, seed, workdir, failures)
    n = trace_requests(name, seconds)

    start = time.perf_counter()
    for i in range(n):
        serve(workload, i, failures)
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(workload.mods)
    try:
        start = time.perf_counter()
        for i in range(n, 2 * n):
            tracer.begin_request()
            serve(workload, i, failures)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {"attempted": len(workload.warmup) + 2 * n, "failures": failures,
            "metrics": tracer.metrics(wall, untraced_wall, n)}


def run(name: str, seed: int, seconds: float, trace: bool, **kwargs) -> dict:
    """One benchmark run in a scratch directory inside the checkout."""
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        if trace:
            return run_traced(name, seed, seconds, workdir)
        return run_untraced(name, seed, seconds, workdir, **kwargs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for var in THREAD_VARS:  # before the program's first numpy import
        os.environ[var] = "1"

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = result["failures"]
    failed = sum(failures.values())
    attempted = result["attempted"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "failed_share": failed / attempted,
                      "failures": dict(sorted(failures.items())),
                      "ungated": result.get("ungated", {})}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
