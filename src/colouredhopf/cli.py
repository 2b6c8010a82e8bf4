"""Command-line front end: verification suites, R-matrices and sweeps.

Subcommands:

  verify   run every verifier over seeded random draws, emit a JSON report
  rmatrix  evaluate the 4x4 coloured R-matrix at one parameter point
  ybe      single-point coloured graded Yang-Baxter residual
  sweep    CSV of Yang-Baxter / cross-validation residuals over a colour grid

Exit codes: 0 success, 1 verification or domain failure (a singular point,
or a scalar that overflows a double) or an unwritable ``--output``, 2 usage
error (a malformed or non-finite complex literal among them).
Complex values on the command line are written as "a+bi" literals and may
start with a minus sign ("--s -0.5+1.2i").
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .coefficients import (
    DEFAULT_GUARD,
    ParamPoint,
    SingularParameterError,
    draw_colours,
    iter_params,
)
from .coloured_hopf import (
    ColouredMapContext,
    SharedCoproducts,
    coproduct,
    antipode,
    basis_probes,
    random_probe,
    standard_antipode,
    standard_coproduct,
    verify_antipode_axiom,
    verify_bialgebra,
    verify_coassociativity,
    verify_colour_transformations,
    verify_counit_axiom,
    verify_relation_preservation,
)
from .colour_group import check_group_laws
from .pbw_algebra import AlgebraElement, Home, generators, residual_between
from .representation import (
    check_anticommutator,
    check_coloured_graded_ybe,
    check_hexagons,
    check_intertwiner,
    check_r_inverse,
    coloured_R_closed_form,
    crossval_residual,
    embed,
)
from .reporting import worst

#: options whose value is a complex literal (or a comma-separated list of them)
COMPLEX_OPTIONS = ("--q", "--s", "--lambda", "--mu", "--nu")


def parse_complex(text: str) -> complex:
    """Parse a finite "a+bi" literal (plain reals and "bi" forms included)."""
    cleaned = "".join(text.split()).lower().replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite complex literal: {text!r}")
    return value


def format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{repr(re)}{sign}{repr(abs(im))}i"


def _parse_tolerance_items(items, default_name: str | None = None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items or []:
        if "=" in item:
            name, _, value = item.partition("=")
        elif default_name is not None:
            name, value = default_name, item
        else:
            raise ValueError(f"tolerance override must be name=value, got {item!r}")
        name = name.strip()
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance name {name!r}")
        out[name] = float(value)
    return out


def _write_output(payload: str, path: str | None) -> bool:
    """Write ``payload`` to the file ``path``, or to standard output without
    one; on an unwritable path print an error line and return False."""
    if not path:
        sys.stdout.write(payload)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Draw(NamedTuple):
    """One seeded draw of the verify suite: a point, its colours and probes."""

    index: int
    point: ParamPoint
    l1: complex
    l2: complex
    nu: complex
    alpha: complex
    lam: complex
    mu: complex
    lam2: complex
    mu2: complex
    probes: list[AlgebraElement]  # the 26 basis words of degree <= 2 at colour nu
    reduction_probes: list[AlgebraElement]  # the same 26 words at colour 1
    pair: tuple[AlgebraElement, AlgebraElement]  # two random probes at colour nu
    #: the probe verifiers' coproducts of ``probes``, shared within
    #: ``run_verification``; None computes each afresh
    coproducts: SharedCoproducts | None = None


def _draws(seed: int, draws: int, guard: float) -> Iterator[Draw]:
    """The verify draws: (point, l1, l2, nu) from ``sample_params``'s stream,
    taken one draw at a time, then five more colours, the labels of the
    probes and of the reduction probes, and the random pair, from one second
    stream."""
    rng = np.random.default_rng(seed + 1)
    for index, (point, (l1, l2, nu)) in enumerate(iter_params(seed, draws, guard)):
        alpha, lam, mu, lam2, mu2 = draw_colours(rng, point.q, 5, guard)
        probes = basis_probes(point, nu, rng)
        reduction_probes = basis_probes(point, 1.0, rng)
        home = Home(point, nu)
        pair = (random_probe(rng, home), random_probe(rng, home))
        yield Draw(index, point, l1, l2, nu, alpha, lam, mu, lam2, mu2,
                   probes, reduction_probes, pair)


def _bialgebra_residual(d: Draw) -> float:
    """All 16 ordered generator pairs, plus the draw's random pair.

    The axiom is bilinear, so a basis of pairs would take 26 x 26 products;
    the generator pairs cover degree 1 exhaustively and the random pair
    samples the rest.
    """
    gens = generators(Home(d.point, d.nu))
    pairs = [(a, b) for a in gens.values() for b in gens.values()]
    pairs.append(d.pair)
    return verify_bialgebra(d.point, (d.lam, d.mu, d.nu), pairs).max_residual


def _reduction_residual(d: Draw) -> float:
    """Coloured maps at identity colours against the standard structure maps."""
    point = d.point
    ctx = ColouredMapContext(point, 1.0, 1.0, 1.0)
    residual = 0.0
    for x in d.reduction_probes:
        residual = worst(residual,
                         residual_between(coproduct(ctx, x), standard_coproduct(point, x)),
                         residual_between(antipode(ctx, x), standard_antipode(point, x)))
    return worst(residual, check_coloured_graded_ybe(point, 1.0, 1.0, 1.0))


class Check(NamedTuple):
    """One row of the verify report.

    ``fn(draw)`` is the check's residual on one draw.  With ``sense`` "<="
    the report keeps the largest residual and passes at or below the
    tolerance; with ">" (a negative control) it keeps the smallest and
    passes above it.  Each ``fn`` calls its verifier through this module's
    global name, so a verifier rebound here at run time is the one called.
    """

    name: str
    tolerance: float
    paper_ref: str
    sense: str
    fn: Callable[[Draw], float]

    def passes(self, value: float, tolerance: float) -> bool:
        return value > tolerance if self.sense == ">" else value <= tolerance


#: every check of ``verify``, in report order
CHECKS = (
    Check("group_laws", 1e-11,
          "colour-group composition, identity, inverse and grading laws", "<=",
          lambda d: check_group_laws(d.point, d.l1, d.l2).max_asserted),
    Check("colour_transformations", 1e-10,
          "coloured maps transform consistently under the colour group", "<=",
          lambda d: verify_colour_transformations(
              d.point, (d.lam, d.mu, d.l1, d.l2, d.alpha, d.nu), d.probes,
              d.coproducts).max_residual),
    Check("coassociativity", 1e-10, "generalized coassociativity axiom", "<=",
          lambda d: verify_coassociativity(
              d.point, (d.l1, d.l2, d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu),
              d.probes, d.coproducts).max_residual),
    Check("counit_axiom", 1e-10, "generalized counit axiom", "<=",
          lambda d: verify_counit_axiom(
              d.point, (d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu), d.probes,
              d.coproducts).max_residual),
    Check("antipode_axiom", 1e-10, "generalized antipode axiom", "<=",
          lambda d: verify_antipode_axiom(
              d.point, (d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu), d.probes,
              d.coproducts).max_residual),
    Check("bialgebra", 1e-10, "generalized bialgebra axioms with the graded twist", "<=",
          _bialgebra_residual),
    Check("relation_preservation", 1e-11,
          "comultiplication and representation respect the anticommutator", "<=",
          lambda d: worst(
              verify_relation_preservation(d.point, (d.lam, d.mu, d.nu)).max_residual,
              check_anticommutator(d.point, d.nu))),
    Check("reduction", 1e-11,
          "identity colours reduce to the standard Hopf-superalgebra maps", "<=",
          _reduction_residual),
    Check("crossval", 1e-12, "closed-form and universal-route R-matrices agree entrywise",
          "<=", lambda d: crossval_residual(d.point, d.l1, d.l2)),
    Check("ybe", 1e-10, "coloured graded Yang-Baxter equation", "<=",
          lambda d: check_coloured_graded_ybe(d.point, d.l1, d.l2, d.nu)),
    Check("ybe_negative_control", 1e-6,
          "a perturbed R-matrix must violate the Yang-Baxter equation", ">",
          lambda d: check_coloured_graded_ybe(d.point, d.l1, d.l2, d.nu, perturb=0.01)),
    Check("intertwiner", 1e-10,
          "R-matrix intertwines the comultiplication and its graded flip", "<=",
          lambda d: check_intertwiner(d.point, d.l1, d.l2, d.nu)),
    Check("hexagons", 1e-10, "quasitriangularity hexagon identities", "<=",
          lambda d: worst(*check_hexagons(d.point, d.alpha, d.lam, d.mu, d.l1, d.l2))),
    Check("r_inverse", 1e-12, "nilpotent closed-form inverse matches the numeric inverse",
          "<=", lambda d: check_r_inverse(d.point, d.l1, d.l2)),
)

#: the tolerances ``run_verification`` applies, read at call time
DEFAULT_TOLERANCES = {c.name: c.tolerance for c in CHECKS}


def run_verification(seed: int = 0, draws: int = 100,
                     tolerances: dict[str, float] | None = None,
                     guard: float = DEFAULT_GUARD) -> dict:
    """Run every check of ``CHECKS`` over seeded draws and assemble the JSON report."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    t0 = time.perf_counter()

    extremes = [math.inf if c.sense == ">" else 0.0 for c in CHECKS]
    for draw in _draws(seed, draws, guard):
        # the probe verifiers share this draw's coproducts, and only this draw's
        draw = draw._replace(coproducts=SharedCoproducts())
        for i, check in enumerate(CHECKS):
            fold = min if check.sense == ">" else max
            extremes[i] = fold(extremes[i], check.fn(draw))

    checks = [{
        "name": c.name,
        "paper_ref": c.paper_ref,
        "max_residual": value,
        "tolerance": tol[c.name],
        "pass": c.passes(value, tol[c.name]),
    } for c, value in zip(CHECKS, extremes)]
    return {
        "suite": "colouredhopf-verify",
        "seed": seed,
        "draws": draws,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "duration_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }


def cmd_verify(args) -> int:
    try:
        overrides = _parse_tolerance_items(args.tolerance)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_verification(args.seed, args.draws, overrides, args.guard)
    except SingularParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if not _write_output(json.dumps(report, indent=2) + "\n", args.output):
        return 1
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# rmatrix
# ---------------------------------------------------------------------------

def cmd_rmatrix(args) -> int:
    try:
        point = ParamPoint(args.q, args.s, args.guard)
        matrix = coloured_R_closed_form(point, args.lam, args.mu)
        agreement = crossval_residual(point, args.lam, args.mu, closed=matrix)
    except (SingularParameterError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        lines = []
        for row in matrix:
            cells = []
            for entry in row:
                cells.append(repr(float(entry.real)))
                cells.append(repr(float(entry.imag)))
            lines.append(",".join(cells))
        payload = "\n".join(lines)
    else:
        payload = json.dumps({
            "q": format_complex(args.q),
            "s": format_complex(args.s),
            "lambda": format_complex(args.lam),
            "mu": format_complex(args.mu),
            "branch_note": ("principal-branch powers throughout; the off-diagonal "
                            "entry is (q**2-1)*a(lambda)*a(mu)*q**(-(lambda+mu)/2)"),
            "crossval_residual": agreement,
            "entries": [[[float(e.real), float(e.imag)] for e in row] for row in matrix],
        }, indent=2)
    return 0 if _write_output(payload + "\n", args.output) else 1


# ---------------------------------------------------------------------------
# ybe
# ---------------------------------------------------------------------------

def cmd_ybe(args) -> int:
    try:
        overrides = _parse_tolerance_items(args.tolerance, default_name="ybe")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    tolerance = overrides.get("ybe", DEFAULT_TOLERANCES["ybe"])
    try:
        point = ParamPoint(args.q, args.s, args.guard)
        residual = check_coloured_graded_ybe(point, args.lam, args.mu, args.nu,
                                             perturb=args.perturb)
    except (SingularParameterError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(repr(residual))
    return 0 if residual <= tolerance else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in text.split(",") if part.strip()]


def cmd_sweep(args) -> int:
    try:
        point = ParamPoint(args.q, args.s, args.guard)
        lams, mus, nus = args.lam, args.mu, args.nu
        if not (lams and mus and nus):
            print("usage error: empty colour grid", file=sys.stderr)
            return 2
        rows = ["q,s,lambda,mu,nu,ybe_residual,crossval_residual"]
        # each closed-form R-matrix of the grid is built and embedded once,
        # kept by list position: 0j == -0j, so keying by value would merge
        # two literals.  R^{lam,mu} also serves as crossval's closed form.
        r13s = [[embed(coloured_R_closed_form(point, lam, nu), "13") for nu in nus]
                for lam in lams]
        r23s = [[embed(coloured_R_closed_form(point, mu, nu), "23") for nu in nus]
                for mu in mus]
        qs = f"{format_complex(point.q)},{format_complex(point.s)}"
        mu_text = [format_complex(mu) for mu in mus]
        nu_text = [format_complex(nu) for nu in nus]
        for lam, r13_row in zip(lams, r13s):
            lam_prefix = f"{qs},{format_complex(lam)}"
            for mu, mu_s, r23_row in zip(mus, mu_text, r23s):
                r_lm = coloured_R_closed_form(point, lam, mu)
                cv = repr(crossval_residual(point, lam, mu, closed=r_lm))
                r12 = embed(r_lm, "12")
                for nu, nu_s, r13, r23 in zip(nus, nu_text, r13_row, r23_row):
                    ybe = check_coloured_graded_ybe(point, lam, mu, nu,
                                                    embedded=(r12, r13, r23))
                    rows.append(f"{lam_prefix},{mu_s},{nu_s},{ybe!r},{cv}")
    except (SingularParameterError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if _write_output("\n".join(rows) + "\n", args.output) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    """A seed: numpy's ``default_rng`` takes no negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _guard(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--s -0.5+1.2i`` as ``--s=-0.5+1.2i``.

    argparse reads a token that starts with "-" as an option unless it looks
    like a plain negative real, so a complex value such as -0.5+1.2i would
    leave its option without an argument.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token in COMPLEX_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and _is_complex_list(argv[i + 1])):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _is_complex_list(text: str) -> bool:
    try:
        return bool(_parse_complex_list(text))
    except argparse.ArgumentTypeError:
        return False


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colouredhopf",
        description="Verification suite for the coloured quantum superalgebra of gl(1/1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verifiers, emit JSON report")
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    p_verify.add_argument("--draws", type=_positive_int, default=100)
    p_verify.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                          help="override a check tolerance (repeatable)")
    p_verify.add_argument("--guard", type=_guard, default=DEFAULT_GUARD,
                          help="lower bound on |q**2 - 1| for sampled points")
    p_verify.add_argument("--output", help="write the JSON report to this path")

    p_rmatrix = sub.add_parser("rmatrix", help="emit the 4x4 coloured R-matrix")
    p_rmatrix.add_argument("--q", type=parse_complex, required=True)
    p_rmatrix.add_argument("--s", type=parse_complex, required=True)
    p_rmatrix.add_argument("--lambda", dest="lam", type=parse_complex, default=1.0 + 0j)
    p_rmatrix.add_argument("--mu", type=parse_complex, default=1.0 + 0j)
    p_rmatrix.add_argument("--format", choices=("json", "csv"), default="json")
    p_rmatrix.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)
    p_rmatrix.add_argument("--output")

    p_ybe = sub.add_parser("ybe", help="single-point Yang-Baxter residual")
    p_ybe.add_argument("--q", type=parse_complex, required=True)
    p_ybe.add_argument("--s", type=parse_complex, required=True)
    p_ybe.add_argument("--lambda", dest="lam", type=parse_complex, default=1.0 + 0j)
    p_ybe.add_argument("--mu", type=parse_complex, default=1.0 + 0j)
    p_ybe.add_argument("--nu", type=parse_complex, default=1.0 + 0j)
    p_ybe.add_argument("--perturb", type=float, default=0.0,
                       help="scale the off-diagonal entry by (1 + this) as a negative control")
    p_ybe.add_argument("--tolerance", action="append", metavar="[ybe=]VALUE")
    p_ybe.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)

    p_sweep = sub.add_parser("sweep", help="CSV residual sweep over a colour grid")
    p_sweep.add_argument("--q", type=parse_complex, required=True)
    p_sweep.add_argument("--s", type=parse_complex, required=True)
    p_sweep.add_argument("--lambda", dest="lam", type=_parse_complex_list, default="1",
                         help="comma-separated colour list")
    p_sweep.add_argument("--mu", type=_parse_complex_list, default="1",
                         help="comma-separated colour list")
    p_sweep.add_argument("--nu", type=_parse_complex_list, default="1",
                         help="comma-separated colour list")
    p_sweep.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)
    p_sweep.add_argument("--output", help="write CSV here instead of stdout")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(list(argv)))
    # looked up at call time, so a ``cmd_*`` rebound in this module is the one run
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
