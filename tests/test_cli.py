import json
import math
from pathlib import Path

import pytest

from colouredhopf.cli import (
    CHECKS,
    DEFAULT_TOLERANCES,
    _draws,
    format_complex,
    main,
    parse_complex,
    run_verification,
)
from colouredhopf.coefficients import DEFAULT_GUARD


def test_parse_complex_literals():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("2i") == 2j
    assert parse_complex("-i") == -1j
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j


def test_parse_complex_rejects_garbage():
    import argparse

    for text in ("two", "nan", "nanj", "1e999"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--q", "nan", "--s", "1.5"],
    ["sweep", "--q", "2", "--s", "1.5", "--lambda", "nan"],
], ids=["rmatrix", "sweep"])
def test_non_finite_literal_is_usage_error(argv, capsys):
    """A NaN or infinite complex literal exits 2 with a usage line, so no
    command writes NaN tokens (which JSON does not allow) or NaN residuals."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite complex literal" in captured.err


def test_format_complex_roundtrip():
    for z in (2.0 + 0j, -1.5 + 0j, 1 + 2j, 1 - 2j, 0.25j):
        assert parse_complex(format_complex(z)) == z


def test_verify_report_schema_and_exit(capsys):
    rc = main(["verify", "--seed", "7", "--draws", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"suite", "seed", "draws", "checks", "pass", "duration_ms"}
    assert report["seed"] == 7 and report["draws"] == 3 and report["pass"] is True
    assert [c["name"] for c in report["checks"]] == [c.name for c in CHECKS]
    for check in report["checks"]:
        assert set(check) == {"name", "paper_ref", "max_residual", "tolerance", "pass"}
        assert check["pass"] is True


def test_verify_zero_draws_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--draws", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-1"], ["--seed", "1.5"]])
def test_verify_seed_must_be_a_non_negative_integer(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--draws", "1"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--seed" in err
    assert "Traceback" not in err


def test_verify_draws_are_streamed():
    """Taking the first draw of a long run holds that draw, not the
    parameters of every draw of the run (about 465 bytes each)."""
    import tracemalloc

    draws = _draws(0, 20000, DEFAULT_GUARD)
    tracemalloc.start()
    try:
        first = next(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.index == 0
    assert peak < 1_000_000, peak


def test_verify_unknown_tolerance_is_usage_error(capsys):
    rc = main(["verify", "--draws", "2", "--tolerance", "nonsense=1"])
    assert rc == 2


def test_verify_sub_noise_tolerance_fails(capsys):
    # double-precision noise exceeds 1e-15, demonstrating tolerance plumbing
    rc = main(["verify", "--seed", "0", "--draws", "3", "--tolerance", "ybe=1e-15"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    ybe = next(c for c in report["checks"] if c["name"] == "ybe")
    assert not ybe["pass"] and ybe["tolerance"] == 1e-15


def test_verify_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--seed", "1", "--draws", "2", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert capsys.readouterr().out == ""


def test_verify_passes_at_seed_5674():
    """Seed 5674's draw cancels antipode terms near 2e5 on the bare word
    psi+ psi-; scaled without the gross of those terms, rounding alone read
    antipode_axiom 1.18e-10 there, above its 1e-10 gate."""
    report = run_verification(5674, 1)
    assert report["pass"], [(c["name"], c["max_residual"]) for c in report["checks"]]


@pytest.fixture(scope="module")
def report_2859():
    return run_verification(2859, 1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_verify_passes_at_seed_2859(report_2859):
    """Seed 2859's negative control reads 6.463626675445826e-07, below its
    1e-6 floor, on clean code; a change to that reading shows up here."""
    assert report_2859["pass"]


def test_seed_2859_fails_only_its_negative_control(report_2859):
    failing = [(c["name"], c["max_residual"]) for c in report_2859["checks"] if not c["pass"]]
    assert failing == [("ybe_negative_control", 6.463626675445826e-07)]
    assert sum(c["pass"] for c in report_2859["checks"]) == len(CHECKS) - 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_nan_negative_control_fails_the_run(monkeypatch):
    """A NaN reading of the ">" check ybe_negative_control must fail it and
    the run.  ``run_verification`` folds that check with the builtin
    ``min``, and min(inf, nan) is inf, so the check reads inf and passes."""
    from colouredhopf import cli

    original = cli.check_coloured_graded_ybe

    def nan_when_perturbed(*args, perturb=0.0, **kwargs):
        return math.nan if perturb else original(*args, perturb=perturb, **kwargs)

    monkeypatch.setattr(cli, "check_coloured_graded_ybe", nan_when_perturbed)
    report = run_verification(0, 2)
    control = next(c for c in report["checks"] if c["name"] == "ybe_negative_control")
    assert not control["pass"] and not report["pass"], control


def test_sharing_a_draws_coproducts_changes_no_bit(monkeypatch):
    """``run_verification`` shares each draw's probe coproducts among the
    four probe verifiers.  On seed-0 draws 0-4 every verifier's residual and
    details are repr-identical with and without the sharing, the run's 14
    maxima equal the fold of the checks on the unshared draws, and no
    memo outlives the run."""
    import weakref

    from colouredhopf import cli
    from colouredhopf.coefficients import DEFAULT_GUARD
    from colouredhopf.coloured_hopf import (
        SharedCoproducts,
        verify_antipode_axiom,
        verify_coassociativity,
        verify_colour_transformations,
        verify_counit_axiom,
    )

    draws = list(cli._draws(0, 5, DEFAULT_GUARD))
    for d in draws:
        assert d.coproducts is None
        runs = (
            (verify_colour_transformations, (d.lam, d.mu, d.l1, d.l2, d.alpha, d.nu)),
            (verify_coassociativity, (d.l1, d.l2, d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu)),
            (verify_counit_axiom, (d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu)),
            (verify_antipode_axiom, (d.alpha, d.lam, d.mu, d.lam2, d.mu2, d.nu)),
        )
        shared = SharedCoproducts()
        for verifier, colours in runs:
            alone = verifier(d.point, colours, d.probes)
            with_shared = verifier(d.point, colours, d.probes, shared)
            assert repr((alone.max_residual, alone.details)) == repr(
                (with_shared.max_residual, with_shared.details)), verifier.__name__
        # D^{lam,mu}_nu, D^{lam2,mu2}_nu and the inner D^{l1,l2}_nu of each probe
        assert len(shared._entries) == 3 * len(d.probes)

    made = []

    class Recorded(SharedCoproducts):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(cli, "SharedCoproducts", Recorded)
    report = run_verification(0, 5)
    assert len(made) == 5 and all(ref() is None for ref in made)
    for check, row in zip(CHECKS, report["checks"]):
        fold = min if check.sense == ">" else max
        assert repr(row["max_residual"]) == repr(fold(check.fn(d) for d in draws)), check.name


def test_run_verification_tolerance_override_only_affects_named_check():
    report = run_verification(seed=3, draws=2, tolerances={"hexagons": 2.0})
    hexagons = next(c for c in report["checks"] if c["name"] == "hexagons")
    assert hexagons["tolerance"] == 2.0
    others = [c for c in report["checks"] if c["name"] != "hexagons"]
    assert all(c["tolerance"] == DEFAULT_TOLERANCES[c["name"]] for c in others)


def test_readme_table_lists_the_checks():
    """The README's "What gets verified" table follows CHECKS: names, order, tolerances."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What gets verified", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    listed = [(cells[1].strip().strip("`"), float(cells[-2])) for cells in rows]
    assert listed == [(c.name, c.tolerance) for c in CHECKS]


def test_rmatrix_reference_values(capsys):
    rc = main(["rmatrix", "--q", "2", "--s", "1", "--lambda", "1", "--mu", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    entries = payload["entries"]
    assert entries[0][0] == [2.0, 0.0]
    assert entries[1][1] == [1.0, 0.0]
    assert entries[1][2] == [1.5, 0.0]
    assert entries[3][3] == [0.5, 0.0]
    assert payload["crossval_residual"] <= 1e-12
    assert "branch" in payload["branch_note"]


def test_rmatrix_singular_q_fails(capsys):
    rc = main(["rmatrix", "--q", "1", "--s", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_rmatrix_csv_shape(capsys):
    rc = main(["rmatrix", "--q", "2", "--s", "1", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        cells = line.split(",")
        assert len(cells) == 8
        [float(c) for c in cells]


def test_ybe_admissible_point(capsys):
    rc = main(["ybe", "--q", "2", "--s", "1.5",
               "--lambda", "1.3+0.2i", "--mu", "0.8-0.5i", "--nu", "1.1+0.3i"])
    assert rc == 0
    assert float(capsys.readouterr().out) <= 1e-10


def test_ybe_identity_colours(capsys):
    rc = main(["ybe", "--q", "2", "--s", "1"])
    assert rc == 0


def test_ybe_perturbed_fails(capsys):
    rc = main(["ybe", "--q", "2", "--s", "1", "--perturb", "0.01"])
    assert rc == 1
    assert float(capsys.readouterr().out) > 1e-6


def test_sweep_grid_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--q", "2", "--s", "1.5",
            "--lambda", "1,2,0.5+0.5i", "--mu", "1,1.5,2i", "--nu", "1.2",
            "--output"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    text1 = out1.read_bytes()
    assert text1 == out2.read_bytes()
    lines = text1.decode().strip().splitlines()
    assert lines[0] == "q,s,lambda,mu,nu,ybe_residual,crossval_residual"
    assert len(lines) == 10  # header + 3*3*1 grid points
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert float(cells[5]) <= 1e-10


def test_sweep_computes_crossval_once_per_lambda_mu(tmp_path, monkeypatch):
    """crossval_residual does not depend on nu: one call per (lambda, mu),
    and every row still carries the value of its own (lambda, mu)."""
    from colouredhopf import cli
    from colouredhopf.coefficients import ParamPoint
    from colouredhopf.representation import check_coloured_graded_ybe, crossval_residual

    calls = []

    def counting(point, lam, mu, *args, **kwargs):
        calls.append((lam, mu))
        return crossval_residual(point, lam, mu, *args, **kwargs)

    monkeypatch.setattr(cli, "crossval_residual", counting)
    out = tmp_path / "sweep.csv"
    lams, mus, nus = (1.0, 0.5 + 0.5j), (1.5, 2j), (1.2, 0.8 - 0.3j, 1.0)
    argv = ["sweep", "--q", "2", "--s", "1.5",
            "--lambda", "1,0.5+0.5i", "--mu", "1.5,2i", "--nu", "1.2,0.8-0.3i,1",
            "--output", str(out)]
    assert main(argv) == 0
    assert len(calls) == len(lams) * len(mus)

    point = ParamPoint(2.0, 1.5)
    expected = ["q,s,lambda,mu,nu,ybe_residual,crossval_residual"]
    for lam in lams:
        for mu in mus:
            for nu in nus:
                expected.append(",".join([
                    format_complex(point.q), format_complex(point.s),
                    format_complex(lam), format_complex(mu), format_complex(nu),
                    repr(check_coloured_graded_ybe(point, lam, mu, nu)),
                    repr(crossval_residual(point, lam, mu))]))
    assert out.read_text() == "\n".join(expected) + "\n"


def test_sweep_builds_each_r_matrix_once(tmp_path, monkeypatch):
    """Each closed form R^{lam,mu}, R^{lam,nu} and R^{mu,nu} and its "12",
    "13" or "23" embedding is built once per sweep; crossval reuses R^{lam,mu}.
    The matrices are kept by list position, so the literals 0+1i and -0+1i
    (equal as numbers) each keep their own rows."""
    from colouredhopf import cli, representation

    calls = {"embed": 0, "coloured_R_closed_form": 0}

    def counting(name):
        original = getattr(representation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:  # the sweep calls both by cli's names, crossval by representation's
        wrapper = counting(name)
        monkeypatch.setattr(representation, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--q", "2", "--s", "1.5", "--lambda", "0+1i,-0+1i,1.5",
                 "--mu", "1,2i", "--nu", "1.2,0.5-0.3i,0.8,2", "--output", str(out)]) == 0
    n_lam, n_mu, n_nu = 3, 2, 4
    per_grid = n_lam * n_mu + n_lam * n_nu + n_mu * n_nu
    assert calls["embed"] <= per_grid  # 26; one per grid point and slot would be 72
    assert calls["coloured_R_closed_form"] == per_grid
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == (["0.0+1.0i"] * 8 + ["-0.0+1.0i"] * 8 + ["1.5"] * 8)


def test_sweep_reads_each_ybe_residual_from_the_check(tmp_path, monkeypatch):
    """Every ybe_residual of a sweep is what check_coloured_graded_ybe returns
    for its grid point, so a NaN there reaches the CSV."""
    from colouredhopf import cli

    seen = []

    def planted(point, lam, mu, nu, perturb=0.0, embedded=None):
        seen.append((lam, mu, nu))
        return float("nan")

    monkeypatch.setattr(cli, "check_coloured_graded_ybe", planted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--q", "2", "--s", "1.5", "--lambda", "1,2", "--mu", "1,2i",
                 "--nu", "1.2,0.5-0.3i", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(seen) == len(rows) == 8
    assert all(row[5] == "nan" for row in rows)


@pytest.mark.parametrize("argv", [
    ["verify", "--draws", "1"],
    ["rmatrix", "--q", "2", "--s", "1"],
    ["sweep", "--q", "2", "--s", "1"],
], ids=["verify", "rmatrix", "sweep"])
def test_unwritable_output_fails(argv, tmp_path, capsys):
    """An ``--output`` under a missing directory exits 1 with one error line
    and nothing on standard output, for every command that writes a file."""
    rc = main([*argv, "--output", str(tmp_path / "missing" / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--q", "2", "--s", "1.5", "--lambda", "1e308"],
    ["ybe", "--q", "2", "--s", "1.5", "--mu", "800"],
    ["sweep", "--q", "2", "--s", "1.5", "--nu", "1e308+1e308i"],
], ids=["rmatrix", "ybe", "sweep"])
def test_overflow_is_a_domain_failure(argv, capsys):
    """A colour whose power of q overflows a double exits 1 with one error
    line, like a singular point, and no traceback."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("guard", ["-1", "0", "nan", "inf"])
def test_verify_guard_must_be_finite_and_positive(guard, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--draws", "1", "--guard", guard])
    assert exc.value.code == 2
    assert "--guard" in capsys.readouterr().err


def test_verify_unsatisfiable_guard_is_usage_error(capsys):
    # |q**2 - 1| <= 5 on the sampling annulus, so no draw can meet guard 6
    rc = main(["verify", "--draws", "1", "--guard", "6"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no admissible q" in captured.err


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--q", "1.02", "--s", "1"],
    ["ybe", "--q", "1.02", "--s", "1"],
    ["sweep", "--q", "1.02", "--s", "1"],
    # draw 17 of seed 0 has |q**2 - 1| = 0.0729, below the default guard
    ["verify", "--draws", "18"],
])
def test_guard_below_default_is_honoured(argv, capsys):
    assert main(argv + ["--guard", "0.01"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spaced, joined", [
    (["ybe", "--q", "2", "--s", "-0.5+1.2i"],
     ["ybe", "--q", "2", "--s=-0.5+1.2i"]),
    (["rmatrix", "--q", "2", "--s", "-0.5+1.2i", "--lambda", "-1+0.5i"],
     ["rmatrix", "--q", "2", "--s=-0.5+1.2i", "--lambda=-1+0.5i"]),
    (["sweep", "--q", "2", "--s", "-0.5+1.2i", "--mu", "-0.5+1.2i,1"],
     ["sweep", "--q", "2", "--s=-0.5+1.2i", "--mu=-0.5+1.2i,1"]),
])
def test_negative_complex_value_after_space(spaced, joined, capsys):
    assert main(joined) == 0
    expected = capsys.readouterr().out
    assert main(spaced) == 0
    assert capsys.readouterr().out == expected


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    from colouredhopf import cli

    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    for argv in (["ybe", "--q", "2", "--s", "1.5"], ["rmatrix", "--q", "2", "--s", "1.5"],
                 ["sweep", "--q", "2", "--s", "1.5"]):
        assert main(argv) == 0
    assert built == ["colouredhopf"]


def test_main_runs_the_subcommand_bound_at_call_time(tmp_path, monkeypatch):
    """A ``cmd_*`` rebound in the module after the parser exists is the one
    run, as the benchmark's tracer and the self-test's plants rebind it."""
    from colouredhopf import cli

    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--s", "1.5", "--output", str(out)]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.output) or 7)
    assert main(argv) == 7
    assert seen == [str(out)]


def test_repeated_options_do_not_leak_between_calls(tmp_path):
    loose, plain = tmp_path / "loose.json", tmp_path / "plain.json"
    assert main(["verify", "--draws", "1", "--tolerance", "ybe=1",
                 "--output", str(loose)]) == 0
    assert main(["verify", "--draws", "1", "--output", str(plain)]) == 0
    tolerances = [{c["name"]: c["tolerance"] for c in json.loads(path.read_text())["checks"]}
                  for path in (loose, plain)]
    assert tolerances[0]["ybe"] == 1.0
    assert tolerances[1] == DEFAULT_TOLERANCES
