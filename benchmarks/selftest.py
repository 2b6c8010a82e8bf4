"""Self-test of the benchmark harness: its correctness gate has power.

Run from the root of a checkout with

    python3 -m pytest benchmarks/selftest.py -q

The file name keeps it out of the package's own test run.  Each planted
fault is injected into the freshly imported program after set-up, through
the same rebinding the tracer uses, and must raise the failed share above 0.
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

WORKLOADS = sorted(bench.WORKLOADS)
DEV_SEED, HELD_OUT_SEED = 0, 9001
SECONDS = 1.0


def _run(workload: str, seed: int = DEV_SEED, plant=None) -> dict:
    return bench.run(workload, seed, SECONDS, trace=False, setups=1, plant=plant)


def _failed_share(result: dict) -> float:
    return sum(result["failures"].values()) / result["attempted"]


def _report(name: str, value: float):
    """Stands in for a verifier's ResidualReport."""
    return SimpleNamespace(name=name, max_residual=value, details={name: value})


def _constant_verifier(module: str, fn: str, value: float, loosen: str | None = None):
    """A plant that makes ``module.fn`` report ``value``.

    ``loosen`` also raises the program's own tolerance for that check, so
    only the benchmark's own gate stands between the residual and a pass.
    """
    def plant(mods):
        original = getattr(getattr(mods, module), fn)
        if loosen:
            mods.cli.DEFAULT_TOLERANCES[loosen] = math.inf
        if module == "representation":
            return bench.rebind(original, lambda *args, **kwargs: value)
        return bench.rebind(original, lambda *args, **kwargs: _report(fn, value))
    return plant


def _exit_code(code: int):
    """A plant that keeps the verify report but changes the exit code."""
    def plant(mods):
        original = mods.cli.cmd_verify

        def cmd_verify(args):
            original(args)
            return code
        return bench.rebind(original, cmd_verify)
    return plant


OVER_TOLERANCE = {
    "verify-draw": _constant_verifier("coloured_hopf", "verify_coassociativity", 1e-3,
                                      loosen="coassociativity"),
    "deep-probe": _constant_verifier("coloured_hopf", "verify_bialgebra", 1e-3),
    "rmatrix-sweep": _constant_verifier("representation", "crossval_residual", 1e-6),
}

PLANTED_NAN = {
    "deep-probe": _constant_verifier("coloured_hopf", "verify_bialgebra", math.nan),
    "rmatrix-sweep": _constant_verifier("representation", "check_coloured_graded_ybe", math.nan),
}


@pytest.mark.parametrize("seed", [DEV_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_program_has_no_failures(workload, seed):
    result = _run(workload, seed)
    assert result["attempted"] >= 1
    assert result["failures"] == {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_over_tolerance_residual_fails(workload):
    result = _run(workload, plant=OVER_TOLERANCE[workload])
    assert _failed_share(result) > 0
    assert set(result["failures"]) == {"tolerance"}


def test_nonzero_exit_fails_verify_draw():
    result = _run("verify-draw", plant=_exit_code(1))
    assert _failed_share(result) > 0
    assert set(result["failures"]) == {"exit"}


@pytest.mark.parametrize("workload", sorted(PLANTED_NAN))
def test_planted_nan_fails(workload):
    result = _run(workload, plant=PLANTED_NAN[workload])
    assert _failed_share(result) > 0
    assert set(result["failures"]) == {"nonfinite"}


@pytest.mark.xfail(strict=True, reason="known gap: run_verification folds residuals with "
                   "max(0.0, nan), so the verify report shows 0.0 for a NaN check")
def test_planted_nan_fails_verify_draw():
    plant = _constant_verifier("coloured_hopf", "verify_coassociativity", math.nan)
    assert _failed_share(_run("verify-draw", plant=plant)) > 0


def _counts(metrics: dict) -> dict:
    """The traced metrics that must repeat exactly: counts and shares."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "share")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_self_time_adds_up(workload):
    first, second = (bench.run(workload, DEV_SEED, SECONDS, trace=True) for _ in range(2))
    assert first["failures"] == {} and second["failures"] == {}
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert any(v for k, v in _counts(first["metrics"]).items() if k.endswith(".calls"))

    metrics = first["metrics"]
    spans = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["trace.unaccounted_s"]["value"] >= 0
    assert math.isclose(spans + metrics["trace.unaccounted_s"]["value"],
                        metrics["trace.wall_s"]["value"], rel_tol=1e-9)
    assert [{"name": k, "unit": v["unit"]} for k, v in metrics.items()] == [
        {"name": m["name"], "unit": m["unit"]} for m in bench.per_layer_spec()]


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert spec["per_layer"] == bench.per_layer_spec()
    metrics = _run("rmatrix-sweep")["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in metrics.items()]


def test_exits_nonzero_without_the_program():
    bare = Path(tempfile.mkdtemp(prefix=".bench_tmp-bare-", dir=bench.ROOT))
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-draw",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
