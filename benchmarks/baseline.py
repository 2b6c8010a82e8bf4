"""Record the benchmark baseline in benchmarks/BASELINE.json.

Usage, from the root of a checkout, on an otherwise idle machine:

    python3 benchmarks/baseline.py

For every workload it makes ten untraced runs of ``run.py``, one per seed
in SEEDS, at the ``run_seconds`` of BENCHMARK.json, and records each
end-to-end metric's median and quartiles (``statistics.quantiles``, n=4)
with the sample count.  It adds one traced run per workload (the per-layer
table with its trace overhead), the environment, and one wall-clock timing
of ROADMAP.md's unit ``colouredhopf verify --seed 0 --draws 100``.  It takes
about 25 minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(101, 111))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py; returns its summary line merged with its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:  # 1 means an output failed its check
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {**summary, **result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "n": len(values)}


def roadmap_unit() -> dict:
    """Wall time of ``verify --seed 0 --draws 100``, the unit ROADMAP.md quotes."""
    argv = ["verify", "--seed", "0", "--draws", "100"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        report_path = Path(tmp) / "report.json"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "colouredhopf.cli", *argv,
                        "--output", str(report_path)], cwd=ROOT, env=env, check=True)
        wall = time.perf_counter() - start
        report = json.loads(report_path.read_text(encoding="utf-8"))
    return {"command": "colouredhopf " + " ".join(argv), "wall_s": wall,
            "duration_ms": report["duration_ms"], "pass": report["pass"]}


def main(seconds: int, seeds, output: Path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        workloads[workload] = {
            "end_to_end": {
                name: {"unit": unit, **quartiles([r["metrics"][name]["value"] for r in runs])}
                for name, unit in units.items()},
            "attempted_per_run": quartiles([r["attempted"] for r in runs]),
            "ungated": {name: {"unit": m["unit"],
                               **quartiles([r["ungated"][name]["value"] for r in runs])}
                        for name, m in runs[0]["ungated"].items()},
            "per_layer_seed_%d" % seeds[0]: {
                name: m["value"] for name, m in bench(workload, seeds[0], seconds, 1)["metrics"].items()},
        }
    unit = roadmap_unit()
    unit["draws_per_s"] = 100 / unit["wall_s"]
    unit["compare_with"] = {
        "verify-draw requests_per_s median":
            workloads["verify-draw"]["end_to_end"]["requests_per_s"]["median"]}
    baseline = {
        "recorded": time.strftime("%Y-%m-%d"),
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                        "kernel": platform.release()},
        "run_seconds": seconds,
        "seeds": list(seeds),
        "workloads": workloads,
        "roadmap_unit": unit,
    }
    output.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    main(run_seconds, SEEDS, HERE / "BASELINE.json")
