"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

For every workload it runs run.py with --tiny, untraced and traced, and
checks that the result line has exactly the four result keys, that every
metric named in BENCHMARK.json is present with its unit, that nothing
failed, and that the trace has spans for every layer the workload uses (all
layers over the four workloads).  It also checks that in a directory holding
only BENCHMARK.json and the benchmark, run.py exits non-zero without a
result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

ALL_LAYERS = {"cli", "pipeline", "two_bridge", "seifert", "curve_search", "lattice", "matrices"}
LAYERS_USED = {
    "grid": ALL_LAYERS,
    "highrank": ALL_LAYERS,
    "plumbing": {"cli", "lattice", "matrices"},
    "seifert": {"cli", "seifert"},
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(proc, names_units, what):
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{what}: correct={result['correct']} failed={result['failed']} "
                         f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(names_units):
        raise SystemExit(f"{what}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(names_units))}")
    for name, unit in names_units.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not isinstance(value, (int, float)):
            raise SystemExit(f"{what}: {name} = {metrics[name]}, want a number in {unit}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seen = set()
    for w in (w["name"] for w in spec["workloads"]):
        common = ["--workload", w, "--seed", "7", "--seconds", "1", "--tiny"]
        check_result(run([*common, "--trace", "0"]), end_to_end, f"{w} untraced")
        check_result(run([*common, "--trace", "1"]), per_layer, f"{w} traced")
        spans = json.loads((OUT / f"trace_{w}_seed7_trace1_tiny.json").read_text())
        layers = {s["layer"] for s in spans} - {"bench"}
        if not LAYERS_USED[w] <= layers:
            raise SystemExit(f"{w}: no spans for layers {sorted(LAYERS_USED[w] - layers)}")
        seen |= layers
        print(f"ok {w}: {len(spans)} spans over {sorted(layers)}")
    if seen != ALL_LAYERS:
        raise SystemExit(f"layers without spans: {sorted(ALL_LAYERS - seen)}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok without the program: exit", proc.returncode)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
