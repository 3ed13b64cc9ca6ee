"""Steadiness report: runs the benchmark in sets of runs, one seed per run,
and prints each end-to-end metric's spread against its bound.

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --workloads highrank --runs 5 --sets 1

The spread of a set is (Q3 - Q1) / median of its runs, with the quartiles of
`statistics.quantiles(values, n=4)`.  A metric is steady when its spread is
below a third of its bound and within bounds when it is at most its bound;
the sets agree when each later set's median differs from the first set's by
at most the bound, in either direction.  Runs last `run_seconds` of
BENCHMARK.json; set s (from 0) uses seeds s * runs + 1 ... (s + 1) * runs.
Exits 1 if a spread is above its bound or two sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """Relative worsening of `later` against `first` (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {(s, w): {name: [] for name in metrics} for s in range(args.sets) for w in chosen}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in chosen:
                cmd = [sys.executable, *spec["command"][1:], "--workload", w, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
                if proc.returncode != 0 or not result or not result["correct"]:
                    print(f"run failed: {' '.join(cmd)}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                for name in metrics:
                    values[(s, w)][name].append(result["metrics"][name]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.4g}" for n, v in values[(s, w)].items()), flush=True)

    ok = True
    report = []
    print(f"\n{'workload':10} {'metric':14} {'set':>3} {'median':>11} {'spread':>7} "
          f"{'bound':>5} {'spread/bound':>12} {'worse_vs_set1':>13}  verdict")
    for w in chosen:
        for name, m in metrics.items():
            first = statistics.median(values[(0, w)][name])
            for s in range(args.sets):
                vals = values[(s, w)][name]
                med = statistics.median(vals)
                sp = spread(vals)
                worse = worse_by(first, med, m["better"])
                verdict = ["steady" if sp < m["bound"] / 3 else
                           "within" if sp <= m["bound"] else "TOO WIDE"]
                ok &= sp <= m["bound"]
                if s:
                    verdict.append("agrees" if abs(worse) <= m["bound"] else "SHIFTED")
                    ok &= abs(worse) <= m["bound"]
                print(f"{w:10} {name:14} {s + 1:>3} {med:>11.5g} {sp:>7.3f} {m['bound']:>5} "
                      f"{sp / m['bound']:>12.2f} {worse:>13.3f}  {' '.join(verdict)}")
                report.append({"workload": w, "metric": name, "set": s + 1, "median": med,
                               "spread": sp, "bound": m["bound"], "worse_vs_set1": worse,
                               "values": vals})
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\nall within bounds" if ok else "\nSOME METRIC OUTSIDE ITS BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
