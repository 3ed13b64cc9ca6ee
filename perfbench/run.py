"""knotgenus benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 it measures the end-to-end metrics: set-up time from fresh
interpreters, then whole passes over the workload, each in a fresh worker
interpreter, started until --seconds have passed (the pass in flight ends).
With --trace 1 it runs untraced and traced passes in turn, OVERHEAD_PAIRS
of each, and reports the per-layer metrics of the first traced pass.
Every output of every pass is checked; a wrong answer makes the result say
"correct": false and the exit code 1.  Without the
program (no src/knotgenus) it exits 2 and prints no result.

The load is one closed-loop caller: the next item starts only after the
previous result returned, because knotgenus is a batch verifier.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid", "highrank", "plumbing", "seifert")
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_SAMPLES = 4  # after each pass, so they sample the whole run
IMPORT_SAMPLES = 5
OVERHEAD_PAIRS = 2  # untraced and traced passes for trace.overhead_ratio

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "matrices.pd_check_s": "s",
    "matrices.pd_share": "ratio",
    "lattice.search_s": "s",
    "lattice.nodes": "count",
    "lattice.us_per_node": "us",
    "lattice.dims_tried": "count",
    "lattice.verify_embedding_s": "s",
    "curve_search.find_s": "s",
    "curve_search.verify_s": "s",
    "curve_search.box_vectors": "count",
    "curve_search.a_scanned": "count",
    "curve_search.box_bytes_computed": "B",
    "seifert.alexander_s": "s",
    "seifert.signature_s": "s",
    "seifert.determinant_s": "s",
    "pipeline.genus_bounds_s": "s",
    "pipeline.report_self_s": "s",
    "pipeline.serialize_s": "s",
    "pipeline.jobs2_speedup": "ratio",
    "pipeline.self_s": "s",
    "two_bridge.self_s": "s",
    "seifert.self_s": "s",
    "curve_search.self_s": "s",
    "lattice.self_s": "s",
    "matrices.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import knotgenus.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


class BenchError(Exception):
    """The program could not be run or measured; no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def _subprocess(self, cmd):
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before the run ended")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cmd[1:4]} did not end within the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:4]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def worker(self, mode):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode]
        if self.args.tiny:
            cmd.append("--tiny")
        return json.loads(self._subprocess(cmd).splitlines()[-1])

    def warm_import(self):
        """One untimed import, which writes the bytecode caches."""
        self._subprocess([sys.executable, "-c", "import knotgenus.cli"])

    def setup_seconds(self):
        """Seconds for fresh interpreters to run `import knotgenus.cli`,
        scaled to reference speed by the import probe just before each
        (see speed.py)."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            probe = self.child_seconds(speed.IMPORT_PROBE)
            wall = self.child_seconds("import knotgenus.cli")
            samples.append((wall, wall * speed.REFERENCE_IMPORT_PROBE_S / probe))
        return samples

    def child_seconds(self, code):
        """Wall seconds of a fresh interpreter running `code`."""
        t0 = time.perf_counter()
        self._subprocess([sys.executable, "-c", code])
        return time.perf_counter() - t0

    def import_times(self):
        """(numpy, knotgenus.cli) import seconds, measured inside fresh
        interpreters."""
        return [
            tuple(float(x) for x in self._subprocess([sys.executable, "-c", IMPORT_SNIPPET]).split())
            for _ in range(IMPORT_SAMPLES)
        ]


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank: an observed value, never interpolated."""
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def tail_quantile(n):
    """Highest of p90 and p75 with at least ten items above it; None when
    there are too few items, and the tail is the slowest item."""
    for q in (0.90, 0.75):
        if n - int(-(-n * q // 1)) >= 10:
            return q
    return None


def end_to_end(passes, setup):
    """Reference-speed seconds (see speed.py): each item's median over the
    passes, then the median and tail over items; throughput is items over
    the sum of the item medians plus the median serialization time."""
    per_item = [statistics.median(t) for t in zip(*(p["item_ref_s"] for p in passes))]
    busy = sum(per_item) + statistics.median(p["serialize_ref_s"] for p in passes)
    ordered = sorted(per_item)
    q = tail_quantile(len(ordered))
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "items_per_s": len(per_item) / busy,
        "item_p50_s": nearest_rank(ordered, 0.5),
        "item_tail_s": ordered[-1] if q is None else nearest_rank(ordered, q),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    detail = {
        "tail_quantile": q or 1.0,
        "items": len(per_item),
        "passes": len(passes),
        "pass_wall_s": [p["pass_s"] for p in passes],
        "probe_median_s": [p["probe_s"] for p in passes],
        "setup_wall_s": [wall for wall, _ in setup],
    }
    return metrics, detail


def pass_ref_s(p):
    """Reference seconds of a whole pass, items and serialization."""
    return sum(p["item_ref_s"]) + p["serialize_ref_s"]


def run_timed(runner):
    runner.warm_import()
    passes, setup = [], []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < runner.args.seconds:
        passes.append(runner.worker("timed"))
        setup += runner.setup_seconds()
    metrics, detail = end_to_end(passes, setup)
    return metrics, passes, detail, None


def run_traced(runner):
    runner.warm_import()
    imports = runner.import_times()
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):  # alternated, so drift hits both alike
        untraced.append(runner.worker("timed"))
        traced.append(runner.worker("traced"))
    passes = untraced + traced
    metrics = dict(traced[0]["layers"])
    spans = traced[0]["spans"]
    metrics["cli.import_numpy_s"] = statistics.median(t[0] for t in imports)
    metrics["cli.import_s"] = statistics.median(t[1] for t in imports)
    # both in reference seconds (speed.py), so machine drift cancels
    metrics["trace.overhead_ratio"] = statistics.median(map(pass_ref_s, traced)) / statistics.median(
        map(pass_ref_s, untraced)
    )
    metrics["pipeline.jobs2_speedup"] = 0.0  # measured on grid only
    if runner.args.workload == "grid":
        jobs2 = runner.worker("jobs2")
        passes.append(jobs2)
        # raw wall seconds: the jobs2 pass runs no probe
        serial_s = statistics.median(p["busy_s"] for p in untraced)
        metrics["pipeline.jobs2_speedup"] = serial_s / jobs2["pass_s"]
    for numpy_s, total_s in imports:
        spans.append({"name": "cli.import", "layer": "cli", "item": "import", "parent": None,
                      "start": 0.0, "end": total_s})
        spans.append({"name": "cli.import_numpy", "layer": "cli", "item": "import",
                      "parent": len(spans) - 1, "start": 0.0, "end": numpy_s})
    layers = [name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")]
    detail = {
        "untraced_pass_ref_s": [pass_ref_s(p) for p in untraced],
        "traced_pass_ref_s": [pass_ref_s(p) for p in traced],
        "untraced_pass_s": [p["pass_s"] for p in untraced],
        "traced_pass_s": [p["pass_s"] for p in traced],
        "largest_layer": max(layers, key=lambda layer: metrics[f"{layer}.self_s"]),
    }
    return {k: metrics[k] for k in PER_LAYER}, passes, detail, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knotgenus" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'knotgenus'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        metrics, passes, detail, spans = (run_traced if args.trace else run_timed)(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(len(p["items"]) for p in passes)
    failures = [(ident, msg) for p in passes for ident, msgs in p["errors"].items() for msg in msgs]
    # failed items; a failed serialization also fails every item it held
    failed = sum(len(set(p["errors"]) & set(p["items"])) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "detail": detail,
              "failures": failures, "result": result}
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"trace_{stem}.json").write_text(json.dumps(spans) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}")
    for key, value in detail.items():
        print(f"  {key} = {value}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    for ident, msg in failures[:20]:
        print(f"  FAIL {ident}: {msg}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
