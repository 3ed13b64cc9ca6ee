"""One pass of one workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py --workload grid --seed 1 --mode timed

Modes: `timed` runs the pass untraced, sampling the machine's speed (see
speed.py); `traced` samples it too, runs it with spans on every layer call
and also derives the per-layer metrics; `jobs2` times
`verify_theorem(..., jobs=2)` over the grid.  Every output is checked after
the timed region.  The last line of stdout is one JSON object.

A fresh interpreter per pass makes every pass pay what one `knot` command
pays, cold caches included, so no pass profits from an earlier one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import knotgenus  # noqa: E402

if not Path(knotgenus.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"knotgenus imported from {knotgenus.__file__}, not from {ROOT / 'src'}")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, items, tracer=None):
    """Run every item, then the serialization step on the outputs of the
    items that returned.  Returns the outputs (None where an item raised),
    the serialized text (None if serialization raised), the (start, end)
    time of each item and of the serialization, and the errors of what
    raised."""
    outputs, intervals, raised = [], [], {}
    for item in items:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.span("bench.item", "bench", item=item.ident):
                    out = item.run()
        except Exception as exc:  # the program failed on this item
            out = None
            raised[item.ident] = [f"raised {type(exc).__name__}: {exc}"]
        intervals.append((t0, time.perf_counter()))
        outputs.append(out)
    serialized = None
    t0 = time.perf_counter()
    if workload.serialize is not None:
        returned = [out for item, out in zip(items, outputs) if item.ident not in raised]
        try:
            if tracer is None:
                serialized = workload.serialize(returned)
            else:
                with tracer.span("bench.serialize", "bench", item="pass"):
                    serialized = workload.serialize(returned)
        except Exception as exc:  # the program failed to serialize
            raised["serialize"] = [f"raised {type(exc).__name__}: {exc}"]
    intervals.append((t0, time.perf_counter()))
    return outputs, serialized, intervals, raised


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "jobs2"), default="timed")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workload.make_items(args.seed, args.tiny)
    result = {"items": [item.ident for item in items]}

    if args.mode == "jobs2":
        top = workloads.TINY_GRID_MAX if args.tiny else workloads.GRID_MAX
        t0 = time.perf_counter()
        reports = knotgenus.verify_theorem(top, top, jobs=2)
        result["pass_s"] = time.perf_counter() - t0
        errors = workloads.check(workload, items, reports, workload.serialize(reports))
    else:
        tracer = None
        if args.mode == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        sampler = speed.Sampler()
        sampler.start()
        try:
            outputs, serialized, intervals, errors = run_pass(workload, items, tracer)
        finally:
            sampler.stop()
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["pass_s"] = intervals[-1][1] - intervals[0][0]
        result["item_s"] = [end - start for start, end in intervals[:-1]]
        result["serialize_s"] = intervals[-1][1] - intervals[-1][0]
        ref = [sampler.reference_seconds(start, end) for start, end in intervals]
        result["item_ref_s"] = ref[:-1]
        result["serialize_ref_s"] = ref[-1]
        result["probe_s"] = statistics.median(p for _, p in sampler.samples)
        result["busy_s"] = result["pass_s"] - sampler.inside(intervals[0][0], intervals[-1][1])
        returned = [(item, out) for item, out in zip(items, outputs) if item.ident not in errors]
        checked = workloads.check(workload, [i for i, _ in returned], [o for _, o in returned], serialized)
        for ident, found in checked.items():
            errors.setdefault(ident, []).extend(found)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, sampler)
            result["spans"] = tracing.span_records(tracer)

    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
