"""One optimization run of a workload, alone in a fresh process.

    python3 perfbench/child.py --workload boom-aspo --seed 0 --out DIR [--trace]
    python3 perfbench/child.py --workload boom-aspo --setup-only

The process first pays the user's set-up cost (``import aspo`` through the
hash-verified ``assets.load_bundle``), then runs the workload through the
public library API and writes ``report.jsonl`` and ``report.csv`` into
``--out``.  It prints one JSON line: set-up seconds, run seconds (the run
plus ``emit_report``), the process's peak resident memory and, with
``--trace``, the span summary; the spans themselves go to ``DIR/spans.csv``.
An exception from the run is reported in the line, not raised.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import PROGRAM, TIME_COMPRESSION, WARM_START, WORKLOADS


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import aspo
    from aspo import assets

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        bundle = tracer.call("assets.load_bundle", assets.load_bundle,
                             w.processor)
    else:
        bundle = assets.load_bundle(w.processor)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return

    root = assets.asset_root()
    rc = aspo.RunConfig(
        space_file=str(root / f"spaces/{w.processor}.json"),
        model_file=str(root / f"models/{w.processor}.json"),
        constraint_file=(str(root / f"constraints/{w.processor}.json")
                         if bundle.tree is not None else None),
        benchmark=PROGRAM, budget_iterations=w.iterations,
        warm_start_budget=WARM_START, seed=args.seed,
        tdt_limit_minutes=w.tdt_limit_minutes,
        time_compression=TIME_COMPRESSION, stagnation_limit=None)

    def run():
        if w.generator == "aspo":
            return aspo.run_optimization(rc)
        return aspo.run_baseline(rc, w.generator)

    def call(name, fn, *a):
        return fn(*a) if tracer is None else tracer.call(name, fn, *a)

    error = None
    t1 = time.perf_counter()
    try:
        report = call("driver", run)
        call("driver.emit_report", aspo.emit_report, report, args.out)
    except Exception as exc:  # the parent counts the run as failed
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    out["run_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["error"] = error
    if tracer is not None:
        tracer.write(Path(args.out) / "spans.csv")
        out["trace"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
