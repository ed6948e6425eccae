"""Fixed-budget benchmark of aspo's optimizer host time.

    python3 perfbench/run.py --workload boom-aspo --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  Each optimization run executes in a
fresh single-threaded process (``child.py``) through aspo's public library
API; this parent never imports aspo.  Every report a run emits is checked
by ``check.py``, which recomputes it from the bundled JSON files alone.

With ``--trace 0`` the run makes whole passes over the workload's panel of
optimizer seeds while ``--seconds`` allow (at least one) and prints the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and one traced
pass, checks that both give byte-identical reports, and prints the
per-layer metrics of the traced pass.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Design, check_report, read_report
from workloads import PROGRAM, THREAD_ENV, TIME_COMPRESSION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ASSETS = ROOT / "src" / "aspo" / "assets"
OUT = HERE / "out"

#: set-up-only processes started before the first pass; every run process
#: measures its set-up too, and ``setup_s`` is the median of all of them
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 90


class RunFailed(Exception):
    pass


def child(workload: str, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         *extra], env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


class Tally:
    """Evaluations attempted and failed, and run-level problems."""

    def __init__(self, workload):
        self.w = workload
        self.design = Design.load(ASSETS, workload.processor)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seed: int, out: Path, trace: bool = False) -> dict | None:
        """One optimization run in its own process, with its report checked.

        Returns the child's result, or None when the run failed as a whole.
        """
        shutil.rmtree(out, ignore_errors=True)
        args = ["--seed", str(seed), "--out", str(out)] + \
            (["--trace"] if trace else [])
        try:
            res = child(self.w.name, *args)
        except (RunFailed, subprocess.TimeoutExpired) as exc:
            res = {"error": str(exc)}
        if res.get("error"):
            print(f"{self.w.name} seed {seed}: {res['error']}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        rows = read_report(out / "report.jsonl")
        bad, problems = check_report(
            rows, self.design, benchmark=PROGRAM, compression=TIME_COMPRESSION,
            expected_stop=self.w.expected_stop,
            constrained_proposals=(self.w.generator == "aspo"
                                   and self.design.constraints is not None),
            local_optimum=(self.w.generator == "hill-climb"))
        self.attempted += len(rows) - 1
        self.failed += len(bad)
        if rows[-1].get("stop_reason") == "numerical-failure":
            self.attempted += 1
            self.failed += 1
        for p in problems:
            print(f"{self.w.name} seed {seed}: {p}", file=sys.stderr)
        self.problems += [p for p in problems if not p.startswith("row ")]
        res["summary"] = rows[-1]
        res["report"] = (out / "report.jsonl").read_bytes()
        return res

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def end_to_end(w, seed: int, seconds: int) -> dict:
    tally = Tally(w)
    setups = [child(w.name, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    seeds = w.optimizer_seeds(seed)
    runs = {s: [] for s in seeds}
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for s in seeds:
            res = tally.run(s, OUT / w.name / f"seed-{s}")
            if res is not None:
                runs[s].append(res)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t) > seconds:
            break
    done = [r for rs in runs.values() for r in rs]
    for s, rs in runs.items():
        if len({r["report"] for r in rs}) > 1:
            tally.problems.append(f"optimizer seed {s}: reports differ "
                                  "between passes")
    if not done:
        tally.problems.append("no run completed")
        return tally.result({})
    setups += [r["setup_s"] for r in done]
    per_seed = [rs for rs in runs.values() if rs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.fmean(statistics.median(r["run_s"] for r in rs)
                                   for rs in per_seed), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done),
                        "MB"),
        # figures of the synthetic model, not host times: deterministic per
        # seed, and the same for every seed where all runs reach one optimum
        "best_eet_ms": (statistics.fmean(rs[0]["summary"]["best_eet_ms"]
                                         for rs in per_seed), "model-ms"),
        "tdt_min": (statistics.fmean(rs[0]["summary"]["tdt_minutes"]
                                     for rs in per_seed), "virtual-min"),
    }
    return tally.result({k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})


#: per-layer self times: metric name -> span names
SELF_TIMES = {
    "assets.load_bundle_s": ["assets.load_bundle"],
    "warmstart.configs_s": ["warmstart.configs"],
    "driver.self_s": ["driver"],
    "driver.emit_report_s": ["driver.emit_report"],
    "gp.fit_s": ["gp.fit"],
    "gp.predict_s": ["gp.predict"],
    "gp.predict_grad_s": ["gp.predict_grad"],
    "acquisition.maximize_s": ["acquisition.maximize"],
    "acquisition.slsqp_s": ["acquisition.slsqp"],
    "acquisition.alpha_cool_s": ["acquisition.alpha_cool"],
    "acquisition.self_s": ["acquisition.maximize", "acquisition.slsqp",
                           "acquisition.alpha_cool"],
    "constraints.exact_s": ["constraints.exact"],
    "constraints.smooth_s": ["constraints.smooth"],
    "space.snap_s": ["space.snap"],
    "space.encode_s": ["space.encode"],
    "space.relaxed_values_s": ["space.relaxed_values"],
    "checkpoints.cost_s": ["checkpoints.cost"],
    "checkpoints.match_s": ["checkpoints.match"],
    "checkpoints.learn_weights_s": ["checkpoints.learn_weights"],
    "evaluation.evaluate_s": ["evaluation.evaluate"],
    "evaluation.synthesis_time_s": ["evaluation.synthesis_time"],
}
#: per-layer counts: metric name -> (span calls or counter) name
COUNTS = {
    "gp.fit_calls": "gp.fit",
    "gp.lbfgs_nfev": "gp.lbfgs.nfev",
    "gp.predict_calls": "gp.predict",
    "gp.predict_grad_calls": "gp.predict_grad",
    "acquisition.maximize_calls": "acquisition.maximize",
    "acquisition.slsqp_calls": "acquisition.slsqp",
    "acquisition.slsqp_nfev": "acquisition.slsqp.nfev",
    "acquisition.slsqp_errors": "acquisition.slsqp.errors",
    "acquisition.alpha_cool_calls": "acquisition.alpha_cool",
    "constraints.exact_calls": "constraints.exact",
    "constraints.smooth_calls": "constraints.smooth",
    "space.snap_calls": "space.snap",
    "space.encode_calls": "space.encode",
    "space.relaxed_values_calls": "space.relaxed_values",
    "checkpoints.insert_calls": "checkpoints.insert",
    "checkpoints.cost_calls": "checkpoints.cost",
    "checkpoints.match_calls": "checkpoints.match",
    "checkpoints.learn_weights_calls": "checkpoints.learn_weights",
    "evaluation.evaluate_calls": "evaluation.evaluate",
    "evaluation.synthesis_time_calls": "evaluation.synthesis_time",
    "evaluation.invalid_designs": "evaluation.invalid",
    "evaluation.lookup_hits": "evaluation.lookup_hit",
}


def traced(w, seed: int) -> dict:
    tally = Tally(w)
    self_ns, calls = {}, {}
    run_s = {"untraced": 0.0, "traced": 0.0}
    iterations = 0
    for s in w.optimizer_seeds(seed):
        base = OUT / w.name / f"seed-{s}"
        plain = tally.run(s, base / "untraced")
        res = tally.run(s, base / "traced", trace=True)
        if plain is None or res is None:
            continue  # counted as failed by the tally
        if plain["report"] != res["report"]:
            tally.problems.append(f"optimizer seed {s}: traced report differs "
                                  "from the untraced one")
        run_s["untraced"] += plain["run_s"]
        run_s["traced"] += res["run_s"]
        iterations += sum(1 for line in res["report"].splitlines()
                          if json.loads(line).get("iteration", 0) >= 1)
        t = res["trace"]
        for table, add in ((self_ns, t["self_ns"]),
                           (calls, {**t["calls"], **t["counts"]})):
            for k, v in add.items():
                table[k] = table.get(k, 0) + v

    metrics = {k: (sum(self_ns.get(n, 0) for n in names) / 1e9, "s")
               for k, names in SELF_TIMES.items()}
    metrics.update({k: (calls.get(n, 0), "count") for k, n in COUNTS.items()})
    metrics["driver.iterations"] = (iterations, "count")
    exact = calls.get("constraints.exact", 0)
    metrics["constraints.exact_pass_ratio"] = (
        calls.get("constraints.exact_pass", 0) / exact if exact else 0.0,
        "ratio")
    metrics["trace.run_s"] = (run_s["traced"], "s")
    metrics["trace.untraced_run_s"] = (run_s["untraced"], "s")
    metrics["trace.overhead_s"] = (run_s["traced"] - run_s["untraced"], "s")
    return tally.result({k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "aspo" / "__init__.py").is_file():
        print(f"error: no aspo sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result = traced(w, args.seed) if args.trace else \
        end_to_end(w, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
