"""Golden trajectories: pinned proposal sequences of full optimization runs.

The fixture ``golden_trajectories.json`` is the oracle that any refactor or
speed-up must reproduce.  The ASPO cases were recorded from the optimizer
before its acquisition hot path was batched; the baseline cases (random,
conventional BO, hill climbing) and the report hashes were recorded later,
from code whose ASPO trajectories the fixture already confirmed.  When
ASPO's SLSQP ascent got a cap of its own (``acquisition.SLSQP_MAXITER``, 10
in place of 30), ``boom-seed2-it5`` was the one case whose proposals moved
(its first BO proposal); it was re-recorded from that change, made on
commit ``5fb95a7``, and every other case and report hash stayed as recorded.
When one GP posterior (``GpModel.posterior``) replaced the two that kept
the bits of deleted per-row code, every ASPO case, ``el2_veer-vanilla-bo``
and the ``boom-seed0-it5`` report hashes were re-recorded from that change,
made on commit ``503925d``: their floats left 1e-9, and one configuration
moved (entry 14 of ``boom-seed2-it5``).  ``boom-random``, ``boom-vanilla-bo``
and the hill climb with its report hashes stayed as recorded.
When each GP fit went from five L-BFGS-B restarts to one start
(``gp.fit``), ``boom-seed0-it5``, ``boom-seed2-it5``, ``boom-seed3-it5``,
``rocketchip-seed0-it10``, ``el2_veer-seed0-it10``,
``boom-vanilla-bo-seed0-it10``, ``el2_veer-vanilla-bo-seed0-it10`` and the
``boom-seed0-it5`` report hashes were re-recorded from that change, made on
commit ``c0c8a59``.  ``boom-seed1-it5``, ``boom-random`` and the hill climb
with its report hashes stayed as recorded.
``boom-seed4-it5`` to ``boom-seed9-it5`` were recorded later, from commit
``56a7971``, whose every other case the fixture confirmed.
When the summary row of ``report.csv`` got the two cells it lacked (its
``idr``, ``tdt_minutes`` and ``best_eet_ms`` had sat two columns left of
their headers), the two ``report.csv`` hashes were re-recorded from that
change: ``524b12f6...`` became ``964d35f0...`` under ``boom-seed0-it5``
and ``63b6cd15...`` became ``c5b7612a...`` under the hill climb.  Both
``report.jsonl`` hashes and every trajectory stayed as recorded.
Configurations must match exactly; floats (best EET, per-entry acquisition
value and cost estimate) must agree to a relative 1e-9.  The report cases
pin the sha256 of ``report.jsonl`` and ``report.csv`` byte for byte.

Record missing cases only from code whose trajectories are trusted:

    PYTHONPATH=src python tests/test_golden.py --record

Recording adds the keys the fixture lacks and leaves every recorded entry
as it is.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from aspo import assets
from aspo.driver import RunConfig, emit_report, run_baseline, run_optimization

FIXTURE = Path(__file__).with_name("golden_trajectories.json")
RTOL = 1e-9


class Case(NamedTuple):
    processor: str
    seed: int
    iterations: int
    generator: str = "aspo"
    tdt_limit_minutes: float = 2100.0

    @property
    def id(self) -> str:
        name = self.processor if self.generator == "aspo" \
            else f"{self.processor}-{self.generator}"
        unlimited = "-no-tdt-limit" if math.isinf(self.tdt_limit_minutes) else ""
        return f"{name}-seed{self.seed}-it{self.iterations}{unlimited}"


#: the hill climb runs with the time limit lifted, so it climbs until it
#: converges
HILL_CLIMB = Case("boom", 0, 10_000, "hill-climb", math.inf)
CASES = [Case("boom", s, 5) for s in range(10)] + [
    Case("rocketchip", 0, 10), Case("el2_veer", 0, 10),
    Case("boom", 0, 10, "random"), Case("boom", 0, 10, "vanilla-bo"),
    Case("el2_veer", 0, 10, "vanilla-bo"), HILL_CLIMB]
#: run at one and at two BLAS threads: before ASPO's SLSQP had a cap of its
#: own, its first BO proposal depended on the thread count
THREADS_CASE = "boom-seed2-it5"
#: cases whose emitted report files are pinned by hash
REPORT_CASES = [Case("boom", 0, 5), HILL_CLIMB]
REPORT_FILES = ("report.jsonl", "report.csv")


def report_id(case: Case) -> str:
    return f"reports/{case.id}"


def run(case: Case):
    root = assets.asset_root()
    constraint = root / f"constraints/{case.processor}.json"
    rc = RunConfig(
        space_file=str(root / f"spaces/{case.processor}.json"),
        model_file=str(root / f"models/{case.processor}.json"),
        constraint_file=str(constraint) if constraint.exists() else None,
        budget_iterations=case.iterations, seed=case.seed,
        tdt_limit_minutes=case.tdt_limit_minutes, stagnation_limit=None)
    if case.generator == "aspo":
        return run_optimization(rc)
    return run_baseline(rc, case.generator)


def trajectory(case: Case) -> dict:
    report = run(case)
    return {
        "proposals": [{"iteration": e.iteration, "config": e.config,
                       "alpha": e.alpha_value, "cost": e.cost_estimate}
                      for e in report.history],
        "best_eet_ms": report.best_eet_ms,
        "stop_reason": report.stop_reason,
    }


def report_hashes(case: Case) -> dict:
    with tempfile.TemporaryDirectory() as out:
        emit_report(run(case), out)
        return {name: hashlib.sha256((Path(out) / name).read_bytes())
                .hexdigest() for name in REPORT_FILES}


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def assert_matches(got: dict, want: dict):
    assert got["stop_reason"] == want["stop_reason"]
    assert len(got["proposals"]) == len(want["proposals"])
    for i, (g, w) in enumerate(zip(got["proposals"], want["proposals"])):
        assert g["iteration"] == w["iteration"], f"entry {i}"
        assert g["config"] == w["config"], f"entry {i}"
        assert _close(g["alpha"], w["alpha"]), f"entry {i} alpha"
        assert _close(g["cost"], w["cost"]), f"entry {i} cost"
    assert _close(got["best_eet_ms"], want["best_eet_ms"])


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
def test_trajectory_matches_golden(golden, case):
    assert_matches(trajectory(case), golden[case.id])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_proposals_do_not_depend_on_blas_threads(golden, threads):
    # a child process per thread count: OpenBLAS reads it once, at load
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(FIXTURE.parent), *sys.path]))
    code = ("import json, sys, test_golden as g; "
            "case, = [c for c in g.CASES if c.id == sys.argv[1]]; "
            "print(json.dumps(g.trajectory(case)))")
    proc = subprocess.run([sys.executable, "-c", code, THREADS_CASE],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert_matches(json.loads(proc.stdout), golden[THREADS_CASE])


@pytest.mark.parametrize("case", REPORT_CASES, ids=lambda c: c.id)
def test_report_bytes_match_golden(golden, case):
    assert report_hashes(case) == golden[report_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    data = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    entries = [(c.id, trajectory, c) for c in CASES] + \
        [(report_id(c), report_hashes, c) for c in REPORT_CASES]
    added = []
    for key, record, case in entries:
        if key not in data:
            data[key] = record(case)
            added.append(key)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"added {len(added)} case(s) to {FIXTURE}: {', '.join(added) or 'none'}")
