"""Golden trajectories: pinned proposal sequences of full optimization runs.

The fixture ``golden_trajectories.json`` was recorded from the optimizer
before its acquisition hot path was batched; it is the oracle that any
refactor or speed-up must reproduce.  Configurations must match exactly;
floats (best EET, per-entry acquisition value and cost estimate) must agree
to a relative 1e-9.

Regenerate only from code whose trajectories are trusted:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import math
import sys
from pathlib import Path

import pytest

from aspo import assets
from aspo.driver import RunConfig, run_optimization

FIXTURE = Path(__file__).with_name("golden_trajectories.json")
RTOL = 1e-9

#: (processor, seed, iterations)
CASES = [("boom", s, 5) for s in range(4)] + \
    [("rocketchip", 0, 10), ("el2_veer", 0, 10)]


def case_id(processor, seed, iterations):
    return f"{processor}-seed{seed}-it{iterations}"


def trajectory(processor, seed, iterations) -> dict:
    root = assets.asset_root()
    constraint = root / f"constraints/{processor}.json"
    report = run_optimization(RunConfig(
        space_file=str(root / f"spaces/{processor}.json"),
        model_file=str(root / f"models/{processor}.json"),
        constraint_file=str(constraint) if constraint.exists() else None,
        budget_iterations=iterations, seed=seed, stagnation_limit=None))
    return {
        "proposals": [{"iteration": e.iteration, "config": e.config,
                       "alpha": e.alpha_value, "cost": e.cost_estimate}
                      for e in report.history],
        "best_eet_ms": report.best_eet_ms,
        "stop_reason": report.stop_reason,
    }


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_id(*c))
def test_trajectory_matches_golden(golden, case):
    want = golden[case_id(*case)]
    got = trajectory(*case)
    assert got["stop_reason"] == want["stop_reason"]
    assert len(got["proposals"]) == len(want["proposals"])
    for i, (g, w) in enumerate(zip(got["proposals"], want["proposals"])):
        assert g["iteration"] == w["iteration"], f"entry {i}"
        assert g["config"] == w["config"], f"entry {i}"
        assert _close(g["alpha"], w["alpha"]), f"entry {i} alpha"
        assert _close(g["cost"], w["cost"]), f"entry {i} cost"
    assert _close(got["best_eet_ms"], want["best_eet_ms"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    data = {case_id(*c): trajectory(*c) for c in CASES}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
