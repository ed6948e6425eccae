"""Tests for the benchmark's output check.

    python3 -m pytest perfbench/tests -q

The check must accept what aspo really emits and reject each kind of
doctored report.  The reports come from short runs of aspo itself.
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

from check import Design, check_report  # noqa: E402

ASSETS = ROOT / "src" / "aspo" / "assets"
COMPRESSION = 1.0 / 60.0


def _run(tmp_path_factory, processor, generator, iterations, tdt_limit):
    import aspo
    from aspo import assets

    root = assets.asset_root()
    cfile = root / f"constraints/{processor}.json"
    rc = aspo.RunConfig(
        space_file=str(root / f"spaces/{processor}.json"),
        model_file=str(root / f"models/{processor}.json"),
        constraint_file=str(cfile) if cfile.exists() else None,
        budget_iterations=iterations, seed=0, stagnation_limit=None,
        tdt_limit_minutes=tdt_limit, time_compression=COMPRESSION)
    report = aspo.run_optimization(rc) if generator == "aspo" \
        else aspo.run_baseline(rc, generator)
    out = tmp_path_factory.mktemp(f"{processor}-{generator}")
    aspo.emit_report(report, out, formats=("jsonl",))
    return [json.loads(line) for line in
            (out / "report.jsonl").read_text().splitlines()]


@pytest.fixture(scope="module")
def aspo_rows(tmp_path_factory):
    return _run(tmp_path_factory, "boom", "aspo", 2, 2100.0)


@pytest.fixture(scope="module")
def climb_rows(tmp_path_factory):
    return _run(tmp_path_factory, "boom", "hill-climb", 10_000, float("inf"))


@pytest.fixture(scope="module")
def boom():
    return Design.load(ASSETS, "boom")


def check_aspo(rows, design):
    return check_report(rows, design, benchmark="multiply",
                        compression=COMPRESSION,
                        expected_stop="budget-exhausted",
                        constrained_proposals=True)


def check_climb(rows, design):
    return check_report(rows, design, benchmark="multiply",
                        compression=COMPRESSION, expected_stop="converged",
                        local_optimum=True)


def resummarize(rows):
    """Make the summary row agree with the history rows again."""
    history, summary = rows[:-1], dict(rows[-1])
    valid = [r for r in history if r["valid"]]
    best = min(valid, key=lambda r: r["eet_ms"])
    summary.update(evaluations=len(history),
                   idr=(len(history) - len(valid)) / len(history),
                   tdt_minutes=sum(r["eval_minutes"] for r in history),
                   best_eet_ms=best["eet_ms"], best_config=best["config"])
    return history + [summary]


def test_accepts_real_reports(aspo_rows, climb_rows, boom):
    assert check_aspo(aspo_rows, boom) == ([], [])
    assert check_climb(climb_rows, boom) == ([], [])
    stages = {r["failure_stage"] for r in climb_rows[:-1]}
    assert "constraint" in stages  # the rejection path is checked too


def test_rejects_infeasible_row(aspo_rows, boom):
    rows = copy.deepcopy(aspo_rows)
    cfg = dict(rows[3]["config"], FetchWidth=1, DecodeWidth=6)
    assert not boom.feasible(cfg)
    luts = boom.luts(cfg)
    fmax = boom.fmax_mhz(luts)
    cycles = boom.cycles(cfg, "multiply")
    # every number on the row is what the model gives; only feasibility fails
    rows[3].update(config=cfg, luts=luts, fmax_mhz=fmax, cycles=cycles,
                   power_w=boom.power_w(luts), eet_ms=cycles / (fmax * 1e3))
    bad, problems = check_aspo(resummarize(rows), boom)
    assert bad == [3]
    assert any("violates the constraints" in p for p in problems)
    assert any("infeasible design" in p for p in problems)


def test_rejects_wrong_eet(aspo_rows, boom):
    rows = copy.deepcopy(aspo_rows)
    rows[5]["eet_ms"] *= 1.001
    bad, problems = check_aspo(resummarize(rows), boom)
    assert bad == [5]
    assert any("eet_ms" in p for p in problems)


def test_rejects_tdt_off_from_sum(aspo_rows, boom):
    rows = copy.deepcopy(aspo_rows)
    rows[-1]["tdt_minutes"] += 0.01
    bad, problems = check_aspo(rows, boom)
    assert bad == []
    assert any("tdt_minutes" in p for p in problems)


def test_rejects_hill_climb_end_with_improving_neighbour(climb_rows, boom):
    # cut the climb after its first few moves; the rows stay true, but the
    # best of them is no local optimum
    rows = resummarize(copy.deepcopy(climb_rows[:40]) + [climb_rows[-1]])
    bad, problems = check_climb(rows, boom)
    assert bad == []
    assert any("improving neighbour" in p for p in problems)


def test_rejects_wrong_stop_reason_and_bad_best(aspo_rows, boom):
    rows = copy.deepcopy(aspo_rows)
    rows[-1]["stop_reason"] = "stagnation"
    rows[-1]["best_eet_ms"] *= 0.9
    _, problems = check_aspo(rows, boom)
    assert any("stop_reason" in p for p in problems)
    assert any("best_eet_ms" in p for p in problems)


@pytest.mark.parametrize("processor", ["boom", "rocketchip"])
def test_closed_form_agrees_with_aspo(processor):
    """Sampled configurations: same feasibility, LUTs, cycles and EET."""
    from aspo import assets
    from aspo.constraints import exact_configuration
    from aspo.evaluation import SyntheticModel

    bundle = assets.load_bundle(processor)
    model = SyntheticModel(bundle.model, bundle.space)
    design = Design.load(ASSETS, processor)
    rng = random.Random(7)
    for _ in range(500):
        cfg = {p.name: rng.choice(p.values) for p in bundle.space.params}
        assert design.feasible(cfg) == \
            exact_configuration(bundle.tree, bundle.space, cfg)
        assert design.luts(cfg) == model.luts(cfg)
        assert design.cycles(cfg, "multiply") == model.cycles(cfg, "multiply")
        assert design.fmax_mhz(design.luts(cfg)) == \
            pytest.approx(model.fmax(cfg), rel=1e-12)
