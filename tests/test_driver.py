import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from aspo import assets
from aspo import driver as driver_mod
from aspo.cli import main as cli_main
from aspo.constraints import exact_tree, tree_parameters
from aspo.driver import (
    RunConfig,
    RunReport,
    emit_report,
    run_baseline,
    run_eval_bench,
    run_optimization,
)
from aspo.errors import InfeasibleSpaceError, NoFeasibleCandidateError
from aspo.evaluation import LOOKUP_MINUTES
from oracles import reference_hill_climb


def boom_rc(**kw):
    root = assets.asset_root()
    defaults = dict(
        space_file=str(root / "spaces/boom.json"),
        model_file=str(root / "models/boom.json"),
        constraint_file=str(root / "constraints/boom.json"),
        benchmark="multiply",
        budget_iterations=4,
        warm_start_budget=6,
        seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def feasible_fraction():
    bundle = assets.load_bundle("boom")
    names = sorted(tree_parameters(bundle.tree))
    grids = np.meshgrid(*[np.asarray(bundle.space.param(n).values)
                          for n in names], indexing="ij")
    cols = {n: g.ravel() for n, g in zip(names, grids)}
    return float(np.mean(exact_tree(bundle.tree, cols)))


def tiny_docs() -> dict:
    """Space, model and constraint documents of a two-parameter space with
    no feasible point."""
    return {"space": {"parameters": [
        {"name": "a", "kind": "ordinal", "values": [1, 2], "default": 1},
        {"name": "b", "kind": "ordinal", "values": [5, 6], "default": 5},
    ]}, "model": {
        "processor": "tiny", "base_frequency_mhz": 50.0,
        "frequency_sensitivity": 0.2, "base_luts": 100, "lut_budget": 10000,
        "full_synthesis_minutes": 10.0, "base_synthesis_minutes": 2.0,
        "power_idle_w": 0.1, "power_per_lut_w": 1e-5,
        "benchmarks": {"multiply": 1000},
        "match_weights": {"a": 1.0, "b": 1.0},
        "parameters": {"a": {"cycle_beta": 0.5, "lut_cost": 100},
                       "b": {"cycle_beta": 0.3, "lut_cost": 100}},
    }, "constraints": {"all": [
        {"ineq": {"xa": "a", "xb": "b"}}]}}  # a >= b is impossible here


def infeasible_inputs(tmp_path, docs=None) -> list[str]:
    """CLI input options for ``tiny_docs``, or for ``docs`` in its shape."""
    docs = docs or tiny_docs()
    args = []
    for option, doc in (("--space", docs["space"]),
                        ("--model", docs["model"]),
                        ("--constraints", docs["constraints"])):
        path = tmp_path / f"{option[2:]}.json"
        path.write_text(json.dumps(doc))
        args += [option, str(path)]
    return args


class TestRunOptimization:
    @pytest.mark.parametrize("limit", [0, -3])
    def test_stagnation_limit_below_one_is_rejected(self, limit):
        with pytest.raises(ValueError, match="stagnation limit"):
            boom_rc(stagnation_limit=limit)

    @pytest.mark.parametrize("field, value", [
        ("budget_iterations", 2.5), ("budget_iterations", True),
        ("warm_start_budget", 2.5), ("warm_start_budget", "6"),
        ("seed", 1.5), ("seed", None), ("seed", False),
        ("max_luts", 1e5), ("max_luts", True)])
    def test_counts_that_are_not_integers_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            boom_rc(**{field: value})

    def test_zero_budget_reports_warm_start_only(self):
        report = run_optimization(boom_rc(budget_iterations=0))
        assert report.evaluations == 6
        assert all(e.iteration == 0 for e in report.history)
        eets = [e.eet_ms() for e in report.history if e.result.valid]
        assert report.best_eet_ms == min(eets)
        best_entry = min((e for e in report.history if e.result.valid),
                         key=lambda e: e.eet_ms())
        assert report.best_config == best_entry.config

    def test_constraint_aware_run_has_zero_idr(self):
        report = run_optimization(boom_rc())
        assert report.idr == 0.0
        assert all(e.result.failure_stage != "constraint"
                   for e in report.history)

    def test_best_eet_non_increasing(self):
        report = run_optimization(boom_rc(budget_iterations=6, seed=1))
        best = np.inf
        series = []
        for e in report.history:
            eet = e.eet_ms()
            if eet is not None:
                best = min(best, eet)
            series.append(best)
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert report.best_eet_ms == best

    def test_first_of_equal_eets_is_the_best(self, monkeypatch):
        # every valid design ties: the first valid entry stays the best
        import aspo.driver as driver_mod
        monkeypatch.setattr(driver_mod, "estimated_execution_time",
                            lambda result: 2.0)
        report = run_baseline(boom_rc(budget_iterations=3), "random")
        valid = [e for e in report.history if e.result.valid]
        assert len({json.dumps(e.config) for e in valid}) > 1
        assert report.best_config == valid[0].config
        assert report.best_eet_ms == 2.0

    def test_tdt_is_sum_of_eval_minutes(self):
        report = run_optimization(boom_rc(seed=2))
        assert report.tdt_minutes == sum(
            e.result.eval_minutes for e in report.history)

    def test_tdt_limit_respected(self):
        # limit allows the warm start plus roughly one more evaluation
        rc = boom_rc(budget_iterations=50, tdt_limit_minutes=500.0,
                     time_compression=1.0)
        report = run_optimization(rc)
        assert report.stop_reason == "tdt-limit"
        longest = max(e.result.eval_minutes for e in report.history)
        assert report.tdt_minutes <= rc.tdt_limit_minutes + longest

    def test_cache_hits_charged_at_lookup_cost(self):
        # tiny space: random draws revisit stored configurations before all
        # nine are evaluated, and the baseline shares run_eval's accounting
        import json as _json
        import os
        import tempfile
        space_doc = {"parameters": [
            {"name": "a", "kind": "ordinal", "values": [1, 2, 3], "default": 1},
            {"name": "b", "kind": "ordinal", "values": [1, 2, 3], "default": 1},
        ]}
        model_doc = {
            "processor": "tiny", "base_frequency_mhz": 50.0,
            "frequency_sensitivity": 0.2, "base_luts": 100, "lut_budget": 10000,
            "full_synthesis_minutes": 10.0, "base_synthesis_minutes": 2.0,
            "power_idle_w": 0.1, "power_per_lut_w": 1e-5,
            "benchmarks": {"multiply": 1000},
            "match_weights": {"a": 1.0, "b": 1.0},
            "parameters": {"a": {"cycle_beta": 0.5, "lut_cost": 100},
                           "b": {"cycle_beta": 0.3, "lut_cost": 100}},
        }
        with tempfile.TemporaryDirectory() as tmp:
            sfile = os.path.join(tmp, "space.json")
            mfile = os.path.join(tmp, "model.json")
            with open(sfile, "w") as fh:
                _json.dump(space_doc, fh)
            with open(mfile, "w") as fh:
                _json.dump(model_doc, fh)
            rc = RunConfig(space_file=sfile, model_file=mfile,
                           budget_iterations=8, warm_start_budget=4, seed=0)
            report = run_baseline(rc, "random")
        hits = [e for e in report.history
                if e.iteration > 0 and
                e.result.eval_minutes == LOOKUP_MINUTES * rc.time_compression]
        assert hits, "expected at least one database hit"

    def test_deterministic_history(self):
        a = run_optimization(boom_rc(seed=5))
        b = run_optimization(boom_rc(seed=5))
        assert [e.config for e in a.history] == [e.config for e in b.history]
        assert a.tdt_minutes == b.tdt_minutes

    def test_exponent_mode_runs_feasibly(self):
        report = run_optimization(boom_rc(seed=4, acquisition_mode="exponent"))
        assert report.idr == 0.0
        assert report.evaluations == 10

    def test_fixed_checkpoint_strategy_accounting(self):
        from aspo.evaluation import FIXED_CHECKPOINT, SyntheticModel
        from aspo.driver import load_inputs
        rc = boom_rc(seed=6, strategy=FIXED_CHECKPOINT, budget_iterations=2)
        report = run_optimization(rc)
        _, _, model = load_inputs(rc)
        default = report.space.default_configuration()
        for e in report.history:
            if e.result.valid:
                want = model.synthesis_time(e.config, default) \
                    * rc.time_compression
                assert e.result.eval_minutes == pytest.approx(want)

    def test_direct_strategy_charges_full_synthesis(self):
        from aspo.evaluation import DIRECT
        from aspo.driver import load_inputs
        rc = boom_rc(seed=6, strategy=DIRECT, budget_iterations=2)
        report = run_optimization(rc)
        _, _, model = load_inputs(rc)
        for e in report.history:
            if e.result.valid:
                assert e.result.eval_minutes == pytest.approx(
                    model.t_full * rc.time_compression)


class TestBaselines:
    def test_random_idr_tracks_infeasible_fraction(self):
        rc = boom_rc(budget_iterations=100, warm_start_budget=6, seed=1,
                     stagnation_limit=None)
        report = run_baseline(rc, "random")
        sampled = [e for e in report.history if e.iteration > 0]
        assert len(sampled) == 100
        idr = np.mean([not e.result.valid for e in sampled])
        assert abs(idr - (1 - feasible_fraction())) <= 0.05

    def test_vanilla_bo_can_propose_infeasible(self):
        rc = boom_rc(budget_iterations=8, seed=0)
        reports = [run_baseline(boom_rc(budget_iterations=8, seed=s), "vanilla-bo")
                   for s in range(3)]
        assert any(r.idr > 0 for r in reports)

    def test_hill_climb_converges_on_small_space(self, tmp_path):
        space_doc = {"parameters": [
            {"name": "a", "kind": "ordinal", "values": [1, 2, 4], "default": 1},
            {"name": "b", "kind": "ordinal", "values": [1, 2], "default": 1},
        ]}
        model_doc = {
            "processor": "tiny", "base_frequency_mhz": 50.0,
            "frequency_sensitivity": 0.2, "base_luts": 100, "lut_budget": 10000,
            "full_synthesis_minutes": 10.0, "base_synthesis_minutes": 2.0,
            "power_idle_w": 0.1, "power_per_lut_w": 1e-5,
            "benchmarks": {"multiply": 1000},
            "match_weights": {"a": 1.0, "b": 1.0},
            "parameters": {"a": {"cycle_beta": 0.5, "lut_cost": 100},
                           "b": {"cycle_beta": 0.3, "lut_cost": 100}},
        }
        sfile = tmp_path / "space.json"
        mfile = tmp_path / "model.json"
        sfile.write_text(json.dumps(space_doc))
        mfile.write_text(json.dumps(model_doc))
        rc = RunConfig(space_file=str(sfile), model_file=str(mfile),
                       budget_iterations=50, warm_start_budget=2, seed=0)
        report = run_baseline(rc, "hill-climb")
        assert report.stop_reason == "converged"
        # the default (1, 1) is in the seed-0 warm start, so the climb starts
        # from it without proposing it again, then tries the neighbours in
        # (parameter, value) order: to (4, 1), to (4, 2), where none improves
        assert [(e.iteration, e.config["a"], e.config["b"])
                for e in report.history] == [
            (0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 4, 1), (3, 4, 2), (4, 2, 2)]
        # converged means the best config has no improving neighbor
        evaluated = {tuple(e.config.values()): e.eet_ms()
                     for e in report.history if e.result.valid}
        best = report.best_config
        for name, values in (("a", (1, 2, 4)), ("b", (1, 2))):
            for v in values:
                if v == best[name]:
                    continue
                neighbor = dict(best, **{name: v})
                key = tuple(neighbor.values())
                if key in evaluated:
                    assert evaluated[key] >= report.best_eet_ms

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            run_baseline(boom_rc(), "annealing")

    def test_baseline_uses_same_accounting(self):
        report = run_baseline(boom_rc(seed=3), "random")
        assert report.tdt_minutes == sum(
            e.result.eval_minutes for e in report.history)


class TestResourceStage:
    def test_over_budget_proposals_fail_at_resource(self, monkeypatch):
        from aspo.checkpoints import CheckpointStore
        from aspo.constraints import exact_configuration
        from aspo.evaluation import SyntheticModel

        inserted = []
        real_insert = CheckpointStore.insert

        def recording_insert(store, record):
            inserted.append(record.config)
            return real_insert(store, record)

        # the synthesis minutes of each configuration, in the tool's time
        synthesized = {}
        real_synthesize = SyntheticModel.synthesize

        def recording_synthesize(model, ranks, reference_ranks, benchmark):
            result = real_synthesize(model, ranks, reference_ranks, benchmark)
            synthesized[tuple(ranks)] = result.eval_minutes
            return result

        monkeypatch.setattr(CheckpointStore, "insert", recording_insert)
        monkeypatch.setattr(SyntheticModel, "synthesize", recording_synthesize)
        # the default needs 116,100 LUTs; widening moves climb past 125,000
        rc = boom_rc(max_luts=125_000, budget_iterations=40,
                     stagnation_limit=None)
        report = run_baseline(rc, "hill-climb")
        bundle = assets.load_bundle("boom")
        model = SyntheticModel(bundle.model, bundle.space)
        rejected = [e for e in report.history
                    if e.result.failure_stage == "resource"]
        assert len(rejected) >= 5
        luts = {e.ranks: real_synthesize(model, e.ranks, None, "multiply").luts
                for e in report.history}
        for e in report.history:
            over = luts[e.ranks] > rc.max_luts
            feasible = exact_configuration(bundle.tree, bundle.space, e.config)
            assert (e.result.failure_stage == "resource") == (feasible and over)
        for e in rejected:
            assert not e.result.valid
            assert e.result.luts == luts[e.ranks]
            # charged the synthesis the tool has already run
            assert e.result.eval_minutes == \
                synthesized[e.ranks] * rc.time_compression
            assert e.config not in inserted
        assert len(inserted) == sum(e.result.valid for e in report.history)


class TestRankBudget:
    @pytest.mark.parametrize("generator, per_evaluation", [
        (None, 3), ("random", 3), ("vanilla-bo", 3), ("hill-climb", 2)],
        ids=["aspo", "random", "vanilla-bo", "hill-climb"])
    def test_rank_calls_per_evaluation(self, monkeypatch, generator,
                                       per_evaluation):
        """The driver ranks the dict a generator hands it, the harness and
        the store insert rank it once each, and nothing after them does:
        the hill climb hands over rank rows, and the cost estimate, the
        acquisition value, the multi-start warm rows and the weight learner,
        which relearns after every fifth insert here, rank none."""
        import sys

        from aspo import space as space_mod

        real_ranks = space_mod.config_ranks
        calls = 0

        def counted_ranks(space, cfg):
            nonlocal calls
            calls += 1
            return real_ranks(space, cfg)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "aspo" and \
                    getattr(mod, "config_ranks", None) is real_ranks:
                monkeypatch.setattr(mod, "config_ranks", counted_ranks)
        rc = boom_rc(budget_iterations=34, stagnation_limit=None)
        report = run_optimization(rc) if generator is None \
            else run_baseline(rc, generator)
        assert report.evaluations == 40
        assert calls <= per_evaluation * report.evaluations + 10

    def test_hill_climb_never_asks_the_dict_synthesis_time(self, monkeypatch):
        from aspo.evaluation import SyntheticModel

        def refuse(*args):
            raise AssertionError("synthesis_time called")

        monkeypatch.setattr(SyntheticModel, "synthesis_time", refuse)
        rc = boom_rc(budget_iterations=10_000, tdt_limit_minutes=math.inf,
                     stagnation_limit=None)
        report = run_baseline(rc, "hill-climb")
        assert report.stop_reason == "converged" and report.evaluations > 300


class TestEmitReport:
    def test_row_counts(self, tmp_path):
        report = run_optimization(boom_rc(budget_iterations=0))
        paths = emit_report(report, tmp_path)
        jsonl = (tmp_path / "report.jsonl").read_text().splitlines()
        assert len(jsonl) == report.evaluations + 1
        assert json.loads(jsonl[-1])["summary"] is True
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + report.evaluations + 1

    def test_byte_identical_across_reruns(self, tmp_path):
        rc = boom_rc(seed=7, budget_iterations=3)
        emit_report(run_optimization(rc), tmp_path / "a")
        emit_report(run_optimization(rc), tmp_path / "b")
        for name in ("report.jsonl", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_history_summary_only(self, tmp_path):
        space = assets.load_bundle("boom").space
        report = RunReport(history=[], best_config=None, best_eet_ms=None,
                           idr=None, tdt_minutes=0.0,
                           stop_reason="budget-exhausted", space=space)
        emit_report(report, tmp_path)
        rows = (tmp_path / "report.jsonl").read_text().splitlines()
        assert len(rows) == 1
        summary = json.loads(rows[0])
        assert summary["idr"] is None
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_every_csv_cell_sits_under_its_header(self, tmp_path, processor):
        root = assets.asset_root()
        cfile = root / f"constraints/{processor}.json"
        report = run_optimization(boom_rc(
            space_file=str(root / f"spaces/{processor}.json"),
            model_file=str(root / f"models/{processor}.json"),
            constraint_file=str(cfile) if cfile.exists() else None,
            budget_iterations=1))
        emit_report(report, tmp_path)
        with (tmp_path / "report.csv").open(newline="") as fh:
            header, *lines = csv.reader(fh)
        assert len(lines) == report.evaluations + 1
        assert all(len(line) == len(header) for line in lines)
        summary = dict(zip(header, lines[-1]))
        want = json.loads(
            (tmp_path / "report.jsonl").read_text().splitlines()[-1])
        assert summary["iteration"] == "summary"
        for name in ("idr", "tdt_minutes", "best_eet_ms"):
            assert float(summary[name]) == want[name]
            assert all(line[header.index(name)] == "" for line in lines[:-1])
        for name, value in want["best_config"].items():
            assert summary[name] == str(value)
        assert all(summary[name] == "" for name in
                   ("cycles", "valid", "eet_ms", "alpha", "cost_estimate"))


class TestFallbackDraw:
    def test_exhausted_draws_are_infeasible_not_numerical(self, monkeypatch):
        import aspo.constraints as constraints_mod

        # one warm-start point is too few to fit, so iteration 1 draws its
        # proposal at random; when every draw fails the tree, the sampler
        # gives up at its cap and the space counts as infeasible (exit 3),
        # not as a surrogate failure (exit 4)
        monkeypatch.setattr(constraints_mod, "exact_configuration",
                            lambda tree, space, cfg: False)
        # the warm start's one point is an array row and needs no draw
        run_optimization(boom_rc(budget_iterations=0, warm_start_budget=1))
        with pytest.raises(InfeasibleSpaceError):
            run_optimization(boom_rc(budget_iterations=1, warm_start_budget=1))


class TestEvalBench:
    def test_strategy_ordering(self):
        result = run_eval_bench(boom_rc(), n_configs=10)
        s = result["strategies"]
        assert s["retrieval"]["mean_minutes"] <= \
            s["fixed-checkpoint"]["mean_minutes"] <= \
            s["direct"]["mean_minutes"]


class TestCli:
    def test_validate_bundled_files(self):
        root = assets.asset_root()
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "validate", "--space", str(root / "spaces/boom.json"),
            "--constraints", str(root / "constraints/boom.json"),
            "--model", str(root / "models/boom.json")])
        assert result.exit_code == 0, result.output
        assert "ok" in result.output

    def test_validate_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "space.json"
        bad.write_text("{\"parameters\": [{\"name\": \"x\"}]}")
        runner = CliRunner()
        result = runner.invoke(cli_main, ["validate", "--space", str(bad)])
        assert result.exit_code == 2

    def test_validate_names_every_parameter_the_model_lacks(self, tmp_path):
        root = assets.asset_root()
        model = json.loads((root / "models/boom.json").read_text())
        del model["parameters"]["FetchWidth"]
        del model["parameters"]["RobEntry"]
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(model))
        result = CliRunner().invoke(cli_main, [
            "validate", "--space", str(root / "spaces/boom.json"),
            "--model", str(mfile)])
        assert result.exit_code == 2
        assert "error: model file lacks coefficients for FetchWidth, " \
            "RobEntry" in result.output

    def test_validate_names_a_missing_top_level_key(self, tmp_path):
        root = assets.asset_root()
        model = json.loads((root / "models/boom.json").read_text())
        del model["benchmarks"]
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(model))
        result = CliRunner().invoke(cli_main, [
            "validate", "--space", str(root / "spaces/boom.json"),
            "--model", str(mfile)])
        assert result.exit_code == 2
        assert "error: model file lacks benchmarks\n" in result.output

    def test_validate_names_a_missing_parameter_field(self, tmp_path):
        root = assets.asset_root()
        model = json.loads((root / "models/boom.json").read_text())
        del model["parameters"]["FetchWidth"]["lut_cost"]
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(model))
        result = CliRunner().invoke(cli_main, [
            "validate", "--space", str(root / "spaces/boom.json"),
            "--model", str(mfile)])
        assert result.exit_code == 2
        assert "error: model file lacks FetchWidth.lut_cost\n" in result.output

    @staticmethod
    def invoke_with_boom_model(command, tmp_path, edit):
        """``validate`` or a one-iteration ``run`` on the bundled BOOM files,
        with the model document changed by ``edit``."""
        root = assets.asset_root()
        model = json.loads((root / "models/boom.json").read_text())
        edit(model)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(model))
        args = [command, "--space", str(root / "spaces/boom.json"),
                "--constraints", str(root / "constraints/boom.json"),
                "--model", str(mfile)]
        if command == "run":
            args += ["--iters", "1", "--warm-start", "4",
                     "--out", str(tmp_path / "out")]
        return CliRunner().invoke(cli_main, args)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_uncovered_categorical_value_exits_2(self, tmp_path, command):
        result = self.invoke_with_boom_model(
            command, tmp_path,
            lambda m: m["parameters"]["bpd_config"]["lut_factors"].pop("TAGEL"))
        assert result.exit_code == 2, result.output
        assert "error: model file: bpd_config.lut_factors lacks TAGEL\n" \
            in result.output

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_model_key_exits_2(self, tmp_path, command):
        # a model that still asks for cycle noise must not lose it silently
        result = self.invoke_with_boom_model(
            command, tmp_path, lambda m: m.update(noise_sd=0.05))
        assert result.exit_code == 2, result.output
        assert "error: model file has unknown key(s) noise_sd\n" \
            in result.output

    @pytest.mark.parametrize("file, edit", [
        ("space", lambda d: d["parameters"][0].update(values=5)),
        ("space", lambda d: d.update(parameters=["a"])),
        ("space", lambda d: d["parameters"][0].update(values=[[1], [2]])),
        ("space", lambda d: d["parameters"][0].update(name=["a"])),
        ("constraints", lambda d: d["all"][0]["ineq"].update(ka=[1])),
        ("constraints", lambda d: d.update({"all": [{"cond": {
            "if": {"param": "a", "in": [[1], 2]},
            "then": {"param": "b", "in": [5, 6]}}}]})),
        ("model", lambda d: d.update(base_luts=[1])),
        ("model", lambda d: d.update(parameters=5)),
        ("model", lambda d: d["parameters"].update(a=5)),
        ("model", lambda d: d["benchmarks"].update(multiply="x")),
    ], ids=["space-values", "space-entry", "space-unhashable-values",
            "space-unhashable-name", "ineq-coefficient",
            "interval-bound", "model-number", "model-parameters",
            "model-parameter-entry", "model-benchmark"])
    def test_validate_malformed_file_exits_2(self, tmp_path, file, edit):
        docs = tiny_docs()
        edit(docs[file])
        result = CliRunner().invoke(
            cli_main, ["validate", *infeasible_inputs(tmp_path, docs)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "error: " in result.output
        assert "Traceback" not in result.output

    def test_validate_conjunct_too_wide_to_table_exits_2(self, tmp_path):
        # a 400 x 400 grid exceeds the 100,000 entries a table may hold
        docs = tiny_docs()
        for p, lo in zip(docs["space"]["parameters"], (1, 5)):
            p["values"] = list(range(lo, lo + 400))
        result = CliRunner().invoke(
            cli_main, ["validate", *infeasible_inputs(tmp_path, docs)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "error: a rule over a, b spans 160000" in result.output
        assert "Traceback" not in result.output

    def test_run_writes_reports(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "run", "--processor", "boom", "--baseline", "random",
            "--iters", "3", "--warm-start", "4", "--seed", "1",
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "report.jsonl").exists()
        assert (tmp_path / "report.csv").exists()

    def test_zero_lut_budget_exits_2(self, tmp_path):
        # 0 is a budget, not "use the model file's"
        result = CliRunner().invoke(cli_main, [
            "run", "--processor", "el2_veer", "--max-luts", "0",
            "--iters", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "error: LUT budget must be positive" in result.output

    def test_eval_bench_prints_table(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "eval-bench", "--processor", "el2_veer", "--configs", "4"])
        assert result.exit_code == 0, result.output
        assert "retrieval" in result.output

    @staticmethod
    def assert_plain_exit_2(result):
        assert result.exit_code == 2, result.output
        assert "\nerror: " in "\n" + result.output
        assert "Traceback" not in result.output

    def test_run_out_naming_a_file_exits_2(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        self.assert_plain_exit_2(CliRunner().invoke(cli_main, [
            "run", "--processor", "el2_veer", "--iters", "0",
            "--warm-start", "2", "--out", str(out)]))

    def test_eval_bench_out_in_a_missing_directory_exits_2(self, tmp_path):
        self.assert_plain_exit_2(CliRunner().invoke(cli_main, [
            "eval-bench", "--processor", "el2_veer", "--configs", "2",
            "--out", str(tmp_path / "missing" / "x.json")]))

    def test_eval_bench_without_configurations_exits_2(self):
        result = CliRunner().invoke(cli_main, [
            "eval-bench", "--processor", "el2_veer", "--configs", "0"])
        self.assert_plain_exit_2(result)
        assert "error: the number of configurations must be positive" \
            in result.output

    def test_missing_inputs_usage_error(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run"])
        assert result.exit_code == 2

    def test_infeasible_space_exits_3(self, tmp_path):
        result = CliRunner().invoke(cli_main, [
            "run", *infeasible_inputs(tmp_path),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_space_smaller_than_the_warm_start_budget(self, tmp_path):
        # two configurations against the default budget of ten: the warm
        # start evaluates both, and the exhausted space ends the run
        files = tiny_inputs(tmp_path, [("a", [2], 2), ("b", [1, 2], 1)])
        result = CliRunner().invoke(cli_main, [
            "run", "--space", files["space_file"],
            "--model", files["model_file"], "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
        assert [r["config"] for r in rows if "config" in r] == \
            [{"a": 2, "b": 1}, {"a": 2, "b": 2}]
        assert [r["iteration"] for r in rows if "config" in r] == [0, 0]
        assert rows[-1]["stop_reason"] == "converged"

    def test_fewer_feasible_designs_than_the_warm_start_budget(self,
                                                               tmp_path):
        # a >= b leaves three of four designs against the default budget of
        # ten: the warm start evaluates the three that sampling finds
        files = tiny_inputs(tmp_path, [("a", [1, 2], 1), ("b", [1, 2], 1)],
                            {"all": [{"ineq": {"xa": "a", "xb": "b"}}]})
        result = CliRunner().invoke(cli_main, [
            "run", "--space", files["space_file"],
            "--model", files["model_file"],
            "--constraints", files["constraint_file"],
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
        warm = [r["config"] for r in rows if r.get("iteration") == 0]
        assert sorted((c["a"], c["b"]) for c in warm) == \
            [(1, 1), (2, 1), (2, 2)]

    @pytest.mark.parametrize("warm_start", [["--warm-start", "3"], []])
    def test_evaluated_feasible_designs_exhaust_the_space(self, tmp_path,
                                                          warm_start):
        # a >= b leaves three of four designs: once the warm start has
        # evaluated all three, the run stops instead of proposing them again
        files = tiny_inputs(tmp_path, [("a", [1, 2], 1), ("b", [1, 2], 1)],
                            {"all": [{"ineq": {"xa": "a", "xb": "b"}}]})
        result = CliRunner().invoke(cli_main, [
            "run", "--space", files["space_file"],
            "--model", files["model_file"],
            "--constraints", files["constraint_file"], *warm_start,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
        assert len([r for r in rows if "config" in r]) == 3
        assert rows[-1]["stop_reason"] == "converged"

    def test_eval_bench_infeasible_space_exits_3(self, tmp_path):
        # the sampler reads the exact feasible count before its first draw
        result = CliRunner().invoke(cli_main, [
            "eval-bench", *infeasible_inputs(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "no configuration satisfies the constraints" in result.output

    @pytest.mark.parametrize("option", [
        ("--time-compression", "nan"), ("--time-compression", "inf"),
        ("--time-compression", "-inf"), ("--tdt-limit", "nan")])
    def test_non_finite_time_setting_exits_2(self, tmp_path, option):
        result = CliRunner().invoke(cli_main, [
            "run", "--processor", "el2_veer", "--iters", "1", *option,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "time" in result.output
        assert not (tmp_path / "out").exists()

    def test_infinite_tdt_limit_is_valid(self, tmp_path):
        result = CliRunner().invoke(cli_main, [
            "run", "--processor", "el2_veer", "--iters", "1",
            "--tdt-limit", "inf", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads(
            (tmp_path / "report.jsonl").read_text().splitlines()[-1])
        assert math.isfinite(summary["tdt_minutes"])

    def test_no_feasible_candidate_exits_3(self, tmp_path, monkeypatch):
        import aspo.driver as driver_mod

        def no_candidate(*args, **kwargs):
            raise NoFeasibleCandidateError("no exact-feasible candidate")

        monkeypatch.setattr(driver_mod, "maximize_acquisition", no_candidate)
        result = CliRunner().invoke(cli_main, [
            "run", "--processor", "boom", "--iters", "1", "--warm-start", "4",
            "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "no exact-feasible candidate" in result.output


class TestWeightRelearning:
    def test_relearned_every_five_insertions(self, monkeypatch):
        import aspo.driver as driver_mod
        from aspo.checkpoints import learn_pair_weights as real_learn

        calls = []

        def counting_learn(store, fn, seed=0, **kw):
            calls.append(len(store))
            return real_learn(store, fn, seed=seed, **kw)

        monkeypatch.setattr(driver_mod, "learn_pair_weights", counting_learn)
        run_optimization(boom_rc(budget_iterations=2, warm_start_budget=10))
        # 10 warm inserts trigger learning at 5 and 10; two more valid
        # insertions are not enough for another round
        assert calls[:2] == [5, 10]
        assert len(calls) == 2


class TestConcurrentPrediction:
    def test_model_queries_are_thread_safe(self):
        import concurrent.futures
        from aspo.gp import fit
        from aspo.space import encode
        bundle = assets.load_bundle("boom")
        rng = np.random.default_rng(0)
        warm = [
            {p.name: p.values[rng.integers(p.count)]
             for p in bundle.space.params}
            for _ in range(12)
        ]
        X = [encode(bundle.space, c) for c in warm]
        model = fit(bundle.space, X, rng.normal(size=12), seed=0)
        queries = rng.uniform(size=(64, bundle.space.encoded_dim))
        serial = [model.predict(q) for q in queries]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(model.predict, queries))
        assert serial == parallel


class TestNumericalFailure:
    def test_partial_report_on_surrogate_failure(self, monkeypatch):
        import aspo.driver as driver_mod
        from aspo.errors import NumericalError

        calls = {"n": 0}

        def exploding_fit(*args, **kwargs):
            calls["n"] += 1
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(driver_mod, "fit", exploding_fit)
        report = run_optimization(boom_rc(budget_iterations=5))
        assert calls["n"] == 1
        assert report.stop_reason == "numerical-failure"
        assert "synthetic breakdown" in report.error
        # warm-start evaluations are still reported
        assert report.evaluations == 6
        assert report.best_eet_ms is not None

    def test_non_finite_likelihood_exits_4(self, monkeypatch, tmp_path):
        # a NaN difference reaches the real likelihood inside the real fit:
        # a surrogate failure (exit 4), not a configuration error (exit 2)
        import aspo.gp as gp_mod
        likelihood = gp_mod._likelihood

        def nan_difference(diff, *args):
            diff = diff.copy()
            diff[0, 0, 1] = np.nan      # feature-major: (D, n, n)
            return likelihood(diff, *args)

        monkeypatch.setattr(gp_mod, "_likelihood", nan_difference)
        result = CliRunner().invoke(cli_main, [
            "run", "--processor", "boom", "--iters", "3", "--warm-start", "4",
            "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "stop: numerical-failure" in result.output
        assert "likelihood kernel is not finite" in result.output


def climbs(monkeypatch, rc):
    """The hill climb's history, and the oracle climb's in its place."""
    ours = run_baseline(rc, "hill-climb")
    with monkeypatch.context() as m:
        m.setattr(driver_mod, "_hill_climb", reference_hill_climb)
        theirs = run_baseline(rc, "hill-climb")
    assert ours.stop_reason == theirs.stop_reason == "converged"
    return ([(e.iteration, e.config) for e in ours.history],
            [(e.iteration, e.config) for e in theirs.history])


def tiny_inputs(tmp_path, parameters, constraints=None) -> dict:
    """RunConfig file fields for a small ordinal space, its model and an
    optional constraint file."""
    space_doc = {"parameters": [
        {"name": n, "kind": "ordinal", "values": v, "default": d}
        for n, v, d in parameters]}
    model_doc = {
        "processor": "tiny", "base_frequency_mhz": 50.0,
        "frequency_sensitivity": 0.2, "base_luts": 100, "lut_budget": 10000,
        "full_synthesis_minutes": 10.0, "base_synthesis_minutes": 2.0,
        "power_idle_w": 0.1, "power_per_lut_w": 1e-5,
        "benchmarks": {"multiply": 1000},
        "match_weights": {n: 1.0 for n, _, _ in parameters},
        "parameters": {n: {"cycle_beta": 0.1 * (k + 1), "lut_cost": 100}
                       for k, (n, _, _) in enumerate(parameters)}}
    files = {}
    for field, doc in (("space_file", space_doc), ("model_file", model_doc),
                       ("constraint_file", constraints)):
        if doc is not None:
            files[field] = tmp_path / f"{field}.json"
            files[field].write_text(json.dumps(doc))
    return {k: str(v) for k, v in files.items()}


class TestHillClimbWalk:
    """The hill climb as a ``walk_steps`` walk against the climb with its
    own neighbours and best move (``oracles.reference_hill_climb``)."""

    def test_boom_seed0_to_convergence(self, monkeypatch):
        rc = boom_rc(budget_iterations=10_000, tdt_limit_minutes=math.inf,
                     stagnation_limit=None)
        ours, theirs = climbs(monkeypatch, rc)
        assert ours == theirs and len(ours) > 300

    def test_infeasible_default_and_a_single_valued_parameter(
            self, monkeypatch, tmp_path):
        # b - a + 2 >= 0 rules the default a = 8, b = 1 out; c never moves
        files = tiny_inputs(
            tmp_path,
            [("a", [1, 2, 4, 8], 8), ("c", [3], 3), ("b", [1, 2, 4], 1)],
            {"all": [{"ineq": {"xa": "b", "xb": "a", "t": 2}}]})
        rc = RunConfig(**files, budget_iterations=50, warm_start_budget=2,
                       seed=1, stagnation_limit=None)
        ours, theirs = climbs(monkeypatch, rc)
        assert ours == theirs
        # the warm start lacks the default, so it is proposed first
        assert ours[2] == (1, {"a": 8, "c": 3, "b": 1})
        history = run_baseline(rc, "hill-climb").history
        assert not history[2].result.valid and len(history) > 5

    def test_single_valued_space_proposes_only_the_default(
            self, monkeypatch, tmp_path):
        files = tiny_inputs(tmp_path, [("a", [2], 2), ("b", [5], 5)])
        rc = RunConfig(**files, budget_iterations=50, warm_start_budget=1,
                       seed=0)
        ours, theirs = climbs(monkeypatch, rc)
        assert ours == theirs
        assert [cfg for _, cfg in ours] == [{"a": 2, "b": 5}]
