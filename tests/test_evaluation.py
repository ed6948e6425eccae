import json
import sys
from itertools import islice

import numpy as np
import pytest

from aspo import assets
from aspo.checkpoints import (
    CheckpointRecord,
    CheckpointStore,
    artifact_path,
    match_config,
    rank_distance,
    weighted_distance,
)
from aspo.constraints import feasible_draws
from aspo.errors import (
    InvalidConfigurationError,
    ProtocolError,
    ToolError,
    UndefinedMetricError,
)
from aspo.evaluation import (
    DIRECT,
    FAILURE_MINUTES,
    FIXED_CHECKPOINT,
    LOOKUP_MINUTES,
    RETRIEVAL,
    EvalHarness,
    EvaluationResult,
    ExternalEvaluator,
    ResourceBudget,
    SyntheticModel,
    estimated_execution_time,
)
from aspo.space import config_ranks, encode, random_configuration
from oracles import reference_cycles, reference_luts


@pytest.fixture(scope="module")
def boom():
    bundle = assets.load_bundle("boom")
    model = SyntheticModel(bundle.model, bundle.space)
    return bundle, model


def harness_for(bundle, backend, max_luts=None, **kw):
    budget = ResourceBudget(max_luts or bundle.model["lut_budget"])
    return EvalHarness(backend, bundle.tree, budget, **kw)


def random_feasible(bundle, rng, n):
    return list(islice(feasible_draws(bundle.tree, bundle.space, rng), n))


def insert_all(store, space, model, cfgs, harness):
    for cfg in cfgs:
        res = harness.evaluate(cfg, DIRECT)
        store.insert(CheckpointRecord(
            config=cfg, encoded=encode(space, cfg), metrics=res,
            artifact=artifact_path(space, cfg),
            synthesis_minutes=res.eval_minutes))


class TestEvaluationResult:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EvaluationResult(cycles=1, fmax_mhz=1.0, luts=1, power_w=0.1,
                             eval_minutes=1.0, valid=True,
                             failure_stage="resource")

    def test_round_trip(self):
        r = EvaluationResult(cycles=5, fmax_mhz=50.0, luts=10, power_w=0.2,
                             eval_minutes=3.0, valid=True)
        assert EvaluationResult(**r.to_dict()) == r


class TestSyntheticModel:
    def test_deterministic(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model)
        cfg = bundle.space.default_configuration()
        a = h.evaluate(cfg, DIRECT)
        b = h.evaluate(cfg, DIRECT)
        assert a == b

    def test_default_config_metrics_match_model_formula(self, boom):
        bundle, model = boom
        cfg = bundle.space.default_configuration()
        res = harness_for(bundle, model).evaluate(cfg, DIRECT)
        # oracle: evaluate the frozen coefficient file by hand
        coeffs = bundle.model["parameters"]
        penalty = 0.0
        luts = bundle.model["base_luts"]
        for p in bundle.space.params:
            c = coeffs[p.name]
            if p.kind == "categorical":
                penalty += c["cycle_factors"][cfg[p.name]]
                luts += c["lut_factors"][cfg[p.name]]
            else:
                rank = p.values.index(cfg[p.name]) / (len(p.values) - 1)
                penalty += c["cycle_beta"] * (1 - rank) ** 2
                luts += c["lut_cost"] * rank
        assert res.cycles == int(round(42503 * (1 + penalty)))
        assert res.luts == int(round(luts))

    def test_unknown_benchmark(self, boom):
        bundle, model = boom
        with pytest.raises(UndefinedMetricError):
            harness_for(bundle, model, benchmark="doom3").evaluate(
                bundle.space.default_configuration(), DIRECT)

    def test_resource_overrun(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model, max_luts=1000)
        res = h.evaluate(bundle.space.default_configuration(), DIRECT)
        assert not res.valid
        assert res.failure_stage == "resource"

    def test_bundled_spaces_never_exceed_bundled_budget(self):
        # max-complexity configuration stays deployable on the target board
        for proc in assets.PROCESSORS:
            bundle = assets.load_bundle(proc)
            model = SyntheticModel(bundle.model, bundle.space)
            maxed = {p.name: p.values[-1] for p in bundle.space.params}
            worst = max(model.luts({**maxed, p.name: v})
                        for p in bundle.space.params for v in p.values)
            assert worst <= model.lut_budget

    def test_constraint_failure_costs_one_minute(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model)
        bad = dict(bundle.space.default_configuration(),
                   FetchWidth=1, DecodeWidth=4)
        res = h.evaluate(bad, DIRECT)
        assert not res.valid
        assert res.failure_stage == "constraint"
        assert res.eval_minutes == FAILURE_MINUTES


class TestSynthesisTime:
    def test_reference_equal_gives_base(self, boom):
        _, model = boom
        cfg = model.space.default_configuration()
        assert model.synthesis_time(cfg, cfg) == model.t_base

    def test_no_reference_gives_full(self, boom):
        _, model = boom
        assert model.synthesis_time(model.space.default_configuration(),
                                    None) == model.t_full

    def test_full_figures_match_published_means(self):
        published = {"el2_veer": 11.4, "rocketchip": 45.4, "boom": 81.2}
        for proc, minutes in published.items():
            bundle = assets.load_bundle(proc)
            model = SyntheticModel(bundle.model, bundle.space)
            assert model.t_full == minutes

    def test_monotone_in_distance(self, boom):
        bundle, model = boom
        rng = np.random.default_rng(5)
        ref = bundle.space.default_configuration()
        pairs = []
        for cfg in random_feasible(bundle, rng, 30):
            d = weighted_distance(bundle.space, cfg, ref, model.match_weights)
            pairs.append((d, model.synthesis_time(cfg, ref)))
        pairs.sort()
        for (d1, t1), (d2, t2) in zip(pairs, pairs[1:]):
            if d2 > d1:
                assert t2 > t1
            else:
                assert t2 == t1

    def test_bounded_by_base_and_full(self, boom):
        bundle, model = boom
        rng = np.random.default_rng(6)
        ref = bundle.space.default_configuration()
        for cfg in random_feasible(bundle, rng, 30):
            t = model.synthesis_time(cfg, ref)
            assert model.t_base <= t <= model.t_full


class TestStrategies:
    def test_mean_ordering_on_random_configs(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model)
        rng = np.random.default_rng(7)
        cfgs = random_feasible(bundle, rng, 10)

        store = CheckpointStore(bundle.space)
        prepop = [bundle.space.default_configuration()] + \
            random_feasible(bundle, np.random.default_rng(8), 10)
        insert_all(store, bundle.space, model, prepop, h)

        def mean_minutes(strategy, db=None):
            return float(np.mean([
                h.evaluate(c, strategy, db=db,
                           weights=model.match_weights).eval_minutes
                for c in cfgs]))

        direct = mean_minutes(DIRECT)
        fixed = mean_minutes(FIXED_CHECKPOINT)
        retrieval = mean_minutes(RETRIEVAL, db=store)
        assert retrieval <= fixed <= direct
        assert retrieval <= 0.9 * direct

    def test_retrieval_beats_fixed_per_config_with_default_stored(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model)
        store = CheckpointStore(bundle.space)
        prepop = [bundle.space.default_configuration()] + \
            random_feasible(bundle, np.random.default_rng(9), 3)
        insert_all(store, bundle.space, model, prepop, h)
        for cfg in random_feasible(bundle, np.random.default_rng(10), 20):
            if store.lookup(cfg) is not None:
                continue
            r = h.evaluate(cfg, RETRIEVAL, db=store,
                           weights=model.match_weights).eval_minutes
            f = h.evaluate(cfg, FIXED_CHECKPOINT).eval_minutes
            assert r <= f

    def test_cache_hit_costs_lookup_constant(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model)
        store = CheckpointStore(bundle.space)
        cfg = bundle.space.default_configuration()
        insert_all(store, bundle.space, model, [cfg], h)
        res = h.evaluate(cfg, RETRIEVAL, db=store)
        assert res.eval_minutes == LOOKUP_MINUTES
        assert res.valid
        assert res.cycles == store.lookup(cfg).metrics.cycles

    def test_time_scale_compresses_minutes(self, boom):
        bundle, model = boom
        h = harness_for(bundle, model, time_scale=1 / 60)
        res = h.evaluate(bundle.space.default_configuration(), DIRECT)
        assert res.eval_minutes == pytest.approx(model.t_full / 60)


@pytest.mark.parametrize("processor", assets.PROCESSORS)
def test_tabled_model_matches_the_per_parameter_loops(processor):
    """Per-rank tables price every design as the coefficient file does."""
    bundle = assets.load_bundle(processor)
    model = SyntheticModel(bundle.model, bundle.space)
    rng = np.random.default_rng(11)
    for _ in range(300):
        cfg = random_configuration(bundle.space, rng)
        assert model.luts(cfg) == reference_luts(bundle.model, bundle.space,
                                                 cfg)
        for benchmark in model.benchmarks:
            assert model.cycles(cfg, benchmark) == reference_cycles(
                bundle.model, bundle.space, cfg, benchmark)


class TestRowPricing:
    """``synthesize`` on rank rows prices every design as the dict path
    does, bit for bit."""

    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_rows_price_as_the_dicts(self, processor):
        bundle = assets.load_bundle(processor)
        space = bundle.space
        model = SyntheticModel(bundle.model, space)
        weights = model.match_weights
        rng = np.random.default_rng(12)
        for _ in range(300):
            cfg = random_configuration(space, rng)
            ranks = config_ranks(space, cfg)
            for ref in (None, space.default_configuration(),
                        random_configuration(space, rng)):
                ref_ranks = None if ref is None else tuple(config_ranks(space, ref))
                minutes = model.synthesis_time(cfg, ref)
                if ref is not None:
                    assert np.float64(rank_distance(
                        space, ranks, ref_ranks, weights)).tobytes() == \
                        np.float64(weighted_distance(
                            space, cfg, ref, weights)).tobytes()
                for benchmark in model.benchmarks:
                    res = model.synthesize(ranks, ref_ranks, benchmark)
                    assert res.luts == reference_luts(bundle.model, space, cfg)
                    assert res.cycles == reference_cycles(
                        bundle.model, space, cfg, benchmark)
                    assert res.fmax_mhz == model.fmax(cfg)
                    assert np.float64(res.eval_minutes).tobytes() == \
                        np.float64(minutes).tobytes()


def malformed(space, kind):
    """The default configuration broken one way: an inadmissible value, a
    missing parameter or an extra key."""
    cfg = space.default_configuration()
    if kind == "value":
        cfg["icache_nSets"] = 7777
    elif kind == "missing":
        del cfg["icache_nSets"]
    else:
        cfg["zzz"] = 1
    return cfg


MALFORMED = ("value", "missing", "extra")


class TestMalformedConfiguration:
    @pytest.mark.parametrize("strategy", [DIRECT, FIXED_CHECKPOINT, RETRIEVAL])
    @pytest.mark.parametrize("kind", MALFORMED)
    def test_harness_raises_a_typed_error(self, boom, kind, strategy):
        bundle, model = boom
        h = harness_for(bundle, model)
        store = CheckpointStore(bundle.space)
        insert_all(store, bundle.space, model,
                   [bundle.space.default_configuration()], h)
        with pytest.raises(InvalidConfigurationError):
            h.evaluate(malformed(bundle.space, kind), strategy, db=store,
                       weights=model.match_weights)

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_model_raises_a_typed_error(self, boom, kind):
        _, model = boom
        cfg = malformed(model.space, kind)
        with pytest.raises(InvalidConfigurationError):
            model.luts(cfg)
        with pytest.raises(InvalidConfigurationError):
            model.cycles(cfg, "multiply")

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_external_tool_never_sees_it(self, boom, tmp_path, kind):
        bundle, _ = boom
        log = tmp_path / "requests.jsonl"
        h = tool_harness(bundle, RECORDER, str(log))
        with pytest.raises(InvalidConfigurationError):
            h.evaluate(malformed(bundle.space, kind), DIRECT)
        assert recorded_requests(log) == []


class TestEstimatedExecutionTime:
    def test_arithmetic(self):
        r = EvaluationResult(cycles=10 ** 6, fmax_mhz=50.0, luts=1, power_w=0.1,
                             eval_minutes=1.0, valid=True)
        assert estimated_execution_time(r) == pytest.approx(20.0)

    def test_zero_cycles(self):
        r = EvaluationResult(cycles=0, fmax_mhz=50.0, luts=1, power_w=0.1,
                             eval_minutes=1.0, valid=True)
        assert estimated_execution_time(r) == 0.0

    def test_doubling_fmax_halves_eet(self):
        a = EvaluationResult(cycles=1000, fmax_mhz=25.0, luts=1, power_w=0.1,
                             eval_minutes=1.0, valid=True)
        b = EvaluationResult(cycles=1000, fmax_mhz=50.0, luts=1, power_w=0.1,
                             eval_minutes=1.0, valid=True)
        assert estimated_execution_time(a) == pytest.approx(
            2 * estimated_execution_time(b))

    def test_invalid_result_rejected(self):
        r = EvaluationResult(cycles=0, fmax_mhz=1.0, luts=0, power_w=0.0,
                             eval_minutes=1.0, valid=False,
                             failure_stage="constraint")
        with pytest.raises(UndefinedMetricError):
            estimated_execution_time(r)


ECHO_EVALUATOR = r"""
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({"id": req["id"], "status": "ok", "cycles": 12345,
                  "fmax_mhz": 62.5, "luts": 41000, "power_w": 1.2,
                  "synthesis_minutes": 17.5}))
"""

REQUEST_CHECKER = r"""
import json, sys
req = json.loads(sys.stdin.readline())
missing = {"id", "config", "checkpoint_hint", "benchmark"} - set(req)
if missing or req["benchmark"] != "multiply" or req["config"]["FetchWidth"] != 4:
    print(json.dumps({"id": req.get("id"), "status": "invalid", "stage": "synthesis"}))
else:
    print(json.dumps({"id": req["id"], "status": "ok",
                      "cycles": 1 if req["checkpoint_hint"] is None else 2,
                      "fmax_mhz": 50.0, "luts": 10, "power_w": 0.1,
                      "synthesis_minutes": 1.0}))
"""

SLEEPER = r"""
import sys, time
sys.stdin.readline()
time.sleep(30)
"""

MISSING_FIELD = r"""
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({"id": req["id"], "status": "ok", "fmax_mhz": 62.5,
                  "luts": 41000, "power_w": 1.2, "synthesis_minutes": 17.5}))
"""

INVALID_STAGE = r"""
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({"id": req["id"], "status": "invalid", "stage": "synthesis"}))
"""


RECORDER = r"""
import json, sys
line = sys.stdin.readline()
with open(sys.argv[1], "a") as fh:
    fh.write(line)
req = json.loads(line)
print(json.dumps({"id": req["id"], "status": "ok", "cycles": 100,
                  "fmax_mhz": 50.0, "luts": 10, "power_w": 0.1,
                  "synthesis_minutes": 1.0}))
"""


def tool_harness(bundle, body, *argv, timeout_s=60.0, **kw):
    """A harness whose backend runs the script ``body`` as the tool."""
    tool = ExternalEvaluator([sys.executable, "-c", body, *argv],
                             bundle.space, timeout_s=timeout_s)
    return harness_for(bundle, tool, **kw)


def recorded_requests(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestExternalEvaluator:
    # the default configuration passes the constraint stage and has
    # FetchWidth 4, which REQUEST_CHECKER expects
    def test_round_trip(self, boom):
        bundle, _ = boom
        res = tool_harness(bundle, ECHO_EVALUATOR).evaluate(
            bundle.space.default_configuration(), DIRECT)
        assert res == EvaluationResult(cycles=12345, fmax_mhz=62.5, luts=41000,
                                       power_w=1.2, eval_minutes=17.5, valid=True)

    def test_request_carries_config_hint_and_benchmark(self, boom):
        bundle, _ = boom
        h = tool_harness(bundle, REQUEST_CHECKER)
        cfg = bundle.space.default_configuration()
        bare = h.evaluate(cfg, DIRECT)
        assert bare.valid and bare.cycles == 1
        hinted = h.evaluate(cfg, FIXED_CHECKPOINT)
        assert hinted.valid and hinted.cycles == 2

    def test_timeout_is_synthesis_failure(self, boom):
        bundle, _ = boom
        res = tool_harness(bundle, SLEEPER, timeout_s=1.0).evaluate(
            bundle.space.default_configuration(), DIRECT)
        assert not res.valid
        assert res.failure_stage == "synthesis"
        assert res.eval_minutes == 1.0 / 60.0

    def test_missing_cycles_is_protocol_error(self, boom):
        bundle, _ = boom
        with pytest.raises(ProtocolError, match="cycles"):
            tool_harness(bundle, MISSING_FIELD).evaluate(
                bundle.space.default_configuration(), DIRECT)

    def test_invalid_status_maps_to_stage(self, boom):
        bundle, _ = boom
        res = tool_harness(bundle, INVALID_STAGE, benchmark="mm").evaluate(
            bundle.space.default_configuration(), DIRECT)
        assert not res.valid
        assert res.failure_stage == "synthesis"
        assert res.eval_minutes == FAILURE_MINUTES

    def test_nonzero_exit_is_tool_error(self, boom):
        bundle, _ = boom
        with pytest.raises(ToolError):
            tool_harness(bundle,
                         "import sys; sys.stdin.readline(); sys.exit(3)") \
                .evaluate(bundle.space.default_configuration(), DIRECT)

    def test_garbage_output_is_protocol_error(self, boom):
        bundle, _ = boom
        with pytest.raises(ProtocolError):
            tool_harness(
                bundle, "import sys; sys.stdin.readline(); print('not json')") \
                .evaluate(bundle.space.default_configuration(), DIRECT)

    def test_failure_charges_are_scaled(self, boom):
        bundle, _ = boom
        cfg = bundle.space.default_configuration()
        timeout = tool_harness(bundle, SLEEPER, timeout_s=1.0,
                               time_scale=1 / 60).evaluate(cfg, DIRECT)
        assert timeout.failure_stage == "synthesis"
        assert timeout.eval_minutes == pytest.approx(1.0 / 60 / 60, rel=1e-12)
        invalid = tool_harness(bundle, INVALID_STAGE,
                               time_scale=1 / 60).evaluate(cfg, DIRECT)
        assert invalid.failure_stage == "synthesis"
        assert invalid.eval_minutes == pytest.approx(FAILURE_MINUTES / 60,
                                                     rel=1e-12)

    def test_resource_stage_checks_the_tool_luts(self, boom):
        bundle, _ = boom
        res = tool_harness(bundle, ECHO_EVALUATOR, max_luts=40_000).evaluate(
            bundle.space.default_configuration(), DIRECT)
        assert res.failure_stage == "resource"
        assert res.luts == 41000
        # the tool has spent its synthesis minutes before the LUT check
        assert res.eval_minutes == 17.5

    def test_hint_is_the_reference_artifact(self, boom, tmp_path):
        bundle, model = boom
        space = bundle.space
        log = tmp_path / "requests.jsonl"
        h = tool_harness(bundle, RECORDER, str(log))
        default = space.default_configuration()
        near, cfg = random_feasible(bundle, np.random.default_rng(3), 2)
        store = CheckpointStore(space)
        insert_all(store, space, model, [default, near],
                   harness_for(bundle, model))
        weights = model.match_weights
        matched = match_config(store, cfg, weights)
        assert matched.config == near
        h.evaluate(cfg, DIRECT)
        h.evaluate(cfg, FIXED_CHECKPOINT)
        h.evaluate(cfg, RETRIEVAL, db=store, weights=weights)
        hints = [r["checkpoint_hint"] for r in recorded_requests(log)]
        assert hints == [None, artifact_path(space, default), matched.artifact]

    def test_retrieval_request_names_the_matched_checkpoint(self, boom,
                                                             tmp_path):
        bundle, model = boom
        space = bundle.space
        log = tmp_path / "requests.jsonl"
        h = tool_harness(bundle, RECORDER, str(log))
        # records without artifacts, as the driver stores them
        store = CheckpointStore(space)
        direct = harness_for(bundle, model)
        for cfg in [space.default_configuration()] + random_feasible(
                bundle, np.random.default_rng(4), 6):
            store.insert(CheckpointRecord(config=cfg, encoded=encode(space, cfg),
                                          metrics=direct.evaluate(cfg, DIRECT)))
        weights = model.match_weights
        cfgs = [c for c in random_feasible(bundle, np.random.default_rng(5), 6)
                if store.lookup(c) is None]
        for cfg in cfgs:
            # the caller's key order is not the space's
            h.evaluate(dict(reversed(cfg.items())), RETRIEVAL, db=store,
                       weights=weights)
        requests = recorded_requests(log)
        assert len(requests) == len(cfgs) > 0
        for cfg, request in zip(cfgs, requests):
            assert request["checkpoint_hint"] == artifact_path(
                space, match_config(store, cfg, weights).config)
            assert list(request["config"].items()) == [
                (p.name, cfg[p.name]) for p in space.params]

    def test_lookup_hit_never_spawns_the_tool(self, boom, tmp_path):
        bundle, model = boom
        log = tmp_path / "requests.jsonl"
        h = tool_harness(bundle, RECORDER, str(log))
        cfg = bundle.space.default_configuration()
        store = CheckpointStore(bundle.space)
        insert_all(store, bundle.space, model, [cfg],
                   harness_for(bundle, model))
        res = h.evaluate(cfg, RETRIEVAL, db=store,
                         weights=model.match_weights)
        assert res.eval_minutes == LOOKUP_MINUTES
        assert res.cycles == store.lookup(cfg).metrics.cycles
        assert recorded_requests(log) == []
