import numpy as np
import pytest

from aspo import assets
from aspo.checkpoints import (
    LEARN_SUBSET,
    CheckpointRecord,
    CheckpointStore,
    DistanceWeights,
    RelaxedCost,
    artifact_path,
    cost_estimate,
    learn_weights,
    match_config,
    weighted_distance,
)
from aspo.errors import (
    EmptyDatabaseError,
    InsufficientRecordsError,
    InvalidConfigurationError,
)
from aspo.evaluation import EvaluationResult
from aspo.space import ParameterDef, ParameterSpace, encode, random_configuration
from oracles import reference_learn_weights


@pytest.fixture
def space():
    return ParameterSpace([
        ParameterDef("size", "ordinal", (1, 2, 4, 8), 1),
        ParameterDef("depth", "ordinal", (2, 4, 8), 2),
        ParameterDef("mode", "categorical", ("fast", "small"), "fast"),
    ])


def ok_metrics(minutes=5.0):
    return EvaluationResult(cycles=1000, fmax_mhz=50.0, luts=100, power_w=0.5,
                            eval_minutes=minutes, valid=True)


def record(space, cfg, minutes=5.0):
    return CheckpointRecord(config=cfg, encoded=encode(space, cfg),
                            metrics=ok_metrics(minutes),
                            artifact=artifact_path(space, cfg),
                            synthesis_minutes=minutes)


def store_with(space, cfgs):
    store = CheckpointStore(space)
    for cfg in cfgs:
        store.insert(record(space, cfg))
    return store


class TestWeightedDistance:
    def test_identity_is_zero(self, space):
        cfg = space.default_configuration()
        assert weighted_distance(space, cfg, cfg, DistanceWeights.ones(space)) == 0

    def test_single_categorical_mismatch(self, space):
        a = {"size": 1, "depth": 2, "mode": "fast"}
        b = {"size": 1, "depth": 2, "mode": "small"}
        assert weighted_distance(space, a, b, DistanceWeights.ones(space)) == 1.0

    def test_weighted_rank_differences(self):
        space = ParameterSpace([
            ParameterDef("a", "ordinal", (0, 1, 2), 0),
            ParameterDef("b", "ordinal", (0, 1, 2), 0),
        ])
        # ranks (0.0, 1.0) vs (0.5, 0.5) with weights (2, 1)
        x = {"a": 0, "b": 2}
        q = {"a": 1, "b": 1}
        w = DistanceWeights(np.array([2.0, 1.0]))
        assert weighted_distance(space, x, q, w) == pytest.approx(0.75)

    def test_symmetry(self, space):
        rng = np.random.default_rng(0)
        w = DistanceWeights(rng.uniform(0.1, 2.0, size=3))
        for _ in range(50):
            a = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            b = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            assert weighted_distance(space, a, b, w) == \
                weighted_distance(space, b, a, w)

    def test_zero_iff_equal_with_positive_weights(self, space):
        rng = np.random.default_rng(1)
        w = DistanceWeights(rng.uniform(0.5, 2.0, size=3))
        for _ in range(50):
            a = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            b = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            d = weighted_distance(space, a, b, w)
            assert (d == 0) == (a == b)


class TestWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceWeights(np.array([1.0, -0.1]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            DistanceWeights(np.zeros(3))


class TestStore:
    def test_insert_then_lookup(self, space):
        cfg = space.default_configuration()
        store = store_with(space, [cfg])
        assert store.lookup(cfg).config == cfg

    def test_lookup_unknown_absent(self, space):
        store = store_with(space, [space.default_configuration()])
        assert store.lookup({"size": 8, "depth": 8, "mode": "small"}) is None

    def test_reinsert_keeps_size_and_rank(self, space):
        cfg_a = space.default_configuration()
        cfg_b = {"size": 8, "depth": 8, "mode": "small"}
        store = store_with(space, [cfg_a, cfg_b])
        store.insert(record(space, cfg_a, minutes=9.0))
        assert len(store) == 2
        assert store.records()[0].config == cfg_a
        assert store.records()[0].metrics.eval_minutes == 9.0

    @pytest.mark.parametrize("cfg", [
        {"size": 3, "depth": 2, "mode": "fast"},
        {"size": 1, "depth": 2},
        {"size": 1, "depth": 2, "mode": "fast", "zzz": 1},
    ], ids=["value", "missing", "extra"])
    def test_malformed_configuration_raises(self, space, cfg):
        # keyed by rank row, so an extra key cannot match a stored design
        store = store_with(space, [space.default_configuration()])
        with pytest.raises(InvalidConfigurationError):
            store.lookup(cfg)
        bad = CheckpointRecord(config=cfg, encoded=np.zeros(4),
                               metrics=ok_metrics())
        with pytest.raises(InvalidConfigurationError):
            store.insert(bad)
        assert len(store) == 1


class TestMatchConfig:
    def test_empty_database_error(self, space):
        with pytest.raises(EmptyDatabaseError):
            match_config(CheckpointStore(space), space.default_configuration(),
                         DistanceWeights.ones(space))

    def test_nearest_of_two(self):
        space = ParameterSpace([
            ParameterDef("a", "ordinal", (0, 1, 2), 0),
            ParameterDef("b", "ordinal", (0, 1, 2), 0),
        ])
        q1 = {"a": 1, "b": 1}
        q2 = {"a": 2, "b": 2}
        store = store_with(space, [q1, q2])
        got = match_config(store, {"a": 1, "b": 1}, DistanceWeights.ones(space))
        assert got.config == q1

    def test_exact_member_matches_itself(self, space):
        cfgs = [space.default_configuration(),
                {"size": 8, "depth": 8, "mode": "small"}]
        store = store_with(space, cfgs)
        got = match_config(store, cfgs[1], DistanceWeights.ones(space))
        assert got.config == cfgs[1]

    def test_tie_breaks_to_earliest_insert(self, space):
        a = {"size": 1, "depth": 2, "mode": "small"}
        b = {"size": 2, "depth": 2, "mode": "fast"}
        x = {"size": 1, "depth": 2, "mode": "fast"}
        w = DistanceWeights(np.array([1.0, 1.0, 1.0 / 9.0]))
        store = store_with(space, [b, a])
        # distance x->a = w_mode, x->b = w_size*(1/3)^2: equal by construction
        da = weighted_distance(space, x, a, w)
        db = weighted_distance(space, x, b, w)
        assert da == pytest.approx(db)
        assert match_config(store, x, w).config == b

    def test_matches_brute_force_on_random_instances(self, space):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cfgs = []
            for _ in range(rng.integers(1, 8)):
                cfgs.append({p.name: p.values[rng.integers(p.count)]
                             for p in space.params})
            # dedupe keeping order, as the store would
            seen, uniq = set(), []
            for c in cfgs:
                k = tuple(c.values())
                if k not in seen:
                    seen.add(k)
                    uniq.append(c)
            store = store_with(space, uniq)
            x = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            w = DistanceWeights(rng.uniform(0.1, 3.0, size=3))
            got = match_config(store, x, w)
            dists = [weighted_distance(space, x, c, w) for c in uniq]
            assert weighted_distance(space, x, got.config, w) == min(dists)
            assert got.config == uniq[int(np.argmin(dists))]


class TestCostEstimate:
    def test_empty_database_prior(self, space):
        assert cost_estimate(CheckpointStore(space),
                             space.default_configuration(),
                             DistanceWeights.ones(space)) == 1.0

    def test_member_costs_zero(self, space):
        cfg = space.default_configuration()
        store = store_with(space, [cfg])
        assert cost_estimate(store, cfg, DistanceWeights.ones(space)) == 0.0

    def test_zero_iff_member(self, space):
        cfgs = [space.default_configuration(),
                {"size": 8, "depth": 8, "mode": "small"}]
        store = store_with(space, cfgs)
        w = DistanceWeights(np.array([1.0, 1.0, 1.0]))
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            c = cost_estimate(store, x, w)
            assert (c == 0) == (store.lookup(x) is not None)

    def test_equals_brute_force_min(self, space):
        cfgs = [{"size": 1, "depth": 2, "mode": "fast"},
                {"size": 4, "depth": 8, "mode": "small"},
                {"size": 8, "depth": 4, "mode": "fast"}]
        store = store_with(space, cfgs)
        w = DistanceWeights(np.array([1.3, 0.4, 2.0]))
        x = {"size": 2, "depth": 4, "mode": "small"}
        want = min(weighted_distance(space, x, c, w) for c in cfgs)
        assert cost_estimate(store, x, w) == pytest.approx(want)


class TestLearnWeights:
    def _populated(self, space, n, seed):
        rng = np.random.default_rng(seed)
        cfgs, seen = [], set()
        while len(cfgs) < n:
            c = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            k = tuple(c.values())
            if k not in seen:
                seen.add(k)
                cfgs.append(c)
        return store_with(space, cfgs)

    def test_requires_three_records(self, space):
        store = store_with(space, [space.default_configuration()])
        with pytest.raises(InsufficientRecordsError):
            learn_weights(store, lambda cfg, ref: 1.0)

    def test_flat_objective_returns_all_ones(self, space):
        store = self._populated(space, 8, seed=4)
        w = learn_weights(store, lambda cfg, ref: 7.0, seed=0)
        assert np.array_equal(w.w, np.ones(3))

    def test_recovers_influential_parameter(self, space):
        # synthesis time depends only on the first parameter's rank distance
        def t_syn(cfg, ref):
            p = space.params[0]
            return (p.scaled_rank(cfg[p.name]) - p.scaled_rank(ref.config[p.name])) ** 2

        for seed in range(10):
            store = self._populated(space, 12, seed=50 + seed)
            w = learn_weights(store, t_syn, seed=seed)
            assert w.w[0] == w.w.max(), w.w

    def test_never_worse_than_all_ones(self, space):
        rng = np.random.default_rng(6)

        def noisy_t(cfg, ref):
            base = weighted_distance(space, cfg, ref.config,
                                     DistanceWeights(np.array([2.0, 0.3, 1.0])))
            return 1.0 + base

        def loo_objective(store, weights):
            recs = store.records()
            total = 0.0
            for i, r in enumerate(recs):
                rest = recs[:i] + recs[i + 1:]
                dists = [weighted_distance(space, r.config, o.config, weights)
                         for o in rest]
                total += noisy_t(r.config, rest[int(np.argmin(dists))])
            return total

        store = self._populated(space, 10, seed=7)
        w = learn_weights(store, noisy_t, seed=1)
        assert loo_objective(store, w) <= loo_objective(
            store, DistanceWeights.ones(space)) + 1e-12


class TestRelaxedCost:
    def test_matches_exact_cost_at_vertices(self, space):
        cfgs = [{"size": 1, "depth": 2, "mode": "fast"},
                {"size": 4, "depth": 8, "mode": "small"}]
        store = store_with(space, cfgs)
        w = DistanceWeights(np.array([1.5, 0.7, 2.0]))
        relaxed = RelaxedCost(store, w)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            assert relaxed.values(encode(space, x)[None, :])[0] == \
                pytest.approx(cost_estimate(store, x, w))

    def test_empty_store_prior(self, space):
        relaxed = RelaxedCost(CheckpointStore(space), DistanceWeights.ones(space))
        v, g = relaxed.values_and_gradients(np.zeros((1, space.encoded_dim)))
        assert v[0] == 1.0
        assert np.all(g[0] == 0)

    def test_gradient_matches_finite_differences(self, space):
        store = store_with(space, [{"size": 1, "depth": 2, "mode": "fast"},
                                   {"size": 8, "depth": 8, "mode": "small"}])
        relaxed = RelaxedCost(store, DistanceWeights(np.array([1.0, 2.0, 0.5])))
        rng = np.random.default_rng(9)
        h = 1e-7
        for _ in range(20):
            u = rng.uniform(0.1, 0.9, size=space.encoded_dim)
            grad = relaxed.values_and_gradients(u[None, :])[1][0]
            for j in range(space.encoded_dim):
                hi, lo = u.copy(), u.copy()
                hi[j] += h
                lo[j] -= h
                fd = (relaxed.values(hi[None, :])[0]
                      - relaxed.values(lo[None, :])[0]) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def feasible_store(processor, n, seed):
    """A bundled processor's store of ``n`` distinct feasible configurations."""
    from aspo import assets
    from aspo.constraints import exact_configuration
    from aspo.evaluation import SyntheticModel

    bundle = assets.load_bundle(processor)
    space = bundle.space
    rng = np.random.default_rng([seed, n])
    cfgs, seen = [], set()
    while len(cfgs) < n:
        c = {p.name: p.values[rng.integers(p.count)] for p in space.params}
        k = tuple(c.values())
        if k not in seen and exact_configuration(bundle.tree, space, c):
            seen.add(k)
            cfgs.append(c)
    return store_with(space, cfgs), SyntheticModel(bundle.model, space)


#: learn_weights output on feasible_store(processor, n, seed) with the
#: model's synthesis time, recorded from the per-trial reference loop.
#: n = 5 and 12 learn on the whole store; n = 40 on a sampled subset.
GOLDEN_WEIGHTS = {
    ('el2_veer', 5, 0): (1.0, 0.1, 1.0, 1.0, 1.0),
    ('el2_veer', 5, 1): (2.0, 1.0, 1.0, 1.0, 1.0),
    ('el2_veer', 5, 2): (2.0, 1.0, 0.5, 1.0, 1.0),
    ('el2_veer', 12, 0): (2.0, 0.5, 1.0, 1.0, 1.0),
    ('el2_veer', 12, 1): (2.0, 0.5, 1.0, 1.0, 1.0),
    ('el2_veer', 12, 2): (0.5, 1.0, 1.0, 1.0, 1.0),
    ('el2_veer', 40, 0): (1.0, 0.1, 1.0, 1.0, 1.0),
    ('el2_veer', 40, 1): (2.0, 1.0, 1.0, 2.0, 1.0),
    ('el2_veer', 40, 2): (2.0, 0.1, 1.0, 1.0, 1.0),
    ('rocketchip', 5, 0): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 5, 1): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 5, 2): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 12, 0): (2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 12, 1): (2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 12, 2): (2.0, 1.0, 1.0, 0.5, 0.1, 1.0, 1.0),
    ('rocketchip', 40, 0): (2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('rocketchip', 40, 1): (2.0, 0.5, 1.0, 1.0, 1.0, 2.0, 1.0),
    ('rocketchip', 40, 2): (2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('boom', 5, 0): (10.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0, 1.0, 1.0, 1.0),
    ('boom', 5, 1): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
    ('boom', 5, 2): (2.0, 0.5, 1.0, 0.1, 1.0, 0.1, 1.0, 2.0, 0.1, 1.0),
    ('boom', 12, 0): (2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0),
    ('boom', 12, 1): (2.0, 0.1, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.1),
    ('boom', 12, 2): (2.0, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    ('boom', 40, 0): (2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0),
    ('boom', 40, 1): (2.0, 0.1, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0),
    ('boom', 40, 2): (2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
}


class TestLearnWeightsGolden:
    @pytest.mark.parametrize("key", sorted(GOLDEN_WEIGHTS))
    def test_matches_recorded_weights(self, key):
        processor, n, seed = key
        store, model = feasible_store(processor, n, seed)
        w = learn_weights(
            store, lambda cfg, ref: model.synthesis_time(cfg, ref.config),
            seed=seed)
        assert np.array_equal(w.w, np.array(GOLDEN_WEIGHTS[key]))

    @pytest.mark.parametrize("n", [5, 12, 40])
    def test_asks_each_ordered_pair_once(self, n):
        store, model = feasible_store("boom", n, seed=0)
        asked = []

        def t_syn(cfg, ref):
            asked.append((tuple(cfg.values()), tuple(ref.config.values())))
            return model.synthesis_time(cfg, ref.config)

        learn_weights(store, t_syn, seed=0)
        k = min(n, LEARN_SUBSET)
        assert len(asked) == len(set(asked))
        assert len(asked) <= k * (k - 1)


def learn_both(store, synthesis_time_fn, seed):
    """``learn_weights`` and the per-trial oracle on one store, each with
    the ordered pairs it asked for, in order."""
    runs = []
    for learn in (learn_weights, reference_learn_weights):
        asked = []

        def t_syn(cfg, ref):
            asked.append((tuple(cfg.values()), tuple(ref.config.values())))
            return synthesis_time_fn(cfg, ref)

        runs.append((learn(store, t_syn, seed=seed).w, asked))
    return runs


class TestLearnWeightsMatchesReference:
    """The batched learner against the per-trial coordinate descent it
    replaced: the same weights bit for bit, the same pairs asked, each once.
    """

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 20, 21, 33, 60])
    @pytest.mark.parametrize("processor", ["boom", "rocketchip", "el2_veer"])
    def test_bundled_processors(self, processor, n):
        for seed in range(4):
            store, model = feasible_store(processor, n, seed)
            (w, asked), (want, want_asked) = learn_both(
                store, lambda cfg, ref: model.synthesis_time(cfg, ref.config),
                seed)
            assert w.tobytes() == want.tobytes(), (seed, w, want)
            assert set(asked) == set(want_asked)
            assert len(asked) == len(set(asked))

    @pytest.mark.parametrize("processor", ["boom", "rocketchip", "el2_veer"])
    def test_totals_are_summed_in_sample_order(self, processor):
        # 1 + 2**53 rounds back to 2**53, so each total depends on the
        # order of its terms, and a pairwise sum can flip an adoption
        for n in (12, 20, 33):
            for seed in range(4):
                store, _ = feasible_store(processor, n, seed)
                p, q = (p.name for p in store.space.params[:2])

                def t_syn(cfg, ref):
                    if cfg[p] != ref.config[p]:
                        return 2.0 ** 53
                    return float(cfg[q] != ref.config[q])

                (w, _), (want, _) = learn_both(store, t_syn, seed)
                assert w.tobytes() == want.tobytes(), (n, seed, w, want)

    def test_ties_on_an_all_categorical_space(self):
        # equal feature rows and integer times: most trials tie
        space = ParameterSpace([
            ParameterDef(name, "categorical", ("x", "y", "z")[:k], "x")
            for name, k in (("a", 2), ("b", 3), ("c", 2), ("d", 3))])
        rng = np.random.default_rng(12)
        cfgs = list(space.iter_configurations())
        rng.shuffle(cfgs)
        store = store_with(space, cfgs[:15])
        store._features[[3, 7, 11]] = store._features[0]
        store._features[9] = store._features[4]

        def t_syn(cfg, ref):
            return float(sum(cfg[k] != ref.config[k] for k in cfg))

        for seed in range(4):
            (w, asked), (want, want_asked) = learn_both(store, t_syn, seed)
            assert w.tobytes() == want.tobytes(), (seed, w, want)
            assert set(asked) == set(want_asked)
            assert len(asked) == len(set(asked))


@pytest.mark.parametrize("processor", ["boom", "rocketchip", "el2_veer"])
def test_config_features_match_reference_loop(processor):
    """The store's feature rows equal the per-parameter loop bit for bit."""
    space = assets.load_bundle(processor).space
    rng = np.random.default_rng(3)
    for _ in range(500):
        cfg = random_configuration(space, rng)
        want = np.empty(len(space))
        for i, p in enumerate(space.params):
            want[i] = p.values.index(cfg[p.name]) if p.kind == "categorical" \
                else p.scaled_rank(cfg[p.name])
        store = CheckpointStore(space)
        store.insert(CheckpointRecord(cfg, encode(space, cfg), ok_metrics()))
        assert store._features[0].tobytes() == want.tobytes()
