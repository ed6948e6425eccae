import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._optimize import MemoizeJac, _prepare_scalar_function
from scipy.stats import norm

from aspo import acquisition as acq
from aspo import assets
from aspo import gp as gp_mod
from aspo.acquisition import (
    EXPONENT,
    PAPER_RATIO,
    AcquisitionContext,
    CoolingSchedule,
    _cooled_scores,
    alpha_cool,
    cooled_value,
    cooling_factor,
    ei_value,
    expected_improvement,
    maximize_acquisition,
    maximize_ei_unconstrained,
)
from aspo.checkpoints import (
    CheckpointRecord,
    CheckpointStore,
    DistanceWeights,
    RelaxedCost,
    artifact_path,
)
from aspo.constraints import exact_configuration, parse_constraints
from aspo.errors import (
    InvalidPointError,
    NoFeasibleCandidateError,
    NumericalError,
)
from aspo.evaluation import (
    EvalHarness,
    EvaluationResult,
    ResourceBudget,
    SyntheticModel,
    estimated_execution_time,
)
from aspo.gp import KernelParams, fit
from aspo.space import (
    ParameterDef,
    ParameterSpace,
    config_ranks,
    encode,
    encode_ranks,
    random_configuration,
    snap,
)


def ok_metrics():
    return EvaluationResult(cycles=1, fmax_mhz=1.0, luts=1, power_w=0.1,
                            eval_minutes=1.0, valid=True)


def small_space():
    return ParameterSpace([
        ParameterDef("alg", "categorical", ("red", "green", "blue"), "red"),
        ParameterDef("width", "ordinal", (1, 2, 4, 8), 1),
        ParameterDef("depth", "ordinal", (2, 4, 8, 16, 32), 2),
        ParameterDef("banks", "ordinal", (1, 2, 3), 1),
    ])


def synthetic_objective(space, cfg):
    # smooth-ish landscape with categorical offsets
    x = [p.scaled_rank(cfg[p.name]) for p in space.params if p.kind == "ordinal"]
    offs = {"red": 0.0, "green": -0.4, "blue": 0.3}[cfg["alg"]]
    return (x[0] - 0.6) ** 2 + 0.5 * (x[1] - 0.3) ** 2 + 0.2 * x[2] + offs


def fitted_context(space, seed, n_train=14, with_store=True, mode=PAPER_RATIO,
                   k=0.1, iteration=0):
    rng = np.random.default_rng(seed)
    cfgs, seen = [], set()
    while len(cfgs) < n_train:
        cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
        key = tuple(cfg.values())
        if key not in seen:
            seen.add(key)
            cfgs.append(cfg)
    X = [encode(space, c) for c in cfgs]
    y = [synthetic_objective(space, c) for c in cfgs]
    model = fit(space, X, y, seed=seed)
    store = CheckpointStore(space)
    if with_store:
        for cfg in cfgs[: n_train // 2]:
            store.insert(CheckpointRecord(
                config=cfg, encoded=encode(space, cfg), metrics=ok_metrics(),
                artifact=artifact_path(space, cfg), synthesis_minutes=1.0))
    cost = RelaxedCost(store, DistanceWeights.ones(space))
    ctx = AcquisitionContext(model=model, best_feasible=float(min(y)),
                             cost=cost,
                             schedule=CoolingSchedule(mode=mode, k=k),
                             iteration=iteration)
    return ctx, cfgs, y


class TestEiValue:
    def test_at_incumbent_mean_unit_sigma(self):
        # EI = phi(0) when mean equals best and sigma is 1
        assert ei_value(0.0, 1.0, 0.0) == pytest.approx(norm.pdf(0.0), rel=1e-12)
        assert ei_value(0.0, 1.0, 0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_deterministic_improvement(self):
        assert ei_value(1.0, 0.0, 3.0) == 2.0
        assert ei_value(5.0, 0.0, 3.0) == 0.0

    def test_far_above_best_is_negligible(self):
        # z = -8; Mills-ratio bound keeps EI far below 1e-14
        assert ei_value(8.0, 1.0, 0.0) < 1e-14

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            ei = ei_value(rng.normal(), abs(rng.normal()), rng.normal())
            assert ei >= 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal(200_000)
        for mean, sigma, best in [(0.0, 1.0, 0.0), (1.0, 2.0, 0.5),
                                  (-0.5, 0.3, 0.0)]:
            mc = np.maximum(best - (mean + sigma * draws), 0.0).mean()
            assert ei_value(mean, sigma, best) == pytest.approx(mc, rel=0.02)


class TestCooling:
    def test_at_zero(self):
        assert cooling_factor(CoolingSchedule(1.0, 0.1), 0) == 1.0

    def test_no_decay(self):
        s = CoolingSchedule(1.0, 0.0)
        for t in (0, 5, 1000):
            assert cooling_factor(s, t) == 1.0

    def test_closed_form(self):
        assert cooling_factor(CoolingSchedule(2.0, 0.1), 10) == \
            pytest.approx(2 * math.exp(-1), rel=1e-12)

    def test_strictly_decreasing_when_k_positive(self):
        s = CoolingSchedule(1.0, 0.3)
        values = [cooling_factor(s, t) for t in range(10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            CoolingSchedule(lambda0=0.0)
        with pytest.raises(ValueError):
            CoolingSchedule(k=-1.0)
        with pytest.raises(ValueError):
            CoolingSchedule(mode="linear")


class TestCooledValue:
    def test_neutral_cost(self):
        assert cooled_value(0.7, 1.0, 1.0, PAPER_RATIO) == pytest.approx(0.7)
        assert cooled_value(0.7, 1.0, 1.0, EXPONENT) == pytest.approx(0.7)

    def test_cheaper_wins_at_equal_alpha(self):
        for mode in (PAPER_RATIO, EXPONENT):
            assert cooled_value(0.5, 0.2, 1.0, mode) > \
                cooled_value(0.5, 0.8, 1.0, mode)

    def test_zero_cost_floored(self):
        v = cooled_value(1.0, 0.0, 1.0, PAPER_RATIO)
        assert math.isfinite(v)

    def test_ratio_argmax_invariant_in_t(self):
        rng = np.random.default_rng(2)
        schedule = CoolingSchedule(1.0, 0.1, PAPER_RATIO)
        alphas = rng.uniform(0.01, 1.0, size=20)
        costs = rng.uniform(0.05, 2.0, size=20)
        picks = []
        for t in (0, 10, 100):
            lam = cooling_factor(schedule, t)
            vals = [cooled_value(a, c, lam, PAPER_RATIO)
                    for a, c in zip(alphas, costs)]
            picks.append(int(np.argmax(vals)))
        assert picks[0] == picks[1] == picks[2]

    def test_exponent_witness_ranking_flips(self):
        # alpha=(1,2), cost=(1,4): cheap-low-alpha wins early, loses late
        schedule = CoolingSchedule(1.0, 0.1, EXPONENT)
        lam0 = cooling_factor(schedule, 0)
        early = [cooled_value(1.0, 1.0, lam0, EXPONENT),
                 cooled_value(2.0, 4.0, lam0, EXPONENT)]
        assert early[0] > early[1]
        lam_inf = cooling_factor(schedule, 1000)  # effectively zero
        late = [cooled_value(1.0, 1.0, lam_inf, EXPONENT),
                cooled_value(2.0, 4.0, lam_inf, EXPONENT)]
        assert late[1] > late[0]


class TestExpectedImprovement:
    def test_translation_invariance(self):
        space = small_space()
        rng = np.random.default_rng(3)
        cfgs = []
        seen = set()
        while len(cfgs) < 10:
            cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            if tuple(cfg.values()) not in seen:
                seen.add(tuple(cfg.values()))
                cfgs.append(cfg)
        X = [encode(space, c) for c in cfgs]
        y = np.array([synthetic_objective(space, c) for c in cfgs])
        m0 = fit(space, X, y, seed=0)
        m1 = fit(space, X, y + 100.0, seed=0)
        best = float(y.min())
        for _ in range(20):
            q = rng.uniform(size=space.encoded_dim)
            a = expected_improvement(m0, q, best)
            b = expected_improvement(m1, q, best + 100.0)
            assert a == pytest.approx(b, abs=1e-9)

    def test_zero_at_visited_incumbent(self):
        space = small_space()
        ctx, cfgs, y = fitted_context(space, seed=4)
        incumbent = cfgs[int(np.argmin(y))]
        assert expected_improvement(ctx.model, encode(space, incumbent),
                                    ctx.best_feasible) == 0.0

    def test_positive_at_unvisited_point(self):
        space = small_space()
        ctx, cfgs, _ = fitted_context(space, seed=5)
        visited = {tuple(c.values()) for c in cfgs}
        rng = np.random.default_rng(6)
        while True:
            cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            if tuple(cfg.values()) not in visited:
                break
        assert expected_improvement(ctx.model, encode(space, cfg),
                                    ctx.best_feasible) > 0.0


class TestAlphaCool:
    def test_snap_invariance(self):
        space = small_space()
        ctx, _, _ = fitted_context(space, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.uniform(size=space.encoded_dim)
            assert alpha_cool(ctx, u) == alpha_cool(ctx, snap(space, u))

    def test_visited_points_never_attractive(self):
        # the cost floor must not amplify residual EI at stored designs
        space = small_space()
        ctx, cfgs, y = fitted_context(space, seed=9)
        incumbent = encode(space, cfgs[int(np.argmin(y))])
        assert alpha_cool(ctx, incumbent) == 0.0


def reference_alpha_cool(ctx, x):
    """The per-point acquisition that the batched scorer replaced."""
    q = snap(ctx.model.space, x)
    alpha = expected_improvement(ctx.model, q, ctx.best_feasible)
    cost = ctx.cost.value_and_gradient(q)[0] if ctx.cost is not None else 1.0
    return cooled_value(alpha, cost, ctx.lam(), ctx.schedule.mode)


def feasible_draws(bundle, rng, n):
    out = []
    while len(out) < n:
        cfg = random_configuration(bundle.space, rng)
        if exact_configuration(bundle.tree, bundle.space, cfg):
            out.append(cfg)
    return out


def bundle_context(bundle, rng, mode=PAPER_RATIO):
    """A cooled context on a bundled processor: a GP fitted to 16 feasible
    designs, with the first 8 stored as checkpoints."""
    space = bundle.space
    train = feasible_draws(bundle, rng, 16)
    synthetic = SyntheticModel(bundle.model, space)
    harness = EvalHarness(synthetic, bundle.tree,
                          ResourceBudget(synthetic.lut_budget))
    y = [estimated_execution_time(harness.evaluate(c)) for c in train]
    model = fit(space, [encode(space, c) for c in train], y, seed=0)
    store = CheckpointStore(space)
    for cfg in train[:8]:
        store.insert(CheckpointRecord(
            config=cfg, encoded=encode(space, cfg), metrics=ok_metrics(),
            artifact=artifact_path(space, cfg), synthesis_minutes=1.0))
    return AcquisitionContext(
        model=model, best_feasible=float(min(y)),
        cost=RelaxedCost(store, DistanceWeights.ones(space)),
        schedule=CoolingSchedule(mode=mode), iteration=3)


class TestBatchedScores:
    """The polish scorer against the scalar acquisition on single moves."""

    @pytest.mark.parametrize("mode", [PAPER_RATIO, EXPONENT])
    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_matches_alpha_cool_on_every_single_move(self, processor, mode):
        bundle = assets.load_bundle(processor)
        space = bundle.space
        rng = np.random.default_rng(41)
        ctx = bundle_context(bundle, rng, mode)
        checked = 0
        for cfg in feasible_draws(bundle, rng, 50):
            ranks = np.array(config_ranks(space, cfg))
            moves = []
            for i, p in enumerate(space.params):
                for r in range(p.count):
                    if r != ranks[i]:
                        moves.append(ranks.copy())
                        moves[-1][i] = r
            got = _cooled_scores(ctx, encode_ranks(space, moves))
            for row, score in zip(moves, got):
                q = encode_ranks(space, [row])[0]
                want = reference_alpha_cool(ctx, q)
                # stricter than a relative 1e-12: every row is scored with the
                # same dot and triangular-solve calls as a lone point
                assert score == want
                assert alpha_cool(ctx, q) == want
                checked += 1
        assert checked > 50 * len(space)

    def test_empty_store_uses_the_prior(self):
        space = small_space()
        ctx, cfgs, _ = fitted_context(space, seed=3, with_store=False)
        Q = np.stack([encode(space, c) for c in cfgs])
        want = [reference_alpha_cool(ctx, q) for q in Q]
        assert list(_cooled_scores(ctx, Q)) == want


class TestMaximizeAcquisition:
    def test_single_categorical_returns_predicted_best(self):
        space = ParameterSpace([
            ParameterDef("c", "categorical", ("a", "b", "x"), "a")])
        X = [encode(space, {"c": "a"}), encode(space, {"c": "x"})]
        model = fit(space, X, [5.0, 4.0],
                    init=KernelParams(np.full(3, 0.5), noise_variance=1e-6),
                    optimize=False)
        ctx = AcquisitionContext(model=model, best_feasible=4.0)
        got = maximize_acquisition(ctx, space, None, seed=0,
                                   warm_configs=[{"c": "a"}, {"c": "b"}])
        # "b" is the only unvisited configuration, hence the only EI mass
        assert got == {"c": "b"}

    def test_boom_candidates_always_feasible(self):
        bundle = assets.load_bundle("boom")
        space, tree = bundle.space, bundle.tree
        rng = np.random.default_rng(10)
        cfgs = []
        while len(cfgs) < 12:
            cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            if exact_configuration(tree, space, cfg):
                cfgs.append(cfg)
        X = [encode(space, c) for c in cfgs]
        y = rng.normal(size=len(cfgs))
        model = fit(space, X, y, seed=0)
        ctx = AcquisitionContext(model=model, best_feasible=float(y.min()))
        for seed in range(5):
            cfg = maximize_acquisition(ctx, space, tree, seed=seed)
            assert exact_configuration(tree, space, cfg)

    def test_matches_enumeration_on_small_space(self):
        space = small_space()
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "depth", "xb": "width"}}]}, space)
        hits = 0
        runs = 10
        for seed in range(runs):
            ctx, _, _ = fitted_context(space, seed=100 + seed)
            got = maximize_acquisition(ctx, space, tree, seed=seed)
            assert exact_configuration(tree, space, got)
            best_val = -np.inf
            for cfg in space.iter_configurations():
                if not exact_configuration(tree, space, cfg):
                    continue
                best_val = max(best_val, alpha_cool(ctx, encode(space, cfg)))
            if alpha_cool(ctx, encode(space, got)) >= best_val - 1e-9:
                hits += 1
        assert hits >= int(0.9 * runs)

    def test_rejection_fallback_when_unsatisfiable(self):
        space = small_space()
        # depth >= width + 100 is impossible on this grid
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "depth", "xb": "width", "t": -100}}]}, space)
        ctx, _, _ = fitted_context(space, seed=11)
        with pytest.raises(NoFeasibleCandidateError):
            maximize_acquisition(ctx, space, tree, seed=0)

    def test_deterministic(self):
        space = small_space()
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "depth", "xb": "width"}}]}, space)
        ctx, _, _ = fitted_context(space, seed=12)
        a = maximize_acquisition(ctx, space, tree, seed=5)
        b = maximize_acquisition(ctx, space, tree, seed=5)
        assert a == b


class TestMaximizeEiUnconstrained:
    def test_returns_some_configuration(self):
        space = small_space()
        ctx, _, _ = fitted_context(space, seed=13, with_store=False)
        cfg = maximize_ei_unconstrained(ctx.model, space, ctx.best_feasible,
                                        seed=0)
        space.validate(cfg)

    def test_ignores_constraints(self):
        # proposals may be infeasible: that is the point of the baseline
        bundle = assets.load_bundle("boom")
        space = bundle.space
        rng = np.random.default_rng(14)
        cfgs = []
        seen = set()
        while len(cfgs) < 10:
            cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
            if tuple(cfg.values()) not in seen:
                seen.add(tuple(cfg.values()))
                cfgs.append(cfg)
        X = [encode(space, c) for c in cfgs]
        y = rng.normal(size=10)
        model = fit(space, X, y, seed=1)
        cfg = maximize_ei_unconstrained(model, space, float(y.min()), seed=2)
        space.validate(cfg)


# --------------------------------------------------------------------------
# lockstep SLSQP against scipy.optimize.minimize, one start at a time

def minimize_each(objective, constraint, starts, maxiter):
    """The per-start ``minimize`` loop that the lockstep driver replaced:
    one result per start, ``None`` where a callback raised."""
    fun = lambda u: objective(np.asarray(u)[None, :])[0]  # noqa: E731
    cons = [] if constraint is None else [
        {"type": "ineq",
         "fun": lambda u: constraint(np.asarray(u)[None, :])[0][0],
         "jac": lambda u: constraint(np.asarray(u)[None, :])[0][1]}]
    out = []
    for u0 in starts:
        try:
            out.append(minimize(fun, u0, jac=True, method="SLSQP",
                                bounds=[(0.0, 1.0)] * len(u0),
                                constraints=cons,
                                options={"maxiter": maxiter, "ftol": 1e-8}))
        except (NumericalError, InvalidPointError):
            out.append(None)
    return out


def solver_problem(processor, seed):
    """Objective, constraint and starts of one acquisition call, with two
    starts outside the box appended (the solver clips them)."""
    bundle = assets.load_bundle(processor)
    space = bundle.space
    ctx = bundle_context(bundle, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 7])
    starts = acq._starts(space, seed, ctx.iteration, None)
    starts += list(rng.uniform(-0.4, 1.4, size=(2, space.encoded_dim)))
    constraint = (acq._smooth_constraint(space, bundle.tree)
                  if bundle.tree is not None else None)
    return acq._relaxed_objective_batch(ctx), constraint, starts


def assert_same_solves(runs, want):
    assert len(runs) == len(want)
    for run, res in zip(runs, want):
        assert (run is None) == (res is None)
        if res is not None:
            assert run.x.tolist() == res.x.tolist()
            assert run.fun == res.fun
            assert run.nfev == res.nfev
            assert run.state["mode"] == res.status


class TestLockstepSlsqp:
    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("boom", 1), ("rocketchip", 0)])
    def test_matches_minimize_start_by_start(self, processor, seed):
        objective, constraint, starts = solver_problem(processor, seed)
        assert (processor == "boom") == (constraint is not None)
        assert any((u0 < 0).any() or (u0 > 1).any() for u0 in starts)
        runs = acq._slsqp_lockstep(objective, constraint, starts, 60)
        assert_same_solves(runs, minimize_each(objective, constraint,
                                               starts, 60))

    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_iteration_limit(self, processor):
        objective, constraint, starts = solver_problem(processor, 2)
        runs = acq._slsqp_lockstep(objective, constraint, starts, 3)
        assert 9 in [r.state["mode"] for r in runs]
        assert_same_solves(runs, minimize_each(objective, constraint,
                                               starts, 3))

    def test_memo_rules_match_scalar_function(self):
        # scripted solver requests, including gradients asked for away from
        # the last f evaluation, against scipy's own memo layers: the same
        # points are evaluated, and the same values and nfev handed back
        objective, _, starts = solver_problem("rocketchip", 3)
        x0, x1, x2, x3 = (np.clip(u, 0.0, 1.0) for u in starts[:4])
        ours, theirs = [], []

        def counted(U):
            ours.extend(u.tolist() for u in U)
            return objective(U)

        def single(u):
            theirs.append(u.tolist())
            return objective(u[None, :])[0]

        fun = MemoizeJac(single)
        sf = _prepare_scalar_function(fun, x0.copy(), jac=fun.derivative,
                                      bounds=(0.0, 1.0))
        run = acq._SlsqpStart(x0, 0, 60)
        assert acq._serve(counted, None, [run]) == [run]
        assert run.nfev == sf.nfev == 1
        script = [(1, x1), (-1, x1), (-1, x2), (1, x2), (1, x2), (1, x3),
                  (-1, x2), (1, x3), (-1, x3), (1, x1), (-1, x1)]
        for mode, x in script:
            run.state["mode"], run.x = mode, x.copy()
            acq._serve(counted, None, [run])
            if mode == 1:
                assert run.fun == sf.fun(x.copy())
            else:
                assert run.g.tolist() == sf.grad(x.copy()).tolist()
            assert run.nfev == sf.nfev
            assert ours == theirs
        assert len(ours) == 7   # x0, x1, x2, x3, x2, x3, x1

    def test_retired_start_matches_a_loop_that_skips_it(self, monkeypatch):
        bundle = assets.load_bundle("boom")
        space, tree = bundle.space, bundle.tree
        ctx = bundle_context(bundle, np.random.default_rng(5))

        class FailingCost:
            """Raises for any row past a threshold on one coordinate."""

            def __init__(self, cost):
                self.cost = cost

            def values_and_gradients(self, U):
                if (U[:, 0] > 0.9).any():
                    raise NumericalError("injected failure")
                return self.cost.values_and_gradients(U)

            def values(self, U):
                return self.cost.values(U)

        ctx.cost = FailingCost(ctx.cost)
        objective = acq._relaxed_objective_batch(ctx)
        constraint = acq._smooth_constraint(space, tree)
        starts = acq._starts(space, 0, ctx.iteration, None)
        want = minimize_each(objective, constraint, starts, 60)
        retired = [u0 for u0, res in zip(starts, want) if res is None]
        # some starts retire mid-run, after a first evaluation that passed
        assert retired and len(retired) < len(starts)
        assert any(u0[0] <= 0.9 for u0 in retired)
        runs = acq._slsqp_lockstep(objective, constraint, starts, 60)
        assert_same_solves(runs, want)

        got = maximize_acquisition(ctx, space, tree, seed=0)
        monkeypatch.setattr(acq, "_slsqp_lockstep", minimize_each)
        assert got == maximize_acquisition(ctx, space, tree, seed=0)



def record_lbfgsb(monkeypatch, module):
    """Make ``module.lbfgsb`` also solve each problem with ``minimize``;
    returns the list that collects (problem, ours, minimize's)."""
    solves = []
    driver = gp_mod.lbfgsb

    def both(fun, x0, lo, hi, maxiter):
        ours = driver(fun, x0, lo, hi, maxiter)
        solves.append(((fun, x0, lo, hi), ours, lbfgsb_by_minimize(
            fun, x0, lo, hi, maxiter)))
        return ours

    monkeypatch.setattr(module, "lbfgsb", both)
    return solves


def lbfgsb_by_minimize(fun, x0, lo, hi, maxiter):
    return minimize(fun, x0, jac=True, method="L-BFGS-B",
                    bounds=list(zip(lo, hi)), options={"maxiter": maxiter})


def assert_same_lbfgsb(ours, theirs):
    assert ours.x.tolist() == theirs.x.tolist()
    assert ours.fun == theirs.fun
    assert (ours.nfev, ours.nit, ours.status) == \
        (theirs.nfev, theirs.nit, theirs.status)


class TestLbfgsbDriver:
    """``gp.lbfgsb`` against ``minimize(method="L-BFGS-B")``, solve by solve."""

    def test_setulb_signature(self):
        assert setulb.__doc__.startswith(
            "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,"
            "dsave,maxls,ln_task)")

    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("boom", 1), ("rocketchip", 0), ("el2_veer", 2)])
    def test_fit_restarts_match_minimize(self, monkeypatch, processor, seed):
        solves = record_lbfgsb(monkeypatch, gp_mod)
        bundle_context(assets.load_bundle(processor),
                       np.random.default_rng(seed))
        assert len(solves) == gp_mod.FIT_RESTARTS
        for _, ours, theirs in solves:
            assert_same_lbfgsb(ours, theirs)

    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_iteration_limit(self, monkeypatch, processor):
        solves = record_lbfgsb(monkeypatch, gp_mod)
        bundle_context(assets.load_bundle(processor), np.random.default_rng(4))
        monkeypatch.undo()
        for (fun, x0, lo, hi), _, _ in solves:
            ours = gp_mod.lbfgsb(fun, x0, lo, hi, 2)
            assert (ours.nit, ours.status) == (2, 1)
            assert_same_lbfgsb(ours, lbfgsb_by_minimize(fun, x0, lo, hi, 2))

    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("rocketchip", 1), ("el2_veer", 3)])
    def test_vanilla_bo_starts_match_minimize(self, monkeypatch, processor,
                                              seed):
        bundle = assets.load_bundle(processor)
        ctx = bundle_context(bundle, np.random.default_rng(seed))
        solves = record_lbfgsb(monkeypatch, acq)
        maximize_ei_unconstrained(ctx.model, bundle.space, ctx.best_feasible,
                                  seed=seed, iteration=2)
        assert len(solves) == len(acq._starts(bundle.space, seed, 2, None))
        for _, ours, theirs in solves:
            assert_same_lbfgsb(ours, theirs)

    def test_abnormal_line_search(self):
        # a gradient of the wrong sign: every line search fails
        fun = lambda x: (float(x @ x), -2 * x)  # noqa: E731
        x0, lo, hi = np.array([0.5, -0.3, 0.2]), -np.ones(3), np.ones(3)
        ours = gp_mod.lbfgsb(fun, x0, lo, hi, 30)
        assert ours.status == 2
        assert_same_lbfgsb(ours, lbfgsb_by_minimize(fun, x0, lo, hi, 30))

    def test_start_outside_the_box_is_clipped(self):
        objective, _, starts = solver_problem("rocketchip", 5)
        fun = lambda u: objective(u[None, :])[0]  # noqa: E731
        lo, hi = np.zeros(len(starts[0])), np.ones(len(starts[0]))
        for u0 in starts[-2:]:
            assert (u0 < 0).any() or (u0 > 1).any()
            assert_same_lbfgsb(gp_mod.lbfgsb(fun, u0, lo, hi, acq.MAXITER),
                               lbfgsb_by_minimize(fun, u0, lo, hi, acq.MAXITER))


class TestBatchOfOne:
    """Each batched row equals the same point evaluated alone, bit for bit."""

    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_gradients_on_random_box_points(self, processor):
        bundle = assets.load_bundle(processor)
        space = bundle.space
        ctx = bundle_context(bundle, np.random.default_rng(17))
        U = np.random.default_rng(18).uniform(size=(2000, space.encoded_dim))
        posterior = ctx.model.predict_with_gradient_batch(U)
        costs, dcosts = ctx.cost.values_and_gradients(U)
        for u, got, c, dc in zip(U, posterior, costs, dcosts):
            want = ctx.model.predict_with_gradient(u)
            assert got[:2] == want[:2]
            assert got[2].tolist() == want[2].tolist()
            assert got[3].tolist() == want[3].tolist()
            value, grad = ctx.cost.value_and_gradient(u)
            assert c == value and dc.tolist() == grad.tolist()

        objective = acq._relaxed_objective_batch(ctx)
        for u, (f, g) in zip(U[:200], objective(U[:200])):
            want_f, want_g = objective(u[None, :])[0]
            assert f == want_f and g.tolist() == want_g.tolist()
        if bundle.tree is not None:
            constraint = acq._smooth_constraint(space, bundle.tree)
            for u, (c, jac) in zip(U, constraint(U)):
                want_c, want_jac = constraint(u[None, :])[0]
                assert c == want_c and jac.tolist() == want_jac.tolist()
