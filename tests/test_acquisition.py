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
from aspo import solvers
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
from aspo.solvers import lbfgsb_steps, lockstep, slsqp_steps
from aspo.space import (
    ParameterDef,
    ParameterSpace,
    config_ranks,
    encode,
    encode_ranks,
    random_configuration,
    snap,
)
from oracles import (
    reference_cooled_scores,
    reference_nll_and_grad,
    reference_objective,
    reference_posterior,
    reference_smooth_constraint,
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
    cost = float(ctx.cost.values(q[None, :])[0]) if ctx.cost is not None \
        else 1.0
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


def slsqp_lockstep(objective, constraint, starts, maxiter):
    """Every start's ``slsqp_steps`` under ``lockstep``, answered as
    ``maximize_acquisition`` answers them."""
    m = 0 if constraint is None else 1
    return lockstep(acq._slsqp_rows(objective, constraint),
                    [slsqp_steps(u0, m, maxiter) for u0 in starts])


def assert_same_solves(runs, want):
    assert len(runs) == len(want)
    for run, res in zip(runs, want):
        assert (run is None) == (res is None)
        if res is not None:
            assert run.x.tolist() == res.x.tolist()
            assert run.fun == res.fun
            assert run.nfev == res.nfev
            assert run.status == res.status


class TestLockstepSlsqp:
    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("boom", 1), ("rocketchip", 0)])
    def test_matches_minimize_start_by_start(self, processor, seed):
        objective, constraint, starts = solver_problem(processor, seed)
        assert (processor == "boom") == (constraint is not None)
        assert any((u0 < 0).any() or (u0 > 1).any() for u0 in starts)
        runs = slsqp_lockstep(objective, constraint, starts, 60)
        assert_same_solves(runs, minimize_each(objective, constraint,
                                               starts, 60))

    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_iteration_limit(self, processor):
        objective, constraint, starts = solver_problem(processor, 2)
        runs = slsqp_lockstep(objective, constraint, starts, 3)
        assert 9 in [r.status for r in runs]
        assert_same_solves(runs, minimize_each(objective, constraint,
                                               starts, 3))

    def test_memo_rules_match_scalar_function(self, monkeypatch):
        # scripted solver requests, including gradients asked for away from
        # the last f evaluation, against scipy's own memo layers: the same
        # points are evaluated, and the same values and nfev handed back
        objective, _, starts = solver_problem("rocketchip", 3)
        x0, x1, x2, x3 = (np.clip(u, 0.0, 1.0) for u in starts[:4])
        script = [(1, x1), (-1, x1), (-1, x2), (1, x2), (1, x2), (1, x3),
                  (-1, x2), (1, x3), (-1, x3), (1, x1), (-1, x1)]

        def run(requests):
            """One start under a solver that takes each (mode, x) from
            ``requests`` and then stops; returns the result, the points
            evaluated and the (fun, g) handed to each solver call."""
            points, handed, requests = [], [], iter(requests)

            def scripted(state, fun, g, C, d, x, *work):
                handed.append((fun, g.tolist()))
                state["mode"], x[:] = next(requests, (0, x))

            def rows(U):
                points.extend(u.tolist() for u in U)
                return [(*fg, ()) for fg in objective(U)]

            monkeypatch.setattr(solvers, "slsqp", scripted)
            res, = lockstep(rows, [slsqp_steps(x0, 0, 60)])
            return res, points, handed

        theirs = []

        def single(u):
            theirs.append(u.tolist())
            return objective(u[None, :])[0]

        fun = MemoizeJac(single)
        sf = _prepare_scalar_function(fun, x0.copy(), jac=fun.derivative,
                                      bounds=(0.0, 1.0))
        nfevs, values = [sf.nfev], []
        for mode, x in script:
            values.append(sf.fun(x.copy()) if mode == 1
                          else sf.grad(x.copy()).tolist())
            nfevs.append(sf.nfev)
        res, ours, handed = run(script)
        assert len(handed) == len(script) + 1
        for (mode, _), value, (f, g) in zip(script, values, handed[1:]):
            assert (f if mode == 1 else g) == value
        # nfev as it stands after each request: the result of the prefix
        for k, nfev in enumerate(nfevs):
            assert run(script[:k])[0].nfev == nfev
        assert nfevs[0] == 1 and res.nfev == nfevs[-1]
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
        runs = slsqp_lockstep(objective, constraint, starts, 60)
        assert_same_solves(runs, want)

        # the per-start loop in place of the lockstep; each solve's first
        # point is its clipped start
        got = maximize_acquisition(ctx, space, tree, seed=0)
        monkeypatch.setattr(acq, "lockstep", lambda _, solves: minimize_each(
            objective, constraint, [next(steps) for steps in solves],
            acq.MAXITER))
        assert got == maximize_acquisition(ctx, space, tree, seed=0)



def lbfgsb_lockstep(fun, starts, lo, hi, maxiter):
    """Every start's ``lbfgsb_steps`` under ``lockstep``."""
    return lockstep(fun, [lbfgsb_steps(x0, lo, hi, maxiter) for x0 in starts])


def record_lbfgsb_solves(monkeypatch, module):
    """Make ``module`` record each of its lockstep L-BFGS-B calls as
    ``((fun, starts, lo, hi, maxiter), runs)``; returns the list."""
    made, solves = [], []

    def recorded_steps(x0, lo, hi, maxiter):
        made.append((x0, lo, hi, maxiter))
        return lbfgsb_steps(x0, lo, hi, maxiter)

    def recorded_lockstep(fun, steps):
        runs = lockstep(fun, steps)
        _, lo, hi, maxiter = made[0]
        solves.append(((fun, [x0 for x0, *_ in made], lo, hi, maxiter), runs))
        made.clear()
        return runs

    monkeypatch.setattr(module, "lbfgsb_steps", recorded_steps)
    monkeypatch.setattr(module, "lockstep", recorded_lockstep)
    return solves


def record_fit_solves(monkeypatch):
    """Make ``gp.fit`` record its likelihood's inputs and its lockstep
    L-BFGS-B call; returns the two lists they go to."""
    likelihoods, likelihood = [], gp_mod._likelihood

    def recorded_likelihood(*args):
        likelihoods.append(args)
        return likelihood(*args)

    monkeypatch.setattr(gp_mod, "_likelihood", recorded_likelihood)
    return likelihoods, record_lbfgsb_solves(monkeypatch, gp_mod)


def oracle_likelihood(diff, y, extra_noise, jitter):
    """``reference_nll_and_grad`` on the (n, n, D) copy of ``diff``."""
    diff = np.ascontiguousarray(np.transpose(diff, (1, 2, 0)))
    return lambda theta: reference_nll_and_grad(theta, diff, y, extra_noise,
                                                jitter)


def lbfgsb_by_minimize(fun, x0, lo, hi, maxiter):
    return minimize(fun, x0, jac=True, method="L-BFGS-B",
                    bounds=list(zip(lo, hi)), options={"maxiter": maxiter})


def assert_same_lbfgsb(ours, theirs):
    assert ours.x.tolist() == theirs.x.tolist()
    assert ours.fun == theirs.fun
    assert (ours.nfev, ours.nit, ours.status) == \
        (theirs.nfev, theirs.nit, theirs.status)


class TestLbfgsbDriver:
    """``solvers.lbfgsb_steps`` under ``solvers.lockstep`` against
    ``minimize(method="L-BFGS-B")``, solve by solve."""

    def test_setulb_signature(self):
        assert setulb.__doc__.startswith(
            "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,"
            "dsave,maxls,ln_task)")

    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("boom", 1), ("rocketchip", 0), ("el2_veer", 2)])
    def test_fit_restarts_match_minimize(self, monkeypatch, processor, seed):
        # the fit's restarts run in lockstep on the stacked likelihood; each
        # must end where minimize takes it alone on the oracle likelihood
        likelihoods, solves = record_fit_solves(monkeypatch)
        bundle_context(assets.load_bundle(processor),
                       np.random.default_rng(seed))
        (args,), (((_, starts, lo, hi, maxiter), runs),) = likelihoods, solves
        assert len(starts) == len(runs) == gp_mod.FIT_RESTARTS
        oracle = oracle_likelihood(*args)
        for x0, ours in zip(starts, runs):
            assert_same_lbfgsb(ours, lbfgsb_by_minimize(oracle, x0, lo, hi,
                                                        maxiter))

    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_iteration_limit(self, monkeypatch, processor):
        likelihoods, solves = record_fit_solves(monkeypatch)
        bundle_context(assets.load_bundle(processor), np.random.default_rng(4))
        monkeypatch.undo()
        (args,), (((fun, starts, lo, hi, _), _),) = likelihoods, solves
        oracle = oracle_likelihood(*args)
        for x0, ours in zip(starts, lbfgsb_lockstep(fun, starts, lo, hi, 2)):
            assert (ours.nit, ours.status) == (2, 1)
            assert_same_lbfgsb(ours, lbfgsb_by_minimize(oracle, x0, lo, hi, 2))

    @pytest.mark.parametrize("processor, seed", [
        ("boom", 0), ("rocketchip", 1), ("el2_veer", 3)])
    def test_vanilla_bo_starts_match_minimize(self, monkeypatch, processor,
                                              seed):
        # the starts run in lockstep on the batched objective; each must
        # still end where minimize takes it alone on the batch of one
        bundle = assets.load_bundle(processor)
        ctx = bundle_context(bundle, np.random.default_rng(seed))
        solves = record_lbfgsb_solves(monkeypatch, acq)
        maximize_ei_unconstrained(ctx.model, bundle.space, ctx.best_feasible,
                                  seed=seed, iteration=2)
        ((fun, starts, lo, hi, maxiter), runs), = solves
        assert len(starts) == len(acq._starts(bundle.space, seed, 2, None))
        one = lambda u: fun(u[None, :])[0]  # noqa: E731
        for x0, ours in zip(starts, runs):
            assert_same_lbfgsb(ours,
                               lbfgsb_lockstep(fun, [x0], lo, hi, maxiter)[0])
            assert_same_lbfgsb(ours, lbfgsb_by_minimize(one, x0, lo, hi,
                                                        maxiter))

    def test_abnormal_line_search(self):
        # a gradient of the wrong sign: every line search fails
        fun = lambda x: (float(x @ x), -2 * x)  # noqa: E731
        x0, lo, hi = np.array([0.5, -0.3, 0.2]), -np.ones(3), np.ones(3)
        ours, = lbfgsb_lockstep(lambda X: [fun(x) for x in X], [x0],
                                lo, hi, 30)
        assert ours.status == 2
        assert_same_lbfgsb(ours, lbfgsb_by_minimize(fun, x0, lo, hi, 30))

    def test_start_outside_the_box_is_clipped(self):
        objective, _, starts = solver_problem("rocketchip", 5)
        fun = lambda u: objective(u[None, :])[0]  # noqa: E731
        lo, hi = np.zeros(len(starts[0])), np.ones(len(starts[0]))
        for u0 in starts[-2:]:
            assert (u0 < 0).any() or (u0 > 1).any()
            ours = lbfgsb_lockstep(objective, [u0], lo, hi, acq.MAXITER)
            assert_same_lbfgsb(ours[0], lbfgsb_by_minimize(fun, u0, lo, hi,
                                                           acq.MAXITER))


class TestBatchOfOne:
    """Each batched row equals the same point evaluated alone, bit for bit."""

    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_gradients_on_random_box_points(self, processor):
        bundle = assets.load_bundle(processor)
        space = bundle.space
        ctx = bundle_context(bundle, np.random.default_rng(17))
        U = np.random.default_rng(18).uniform(size=(2000, space.encoded_dim))
        mean, var, dmean, dvar = ctx.model.predict_with_gradient_arrays(U)
        costs, dcosts = ctx.cost.values_and_gradients(U)
        for u, m, v, dm, dv, c, dc in zip(U, mean.tolist(), var.tolist(),
                                          dmean, dvar, costs, dcosts):
            want = ctx.model.predict_with_gradient(u)
            assert (m, v) == want[:2]
            assert dm.tolist() == want[2].tolist()
            assert dv.tolist() == want[3].tolist()
            value, grad = ctx.cost.values_and_gradients(u[None, :])
            assert c == value[0] and dc.tolist() == grad[0].tolist()

        objective = acq._relaxed_objective_batch(ctx)
        for u, (f, g) in zip(U[:200], objective(U[:200])):
            want_f, want_g = objective(u[None, :])[0]
            assert f == want_f and g.tolist() == want_g.tolist()
        if bundle.tree is not None:
            constraint = acq._smooth_constraint(space, bundle.tree)
            for u, (c, jac) in zip(U, constraint(U)):
                want_c, want_jac = constraint(u[None, :])[0]
                assert c == want_c and jac.tolist() == want_jac.tolist()


# --------------------------------------------------------------------------
# the array rows against the per-row oracles, and against other batches

def row_bits(row):
    """A (value, vector) row or a score as bytes: equal means bit for bit."""
    if isinstance(row, tuple):
        return np.float64(row[0]).tobytes(), np.asarray(row[1]).tobytes()
    return np.float64(row).tobytes()


def acquisition_rows(bundle, seed, mode=PAPER_RATIO):
    """A context, box points and vertices for it.  The points include the
    training vertices, where sigma sits at the duplicate floor, and the
    stored checkpoints, whose cost falls below ``COST_EPS``."""
    ctx = bundle_context(bundle, np.random.default_rng(seed), mode)
    rng = np.random.default_rng([seed, 1])
    D = bundle.space.encoded_dim
    U = np.concatenate([rng.uniform(size=(160, D)), ctx.model.X,
                        ctx.cost.Q, np.clip(ctx.cost.Q + 1e-5, 0.0, 1.0)])
    Q = encode_ranks(bundle.space, [config_ranks(bundle.space, cfg)
                                    for cfg in feasible_draws(bundle, rng, 60)])
    Q = np.concatenate([Q, ctx.model.X])
    return ctx, U[rng.permutation(len(U))], Q[rng.permutation(len(Q))]


class TestArrayRowsMatchOracles:
    @pytest.mark.parametrize("mode", [PAPER_RATIO, EXPONENT])
    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_objective_scores_and_constraint(self, processor, mode):
        bundle = assets.load_bundle(processor)
        ctx, U, Q = acquisition_rows(bundle, 23, mode)
        floor = ctx.model.duplicate_sigma_floor()
        # both branches of EI and of the cost floor are exercised
        sigmas = [np.sqrt(v) for _, v, _ in reference_posterior(ctx.model, U)]
        assert 0 < sum(s <= floor for s in sigmas) < len(U)
        assert (ctx.cost.values(U) < acq.COST_EPS).any()
        for cost in (ctx.cost, None):
            ctx.cost = cost
            got = acq._relaxed_objective_batch(ctx)(U)
            want = reference_objective(ctx)(U)
            assert [row_bits(r) for r in got] == [row_bits(r) for r in want]
            assert [row_bits(r) for r in _cooled_scores(ctx, Q)] == \
                [row_bits(r) for r in reference_cooled_scores(ctx, Q)]
        if bundle.tree is not None:
            got = acq._smooth_constraint(bundle.space, bundle.tree)(U)
            want = reference_smooth_constraint(bundle.space, bundle.tree)(U)
            assert [row_bits(r) for r in got] == [row_bits(r) for r in want]


class StubCost:
    """A smooth cost made up from the first coordinate, with rows near zero."""

    def values_and_gradients(self, U):
        return 3.0 * U[:, 0] ** 3, 0.7 * U

    def values(self, U):
        return self.values_and_gradients(U)[0]


class TestArrayRowsOnManyRows:
    @pytest.mark.parametrize("mode", [PAPER_RATIO, EXPONENT])
    def test_stub_cost_rows(self, mode):
        # enough rows that libm's pow, exp and erf would part from numpy's
        # somewhere; some costs fall below COST_EPS with a nonzero gradient
        bundle = assets.load_bundle("rocketchip")
        ctx = bundle_context(bundle, np.random.default_rng(31), mode)
        ctx.cost = StubCost()
        rng = np.random.default_rng(32)
        U = rng.uniform(size=(5000, bundle.space.encoded_dim))
        U[::50, 0] = rng.uniform(0.0, 0.005, size=100)
        assert (ctx.cost.values(U) < acq.COST_EPS).sum() >= 50
        got = acq._relaxed_objective_batch(ctx)(U)
        want = reference_objective(ctx)(U)
        assert [row_bits(r) for r in got] == [row_bits(r) for r in want]

    def test_signed_zero_partials(self):
        # at the middle of both intervals the attaining conditional's
        # partials are -0.0; the jacobian reads 0.0 there, as 0.0 + -0.0
        space = ParameterSpace([
            ParameterDef("a", "ordinal", (1, 2, 3), 1),
            ParameterDef("b", "ordinal", (1, 2, 3), 1)])
        tree = parse_constraints(
            {"all": [{"cond": {"if": {"param": "a", "in": [1, 3]},
                               "then": {"param": "b", "in": [1, 3]}}}]},
            space)
        U = np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.75]])
        got = acq._smooth_constraint(space, tree)(U)
        want = reference_smooth_constraint(space, tree)(U)
        assert [row_bits(r) for r in got] == [row_bits(r) for r in want]
        assert got[0][1].tobytes() == np.zeros(2).tobytes()


class TestBatchInvariance:
    """A row keeps its bits when its batch is shuffled or cut."""

    @pytest.mark.parametrize("processor", assets.PROCESSORS)
    def test_rows_keep_their_bits(self, processor):
        bundle = assets.load_bundle(processor)
        ctx, U, Q = acquisition_rows(bundle, 29, EXPONENT)
        U, Q = U[:42], Q[:42]
        batched = [(acq._relaxed_objective_batch(ctx), U),
                   (lambda V: _cooled_scores(ctx, V), Q)]
        if bundle.tree is not None:
            batched.append((acq._smooth_constraint(bundle.space, bundle.tree),
                            U))
        rng = np.random.default_rng(30)
        picks = [rng.permutation(42) for _ in range(3)] + \
            [rng.choice(42, size=k, replace=False) for k in (1, 2, 5, 17, 41)]
        for fun, rows in batched:
            whole = [row_bits(r) for r in fun(rows)]
            for pick in picks:
                assert [row_bits(r) for r in fun(rows[pick])] == \
                    [whole[i] for i in pick]


class TestRankScorer:
    """Each distinct rank row is scored once per call, with its own bits."""

    @pytest.mark.parametrize("processor", ["boom", "rocketchip"])
    def test_remembered_scores_keep_their_bits(self, processor, monkeypatch):
        bundle = assets.load_bundle(processor)
        space = bundle.space
        rng = np.random.default_rng(47)
        ctx = bundle_context(bundle, rng)
        ranks = np.array([config_ranks(space, cfg)
                          for cfg in feasible_draws(bundle, rng, 30)])
        first, second = ranks[rng.choice(30, 40)], ranks[rng.choice(30, 40)]
        scored = []

        def counting(ctx, Q):
            scored.append(len(Q))
            return _cooled_scores(ctx, Q)

        monkeypatch.setattr(acq, "_cooled_scores", counting)
        score = acq._rank_scorer(ctx, space)
        for rows in (first, second):
            want = _cooled_scores(ctx, encode_ranks(space, rows))
            assert score(rows).tobytes() == want.tobytes()
        distinct = len({r.tobytes() for r in first})
        assert scored == [distinct, len({r.tobytes() for r in
                                         np.concatenate([first, second])})
                          - distinct]
