"""The optimization loop: warm start, surrogate, cooled acquisition, accounting.

One run proceeds as: evaluate the orthogonal-array warm-start set, then loop
(fit the surrogate on all valid results, maximize the constrained cooled
acquisition, short-circuit database hits, evaluate, insert, periodically
re-learn the distance weights) until the iteration budget, the virtual-time
limit, the stagnation rule (default ten non-improving iterations) or an
exhausted space stops it.  Baseline generators (random, conventional BO,
hill climbing) run under the identical harness and accounting with only
the proposal step swapped.

All times are virtual: evaluation minutes come from the synthetic model
(scaled by the run's time-compression factor) and accumulate on a virtual
clock.  No wall-clock time enters the emitted files or the stopping rule,
so identical run configurations produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (numpy defers it to first use, in a run)

from .acquisition import (
    EXPONENT,
    PAPER_RATIO,
    AcquisitionContext,
    CoolingSchedule,
    alpha_cool,
    expected_improvement,
    maximize_acquisition,
    maximize_ei_unconstrained,
)
from .checkpoints import (
    CheckpointRecord,
    CheckpointStore,
    DistanceWeights,
    RelaxedCost,
    cost_estimate,
    learn_weights,
)
from .constraints import feasible_count, feasible_draws, load_constraints
from .errors import InvalidConfigurationError, NumericalError
from .evaluation import (
    DIRECT,
    RETRIEVAL,
    STAGE_CONSTRAINT,
    STRATEGIES,
    EvalHarness,
    EvaluationResult,
    ResourceBudget,
    SyntheticModel,
    estimated_execution_time,
)
from .gp import fit
from .solvers import walk_steps
from .space import (
    ParameterSpace,
    config_ranks,
    encode,
    encode_ranks,
    random_configuration,
    rank_configuration,
)
from .warmstart import warm_start_configs

BASELINES = ("random", "vanilla-bo", "hill-climb")

#: distance weights are re-learned after this many database insertions
RELEARN_EVERY = 5
STAGNATION_LIMIT = 10
STAGNATION_RTOL = 1e-3

@dataclass
class RunConfig:
    space_file: str
    model_file: str
    constraint_file: str | None = None
    benchmark: str = "multiply"
    budget_iterations: int = 30
    tdt_limit_minutes: float = 2100.0
    warm_start_budget: int = 10
    seed: int = 0
    acquisition_mode: str = PAPER_RATIO
    strategy: str = RETRIEVAL
    max_luts: int | None = None
    time_compression: float = 1.0 / 60.0
    # consecutive non-improving iterations before stopping; None disables the
    # rule for fixed-budget comparisons
    stagnation_limit: int | None = STAGNATION_LIMIT

    def __post_init__(self):
        if self.budget_iterations < 0:
            raise ValueError("iteration budget must be non-negative")
        if self.warm_start_budget < 1:
            raise ValueError("warm-start budget must be positive")
        if self.tdt_limit_minutes <= 0:
            raise ValueError("time limit must be positive")
        if self.time_compression <= 0:
            raise ValueError("time compression must be positive")
        if self.acquisition_mode not in (PAPER_RATIO, EXPONENT):
            raise ValueError(f"unknown acquisition mode {self.acquisition_mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class HistoryEntry:
    iteration: int                  # 0 for warm start
    config: dict
    result: EvaluationResult
    alpha_value: float | None
    cost_estimate: float | None

    def eet_ms(self) -> float | None:
        return estimated_execution_time(self.result) if self.result.valid else None


@dataclass
class RunReport:
    history: list[HistoryEntry]
    best_config: dict | None
    best_eet_ms: float | None
    idr: float | None
    tdt_minutes: float
    stop_reason: str
    space: ParameterSpace
    error: str | None = None

    @property
    def evaluations(self) -> int:
        return len(self.history)


def load_inputs(rc: RunConfig):
    space = ParameterSpace.load(rc.space_file)
    tree = load_constraints(rc.constraint_file, space) \
        if rc.constraint_file else None
    model = SyntheticModel.load(rc.model_file, space)
    if rc.benchmark not in model.benchmarks:
        raise InvalidConfigurationError(
            f"benchmark {rc.benchmark!r} not in model file; available: "
            f"{', '.join(sorted(model.benchmarks))}")
    return space, tree, model


def _setup(rc: RunConfig):
    """Inputs, evaluation harness and an empty checkpoint store for a run."""
    space, tree, model = load_inputs(rc)
    luts = model.lut_budget if rc.max_luts is None else rc.max_luts
    harness = EvalHarness(model, tree, ResourceBudget(luts),
                          benchmark=rc.benchmark,
                          time_scale=rc.time_compression)
    return space, tree, harness, CheckpointStore(space)


def _insert(store: CheckpointStore, cfg: dict,
            result: EvaluationResult) -> None:
    """Store a valid result's checkpoint."""
    store.insert(CheckpointRecord(
        config=cfg, encoded=encode(store.space, cfg), metrics=result))


def _surrogate(space: ParameterSpace, history):
    """GP on every valid result so far.

    None while the valid results hold fewer than two distinct designs.
    """
    valid = [e for e in history if e.result.valid]
    ranks = [tuple(config_ranks(space, e.config)) for e in valid]
    if len(set(ranks)) < 2:
        return None
    return fit(space, encode_ranks(space, ranks), [e.eet_ms() for e in valid])


def _hill_climb(space: ParameterSpace, history):
    """Best-improvement ascent from the default: a ``walk_steps`` walk on
    the negated EET, ``-inf`` where invalid.  Yields the default (unless the
    warm start holds it), then each move the walk scores that is not yet
    evaluated, in order; the driver answers each with one history entry.  A
    strict-gain walk never revisits a configuration, so its ``space.size()``
    step cap never ends the climb."""
    def score(entry):
        return -entry.eet_ms() if entry.result.valid else -math.inf

    known = {tuple(config_ranks(space, e.config)): score(e) for e in history}

    def scores(rows):               # proposes the rows not yet evaluated
        rows = [tuple(row) for row in rows]
        for row in rows:
            if row not in known:
                yield rank_configuration(space, row)
                known[row] = score(history[-1])
        return np.array([known[row] for row in rows])

    start = config_ranks(space, space.default_configuration())
    value, = yield from scores([start])
    walk = walk_steps(space.counts, np.array(start), value, space.size())
    try:
        moves = next(walk)
        while True:
            moves = walk.send((yield from scores(moves.tolist())))
    except StopIteration:
        return


def _run(rc: RunConfig, baseline: str | None = None) -> RunReport:
    """ASPO, or the named baseline with only the proposal step swapped."""
    space, tree, harness, store = _setup(rc)
    weights = DistanceWeights.ones(space)
    history: list[HistoryEntry] = []
    clock = 0.0
    limit = rc.tdt_limit_minutes * rc.time_compression
    inserts = 0
    stop_reason = "budget-exhausted"
    error = None
    # the best valid entry so far; strict < keeps the first of equal EETs
    best_entry, best_eet = None, math.inf
    # distinct configurations that pass the tree, as ranks
    evaluated: set[tuple] = set()

    def t_syn(cfg, ref_record):
        return harness.backend.synthesis_time(cfg, ref_record.config)

    def run_eval(iteration, cfg, alpha_value):
        nonlocal clock, inserts, weights, best_entry, best_eet
        cost_before = cost_estimate(store, cfg, weights)
        cache_hit = rc.strategy == RETRIEVAL and store.lookup(cfg) is not None
        result = harness.evaluate(cfg, rc.strategy, db=store, weights=weights)
        clock += result.eval_minutes
        if result.failure_stage != STAGE_CONSTRAINT:
            evaluated.add(tuple(config_ranks(space, cfg)))
        history.append(HistoryEntry(iteration, cfg, result, alpha_value,
                                    cost_before))
        eet = history[-1].eet_ms()
        if eet is not None and eet < best_eet:
            best_entry, best_eet = history[-1], eet
        if result.valid and not cache_hit:
            _insert(store, cfg, result)
            inserts += 1
            if inserts % RELEARN_EVERY == 0 and len(store) >= 3:
                weights = learn_weights(store, t_syn, seed=rc.seed)

    warm = warm_start_configs(space, tree, rc.seed, rc.warm_start_budget)
    for cfg in warm:
        if clock >= limit:
            stop_reason = "tdt-limit"
            break
        run_eval(0, cfg, None)

    if baseline == "hill-climb":
        climber = _hill_climb(space, history)
    # the random baseline's proposals, or conventional BO's draws while its
    # surrogate cannot be fitted yet
    rng = np.random.default_rng([rc.seed, 17 if baseline == "random" else 23])

    def propose(t):
        if baseline == "random":
            return random_configuration(space, rng), None
        if baseline == "hill-climb":
            cfg = next(climber, None)
            return None if cfg is None else (cfg, None)
        model = _surrogate(space, history)
        if baseline == "vanilla-bo":
            if model is None:
                return random_configuration(space, rng), None
            cfg = maximize_ei_unconstrained(model, space, best_eet,
                                            seed=rc.seed, iteration=t - 1,
                                            warm_configs=warm)
            return cfg, expected_improvement(model, encode(space, cfg),
                                             best_eet)
        if model is None:
            draws = feasible_draws(tree, space,
                                   np.random.default_rng([rc.seed, t, 11]))
            return next(draws), None
        ctx = AcquisitionContext(
            model=model, best_feasible=best_eet,
            cost=RelaxedCost(store, weights),
            schedule=CoolingSchedule(mode=rc.acquisition_mode),
            iteration=t - 1)
        cfg = maximize_acquisition(ctx, space, tree, seed=rc.seed,
                                   warm_configs=warm)
        return cfg, alpha_cool(ctx, encode(space, cfg))

    designs = feasible_count(tree, space)
    prev_best = best_eet
    stagnant = 0
    try:
        for t in range(1, rc.budget_iterations + 1):
            if clock >= limit:
                stop_reason = "tdt-limit"
                break
            # an exhausted space has nothing left to propose
            proposal = None if len(evaluated) == designs else propose(t)
            if proposal is None:
                stop_reason = "converged"
                break
            run_eval(t, *proposal)

            # the first valid result, or a relative gain on the last best
            improved = best_eet < prev_best == math.inf or \
                prev_best - best_eet > STAGNATION_RTOL * prev_best
            stagnant = 0 if improved else stagnant + 1
            prev_best = best_eet
            if rc.stagnation_limit is not None and \
                    stagnant >= rc.stagnation_limit:
                stop_reason = "stagnation"
                break
    except NumericalError as exc:
        stop_reason = "numerical-failure"
        error = str(exc)

    invalid = sum(1 for e in history if not e.result.valid)
    return RunReport(
        history=history,
        best_config=best_entry.config if best_entry else None,
        best_eet_ms=best_eet if best_entry else None,
        idr=(invalid / len(history)) if history else None,
        tdt_minutes=clock,
        stop_reason=stop_reason,
        space=space,
        error=error,
    )


def run_optimization(rc: RunConfig) -> RunReport:
    return _run(rc)


def run_baseline(rc: RunConfig, baseline: str) -> RunReport:
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}; "
                         f"choose from {', '.join(BASELINES)}")
    return _run(rc, baseline)


# --------------------------------------------------------------------------
# report emission

#: history-row fields after the iteration and the configuration
_ROW_FIELDS = ("cycles", "fmax_mhz", "luts", "power_w", "eval_minutes",
               "valid", "failure_stage", "eet_ms", "alpha", "cost_estimate")


def _history_row(space: ParameterSpace, entry: HistoryEntry) -> dict:
    """One evaluation as a report row: the schema both emitters write."""
    return {"iteration": entry.iteration,
            "config": {p.name: entry.config[p.name] for p in space.params},
            **entry.result.to_dict(), "eet_ms": entry.eet_ms(),
            "alpha": entry.alpha_value, "cost_estimate": entry.cost_estimate}


def _summary(report: RunReport) -> dict:
    return {
        "summary": True,
        "evaluations": report.evaluations,
        "idr": report.idr,
        "tdt_minutes": report.tdt_minutes,
        "best_eet_ms": report.best_eet_ms,
        "best_config": report.best_config,
        "stop_reason": report.stop_reason,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: RunReport, out_dir, formats=("jsonl", "csv")) -> list[Path]:
    """Write history plus a summary row; byte-identical across equal runs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = report.space
    rows = [_history_row(space, entry) for entry in report.history]
    written = []

    if "jsonl" in formats:
        path = out_dir / "report.jsonl"
        with path.open("w", newline="\n") as fh:
            for row in rows + [_summary(report)]:
                fh.write(json.dumps(row) + "\n")
        written.append(path)

    if "csv" in formats:
        path = out_dir / "report.csv"
        param_names = [p.name for p in space.params]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", *param_names, *_ROW_FIELDS,
                         "idr", "tdt_minutes", "best_eet_ms"])
        for row in rows:
            writer.writerow([_csv_cell(c) for c in (
                row["iteration"], *row["config"].values(),
                *(row[f] for f in _ROW_FIELDS), None, None, None)])
        best = report.best_config or {}
        writer.writerow([_csv_cell(c) for c in (
            ["summary"] +
            [best.get(n) for n in param_names] +
            [None] * 8 +
            [report.idr, report.tdt_minutes, report.best_eet_ms])])
        path.write_text(buf.getvalue(), newline="\n")
        written.append(path)

    return written


# --------------------------------------------------------------------------
# evaluation-strategy comparison


def run_eval_bench(rc: RunConfig, n_configs: int = 10) -> dict:
    """Evaluate one random feasible config set under all three strategies.

    The retrieval database is pre-populated with the default configuration
    plus a warm-start round, and retrieval matches with the model's own
    distance weights; returns per-strategy mean/min/max virtual minutes.
    """
    if n_configs < 1:
        raise ValueError("the number of configurations must be positive")
    space, tree, harness, store = _setup(rc)
    draws = feasible_draws(tree, space, np.random.default_rng([rc.seed, 31]))
    configs = [next(draws) for _ in range(n_configs)]

    prepop = [space.default_configuration()] + \
        warm_start_configs(space, tree, rc.seed, rc.warm_start_budget)
    for cfg in prepop:
        if store.lookup(cfg) is not None:
            continue
        res = harness.evaluate(cfg, DIRECT)
        if res.valid:
            _insert(store, cfg, res)

    out = {"configs": configs, "strategies": {}}
    oracle = harness.backend.match_weights
    for strategy in STRATEGIES:
        minutes = [harness.evaluate(c, strategy, db=store, weights=oracle)
                   .eval_minutes for c in configs]
        out["strategies"][strategy] = {
            "mean_minutes": float(np.mean(minutes)),
            "min_minutes": float(np.min(minutes)),
            "max_minutes": float(np.max(minutes)),
        }
    return out
