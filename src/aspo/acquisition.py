"""Acquisition functions and their constrained maximization.

Expected Improvement (minimization convention) is divided by a cooled
evaluation-cost estimate: candidates far from every stored checkpoint are
expensive to synthesize, so their acquisition value is discounted.  Two
cooling modes are provided:

* ``paper-ratio``: alpha / (lambda(t) * c(x)).  The schedule scales every
  candidate by the same positive factor, so it never changes the argmax;
  the cost penalty stays fully active for the whole run.
* ``exponent``: alpha / c(x) ** lambda(t).  Here the decaying schedule
  genuinely anneals the penalty: early iterations stay near cheap
  (well-matched) regions and the pressure relaxes as t grows.

Maximization runs a multi-start SLSQP ascent over the relaxed encoded box.
Gradients are taken on the un-snapped point (the snap projection is piecewise
constant and carries no gradient); snapping happens only when a local optimum
is emitted as a candidate.  Candidates that fail the exact constraint
semantics are discarded, so every returned configuration is feasible.

The starts are ``solvers.slsqp_steps`` solves, each with its own state of
scipy's SLSQP solver, run together by ``solvers.lockstep``.  Each round's
new points are evaluated as one batch: one kernel matrix and gradient
tensor, one stacked cost distance and one ``constraints.smooth_constraint``
batch, which gives the relaxed constraint's value and jacobian (the tree is
compiled once per call).  One ``GpModel.posterior`` call gives the means,
variances and their gradients, and every gradient runs over arrays; the
scalar EI chain (libm's ``erf``, ``exp`` and ``pow``) and the tree run
row by row.  Each row equals its batch of one bit for bit, so each
start ends exactly where ``minimize`` takes it alone.  A start whose
objective or constraint raises ``NumericalError`` or ``InvalidPointError``
is retired: its snapped start stays a candidate, and the others run on.

The relaxed surface's maxima often sit between the vertices of a one-hot
block, so the strongest snapped candidates are then polished by
``solvers.walk_steps`` walks under the exact acquisition, also run by
``lockstep``.  Each round's moves get one ``_rank_scorer`` call: one
``feasible_rows`` check (an infeasible row scores ``-inf``), one encode, and
one kernel matrix and stacked cost distance (``_cooled_scores``), each
distinct rank row once per maximizer call.  Every row of a batch scores bit
for bit as it would alone; ``alpha_cool`` is the batch of one.

Queries whose posterior sigma sits at the duplicate floor (the variance left
at a point that snaps onto a training input) are treated as deterministic:
their EI collapses to max(best - mean, 0), which is zero at the incumbent.
Without this, the tiny-but-positive residual EI at an already-evaluated
design would be amplified by its near-zero cost estimate and the search
would keep re-proposing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import RelaxedCost
from .constraints import feasible_draws, feasible_rows, smooth_constraint
from .errors import InvalidPointError, NoFeasibleCandidateError, NumericalError
from .gp import GpModel
from .solvers import lbfgsb_steps, lockstep, slsqp_steps, walk_steps
from .solvers import minimize  # noqa: F401  (lazy; perfbench/spans.py wraps it)
from .space import (
    ParameterSpace,
    encode,
    encode_ranks,
    point_ranks,
    rank_configuration,
    snap,
)
from .warmstart import warm_start_configs

PAPER_RATIO = "paper-ratio"
EXPONENT = "exponent"

#: floor on the cost estimate; a candidate that coincides with a stored
#: checkpoint has distance zero and is short-circuited by the driver anyway
COST_EPS = 1e-6

N_UNIFORM_STARTS = 32
#: ``vanilla-bo``'s L-BFGS-B cap per start, left at 30 so as not to weaken it
MAXITER = 30
#: ASPO's SLSQP cap per start: a start's snapped vertex settles early, and
#: the discrete polish recovers the rest
SLSQP_MAXITER = 10


@dataclass
class CoolingSchedule:
    lambda0: float = 1.0
    k: float = 0.1
    mode: str = PAPER_RATIO

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if self.k < 0:
            raise ValueError("decay rate must be non-negative")
        if self.mode not in (PAPER_RATIO, EXPONENT):
            raise ValueError(f"unknown cooling mode {self.mode!r}")


def cooling_factor(schedule: CoolingSchedule, t: float) -> float:
    """lambda(t) = lambda0 * exp(-k t)."""
    if t < 0:
        raise ValueError("iteration index must be non-negative")
    return schedule.lambda0 * math.exp(-schedule.k * t)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def ei_value(mean: float, sigma: float, best: float) -> float:
    """Closed-form Expected Improvement below ``best`` (minimization)."""
    if sigma <= 0.0:
        return max(best - mean, 0.0)
    z = (best - mean) / sigma
    return (best - mean) * (0.5 * (1.0 + math.erf(z * _INV_SQRT2))) \
        + sigma * (_INV_SQRT2PI * math.exp(-0.5 * z * z))


def cooled_value(alpha: float, cost: float, lam: float,
                 mode: str = PAPER_RATIO) -> float:
    """Combine an acquisition value with a cooled cost estimate."""
    c = max(cost, COST_EPS)
    if mode == PAPER_RATIO:
        return alpha / (lam * c)
    if mode == EXPONENT:
        return alpha / c ** lam
    raise ValueError(f"unknown cooling mode {mode!r}")


@dataclass
class AcquisitionContext:
    """Everything the cooled acquisition needs at one BO iteration."""

    model: GpModel
    best_feasible: float
    tree: object = None                       # constraint tree or None
    cost: RelaxedCost | None = None           # None means neutral cost 1.0
    schedule: CoolingSchedule = field(default_factory=CoolingSchedule)
    iteration: int = 0

    def lam(self) -> float:
        return cooling_factor(self.schedule, self.iteration)


def alpha_cool(ctx: AcquisitionContext, x) -> float:
    """Cooled acquisition at an encoded point (snapped first)."""
    return float(_cooled_scores(ctx, snap(ctx.model.space, x)[None, :])[0])


def expected_improvement(model: GpModel, x, best: float) -> float:
    """EI of an encoded point under the snap-composed posterior.

    The cooled acquisition under a neutral context: no cost, so c = 1, and
    lambda = 1 at iteration 0, which leaves the score exactly EI.
    """
    return alpha_cool(AcquisitionContext(model=model, best_feasible=best), x)


def _cooled_rows(ctx: AcquisitionContext, mean, var, costs) -> np.ndarray:
    """The cooled acquisition's scalar chain at every row, in Python floats
    as ``ei_value`` and ``cooled_value`` take it: libm's ``erf``, ``exp``
    and ``pow`` round differently from numpy's.  Returns the columns value,
    EI, the normal cdf and pdf at ``z``, sigma (0.0 at or below the floor,
    where EI is the improvement above the floor or zero), the clamped cost
    c, the cooled denominator d (lambda c or c ** lambda) and d ** 2."""
    best, floor = ctx.best_feasible, ctx.model.duplicate_sigma_floor()
    lam, ratio = ctx.lam(), ctx.schedule.mode == PAPER_RATIO
    rows = []
    for m, v, c in zip(mean.tolist(), var.tolist(), costs.tolist()):
        sigma, improvement = math.sqrt(max(v, 0.0)), best - m
        if sigma <= floor:
            ei, sigma, cdf, pdf = \
                improvement if improvement > floor else 0.0, 0.0, 0.0, 0.0
        else:
            z = improvement / sigma
            cdf = 0.5 * (1.0 + math.erf(z * _INV_SQRT2))
            pdf = _INV_SQRT2PI * math.exp(-0.5 * z * z)
            ei = improvement * cdf + sigma * pdf
        c = max(c, COST_EPS)
        d = lam * c if ratio else c ** lam
        rows.append((ei / d, ei, cdf, pdf, sigma, c, d, d ** 2))
    return np.array(rows).reshape(-1, 8).T


def _cooled_scores(ctx: AcquisitionContext, Q: np.ndarray) -> np.ndarray:
    """Cooled acquisition at every row of ``Q`` (encoded vertices), from one
    posterior batch and one stacked cost distance.  Every row scores bit
    for bit as ``alpha_cool`` scores it alone."""
    cost = ctx.cost.values(Q) if ctx.cost is not None else np.ones(len(Q))
    return _cooled_rows(ctx, *ctx.model.posterior(Q), cost)[0]


def _relaxed_objective_batch(ctx: AcquisitionContext):
    """Negated cooled acquisition and gradient at every row of a batch.

    One ``GpModel.posterior`` call and one stacked cost distance serve the
    batch, and the gradients are taken over arrays, so each row equals its
    batch of one bit for bit.  Returns a list of ``(value, gradient)``.
    """
    lam = ctx.lam()

    def fun(U):
        if ctx.cost is not None:
            costs, dcosts = ctx.cost.values_and_gradients(U)
        else:
            costs, dcosts = np.ones(len(U)), np.zeros_like(U)
        mean, var, dmean, dvar = ctx.model.posterior(U, gradient=True)
        f, ei, cdf, pdf, sigma, c, d, d2 = _cooled_rows(ctx, mean, var, costs)
        below = sigma == 0.0
        dei = -cdf[:, None] * dmean + pdf[:, None] \
            * (dvar / (2.0 * np.where(below, 1.0, sigma))[:, None])
        if below.any():     # there dei is -dmean where ei is nonzero, else 0
            dei[below] = np.where((ei[below] != 0.0)[:, None],
                                  -dmean[below], 0.0)
        dc = (ei * lam)[:, None] * np.where((costs < COST_EPS)[:, None],
                                            0.0, dcosts)
        if ctx.schedule.mode == PAPER_RATIO:
            grad = dei / d[:, None] - dc / d2[:, None]
        else:
            grad = (dei - dc / c[:, None]) / d[:, None]
        return list(zip((-f).tolist(), -grad))

    return fun


#: candidates kept for the discrete polish pass, and its cap on moves
POLISH_TOP_K = 8
POLISH_MAX_STEPS = 64


def _rank_scorer(ctx: AcquisitionContext, space: ParameterSpace, tree):
    """Cooled scores of ``(..., P)`` rank rows, ``-inf`` where a row fails
    the exact semantics.  Rows not seen before get one ``feasible_rows``
    call and one ``_cooled_scores`` batch, each distinct row only once."""
    seen: dict[bytes, float] = {}

    def score(ranks: np.ndarray) -> np.ndarray:
        rows = ranks.reshape(-1, ranks.shape[-1])
        keys = [row.tobytes() for row in rows]
        new = {k: i for i, k in enumerate(keys) if k not in seen}
        if new:
            seen.update(dict.fromkeys(new, -np.inf))
            feasible = feasible_rows(tree, space, rows[list(new.values())])
            values = _cooled_scores(ctx, encode_ranks(space, feasible))
            seen.update(zip([row.tobytes() for row in feasible],
                            values.tolist()))
        return np.array([seen[k] for k in keys]).reshape(ranks.shape[:-1])

    return score


def _starts(space: ParameterSpace, seed: int, iteration: int,
            warm_configs) -> list[np.ndarray]:
    """Multi-start points: the warm-start configurations, then seeded draws."""
    if warm_configs is None:
        warm_configs = warm_start_configs(space, None, seed, budget=10)
    rng = np.random.default_rng([seed, iteration, 2])
    return [encode(space, cfg) for cfg in warm_configs] + \
        list(rng.uniform(size=(N_UNIFORM_STARTS, space.encoded_dim)))


def _box_ranks(space: ParameterSpace, points) -> np.ndarray:
    """Distinct rank rows of the vertices that solver points snap to, in
    first-seen order, from one ``point_ranks`` call."""
    ranks = point_ranks(space, np.clip(points, 0.0, 1.0))
    return ranks[np.sort(np.unique(ranks, axis=0, return_index=True)[1])]


#: the errors a start's objective or constraint can raise; they retire it
_RETIRING = (NumericalError, InvalidPointError)


def _evaluate_rows(fun, U) -> list:
    """``fun(U)``, with ``None`` for each row that raises alone.  A row
    equals its batch of one, so a batch that raises is rerun row by row."""
    try:
        return fun(U)
    except _RETIRING:
        out = []
        for u in U:
            try:
                out.append(fun(u[None, :])[0])
            except _RETIRING:
                out.append(None)
        return out


def _slsqp_rows(objective, constraint):
    """Answers for ``slsqp_steps`` at every row: ``(f, g, (value,
    jacobian) or ())``, or ``None`` where the objective or the constraint
    raises for the row alone, which retires its start."""
    def rows(U):
        fgs = _evaluate_rows(objective, U)
        cons = [()] * len(U) if constraint is None \
            else _evaluate_rows(constraint, U)
        return [None if fg is None or con is None else (*fg, con)
                for fg, con in zip(fgs, cons)]

    return rows


def maximize_acquisition(ctx: AcquisitionContext, space: ParameterSpace, tree,
                         *, seed: int = 0, warm_configs=None) -> dict:
    """Best exact-feasible configuration under the cooled acquisition.

    Multi-start constrained local search over the box: each start (the
    warm-start array points plus ``N_UNIFORM_STARTS`` seeded uniform draws)
    ascends the relaxed surface with SLSQP subject to the smooth constraint
    relaxation, all starts in lockstep.  Both the start and its local
    optimum are snapped, snapped candidates failing the exact semantics are
    discarded, and the strongest few are polished by feasible
    single-parameter moves, all walks in lockstep, before the highest cooled
    acquisition wins (first on ties).  A retired start contributes its
    snapped start alone.  Falls back to rejection sampling when no start
    yields a feasible candidate.
    """
    starts = _starts(space, seed, ctx.iteration, warm_configs)
    constraint = smooth_constraint(space, tree) if tree is not None else None
    runs = lockstep(_slsqp_rows(_relaxed_objective_batch(ctx), constraint),
                    [slsqp_steps(u0, 0 if tree is None else 1, SLSQP_MAXITER)
                     for u0 in starts])

    points = []     # each start, then its end unless the start was retired
    for u0, run in zip(starts, runs):
        points += [u0] if run is None else [u0, run.x]
    candidates = _box_ranks(space, points)
    score = _rank_scorer(ctx, space, tree)
    scores = score(candidates)
    # the feasible candidates, strongest first, then first found on ties
    order = sorted((i for i in range(len(candidates)) if scores[i] != -np.inf),
                   key=lambda i: (-scores[i], i))
    if order:
        walks = lockstep(score, [
            walk_steps(space.counts, candidates[i], float(scores[i]),
                       POLISH_MAX_STEPS) for i in order[:POLISH_TOP_K]])
        # the first walk to reach the highest score wins
        return rank_configuration(space, max(walks, key=lambda w: w[1])[0])

    return next(feasible_draws(
        tree, space, np.random.default_rng([seed, ctx.iteration, 3]),
        NoFeasibleCandidateError))


def maximize_ei_unconstrained(model: GpModel, space: ParameterSpace,
                              best: float, *, seed: int = 0, iteration: int = 0,
                              warm_configs=None) -> dict:
    """Plain EI maximization: no constraints, no cost, no feasibility filter.

    This is the conventional-BO proposal generator used as a baseline; the
    relaxed posterior is ascended by L-BFGS-B from every start in lockstep
    (``solvers.lbfgsb_steps`` under ``solvers.lockstep``, where an error in
    the objective propagates), and the best distinct snapped optimum by EI
    wins (first on ties).  EI is the cooled acquisition under a
    neutral context: no cost, so c = 1, and lambda = 1 at iteration 0,
    which leaves every score EI.
    """
    ctx = AcquisitionContext(model=model, best_feasible=best)
    lo, hi = np.zeros(space.encoded_dim), np.ones(space.encoded_dim)
    runs = lockstep(_relaxed_objective_batch(ctx),
                    [lbfgsb_steps(u0, lo, hi, MAXITER)
                     for u0 in _starts(space, seed, iteration, warm_configs)])
    candidates = _box_ranks(space, [r.x for r in runs])
    scores = _cooled_scores(ctx, encode_ranks(space, candidates))
    return rank_configuration(space, candidates[int(np.argmax(scores))])
