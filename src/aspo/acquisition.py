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

The starts run in lockstep rounds.  Each keeps its own state of scipy's
SLSQP solver (``_slsqplib.slsqp``, which ``minimize`` drives); a round
advances every live start by one solver call, then evaluates the round's
new points as one batch: one kernel matrix and gradient tensor, one stacked
cost distance and one relaxed view for the constraint tree (compiled once
per call).  Dot products, Cholesky solves, EI arithmetic and the tree still
run row by row, so each row equals its batch of one bit for bit and each
start ends exactly where ``minimize`` takes it alone.  A start whose
objective or constraint raises ``NumericalError`` or ``InvalidPointError``
is retired: its snapped start stays a candidate, and the others run on.

Discrete work is batched.  Candidates and polish moves are held as rows of
per-parameter ranks: a batch is checked against the exact semantics with one
``feasible_rows`` call, encoded with one index-array encode, and
scored with one kernel matrix and one stacked cost distance
(``_cooled_scores``).  ``alpha_cool`` is the batch of one, and every row of
a batch scores bit for bit as it would alone.

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
from scipy.optimize import minimize  # noqa: F401  (perfbench/spans.py wraps it)
from scipy.optimize._slsqplib import slsqp

from .checkpoints import RelaxedCost
from .constraints import compile_tree, feasible_draws, feasible_rows
from .errors import InvalidPointError, NoFeasibleCandidateError, NumericalError
from .gp import GpModel, lbfgsb
from .space import (
    ParameterSpace,
    encode,
    encode_ranks,
    point_ranks,
    rank_configuration,
    relaxed_arrays,
    snap,
)
from .warmstart import warm_start_configs

PAPER_RATIO = "paper-ratio"
EXPONENT = "exponent"

#: floor on the cost estimate; a candidate that coincides with a stored
#: checkpoint has distance zero and is short-circuited by the driver anyway
COST_EPS = 1e-6

N_UNIFORM_STARTS = 32
#: SLSQP (and L-BFGS-B) iteration cap per start; the discrete polish
#: recovers the accuracy a tighter solve would add
MAXITER = 30


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


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z * _INV_SQRT2))


def _norm_pdf(z: float) -> float:
    return _INV_SQRT2PI * math.exp(-0.5 * z * z)


def ei_value(mean: float, sigma: float, best: float) -> float:
    """Closed-form Expected Improvement below ``best`` (minimization)."""
    if sigma <= 0.0:
        return max(best - mean, 0.0)
    z = (best - mean) / sigma
    return (best - mean) * _norm_cdf(z) + sigma * _norm_pdf(z)


def _ei_with_floor(mean, sigma, best, sigma_floor):
    """EI treating at-floor sigma as deterministic (no revisit value).

    In the deterministic branch, improvements smaller than the floor itself
    are interpolation roundoff at an already-evaluated design, not signal;
    they must be zeroed or the near-zero cost estimate of a stored design
    would amplify them past every genuine candidate.
    """
    if sigma <= sigma_floor:
        improvement = best - mean
        return improvement if improvement > sigma_floor else 0.0
    return ei_value(mean, sigma, best)


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


def _cooled_scores(ctx: AcquisitionContext, Q: np.ndarray) -> np.ndarray:
    """Cooled acquisition at every row of ``Q`` (encoded vertices).

    One posterior batch (one kernel matrix) and one stacked cost distance.
    Every row scores bit for bit as it would alone, so a batch ranks its
    rows exactly as ``alpha_cool`` would.
    """
    model = ctx.model
    floor = model.duplicate_sigma_floor()
    cost = ctx.cost.values(Q) if ctx.cost is not None else np.ones(len(Q))
    lam, mode = ctx.lam(), ctx.schedule.mode
    return np.array([
        cooled_value(_ei_with_floor(mean, math.sqrt(max(var, 0.0)),
                                    ctx.best_feasible, floor), c, lam, mode)
        for (mean, var), c in zip(model.predict_batch(Q), cost.tolist())])


def _relaxed_objective_batch(ctx: AcquisitionContext):
    """Negated cooled acquisition and gradient at every row of a batch.

    One ``predict_with_gradient_batch`` and one stacked cost distance serve
    the batch; the EI arithmetic runs row by row, so each row equals its
    batch of one bit for bit.  Returns a list of ``(value, gradient)``.
    """
    model = ctx.model
    best = ctx.best_feasible
    floor = model.duplicate_sigma_floor()
    lam = ctx.lam()
    mode = ctx.schedule.mode

    def fun(U):
        if ctx.cost is not None:
            costs, dcosts = ctx.cost.values_and_gradients(U)
        else:
            costs, dcosts = np.ones(len(U)), np.zeros_like(U)
        out = []
        for (mean, var, dmean, dvar), c, dc in zip(
                model.predict_with_gradient_batch(U), costs.tolist(), dcosts):
            sigma = math.sqrt(max(var, 0.0))
            ei = _ei_with_floor(mean, sigma, best, floor)
            if sigma > floor:
                z = (best - mean) / sigma
                dsigma = dvar / (2.0 * sigma)
                dei = -_norm_cdf(z) * dmean + _norm_pdf(z) * dsigma
            else:   # deterministic: ei is the improvement, or zero
                dei = -dmean if ei else np.zeros_like(dmean)
            if c < COST_EPS:
                c, dc = COST_EPS, np.zeros_like(dc)
            if mode == PAPER_RATIO:
                grad = dei / (lam * c) - ei * lam * dc / (lam * c) ** 2
            else:
                grad = (dei - ei * lam * dc / c) / c ** lam
            out.append((-cooled_value(ei, c, lam, mode), -grad))
        return out

    return fun


def _smooth_constraint(space: ParameterSpace, tree):
    """Value and jacobian of smooth_tree >= 0 at every row of a batch.

    The tree is compiled once and the rows are clipped into the box.  One
    ``relaxed_arrays`` call serves the batch; the tree then runs row by
    row.  Returns a list of ``(value, jacobian)``.
    """
    smooth = compile_tree(tree, space.ordinal_names)
    coords = space.ordinal_coords.tolist()

    def at(U):
        values, slopes = relaxed_arrays(space, np.clip(U, 0.0, 1.0))
        out = []
        for row, row_slopes in zip(values.tolist(), slopes.tolist()):
            value, partials = smooth(row)
            g = np.zeros(space.encoded_dim)
            for i, dv in partials.items():
                g[coords[i]] += dv * row_slopes[i]
            out.append((float(value), g))
        return out

    return at


#: candidates kept for the discrete polish pass, and its cap on moves
POLISH_TOP_K = 8
POLISH_MAX_STEPS = 64


def _polish(ctx: AcquisitionContext, space: ParameterSpace, tree,
            ranks: np.ndarray, start_val: float):
    """Best-improvement walk over feasible single-parameter moves.

    The continuous ascent climbs the relaxed surface, whose maxima often sit
    between vertices of a one-hot block; this discrete pass re-optimizes the
    snapped configuration under the exact (snapped) acquisition.  Each step
    lists every single-parameter move in (parameter, value) order, keeps the
    feasible ones and scores them as one batch.  The first best move is
    adopted, and only on a strict gain.  Takes and returns rank rows.
    """
    move_param = np.repeat(np.arange(len(space.params)), space.counts)
    move_rank = np.concatenate([np.arange(c) for c in space.counts])
    move_row = np.arange(len(move_param))
    current, current_val = ranks, start_val
    for _ in range(POLISH_MAX_STEPS):
        moves = np.tile(current, (len(move_param), 1))
        moves[move_row, move_param] = move_rank
        moves = feasible_rows(tree, space,
                              moves[move_rank != current[move_param]])
        if not len(moves):
            break
        scores = _cooled_scores(ctx, encode_ranks(space, moves))
        best = int(np.argmax(scores))
        if not scores[best] > current_val:
            break
        current, current_val = moves[best], float(scores[best])
    return current, current_val


def _starts(space: ParameterSpace, seed: int, iteration: int,
            warm_configs) -> list[np.ndarray]:
    """Multi-start points: the warm-start configurations, then seeded draws."""
    if warm_configs is None:
        warm_configs = warm_start_configs(space, None, seed, budget=10)
    rng = np.random.default_rng([seed, iteration, 2])
    return [encode(space, cfg) for cfg in warm_configs] + \
        list(rng.uniform(size=(N_UNIFORM_STARTS, space.encoded_dim)))


def _box_ranks(space: ParameterSpace, u) -> tuple:
    """Rank row of the vertex a solver's point snaps to, as a dict key."""
    return tuple(point_ranks(space, np.clip(u, 0.0, 1.0)))


#: the errors a start's objective or constraint can raise; they retire it
_RETIRING = (NumericalError, InvalidPointError)


class _SlsqpStart:
    """One start's SLSQP reverse-communication state over the unit box.

    Laid out as ``_minimize_slsqp`` lays it out for ``m`` inequality
    constraints.  The memo follows its ``ScalarFunction`` rules: ``nfev``
    counts values handed to the solver at a new point, and a gradient asked
    for away from the last evaluation is evaluated without counting.
    """

    def __init__(self, x0, m: int, maxiter: int):
        n = len(x0)
        self.x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
        self.state = dict.fromkeys(
            ("alpha", "f0", "gs", "h1", "h2", "h3", "h4", "t", "t0"), 0.0)
        ftol = 1e-8
        self.state.update(
            acc=ftol, tol=10.0 * ftol, exact=0, inconsistent=0, reset=0,
            iter=0, itermax=maxiter, line=0, m=m, meq=0, mode=0, n=n)
        size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
        # multipliers, bounds, workspace and index buffer
        self.work = (np.zeros(m + 2 * n + 2), np.zeros(n), np.ones(n),
                     np.zeros(size + (m == 0) * 2 * n * (n + 1)),
                     np.zeros(m + 2 * n + 2, dtype=np.int32))
        self.C = np.zeros((max(1, m), n), order="F")
        self.d = np.zeros(max(1, m))
        self.fun = self.g = None            # as last handed to the solver
        self.nfev, self.counted = 0, False  # counted: memo's f is in nfev
        # last evaluation: (f, g) plus the constraint's (value, jacobian);
        # None once the start is retired
        self.memo_x = self.memo = None

    def step(self) -> int:
        slsqp(self.state, self.fun, self.g, self.C, self.d, self.x,
              *self.work)
        return self.state["mode"]


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


def _serve(objective, constraint, starts):
    """Answer every start's pending request; return the starts still live.

    Mode 1 asks for the objective and constraint values, mode -1 for their
    gradients, and mode 0 (before the first solver call) for both.  Points
    that differ from a start's last evaluation are evaluated as one batch.
    """
    stale = [s for s in starts  # np.array_equal, without its overhead
             if s.memo_x is None or not (s.x == s.memo_x).all()]
    if stale:
        U = np.array([s.x for s in stale])
        rows = _evaluate_rows(objective, U)
        cons = [()] * len(U) if constraint is None \
            else _evaluate_rows(constraint, U)
        for s, fg, con in zip(stale, rows, cons):
            s.memo_x, s.counted = s.x.copy(), False
            s.memo = None if fg is None or con is None else (*fg, *con)
    live = [s for s in starts if s.memo is not None]
    for s in live:
        f, g, *con = s.memo
        if s.state["mode"] != -1:
            s.fun = f
            s.nfev += not s.counted
            s.counted = True
            if con:
                s.d[0] = con[0]
        if s.state["mode"] != 1:
            s.g = g
            if con:
                s.C[0] = con[1]
    return live


def _slsqp_lockstep(objective, constraint, starts, maxiter: int) -> list:
    """SLSQP from every start at once, each start with its own solver state.

    Each round advances every live start by one solver call, then serves
    their requests together.  Each start ends with exactly the ``x``,
    ``fun``, ``nfev`` and exit mode (``state["mode"]``) that
    ``minimize(method="SLSQP")`` with the same ``maxiter`` and ``ftol``
    gives it alone.  Returns one ``_SlsqpStart`` per start, or ``None`` for
    a retired start.
    """
    runs = [_SlsqpStart(u0, 0 if constraint is None else 1, maxiter)
            for u0 in starts]
    live = _serve(objective, constraint, runs)
    while live:
        live = _serve(objective, constraint,
                      [s for s in live if abs(s.step()) == 1])
    return [None if s.memo is None else s for s in runs]


def maximize_acquisition(ctx: AcquisitionContext, space: ParameterSpace, tree,
                         *, seed: int = 0, warm_configs=None) -> dict:
    """Best exact-feasible configuration under the cooled acquisition.

    Multi-start constrained local search over the box: each start (the
    warm-start array points plus ``N_UNIFORM_STARTS`` seeded uniform draws)
    ascends the relaxed surface with SLSQP subject to the smooth constraint
    relaxation, all starts in lockstep.  Both the start and its local
    optimum are snapped, snapped candidates failing the exact semantics are
    discarded, and the strongest few are polished by feasible
    single-parameter moves before the highest cooled acquisition wins (first
    on ties).  A retired start contributes its snapped start alone.  Falls
    back to rejection sampling when no start yields a feasible candidate.
    """
    starts = _starts(space, seed, ctx.iteration, warm_configs)
    runs = _slsqp_lockstep(
        _relaxed_objective_batch(ctx),
        _smooth_constraint(space, tree) if tree is not None else None,
        starts, MAXITER)

    # snapped candidates as rank rows, first-seen order, duplicates dropped
    found: dict[tuple, None] = {}
    for u0, run in zip(starts, runs):
        found.setdefault(_box_ranks(space, u0))
        if run is not None:
            found.setdefault(_box_ranks(space, run.x))
    candidates = feasible_rows(tree, space, np.array(list(found),
                                                     dtype=np.intp))

    if len(candidates):
        scores = _cooled_scores(ctx, encode_ranks(space, candidates))
        order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
        best_ranks, best_val = None, -np.inf
        for i in order[:POLISH_TOP_K]:
            polished, polished_val = _polish(ctx, space, tree, candidates[i],
                                             float(scores[i]))
            if polished_val > best_val:
                best_val, best_ranks = polished_val, polished
        return rank_configuration(space, best_ranks)

    return next(feasible_draws(
        tree, space, np.random.default_rng([seed, ctx.iteration, 3]),
        NoFeasibleCandidateError))


def maximize_ei_unconstrained(model: GpModel, space: ParameterSpace,
                              best: float, *, seed: int = 0, iteration: int = 0,
                              warm_configs=None) -> dict:
    """Plain EI maximization: no constraints, no cost, no feasibility filter.

    This is the conventional-BO proposal generator used as a baseline; the
    relaxed posterior is ascended from each start by ``gp.lbfgsb``'s
    L-BFGS-B, and the best distinct snapped optimum by EI wins (first on
    ties).  EI is the cooled acquisition under a neutral context: no cost,
    so c = 1, and lambda = 1 at iteration 0, which leaves every score EI.
    """
    ctx = AcquisitionContext(model=model, best_feasible=best)
    batch = _relaxed_objective_batch(ctx)
    found: dict[tuple, None] = {}
    lo, hi = np.zeros(space.encoded_dim), np.ones(space.encoded_dim)
    for u0 in _starts(space, seed, iteration, warm_configs):
        res = lbfgsb(lambda u: batch(u[None, :])[0], u0, lo, hi, MAXITER)
        found.setdefault(_box_ranks(space, res.x))
    candidates = np.array(list(found), dtype=np.intp)
    scores = _cooled_scores(ctx, encode_ranks(space, candidates))
    return rank_configuration(space, candidates[int(np.argmax(scores))])
