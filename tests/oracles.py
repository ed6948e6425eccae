"""Row-by-row reference implementations of the batched acquisition and
the likelihood, and the sequential walks that the lockstep walk replaced.

Each function here is the per-row code that the array code in ``aspo.gp``
and ``aspo.acquisition`` replaced, kept operation for operation: the 1-D
BLAS and LAPACK calls, the scalar EI arithmetic through ``math``, the
per-row jacobian and the ``(n, n, D)`` Matern arithmetic with its
``axis=-1`` sum.  The discrete polish and the hill climb are kept as they
were before both became ``aspo.solvers.walk_steps`` walks: one polish walk
after another, and a climb with its own neighbours and best move.  The
checkpoint weight learner is kept as the coordinate descent that scored one
grid trial at a time, on terms built one sample at a time.  The synthetic
model's LUT and cycle sums are kept as the per-parameter loops that looked
each value up in its coefficient file before the model tabled its terms
per rank.  The GP's
duplicate merge is kept as it grouped snapped rows by rounding them, and
the maximizer's candidates are snapped one solver point at a time.  Tests
compare the likelihood, the posterior and the acquisition built on it
against them within a tolerance, since ``aspo.gp`` sums in other orders
than these dots and solves, and the constraint jacobian, the walks, the
learned weights and the merged duplicates with ``==``.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotrs, dtrtrs

from aspo import acquisition as acq
from aspo.acquisition import COST_EPS, PAPER_RATIO, cooled_value, ei_value
from aspo.checkpoints import (
    LEARN_SUBSET,
    LEARN_SWEEPS,
    WEIGHT_GRID,
    CheckpointStore,
    DistanceWeights,
)
from aspo.constraints import (
    compile_tree,
    feasible_draws,
    feasible_rows,
    smooth_constraint,
)
from aspo.errors import InsufficientRecordsError, NoFeasibleCandidateError
from aspo.gp import SQRT5
from aspo.solvers import lockstep, slsqp_steps
from aspo.space import (
    encode_ranks,
    point_ranks,
    rank_configuration,
    relaxed_arrays,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def reference_matern_terms(ell, sv, diff):
    """Matern-5/2 at row-major differences ``diff`` (n, m, D): (K, r,
    exp(-sqrt5 r), scaled_sq), summing the last axis."""
    scaled_sq = (diff / ell) ** 2
    r = np.sqrt(np.add.reduce(scaled_sq, axis=-1))
    expo = np.exp(-SQRT5 * r)
    return sv * (1 + SQRT5 * r + 5 * r * r / 3) * expo, r, expo, scaled_sq


def reference_nll_and_grad(theta, diff, y, extra_noise, jitter):
    """The likelihood at row-major differences ``diff`` (n, n, D), through
    scipy's Cholesky wrappers and one gradient entry per lengthscale."""
    n, D = len(y), diff.shape[-1]
    ell = np.exp(theta[:D])
    sv = np.exp(theta[D])
    nv = np.exp(theta[D + 1])

    K_sig, r, expo, scaled_sq = reference_matern_terms(ell, sv, diff)
    K = K_sig + np.diag(nv + extra_noise)
    try:
        L = cholesky(K + jitter * np.eye(n), lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)

    alpha = cho_solve((L, True), y)
    nll = 0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2 * np.pi)

    Kinv = cho_solve((L, True), np.eye(n))
    B = np.outer(alpha, alpha) - Kinv

    grad = np.zeros_like(theta)
    radial = (5.0 / 3.0) * sv * (1 + SQRT5 * r) * expo
    for j in range(D):
        dK = radial * scaled_sq[:, :, j]  # d K / d log ell_j
        grad[j] = -0.5 * np.sum(B * dK)
    grad[D] = -0.5 * np.sum(B * K_sig)
    grad[D + 1] = -0.5 * nv * np.trace(B)
    return float(nll), grad


def reference_merge_duplicates(X: np.ndarray, y: np.ndarray):
    """The GP's duplicate merge as it was on snapped rows: rows whose
    coordinates round to the same 12 places form a group.  Returns
    (X_unique, y_mean, extra_noise) in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(X):
        groups.setdefault(tuple(np.round(row, 12)), []).append(i)
    keep, means, extras = [], [], []
    for idx in groups.values():
        vals = y[idx]
        keep.append(idx[0])
        means.append(float(vals.mean()))
        extras.append(float(vals.var()) if len(idx) > 1 else 0.0)
    return X[keep], np.asarray(means), np.asarray(extras)


def reference_kernel(model, Q):
    """Kernel rows between the rows of ``Q`` and the training inputs, and
    the differences they come from."""
    diff = Q[:, None, :] - model.X[None, :, :]
    return reference_matern_terms(model.params.lengthscales,
                                  model.params.signal_variance, diff)[0], diff


def reference_posterior(model, Q):
    """Per row: (mean, variance, unclamped standardized variance), with one
    dot and one ``dtrtrs`` per row."""
    out = []
    for k in reference_kernel(model, Q)[0]:
        mean_std = float(k @ model.alpha)
        v, info = dtrtrs(model.L, k, lower=1)
        assert info == 0
        raw = model.params.signal_variance - float(v @ v)
        out.append((mean_std * model.target_std + model.target_mean,
                    max(raw, 0.0) * model.target_std ** 2, raw))
    return out


def reference_posterior_gradient(model, Q):
    """Per row: (mean, var, dmean, dvar), with one ``dpotrs`` per row."""
    K, diff = reference_kernel(model, Q)
    ell2 = model.params.lengthscales ** 2
    r = np.sqrt(np.sum(diff ** 2 / ell2, axis=-1))
    coef = -(5.0 / 3.0) * model.params.signal_variance \
        * (1 + SQRT5 * r) * np.exp(-SQRT5 * r)
    dK = coef[..., None] * diff / ell2
    s = model.target_std
    out = []
    for k, dk in zip(K, dK):
        mean_std = float(k @ model.alpha)
        w, info = dpotrs(model.L, k, lower=1)
        assert info == 0
        var_std = max(model.params.signal_variance - float(k @ w), 0.0)
        out.append((mean_std * s + model.target_mean, var_std * s * s,
                    (dk.T @ model.alpha) * s, (-2.0 * (dk.T @ w)) * s * s))
    return out


def _norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z * _INV_SQRT2))


def _norm_pdf(z):
    return _INV_SQRT2PI * math.exp(-0.5 * z * z)


def reference_ei_with_floor(mean, sigma, best, floor):
    """EI with at-floor sigma deterministic: the improvement above the
    floor, else zero."""
    if sigma <= floor:
        improvement = best - mean
        return improvement if improvement > floor else 0.0
    return ei_value(mean, sigma, best)


def reference_cooled_scores(ctx, Q):
    """The cooled acquisition at every row of ``Q``, one row at a time."""
    model = ctx.model
    floor = model.duplicate_sigma_floor()
    cost = ctx.cost.values(Q) if ctx.cost is not None else np.ones(len(Q))
    return [cooled_value(reference_ei_with_floor(
                mean, math.sqrt(max(var, 0.0)), ctx.best_feasible, floor),
                c, ctx.lam(), ctx.schedule.mode)
            for (mean, var, _), c in zip(reference_posterior(model, Q),
                                         cost.tolist())]


def reference_objective(ctx):
    """Negated cooled acquisition and its gradient, one row at a time."""
    model, best, lam = ctx.model, ctx.best_feasible, ctx.lam()
    floor = model.duplicate_sigma_floor()
    mode = ctx.schedule.mode

    def fun(U):
        if ctx.cost is not None:
            costs, dcosts = ctx.cost.values_and_gradients(U)
        else:
            costs, dcosts = np.ones(len(U)), np.zeros_like(U)
        out = []
        for (mean, var, dmean, dvar), c, dc in zip(
                reference_posterior_gradient(model, U), costs.tolist(),
                dcosts):
            sigma = math.sqrt(max(var, 0.0))
            ei = reference_ei_with_floor(mean, sigma, best, floor)
            if sigma > floor:
                z = (best - mean) / sigma
                dsigma = dvar / (2.0 * sigma)
                dei = -_norm_cdf(z) * dmean + _norm_pdf(z) * dsigma
            else:
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


def reference_smooth_constraint(space, tree):
    """Value and jacobian of the smooth constraint, one row at a time."""
    smooth = compile_tree(tree, space.ordinal_names)
    coords = space.ordinal_coords.tolist()

    def at(U):
        values, slopes = relaxed_arrays(space, np.clip(U, 0.0, 1.0))
        out = []
        for row, row_slopes in zip(values.tolist(), slopes.tolist()):
            value, (i, di), (j, dj) = smooth(row)
            partials = {i: di + dj} if i == j else {i: di, j: dj}
            g = np.zeros(space.encoded_dim)
            for k, dv in partials.items():
                g[coords[k]] += dv * row_slopes[k]
            out.append((float(value), g))
        return out

    return at


def reference_rank_scorer(ctx, space):
    """Cooled scores of rank rows, each distinct row scored once."""
    seen = {}

    def score(ranks):
        keys = [row.tobytes() for row in ranks]
        new = {k: i for i, k in enumerate(keys) if k not in seen}
        if new:
            rows = encode_ranks(space, ranks[list(new.values())])
            seen.update(zip(new, acq._cooled_scores(ctx, rows).tolist()))
        return np.array([seen[k] for k in keys])

    return score


def reference_polish(score, space, tree, ranks, start_val):
    """One best-improvement walk over the feasible single-parameter moves,
    with its own ``feasible_rows`` and ``score`` call at each step."""
    move_param = np.repeat(np.arange(len(space.params)), space.counts)
    move_rank = np.concatenate([np.arange(c) for c in space.counts])
    move_row = np.arange(len(move_param))
    current, current_val = ranks, start_val
    for _ in range(acq.POLISH_MAX_STEPS):
        moves = np.tile(current, (len(move_param), 1))
        moves[move_row, move_param] = move_rank
        moves = feasible_rows(tree, space,
                              moves[move_rank != current[move_param]])
        if not len(moves):
            break
        scores = score(moves)
        best = int(np.argmax(scores))
        if not scores[best] > current_val:
            break
        current, current_val = moves[best], float(scores[best])
    return current, current_val


def reference_maximize_acquisition(ctx, space, tree, *, seed=0,
                                   warm_configs=None):
    """``maximize_acquisition`` with its polish walks run one after another
    by ``reference_polish``."""
    starts = acq._starts(space, seed, ctx.iteration, warm_configs)
    constraint = smooth_constraint(space, tree) if tree is not None else None
    runs = lockstep(
        acq._slsqp_rows(acq._relaxed_objective_batch(ctx), constraint),
        [slsqp_steps(u0, 0 if tree is None else 1, acq.SLSQP_MAXITER)
         for u0 in starts])

    def box_ranks(u):       # one solver point at a time
        return tuple(point_ranks(space, np.clip(u, 0.0, 1.0)))

    found = {}
    for u0, run in zip(starts, runs):
        found.setdefault(box_ranks(u0))
        if run is not None:
            found.setdefault(box_ranks(run.x))
    candidates = feasible_rows(tree, space, np.array(list(found),
                                                     dtype=np.intp))
    if len(candidates):
        score = reference_rank_scorer(ctx, space)
        scores = score(candidates)
        order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
        best_ranks, best_val = None, -np.inf
        for i in order[:acq.POLISH_TOP_K]:
            polished, polished_val = reference_polish(
                score, space, tree, candidates[i], float(scores[i]))
            if polished_val > best_val:
                best_val, best_ranks = polished_val, polished
        return rank_configuration(space, best_ranks)
    return next(feasible_draws(
        tree, space, np.random.default_rng([seed, ctx.iteration, 3]),
        NoFeasibleCandidateError))


def reference_hill_climb(space, history):
    """The driver's hill climb with its own neighbours and best move: from
    the default, every unevaluated neighbour in (parameter, value) order,
    then a move to the first best neighbour on a strict gain."""
    def key(cfg):
        return tuple(cfg[p.name] for p in space.params)

    def neighbors(cfg):
        return [dict(cfg, **{p.name: v}) for p in space.params
                for v in p.values if v != cfg[p.name]]

    known = {}

    def learn(entries):
        for e in entries:
            known[key(e.config)] = e.eet_ms() if e.result.valid else math.inf

    current = space.default_configuration()
    learn(history)                  # the warm start
    if key(current) not in known:
        yield current
        learn(history[-1:])
    current_eet = known[key(current)]
    while True:
        for cfg in neighbors(current):
            if key(cfg) not in known:
                yield cfg
                learn(history[-1:])
        best = min(neighbors(current), key=lambda c: known[key(c)],
                   default=current)
        if not known[key(best)] < current_eet:
            return
        current, current_eet = best, known[key(best)]


def reference_pairwise_terms(cat: np.ndarray, fa: np.ndarray,
                             fb: np.ndarray) -> np.ndarray:
    """Per-parameter distance terms, categorical columns overwritten."""
    terms = (fa - fb) ** 2
    terms[..., cat] = (fa[..., cat] != fb[..., cat]).astype(float)
    return terms


def reference_learn_weights(store: CheckpointStore, synthesis_time_fn,
                            seed: int = 0) -> DistanceWeights:
    """Pick weights minimizing leave-one-out synthesis time on a sampled subset.

    ``synthesis_time_fn(cfg, reference_record)`` supplies the time model.  It
    must be pure: each ordered pair of sampled records is asked at most once
    per call, and later trials reuse the answer.  Coordinate descent over a
    fixed grid, starting from all-ones; a grid value is only adopted on strict
    improvement, so a flat objective returns the all-ones vector unchanged.
    """
    records = store.records()
    if len(records) < 3:
        raise InsufficientRecordsError(
            f"weight learning needs >= 3 records, have {len(records)}")
    rng = np.random.default_rng([seed, len(records)])
    if len(records) > LEARN_SUBSET:
        idx = sorted(rng.choice(len(records), size=LEARN_SUBSET,
                                replace=False))
    else:
        idx = list(range(len(records)))
    sample = [records[i] for i in idx]
    feats = store._features[idx]

    # terms[i]: sample i against every other sample, in order.  The product
    # stays stacked, one (n-1, P) matrix-vector product per block: a flat
    # (n*(n-1), P) product rounds some rows differently and can flip a tie.
    terms = np.stack([
        reference_pairwise_terms(store.space.categorical_mask,
                                 np.delete(feats, i, axis=0),
                                 feats[i][None, :])
        for i in range(len(sample))])
    times: dict[tuple[int, int], float] = {}

    def objective(w_vec: np.ndarray) -> float:
        total = 0.0
        for i, j in enumerate(np.argmin(terms @ w_vec, axis=1).tolist()):
            j = j if j < i else j + 1
            if (i, j) not in times:
                times[i, j] = synthesis_time_fn(sample[i].config, sample[j])
            total += times[i, j]
        return total

    w = np.ones(len(store.space))
    best = objective(w)
    for _ in range(LEARN_SWEEPS):
        for i in range(len(w)):
            for g in WEIGHT_GRID:
                if g == w[i]:
                    continue
                trial = w.copy()
                trial[i] = g
                val = objective(trial)
                if val < best:
                    best = val
                    w = trial
    return DistanceWeights(w)


def reference_luts(data: dict, space, cfg: dict) -> int:
    """``SyntheticModel.luts`` from the model file, one parameter at a time."""
    total = float(data["base_luts"])
    for p in space.params:
        c = data["parameters"][p.name]
        if p.kind == "categorical":
            total += c["lut_factors"][cfg[p.name]]
        else:
            total += c["lut_cost"] * p.scaled_rank(cfg[p.name])
    return int(round(total))


def reference_cycles(data: dict, space, cfg: dict, benchmark: str) -> int:
    """``SyntheticModel.cycles`` from the model file, one parameter at a
    time."""
    penalty = 0.0
    for p in space.params:
        c = data["parameters"][p.name]
        if p.kind == "categorical":
            penalty += c["cycle_factors"][cfg[p.name]]
        else:
            penalty += c["cycle_beta"] * (1.0 - p.scaled_rank(cfg[p.name])) ** 2
    return int(round(data["benchmarks"][benchmark] * (1.0 + penalty)))
