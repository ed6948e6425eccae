"""Orthogonal-array warm start: evenly spread initial configurations.

Strength-2 orthogonal arrays are generated with the Bose construction
OA(s^2, F, s, 2) for a prime level count s; mixed or non-prime level counts
are handled by building the smallest covering prime array and collapsing each
column onto its factor's levels with a seeded, balanced map.  Collapsed
arrays generally lose exact pair balance and are flagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import feasible_count, feasible_draws, feasible_rows
from .errors import InfeasibleSpaceError
from .space import ParameterSpace, config_ranks, rank_configuration


@dataclass
class OrthogonalArray:
    rows: np.ndarray          # (N, F) level indices
    levels: tuple             # per-factor level counts
    exact: bool


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _bose(s: int, f: int) -> np.ndarray:
    """OA(s^2, f, s, 2) for prime s and f <= s + 1."""
    i, j = np.divmod(np.arange(s * s), s)
    cols = [i, j]
    for k in range(2, f):
        cols.append((i + (k - 1) * j) % s)
    return np.stack(cols[:f], axis=1)


def pair_balance_deficit(rows: np.ndarray, levels) -> int:
    """Max spread of ordered-pair counts over all column pairs; 0 means exact."""
    worst = 0
    f = rows.shape[1]
    for a in range(f):
        for b in range(a + 1, f):
            counts = np.zeros((levels[a], levels[b]), dtype=int)
            np.add.at(counts, (rows[:, a], rows[:, b]), 1)
            worst = max(worst, int(counts.max() - counts.min()))
    return worst


def generate_oa(level_counts, seed: int = 0) -> OrthogonalArray:
    """Strength-2 array (exact or near) covering the given level counts."""
    levels = tuple(int(c) for c in level_counts)
    if not levels:
        raise ValueError("need at least one factor")
    f = len(levels)
    if f == 1:
        rows = np.arange(levels[0], dtype=int)[:, None]
        return OrthogonalArray(rows, levels, exact=True)

    distinct = set(levels)
    if len(distinct) == 1 and _is_prime(levels[0]) and f <= levels[0] + 1:
        rows = _bose(levels[0], f)
        return OrthogonalArray(rows, levels, exact=True)

    s = _next_prime(max(max(levels), f - 1))
    rows = _bose(s, f)
    rng = np.random.default_rng(seed)
    for col, count in enumerate(levels):
        if count == s:
            continue
        # balanced map: each target level absorbs floor(s/count) or one more
        base, rem = divmod(s, count)
        mapping = np.repeat(np.arange(count), base)
        mapping = np.concatenate([mapping, np.arange(rem)])
        rng.shuffle(mapping)
        rows[:, col] = mapping[rows[:, col]]
    exact = pair_balance_deficit(rows, levels) == 0
    return OrthogonalArray(rows, levels, exact=exact)


def warm_start_configs(space: ParameterSpace, tree, seed: int,
                       budget: int) -> list[dict]:
    """Feasible, distinct configurations for the initial evaluation round.

    Array rows, which are rows of parameter ranks, are filtered by the exact
    constraint semantics in array order; if fewer than ``budget`` distinct
    configurations survive, seeded rejection sampling tops the list up.
    Designs are told apart by rank row, an array row as it is and a draw by
    its ``config_ranks``; the first of equal designs is kept.  A space with
    fewer feasible configurations than ``budget`` caps it at their
    ``feasible_count`` and fails at once when they number none, and
    sampling that gives up short returns the designs found, if any.
    """
    if budget < 1:
        raise ValueError("warm-start budget must be at least 1")
    budget = min(budget, feasible_count(tree, space))
    if budget == 0:
        raise InfeasibleSpaceError("no configuration satisfies the constraints")
    oa = generate_oa(space.counts, seed)
    chosen: dict[tuple, dict] = {}
    for row in feasible_rows(tree, space, oa.rows).tolist():
        if len(chosen) >= budget:
            break
        chosen.setdefault(tuple(row), rank_configuration(space, row))

    draws = feasible_draws(tree, space, np.random.default_rng([seed, 1]))
    try:
        while len(chosen) < budget:
            cfg = next(draws)
            chosen.setdefault(config_ranks(space, cfg), cfg)
    except InfeasibleSpaceError:
        if not chosen:
            raise
    return list(chosen.values())
