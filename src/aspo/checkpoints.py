"""Checkpoint database: evaluated configurations plus their synthesis artifacts.

Records are kept in insertion order, keyed by rank row, and matched on rank
rows (``find``, ``distances``, ``nearest``) by a weighted squared distance
over per-parameter features: ordinal parameters compare scaled ranks,
categorical parameters contribute a 0/1 mismatch indicator.  The minimum
distance to the database doubles as the evaluation-cost estimate fed to the
acquisition function, and the per-parameter weights are learned by
coordinate descent against the synthesis times a pair oracle gives.

Concurrency: single writer (the driver), any number of readers.  The store
lives in memory.  ``artifact_path`` hashes a configuration into an artifact
handle; a record's ``artifact`` and ``synthesis_minutes`` are optional.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatabaseError, InsufficientRecordsError
from .space import CATEGORICAL, ParameterSpace, config_ranks

WEIGHT_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)
LEARN_SWEEPS = 3
LEARN_SUBSET = 20
#: cost estimate while the database is empty
COST_PRIOR = 1.0

@dataclass(frozen=True)
class DistanceWeights:
    """Non-negative per-parameter weights, aligned with the space's order."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if np.any(self.w < 0):
            raise ValueError("weights must be non-negative")
        if not np.any(self.w > 0):
            raise ValueError("weights must not all be zero")

    @classmethod
    def ones(cls, space: ParameterSpace) -> "DistanceWeights":
        return cls(np.ones(len(space)))


@dataclass
class CheckpointRecord:
    config: dict
    encoded: np.ndarray
    metrics: object                  # EvaluationResult
    artifact: str | None = None
    synthesis_minutes: float | None = None


def _pairwise_terms(cat: np.ndarray, fa: np.ndarray,
                    fb: np.ndarray) -> np.ndarray:
    """Per-parameter distance terms; ``cat`` marks the categorical columns."""
    return np.where(cat, fa != fb, (fa - fb) ** 2)


def rank_terms(space: ParameterSpace, a, b) -> np.ndarray:
    """Per-parameter distance terms between two rank rows."""
    fa, fb = np.divide([a, b], space.rank_divisors)
    return _pairwise_terms(space.categorical_mask, fa, fb)


def weighted_distance(space: ParameterSpace, x: dict, q: dict,
                      weights: DistanceWeights) -> float:
    """Sum of w_i * feature-difference^2 between two configurations."""
    return float(np.dot(weights.w, rank_terms(
        space, config_ranks(space, x), config_ranks(space, q))))


def artifact_path(space: ParameterSpace, cfg: dict) -> str:
    key = json.dumps([[p.name, cfg[p.name]] for p in space.params])
    return f"artifacts/{hashlib.sha256(key.encode()).hexdigest()[:16]}"


class CheckpointStore:
    """Checkpoint records in insertion order, keyed by rank row.

    A configuration is its ``config_ranks`` row here, so an inadmissible one
    raises on insert and on lookup.  Record ``i`` has rank row ``_rows[i]``
    and feature row ``i``: an ordinal's scaled rank, a categorical's index.
    """

    def __init__(self, space: ParameterSpace):
        self.space = space
        self._records: dict[tuple, CheckpointRecord] = {}
        self._rows: list[tuple] = []
        self._buffer = np.empty((16, len(space)))
        self._features = self._buffer[:0]

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[CheckpointRecord]:
        return list(self._records.values())

    def insert(self, record: CheckpointRecord) -> None:
        """Add or refresh a record; re-inserting keeps the original rank."""
        key = config_ranks(self.space, record.config)
        if key not in self._records:
            if len(self._rows) == len(self._buffer):
                self._buffer = np.vstack([self._buffer] * 2)
            self._rows.append(key)
            self._features = self._buffer[:len(self._rows)]
            self._features[-1] = np.divide(key, self.space.rank_divisors)
        self._records[key] = record

    def lookup(self, cfg: dict) -> CheckpointRecord | None:
        return self.find(config_ranks(self.space, cfg))

    def find(self, ranks) -> CheckpointRecord | None:
        """The record of a rank row, or None."""
        return self._records.get(tuple(ranks))

    def distances(self, ranks, weights: DistanceWeights) -> np.ndarray:
        """Weighted distance from a rank row to every record, in order."""
        fx = np.divide(ranks, self.space.rank_divisors)
        terms = _pairwise_terms(self.space.categorical_mask, self._features,
                                fx[None, :])
        return terms @ weights.w

    def nearest(self, ranks, weights: DistanceWeights) -> tuple:
        """Rank row of the nearest record; ties go to the earliest insert."""
        if not self._records:
            raise EmptyDatabaseError("no checkpoints stored")
        return self._rows[int(np.argmin(self.distances(ranks, weights)))]

    def cost(self, ranks, weights: DistanceWeights) -> float:
        """The cost estimate: a rank row's least distance to a record."""
        return float(self.distances(ranks, weights).min()) if self._records \
            else COST_PRIOR


def match_config(store: CheckpointStore, cfg: dict,
                 weights: DistanceWeights) -> CheckpointRecord:
    """Record at minimum weighted distance; ties go to the earliest insert."""
    return store.find(store.nearest(config_ranks(store.space, cfg), weights))


def cost_estimate(store: CheckpointStore, cfg: dict,
                  weights: DistanceWeights) -> float:
    """``CheckpointStore.cost`` of a configuration."""
    return store.cost(config_ranks(store.space, cfg), weights)


def learn_weights(store: CheckpointStore, synthesis_time_fn,
                  seed: int = 0) -> DistanceWeights:
    """``learn_pair_weights`` asking ``synthesis_time_fn(cfg, record)``."""
    return learn_pair_weights(
        store, lambda a, b, terms: synthesis_time_fn(a.config, b), seed)


def learn_pair_weights(store: CheckpointStore, pair_minutes,
                       seed: int = 0) -> DistanceWeights:
    """Pick weights minimizing leave-one-out synthesis time on a sampled subset.

    ``pair_minutes(record, reference, terms)`` gives the minutes to
    synthesize ``record`` from ``reference`` (``terms``: their ``rank_terms``).
    It must be pure and never NaN: each ordered pair of sampled records is
    asked at most once per call, and later trials reuse the answer.

    Coordinate descent over a fixed grid, starting from all-ones; a grid
    value is only adopted on strict improvement, so a flat objective returns
    the all-ones vector unchanged.  A coordinate's trials differ from ``w``
    in that coordinate alone, so an adoption among them changes none of the
    other trials: all are scored at once and adopted in grid order.  The descent stops at
    its fixed point, within ``LEARN_SWEEPS`` sweeps: once a whole cycle of
    coordinates adopts nothing, every later step would score the same trials
    against the same best.
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

    n = len(sample)
    # terms[i, k]: sample i against its k-th other sample, in order
    off_diag = ~np.eye(n, dtype=bool)
    terms = _pairwise_terms(store.space.categorical_mask, feats[None],
                            feats[:, None])[off_diag].reshape(n, n - 1, -1)
    rows = np.arange(n)
    times = np.full((n, n), np.nan)     # times[i, j], asked on first use

    def objectives(W: np.ndarray) -> np.ndarray:
        """Leave-one-out totals of each weight row of ``W``."""
        # The product stays stacked: one (n-1, P) matrix-vector product per
        # trial and block, the gemv that ``terms @ w`` runs, so a trial's
        # distances keep the bits they have alone.  A flat (n*(n-1), P) @
        # (P, T) product rounds some rows differently and can flip a tie.
        j = np.argmin((terms[None] @ W[:, None, :, None])[..., 0], axis=2)
        j += j >= rows
        t, i = np.nonzero(np.isnan(times[rows, j]))
        for a, b in set(zip(i.tolist(), j[t, i].tolist())):
            times[a, b] = pair_minutes(sample[a], sample[b],
                                       terms[a, b - (b > a)])
        # summed in sample order, as one running total per trial
        return np.add.accumulate(times[rows, j], axis=1)[:, -1]

    w = np.ones(len(store.space))
    best = objectives(w[None])[0]
    stale = 0                           # coordinate steps since an adoption
    for step in range(LEARN_SWEEPS * len(w)):
        i = step % len(w)
        grid = [g for g in WEIGHT_GRID if g != w[i]]
        trials = np.repeat(w[None], len(grid), axis=0)
        trials[:, i] = grid
        stale += 1
        for trial, val in zip(trials, objectives(trials)):
            if val < best:
                best, w, stale = val, trial, 0
        if stale == len(w):
            break
    return DistanceWeights(w)


class RelaxedCost:
    """Smooth surrogate of the cost estimate over the encoded box.

    On snapped points it coincides with ``cost_estimate``: ordinal
    coordinates contribute w*(u - q)^2 and each one-hot block contributes
    (w/2)*sum((u - h)^2), which equals the 0/1 mismatch at vertices.  The
    gradient follows the attaining (nearest) record, earliest insert on ties.
    """

    def __init__(self, store: CheckpointStore, weights: DistanceWeights):
        self.space = store.space
        self.Q = np.reshape([r.encoded for r in store.records()],
                            (len(store), store.space.encoded_dim))
        cw = np.empty(store.space.encoded_dim)
        for i, (p, off) in enumerate(store.space.blocks()):
            cw[off:off + p.width] = weights.w[i] / (2.0 if p.kind == CATEGORICAL
                                                    else 1.0)
        self.coord_weights = cw

    def values_and_gradients(self, U: np.ndarray):
        """Values (rows,) and gradients (rows, D) at every row of ``U``.

        The stacked product runs one ``(records, D)`` matrix-vector product
        per row, so each row equals its batch of one bit for bit.
        """
        if len(self.Q) == 0:
            return (np.full(len(U), COST_PRIOR),
                    np.zeros((len(U), self.space.encoded_dim)))
        diff = U[:, None, :] - self.Q[None, :, :]
        dists = (diff ** 2) @ self.coord_weights
        rows = np.arange(len(U))
        nearest = np.argmin(dists, axis=1)
        return (dists[rows, nearest],
                2.0 * self.coord_weights * diff[rows, nearest])
