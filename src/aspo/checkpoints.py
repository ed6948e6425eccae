"""Checkpoint database: evaluated configurations plus their synthesis artifacts.

Records are kept in insertion order and matched by a weighted squared
distance over per-parameter features: ordinal parameters compare scaled
ranks, categorical parameters contribute a 0/1 mismatch indicator.  The
minimum distance to the database doubles as the evaluation-cost estimate fed
to the acquisition function, and the per-parameter weights are learned by
coordinate descent against observed synthesis times.

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


def config_features(space: ParameterSpace, cfg: dict) -> np.ndarray:
    """Per-parameter numeric features: scaled rank, or category index.

    Category indices are only ever compared for equality, never subtracted.
    """
    return np.array(config_ranks(space, cfg), dtype=float) / space.rank_divisors


def _pairwise_terms(cat: np.ndarray, fa: np.ndarray,
                    fb: np.ndarray) -> np.ndarray:
    """Per-parameter distance terms; ``cat`` marks the categorical columns."""
    return np.where(cat, fa != fb, (fa - fb) ** 2)


def weighted_distance(space: ParameterSpace, x: dict, q: dict,
                      weights: DistanceWeights) -> float:
    """Sum of w_i * feature-difference^2 over the space's parameters."""
    fx, fq = np.array([config_ranks(space, x), config_ranks(space, q)],
                      dtype=float) / space.rank_divisors
    terms = _pairwise_terms(space.categorical_mask, fx, fq)
    return float(np.dot(weights.w, terms))


def artifact_path(space: ParameterSpace, cfg: dict) -> str:
    key = json.dumps([[p.name, cfg[p.name]] for p in space.params])
    return f"artifacts/{hashlib.sha256(key.encode()).hexdigest()[:16]}"


class CheckpointStore:
    """Insertion-ordered map of configurations to checkpoint records.

    Row ``i`` of the feature matrix holds ``config_features`` of record ``i``
    and is kept current on every insert.
    """

    def __init__(self, space: ParameterSpace):
        self.space = space
        self._index: dict[tuple, int] = {}
        self._records: list[CheckpointRecord] = []
        self._features = np.empty((0, len(space)))

    def _key(self, cfg: dict) -> tuple:
        return tuple(cfg[p.name] for p in self.space.params)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[CheckpointRecord]:
        return list(self._records)

    def insert(self, record: CheckpointRecord) -> None:
        """Add or refresh a record; re-inserting keeps the original rank."""
        key = self._key(record.config)
        row = config_features(self.space, record.config)
        i = self._index.get(key)
        if i is None:
            self._index[key] = len(self._records)
            self._records.append(record)
            self._features = np.vstack([self._features, row])
        else:
            self._records[i] = record
            self._features[i] = row

    def lookup(self, cfg: dict) -> CheckpointRecord | None:
        i = self._index.get(self._key(cfg))
        return None if i is None else self._records[i]


def _distances_to_all(store: CheckpointStore, cfg: dict,
                      weights: DistanceWeights) -> np.ndarray:
    fx = config_features(store.space, cfg)
    terms = _pairwise_terms(store.space.categorical_mask,
                            store._features, fx[None, :])
    return terms @ weights.w


def match_config(store: CheckpointStore, cfg: dict,
                 weights: DistanceWeights) -> CheckpointRecord:
    """Record at minimum weighted distance; ties go to the earliest insert."""
    if len(store) == 0:
        raise EmptyDatabaseError("no checkpoints stored")
    d = _distances_to_all(store, cfg, weights)
    return store.records()[int(np.argmin(d))]


def cost_estimate(store: CheckpointStore, cfg: dict,
                  weights: DistanceWeights) -> float:
    """Minimum weighted distance to the database; ``COST_PRIOR`` when empty."""
    if len(store) == 0:
        return COST_PRIOR
    return float(_distances_to_all(store, cfg, weights).min())


def learn_weights(store: CheckpointStore, synthesis_time_fn,
                  seed: int = 0) -> DistanceWeights:
    """Pick weights minimizing leave-one-out synthesis time on a sampled subset.

    ``synthesis_time_fn(cfg, reference_record)`` supplies the time model.  It
    must be pure and never NaN: each ordered pair of sampled records is
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
            times[a, b] = synthesis_time_fn(sample[a].config, sample[b])
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
        records = store.records()
        if records:
            self.Q = np.stack([r.encoded for r in records])
        else:
            self.Q = np.empty((0, store.space.encoded_dim))
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

    def values(self, U: np.ndarray) -> np.ndarray:
        """The values of ``values_and_gradients`` alone."""
        return self.values_and_gradients(U)[0]
