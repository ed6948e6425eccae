"""Design spaces and the continuous encoding used by the surrogate model.

A space is an ordered list of parameters, each either categorical (a list of
named options) or ordinal (a strictly increasing list of integers).  A
configuration assigns one admissible value to every parameter.  Configurations
are embedded into [0, 1]^D: a categorical with k options occupies a k-wide
one-hot block, an ordinal occupies a single coordinate holding its scaled rank
rank/(count-1).  ``snap`` projects any point of the box onto the nearest
admissible vertex, which is the representation the covariance kernel sees.

Every space precomputes index arrays once: the coordinates of each one-hot
block, the coordinate and rank step of each ordinal, and a padded table of
ordinal values.  ``encode``, ``snap``, ``decode`` and ``relaxed_values`` read
these arrays instead of walking the parameters, and the rank helpers
(``config_ranks``, ``point_ranks``, ``encode_ranks``, ``ordinal_columns``)
expose the same layout to batched callers: a configuration is a row of
per-parameter ranks, and a batch of rows encodes or feeds the exact
constraint semantics in one array operation.  ``point_ranks`` and ``snap``
take a point ``(D,)`` or rows ``(M, D)`` under one box check.  Each batched
result equals the per-point one bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InvalidConfigurationError, InvalidPointError

CATEGORICAL = "categorical"
ORDINAL = "ordinal"

# Encoded coordinates may drift out of [0, 1] by solver roundoff; anything
# beyond speaks of a real bug and is rejected rather than clamped.
_BOX_TOL = 1e-9


@dataclass(frozen=True)
class ParameterDef:
    """One tunable parameter: its kind, admissible values, and default."""

    name: str
    kind: str
    values: tuple
    default: object

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, ORDINAL):
            raise InvalidConfigurationError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}")
        if not self.values:
            raise InvalidConfigurationError(
                f"parameter {self.name!r}: empty value list")
        if len(set(self.values)) != len(self.values):
            raise InvalidConfigurationError(
                f"parameter {self.name!r}: duplicate values")
        if self.kind == ORDINAL:
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in self.values):
                raise InvalidConfigurationError(
                    f"parameter {self.name!r}: ordinal values must be integers")
            if any(b <= a for a, b in zip(self.values, self.values[1:])):
                raise InvalidConfigurationError(
                    f"parameter {self.name!r}: ordinal values must be strictly "
                    "increasing")
        if self.default not in self.values:
            raise InvalidConfigurationError(
                f"parameter {self.name!r}: default {self.default!r} not among "
                "admissible values")

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def width(self) -> int:
        """Number of encoded coordinates this parameter occupies."""
        return self.count if self.kind == CATEGORICAL else 1

    def scaled_rank(self, value) -> float:
        """Rank mapped to [0, 1]; a single-valued parameter sits at 0."""
        if self.count == 1:
            return 0.0
        return self.values.index(value) / (self.count - 1)


class ParameterSpace:
    """Ordered collection of parameters plus the derived encoding layout."""

    def __init__(self, params):
        params = tuple(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise InvalidConfigurationError("duplicate parameter names")
        self.params = params
        self._by_name = {p.name: p for p in params}
        offsets = []
        pos = 0
        for p in params:
            offsets.append(pos)
            pos += p.width
        self._offsets = tuple(offsets)
        self.encoded_dim = pos
        self.counts = tuple(p.count for p in params)
        self.categorical_mask = np.array([p.kind == CATEGORICAL for p in params],
                                         dtype=bool)
        # rank / divisor is an ordinal's scaled rank and a categorical's index
        self.rank_divisors = np.array(
            [c - 1 if p.kind == ORDINAL and c > 1 else 1
             for p, c in zip(params, self.counts)], dtype=float)
        self._rank_tables = tuple(
            (p.name, {v: r for r, v in enumerate(p.values)}) for p in params)

        cat = [i for i, p in enumerate(params) if p.kind == CATEGORICAL]
        ordn = [i for i, p in enumerate(params) if p.kind == ORDINAL]
        idx = partial(np.array, dtype=np.intp)
        # one-hot blocks: row j lists block j's coordinates, padded with the
        # index one past the box (a -inf sentinel for the block arg-max)
        width = max((self.counts[i] for i in cat), default=0)
        self._cat_params = idx(cat)
        self._cat_offsets = idx([offsets[i] for i in cat])
        self._cat_blocks = idx(
            [[offsets[i] + k if k < self.counts[i] else pos
              for k in range(width)] for i in cat]).reshape(len(cat), width)
        # ordinals, all of them: relaxed values and the constraint layer
        self.ordinal_names = tuple(params[i].name for i in ordn)
        self.ordinal_coords = idx([offsets[i] for i in ordn])
        self._ord_params = idx(ordn)
        self._ord_steps = np.array([self.counts[i] - 1 for i in ordn],
                                   dtype=float)
        # a single-valued ordinal encodes its rank 0 as 0 / 1
        self._ord_divisors = np.maximum(self._ord_steps, 1.0)
        self._ord_last = np.maximum(self._ord_steps - 1, 0).astype(np.intp)
        self._ord_rows = np.arange(len(ordn))
        table_width = max([2] + [self.counts[i] for i in ordn])
        self._ord_table = np.array(
            [list(params[i].values)
             + [params[i].values[-1]] * (table_width - self.counts[i])
             for i in ordn], dtype=float).reshape(len(ordn), table_width)

    def __len__(self) -> int:
        return len(self.params)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def param(self, name: str) -> ParameterDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidConfigurationError(f"unknown parameter {name!r}") from None

    def blocks(self):
        """Yield (param, offset) pairs in declaration order."""
        return zip(self.params, self._offsets)

    def default_configuration(self) -> dict:
        return {p.name: p.default for p in self.params}

    def validate(self, cfg: dict) -> None:
        extra = set(cfg) - set(self._by_name)
        if extra:
            raise InvalidConfigurationError(
                f"unknown parameter(s): {sorted(extra)}")
        for p in self.params:
            if p.name not in cfg:
                raise InvalidConfigurationError(f"missing parameter {p.name!r}")
            if cfg[p.name] not in p.values:
                raise InvalidConfigurationError(
                    f"parameter {p.name!r}: value {cfg[p.name]!r} not admissible")

    def size(self) -> int:
        """Number of distinct configurations."""
        return math.prod(p.count for p in self.params)

    def iter_configurations(self):
        """All configurations in lexicographic order; only for small spaces."""
        for combo in itertools.product(*(p.values for p in self.params)):
            yield {p.name: v for p, v in zip(self.params, combo)}

    def ordinal_values(self, cfg: dict) -> dict:
        """Numeric view of a configuration: ordinal parameter values only."""
        return {p.name: cfg[p.name] for p in self.params if p.kind == ORDINAL}

    @classmethod
    def from_dict(cls, data: dict) -> "ParameterSpace":
        try:
            raw = data["parameters"]
        except (KeyError, TypeError):
            raise InvalidConfigurationError(
                'space definition must contain a "parameters" list') from None
        params = []
        for entry in raw:
            try:
                params.append(ParameterDef(
                    name=entry["name"],
                    kind=entry["kind"],
                    values=tuple(entry["values"]),
                    default=entry["default"],
                ))
            except KeyError as exc:
                raise InvalidConfigurationError(
                    f"space entry missing field {exc}") from None
        return cls(params)

    @classmethod
    def from_json(cls, text: str) -> "ParameterSpace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfigurationError(f"space file: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ParameterSpace":
        return cls.from_json(Path(path).read_text())


def _check_rows(space: ParameterSpace, points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != space.encoded_dim:
        raise InvalidPointError(f"expected a point or rows of dimension "
                                f"{space.encoded_dim}, got shape {arr.shape}")
    # min and max propagate NaN, which then fails both comparisons
    if arr.size and not (arr.min() >= -_BOX_TOL and arr.max() <= 1.0 + _BOX_TOL):
        if not np.isfinite(arr).all():
            raise InvalidPointError("non-finite coordinate")
        raise InvalidPointError("coordinates outside [0, 1]")
    return arr


def config_ranks(space: ParameterSpace, cfg: dict) -> list[int]:
    """Rank of each parameter's value in declaration order; validates ``cfg``."""
    try:
        ranks = [table[cfg[name]] for name, table in space._rank_tables]
    except (KeyError, TypeError):
        ranks = None
    if ranks is None or len(cfg) != len(space.params):
        space.validate(cfg)
        ranks = [p.values.index(cfg[p.name]) for p in space.params]
    return ranks


def rank_configuration(space: ParameterSpace, ranks) -> dict:
    """The configuration whose parameter ranks are ``ranks``."""
    return {p.name: p.values[r]
            for p, r in zip(space.params, np.asarray(ranks).tolist())}


def encode_ranks(space: ParameterSpace, ranks) -> np.ndarray:
    """Encoded vertices of rank rows: ``(..., P)`` ints to ``(..., D)`` floats.

    Row ``i`` is bit for bit ``encode`` of the configuration of row ``i``.
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    out = np.zeros((*ranks.shape[:-1], space.encoded_dim))
    np.put_along_axis(out, space._cat_offsets + ranks[..., space._cat_params],
                      1.0, axis=-1)
    out[..., space.ordinal_coords] = ranks[..., space._ord_params] \
        / space._ord_divisors
    return out


def point_ranks(space: ParameterSpace, points) -> np.ndarray:
    """Ranks of the vertices that ``snap`` projects points of the box onto:
    a point ``(D,)`` gives ``(P,)``, and rows ``(M, D)`` give ``(M, P)``.

    Each one-hot block takes its arg-max (ties to the lowest index); each
    ordinal coordinate rounds to the nearest rank (ties to the lower rank).
    """
    arr = _check_rows(space, points)
    ranks = np.zeros((*arr.shape[:-1], len(space.params)), dtype=np.intp)
    if len(space._cat_params):
        padded = np.append(arr, np.full((*arr.shape[:-1], 1), -np.inf), -1)
        ranks[..., space._cat_params] = np.argmax(
            padded[..., space._cat_blocks], axis=-1)
    # ceil(x - 0.5) rounds half-way cases down; a single-valued ordinal
    # (no rank step) lands on ceil(-0.5) = rank 0
    ranks[..., space._ord_params] = np.ceil(
        arr[..., space.ordinal_coords] * space._ord_steps - 0.5).astype(np.intp)
    return ranks


def ordinal_columns(space: ParameterSpace, ranks) -> dict:
    """Ordinal parameter values of rank rows, one array per parameter.

    The batched counterpart of ``ParameterSpace.ordinal_values``: pass it to
    ``exact_tree`` to check a whole batch of configurations at once.
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    return {name: values[ranks[:, i]] for name, values, i in zip(
        space.ordinal_names, space._ord_table, space._ord_params)}


def random_configuration(space: ParameterSpace, rng) -> dict:
    """Uniform draw: one ``rng.integers(count)`` per parameter, in order."""
    return {p.name: p.values[int(rng.integers(c))]
            for p, c in zip(space.params, space.counts)}


def encode(space: ParameterSpace, cfg: dict) -> np.ndarray:
    """Embed a configuration into [0, 1]^D (one-hot blocks + scaled ranks)."""
    return encode_ranks(space, config_ranks(space, cfg))


def snap(space: ParameterSpace, points) -> np.ndarray:
    """Project a point or rows of the box onto the nearest admissible vertex.

    Each one-hot block collapses to its arg-max vertex (ties to the lowest
    index); each ordinal coordinate rounds to the nearest scaled rank (ties
    to the lower rank).  Idempotent by construction.
    """
    return encode_ranks(space, point_ranks(space, points))


def decode(space: ParameterSpace, point) -> dict:
    """Inverse of ``encode`` after snapping; always yields a valid configuration."""
    return rank_configuration(space, point_ranks(space, [point])[0])


def relaxed_arrays(space: ParameterSpace, points):
    """``relaxed_values`` at every row of ``points``, as two arrays.

    Returns ``(values, slopes)``, each with one row per point and one
    column per entry of ``space.ordinal_names``; the coordinate of column
    ``i`` is ``space.ordinal_coords[i]``.  The arithmetic is elementwise,
    so each row equals its batch of one bit for bit.
    """
    arr = _check_rows(space, points)
    pos = np.clip(arr[..., space.ordinal_coords], 0.0, 1.0) * space._ord_steps
    i0 = np.minimum(pos.astype(np.intp), space._ord_last)
    frac = pos - i0
    lo = space._ord_table[space._ord_rows, i0]
    hi = space._ord_table[space._ord_rows, i0 + 1]
    return lo + frac * (hi - lo), (hi - lo) * space._ord_steps


def relaxed_values(space: ParameterSpace, point):
    """Continuous numeric view of an un-snapped point, for smooth constraints.

    Ordinal coordinates are mapped to parameter units by piecewise-linear
    interpolation along the rank scale.  Returns ``(values, slopes)`` where
    ``slopes[name] = (coordinate index, d value / d coordinate)`` so callers
    can chain gradients back to the encoded box.  Categorical parameters have
    no numeric view and are omitted.
    """
    values, slopes = relaxed_arrays(space, [point])
    names = space.ordinal_names
    return (dict(zip(names, values[0].tolist())),
            {n: (c, s) for n, c, s in zip(
                names, space.ordinal_coords.tolist(), slopes[0].tolist())})
