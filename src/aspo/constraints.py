"""Declarative parameter constraints with two evaluation routes.

A constraint tree is a conjunction (root) of inequality, conditional-interval,
and divisibility leaves, optionally grouped under nested any/all nodes.  Each
tree supports:

* ``exact_tree``   -- discrete Boolean semantics over integer parameter values;
* ``smooth_tree``  -- a differentiable relaxation whose sign agrees with the
  exact semantics at every admissible configuration (non-negative means
  satisfied);
* ``compile_tree`` -- the relaxation and the attaining leaf's two
  (position, partial) pairs, from one closure built once per tree;
* ``smooth_constraint`` -- the relaxation and its encoded-coordinate
  jacobian at every row of a batch of box points, which the constrained
  acquisition solver asks for at every round of iterates;
* ``smooth_gradient`` -- the subgradient as a dict, the two pairs summed.

``exact_tree`` and ``smooth_tree`` accept scalars or numpy arrays for the
parameter values, so whole grids of configurations can be checked in one
call; ``feasible_rows`` applies that to rows of parameter ranks.

Encoding notes.  A conditional "if x1 in [a1,b1] then x2 in [a2,b2]" is
relaxed as ``max(-c1(x1) - m, min(c1(x1), c2(x2)))`` with ``c(v) =
-(v-a)(v-b)``.  The margin ``m`` shifts the vacuous branch strictly below zero
on the condition interval's boundary: without it a value sitting exactly on
``a1`` or ``b1`` would register as vacuously satisfied even when the
consequence fails.  Parsers derive ``m`` from the admissible values of the
condition parameter (half the smallest clearance of any admissible value lying
outside the interval), which keeps the sign of the relaxation exact on the
whole grid.  Strict inequalities are reduced to non-strict ones by subtracting
the smallest positive value the left-hand side attains on the grid.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintSyntaxError,
    DomainError,
    InfeasibleSpaceError,
    UnknownParameterError,
)
from .space import ORDINAL, ParameterSpace, ordinal_columns
from .space import random_configuration, relaxed_arrays

# |smooth| at or above zero minus this tolerance counts as satisfied; the
# divisibility relaxation evaluates sin at large multiples of pi, which lands
# near -1e-29 instead of 0 in float64.
SIGN_TOL = 1e-9

#: uniform draws a rejection sampler may spend before it gives up
MAX_REJECTION_DRAWS = 100_000

# Fallback vacuity margin for hand-built conditionals; safe for integer grids
# whose admissible values clear interval endpoints by at least one unit.
_DEFAULT_MARGIN = 0.5


@dataclass(frozen=True)
class Inequality:
    """ka*xa - kb*xb + t >= 0."""

    ka: float
    xa: str
    kb: float
    xb: str
    t: float


@dataclass(frozen=True)
class IntervalAtom:
    """param in [lo, hi]."""

    param: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstraintSyntaxError(
                f"interval for {self.param!r}: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class Conditional:
    """If the condition interval holds, the consequence interval must too."""

    condition: IntervalAtom
    consequence: IntervalAtom
    vacuity_margin: float = _DEFAULT_MARGIN


@dataclass(frozen=True)
class Divisibility:
    """xb divides xa (xa mod xb == 0)."""

    xa: str
    xb: str


@dataclass(frozen=True)
class Conj:
    children: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.children:
            raise ConstraintSyntaxError("conjunction with no children")


@dataclass(frozen=True)
class Disj:
    children: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.children:
            raise ConstraintSyntaxError("disjunction with no children")


def _interval_value(atom: IntervalAtom, v):
    """-(v - lo)(v - hi): non-negative exactly on [lo, hi]."""
    return -(v - atom.lo) * (v - atom.hi)


def smooth_inequality(c: Inequality, values):
    return c.ka * values[c.xa] - c.kb * values[c.xb] + c.t


def _divisor(d: Divisibility, values):
    """The divisor's values; a zero among them raises ``DomainError``."""
    xb = values[d.xb]
    if np.any(np.asarray(xb) == 0):
        raise DomainError(f"divisibility {d.xa!r} by {d.xb!r}: zero divisor")
    return xb


def smooth_tree(tree, values):
    """Smooth constraint value; >= 0 (within SIGN_TOL) means satisfied.

    ``values`` maps parameter names to numbers in parameter units (not encoded
    coordinates); numpy arrays broadcast elementwise.
    """
    if isinstance(tree, Conj):
        return np.minimum.reduce([smooth_tree(c, values) for c in tree.children])
    if isinstance(tree, Disj):
        return np.maximum.reduce([smooth_tree(c, values) for c in tree.children])
    if isinstance(tree, Inequality):
        return smooth_inequality(tree, values)
    if isinstance(tree, Conditional):
        c1 = _interval_value(tree.condition, values[tree.condition.param])
        c2 = _interval_value(tree.consequence, values[tree.consequence.param])
        return np.maximum(-c1 - tree.vacuity_margin, np.minimum(c1, c2))
    if isinstance(tree, Divisibility):
        return -np.sin(np.pi * values[tree.xa] / _divisor(tree, values)) ** 2
    raise TypeError(f"not a constraint node: {tree!r}")


def smooth_satisfied(value):
    """Interpret a smooth constraint value as a Boolean (array)."""
    return value >= -SIGN_TOL


def exact_tree(tree, values):
    """Exact discrete semantics over integer parameter values.

    Accepts either a configuration mapping or per-parameter numpy arrays;
    returns a bool (or bool array).
    """
    if isinstance(tree, (Conj, Disj)):
        return functools.reduce(
            np.logical_and if isinstance(tree, Conj) else np.logical_or,
            [exact_tree(c, values) for c in tree.children])
    if isinstance(tree, Inequality):
        return smooth_inequality(tree, values) >= 0
    if isinstance(tree, Conditional):
        cond = tree.condition
        cons = tree.consequence
        inside = np.logical_and(values[cond.param] >= cond.lo,
                                values[cond.param] <= cond.hi)
        holds = np.logical_and(values[cons.param] >= cons.lo,
                               values[cons.param] <= cons.hi)
        return np.logical_or(np.logical_not(inside), holds)
    if isinstance(tree, Divisibility):
        return values[tree.xa] % _divisor(tree, values) == 0
    raise TypeError(f"not a constraint node: {tree!r}")


def exact_configuration(tree, space: ParameterSpace, cfg: dict) -> bool:
    """Convenience wrapper: exact semantics on a configuration of a space."""
    if tree is None:
        return True
    return bool(exact_tree(tree, space.ordinal_values(cfg)))


def feasible_rows(tree, space: ParameterSpace, ranks: np.ndarray) -> np.ndarray:
    """Rank rows passing the exact semantics, in order (one array call)."""
    if tree is None or not len(ranks):
        return ranks
    return ranks[exact_tree(tree, ordinal_columns(space, ranks))]


def feasible_count(tree, space: ParameterSpace) -> int:
    """Number of configurations that pass the exact semantics.

    A space with a tree and at most ``MAX_REJECTION_DRAWS`` configurations,
    the draws that rejection sampling would spend anyway, is counted with
    one ``feasible_rows`` call over its whole rank grid.  Any other space
    gives its size, which bounds the count.
    """
    size = space.size()
    if tree is None or size > MAX_REJECTION_DRAWS:
        return size
    grid = np.indices(space.counts).reshape(len(space), -1).T
    return len(feasible_rows(tree, space, grid))


def feasible_draws(tree, space: ParameterSpace, rng,
                   error: type[InfeasibleSpaceError] = InfeasibleSpaceError):
    """Rejection sampling: the feasible ones among seeded uniform draws.

    Yields in draw order.  Once ``MAX_REJECTION_DRAWS`` draws are spent, the
    next request raises ``error``, so a caller that needs ``n`` feasible
    configurations fails only when the cap leaves it short.
    """
    for _ in range(MAX_REJECTION_DRAWS):
        cfg = random_configuration(space, rng)
        if exact_configuration(tree, space, cfg):
            yield cfg
    raise error(f"too few feasible configurations within "
                f"{MAX_REJECTION_DRAWS} random draws")


def compile_tree(tree, names):
    """Compile a tree into one value-and-gradient closure.

    ``names`` fixes the parameter order: the closure takes a sequence whose
    entry ``i`` is the value of ``names[i]`` and returns ``(value, (i, di),
    (j, dj))``, the attaining leaf's value and its two (position, partial)
    pairs.  A leaf that names one parameter twice has ``i == j``, and its
    derivative there is ``di + dj``.

    The closure repeats the arithmetic of ``smooth_tree`` operation for
    operation, so its value equals ``smooth_tree`` (up to the sign of a
    zero).  Min and max nodes take the attaining child's tuple, with ties
    to the lowest index.  The type dispatch happens here, once, instead of
    on every call.
    """
    return _compile(tree, {n: i for i, n in enumerate(names)})


def _compile(tree, pos):
    if isinstance(tree, (Conj, Disj)):
        first, *rest = [_compile(c, pos) for c in tree.children]
        better = operator.lt if isinstance(tree, Conj) else operator.gt

        def node(values):
            best = first(values)
            for child in rest:
                cand = child(values)
                if better(cand[0], best[0]):  # strict: ties keep the first
                    best = cand
            return best
        return node
    if isinstance(tree, Inequality):
        a, b = pos[tree.xa], pos[tree.xb]
        ka, kb, t = tree.ka, tree.kb, tree.t
        da, db = (a, ka), (b, -kb)

        def node(values):
            return ka * values[a] - kb * values[b] + t, da, db
        return node
    if isinstance(tree, Conditional):
        i, j = pos[tree.condition.param], pos[tree.consequence.param]
        lo1, hi1 = tree.condition.lo, tree.condition.hi
        lo2, hi2 = tree.consequence.lo, tree.consequence.hi
        margin = tree.vacuity_margin

        def node(values):
            v1, v2 = values[i], values[j]
            c1 = -(v1 - lo1) * (v1 - hi1)
            c2 = -(v2 - lo2) * (v2 - hi2)
            vac = -c1 - margin
            if c1 <= c2:
                value, di, dj = c1, -(2 * v1 - lo1 - hi1), 0.0
            else:
                value, di, dj = c2, 0.0, -(2 * v2 - lo2 - hi2)
            if vac >= value:  # d(-c1) negates dc1 exactly
                value, di, dj = vac, 2 * v1 - lo1 - hi1, 0.0
            return value, (i, di), (j, dj)
        return node
    if isinstance(tree, Divisibility):
        a, b = pos[tree.xa], pos[tree.xb]
        xa, xb = tree.xa, tree.xb

        def node(values):  # Python floats: math.sin here equals np.sin
            va, vb = values[a], values[b]
            if vb == 0:
                raise DomainError(f"divisibility {xa!r} by {xb!r}: zero divisor")
            s = math.sin(2 * math.pi * va / vb)
            return (-math.sin(math.pi * va / vb) ** 2,
                    (a, -s * math.pi / vb), (b, s * math.pi * va / vb ** 2))
        return node
    raise TypeError(f"not a constraint node: {tree!r}")


def smooth_constraint(space: ParameterSpace, tree):
    """Value and jacobian of smooth_tree >= 0 at every row of a batch.

    The tree is compiled once and the rows are clipped into the box.  One
    ``relaxed_arrays`` call serves the batch; the tree then runs row by row,
    chaining its two partials through the row's slopes.  Each row equals its
    batch of one bit for bit.  Returns a list of ``(value, jacobian)``.
    """
    smooth = compile_tree(tree, space.ordinal_names)
    coords = space.ordinal_coords.tolist()

    def at(U):
        values, slopes = relaxed_arrays(space, np.clip(U, 0.0, 1.0))
        jac = np.zeros((len(U), space.encoded_dim))
        out = []
        for g, row, s in zip(jac, values.tolist(), slopes.tolist()):
            value, (i, di), (j, dj) = smooth(row)
            if i == j:  # one parameter twice: its partials sum first
                di, dj = di + dj, 0.0
            g[coords[i]] += di * s[i]
            g[coords[j]] += dj * s[j]
            out.append((float(value), g))
        return out

    return at


def smooth_gradient(tree, values) -> dict:
    """Subgradient of ``smooth_tree`` with respect to each parameter value.

    At min/max kinks the gradient of the attaining child is used, ties broken
    toward the lowest-index child.  Returns a dict covering every parameter
    mentioned in the tree (zero entries included).
    """
    names = sorted(tree_parameters(tree))
    _, (i, di), (j, dj) = compile_tree(tree, names)([values[n] for n in names])
    grad = dict.fromkeys(names, 0.0)
    grad[names[i]] += di
    grad[names[j]] += dj
    return grad


def tree_parameters(tree) -> set:
    """All parameter names a tree mentions."""
    if isinstance(tree, (Conj, Disj)):
        return set().union(*map(tree_parameters, tree.children))
    if isinstance(tree, (Inequality, Divisibility)):
        return {tree.xa, tree.xb}
    if isinstance(tree, Conditional):
        return {tree.condition.param, tree.consequence.param}
    raise TypeError(f"not a constraint node: {tree!r}")


# --------------------------------------------------------------------------
# parsing


def _require_ordinal(space: ParameterSpace, name, context: str):
    if not isinstance(name, str) or name not in space:
        raise UnknownParameterError(f"{context}: unknown parameter {name!r}")
    p = space.param(name)
    if p.kind != ORDINAL:
        raise ConstraintSyntaxError(
            f"{context}: parameter {name!r} is categorical; numeric constraints "
            "require ordinal parameters")
    return p


def _strictness_offset(space: ParameterSpace, c: Inequality) -> float:
    """Smallest positive value of ka*xa - kb*xb + t over the admissible grid."""
    pa = space.param(c.xa)
    pb = space.param(c.xb)
    va = np.asarray(pa.values, dtype=float)
    vb = np.asarray(pb.values, dtype=float)
    grid = c.ka * va[:, None] - c.kb * vb[None, :] + c.t
    positive = grid[grid > 0]
    if positive.size == 0:
        # no admissible pair satisfies the strict form; any offset keeps it
        # unsatisfiable
        return 1.0
    return float(positive.min())


def _vacuity_margin(space: ParameterSpace, atom: IntervalAtom) -> float:
    """Half the smallest clearance of admissible values outside the interval."""
    p = space.param(atom.param)
    clearances = [-_interval_value(atom, float(v)) for v in p.values
                  if v < atom.lo or v > atom.hi]
    if not clearances:
        return _DEFAULT_MARGIN
    return min(clearances) / 2.0


def _parse_interval(space, data, context) -> IntervalAtom:
    if not isinstance(data, dict) or set(data) != {"param", "in"}:
        raise ConstraintSyntaxError(
            f'{context}: expected {{"param": ..., "in": [lo, hi]}}')
    bounds = data["in"]
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ConstraintSyntaxError(f"{context}: interval needs [lo, hi]")
    _require_ordinal(space, data["param"], context)
    return IntervalAtom(data["param"], float(bounds[0]), float(bounds[1]))


def _parse_node(space: ParameterSpace, data, path: str):
    if not isinstance(data, dict) or len(data) != 1:
        raise ConstraintSyntaxError(
            f"{path}: each entry must be a single-key object "
            '(one of "all", "any", "ineq", "cond", "div")')
    key, body = next(iter(data.items()))
    context = f"{path}/{key}"
    if key in ("all", "any"):
        if not isinstance(body, list) or not body:
            raise ConstraintSyntaxError(f"{context}: needs a non-empty list")
        children = tuple(_parse_node(space, c, f"{context}[{i}]")
                         for i, c in enumerate(body))
        return Conj(children) if key == "all" else Disj(children)
    if key == "ineq":
        if not isinstance(body, dict):
            raise ConstraintSyntaxError(f"{context}: needs an object")
        allowed = {"ka", "xa", "kb", "xb", "t", "strict"}
        unknown = set(body) - allowed
        if unknown:
            raise ConstraintSyntaxError(f"{context}: unknown fields {sorted(unknown)}")
        try:
            xa, xb = body["xa"], body["xb"]
        except KeyError as exc:
            raise ConstraintSyntaxError(f"{context}: missing field {exc}") from None
        _require_ordinal(space, xa, context)
        _require_ordinal(space, xb, context)
        c = Inequality(ka=float(body.get("ka", 1.0)), xa=xa,
                       kb=float(body.get("kb", 1.0)), xb=xb,
                       t=float(body.get("t", 0.0)))
        if body.get("strict", False):
            c = Inequality(c.ka, c.xa, c.kb, c.xb,
                           c.t - _strictness_offset(space, c))
        return c
    if key == "cond":
        if not isinstance(body, dict) or set(body) != {"if", "then"}:
            raise ConstraintSyntaxError(
                f'{context}: expected {{"if": ..., "then": ...}}')
        condition = _parse_interval(space, body["if"], f"{context}/if")
        consequence = _parse_interval(space, body["then"], f"{context}/then")
        return Conditional(condition, consequence,
                           vacuity_margin=_vacuity_margin(space, condition))
    if key == "div":
        if not isinstance(body, dict) or set(body) != {"xa", "xb"}:
            raise ConstraintSyntaxError(f'{context}: expected {{"xa": ..., "xb": ...}}')
        pa = _require_ordinal(space, body["xa"], context)
        pb = _require_ordinal(space, body["xb"], context)
        for p in (pa, pb):
            if any(v <= 0 for v in p.values):
                raise ConstraintSyntaxError(
                    f"{context}: divisibility needs strictly positive values, "
                    f"parameter {p.name!r} has some <= 0")
        return Divisibility(body["xa"], body["xb"])
    raise ConstraintSyntaxError(f"{path}: unknown constraint kind {key!r}")


def parse_constraints(source, space: ParameterSpace) -> Conj:
    """Parse a constraint document (JSON text or dict) against a space.

    The root must be ``{"all": [...]}``.  Strict inequalities are rewritten
    with a grid-derived offset and conditionals get grid-derived vacuity
    margins, so the smooth relaxation keeps exact signs on the space.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConstraintSyntaxError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    else:
        data = source
    if not isinstance(data, dict) or set(data) != {"all"}:
        raise ConstraintSyntaxError('top level must be {"all": [...]}')
    node = _parse_node(space, data, "$")
    assert isinstance(node, Conj)
    return node


def load_constraints(path, space: ParameterSpace) -> Conj:
    from pathlib import Path

    return parse_constraints(Path(path).read_text(), space)
