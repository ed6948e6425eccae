"""The multi-start scaffold: local searches run in lockstep.

``lbfgsb_steps`` and ``slsqp_steps`` run one L-BFGS-B or SLSQP solve as a
generator over scipy's reverse-communication routines (``setulb`` and
``_slsqplib.slsqp``, which ``minimize`` drives): each yields the point where
it wants an evaluation, takes the answer through ``send`` and returns what
``minimize`` returns.  ``walk_steps``, a discrete walk, yields blocks of rank
rows.  ``lockstep`` answers what every live search wants with one batched
call; each ends where it ends alone if each row equals its batch of one.

Every scipy name aspo uses comes from here, ``gp``'s LAPACK routines too.
``_compiled`` runs their three compiled modules from their files: the same
code, without importing ``scipy.linalg`` or ``scipy.optimize``.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import PathFinder
from types import SimpleNamespace

import numpy as np


def _compiled(package: str, name: str):
    """``scipy.<package>.<name>``, run from its file without its package."""
    full, scipy = f"scipy.{package}.{name}", importlib.util.find_spec("scipy")
    spec = scipy and PathFinder.find_spec(
        full, [f"{d}/{package}" for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"no compiled module {full}", name=full)
    loaded = full in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:      # CPython registered it, and no package binds it
        sys.modules.pop(full, None)
    return module


_flapack = _compiled("linalg", "_flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
setulb = _compiled("optimize", "_lbfgsb").setulb
slsqp = _compiled("optimize", "_slsqplib").slsqp


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def lockstep(fun, solves: list) -> list:
    """Drive step generators together: ``fun`` maps what every live solve
    wants (a point, or a block of rows of one shape) to one answer each,
    and a ``None`` answer retires its solve.  Returns the solves' results
    in order, ``None`` for a retired one; ``fun``'s exceptions propagate."""
    wanted = {i: next(steps) for i, steps in enumerate(solves)}
    results = [None] * len(solves)
    while wanted:
        for i, answer in zip(list(wanted),
                             fun(np.array(list(wanted.values())))):
            if answer is None:
                del wanted[i]
                continue
            try:
                wanted[i] = solves[i].send(answer)
            except StopIteration as done:
                results[i] = done.value
                del wanted[i]
    return results


def lbfgsb_steps(x0, lo, hi, maxiter: int):
    """``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": maxiter})`` over the box ``lo``, ``hi`` as a
    generator: it yields each point where ``(f, g)`` is wanted, takes them
    through ``send`` and returns ``minimize``'s ``x``, ``fun``, ``nfev``,
    ``nit`` and ``status``.  ``x0`` is clipped and evaluated once, and a
    request at an unchanged point is answered from the last evaluation."""
    # minimize's defaults: 10 corrections, factr = ftol / eps at its default
    # ftol, pgtol 1e-5, 20 line-search steps and 15000 evaluations
    m, factr, maxfun = 10, 2.2204460492503131e-09 / np.finfo(float).eps, 15000
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n, memo_x = len(x), x.copy()
    memo, nfev, nit = (yield memo_x), 1, 0
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    task, ln_task, lsave, isave, iwa = (np.zeros(k, dtype=np.int32)
                                        for k in (2, 2, 4, 44, 3 * n))
    dsave, nbd = np.zeros(29), np.full(n, 2, dtype=np.int32)  # 2: both bounds
    while True:
        g = g.astype(np.float64)
        setulb(m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave,
               isave, dsave, 20, ln_task)
        if task[0] == 3:                    # f and g wanted at x
            if not (x == memo_x).all():
                memo_x = x.copy()
                memo, nfev = (yield memo_x), nfev + 1
            f, g = memo
        elif task[0] == 1:                  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > maxfun or nit >= maxiter else 2
    return SimpleNamespace(x=x, fun=f, nfev=nfev, nit=nit, status=status)


def slsqp_steps(x0, m: int, maxiter: int):
    """``minimize(fun, x0, jac=True, method="SLSQP", bounds=[(0, 1)] * n,
    options={"maxiter": maxiter, "ftol": 1e-8})`` under ``m`` (0 or 1)
    inequality constraints as a generator: it yields each point to
    evaluate, takes ``(f, g, (value, jacobian) or ())`` through ``send``
    and returns ``minimize``'s ``x``, ``fun``, ``nfev`` and ``status``.
    ``x0`` is clipped into the box.  State and buffers are laid out as
    ``_minimize_slsqp`` lays them out, and evaluations follow its
    ``ScalarFunction`` memo: a request at the last point evaluated is
    answered from it, ``nfev`` counts values handed to the solver at a new
    point, and a gradient wanted away from the last evaluation is evaluated
    without counting."""
    n, ftol = len(x0), 1e-8
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    state = dict.fromkeys(
        ("alpha", "f0", "gs", "h1", "h2", "h3", "h4", "t", "t0"), 0.0)
    state.update(acc=ftol, tol=10.0 * ftol, exact=0, inconsistent=0, reset=0,
                 iter=0, itermax=maxiter, line=0, m=m, meq=0, mode=0, n=n)
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
    # multipliers, bounds, workspace and index buffer
    work = (np.zeros(m + 2 * n + 2), np.zeros(n), np.ones(n),
            np.zeros(size + (m == 0) * 2 * n * (n + 1)),
            np.zeros(m + 2 * n + 2, dtype=np.int32))
    C, d = np.zeros((max(1, m), n), order="F"), np.zeros(max(1, m))
    # the last evaluation and its point; mode 0, before the first solver
    # call, hands over values and gradients alike
    memo_x, memo = x.tolist(), (yield x.copy())
    (fun, g, con), nfev, counted = memo, 1, True   # counted: f is in nfev
    if con:
        d[0], C[0] = con
    while True:
        slsqp(state, fun, g, C, d, x, *work)
        mode = state["mode"]
        if abs(mode) != 1:
            return SimpleNamespace(x=x, fun=fun, nfev=nfev, status=mode)
        if x.tolist() != memo_x:    # np.array_equal, NaN and -0.0 included
            memo_x, counted = x.tolist(), False
            memo = yield x.copy()
        f, grad, con = memo
        if mode == 1:                   # the objective and constraint values
            fun, nfev, counted = f, nfev + (not counted), True
            if con:
                d[0] = con[0]
        else:                           # mode -1: their gradients
            g = grad
            if con:
                C[0] = con[1]


def walk_steps(counts, ranks, value: float, max_steps: int):
    """Best-improvement walk over single-parameter moves as a generator.

    From ``ranks``, a rank row array scoring ``value``, each step yields every
    move of one parameter to another of its ``counts`` values, in (parameter,
    value) order, as one ``(sum(counts) - len(counts), P)`` block, and takes
    their scores through ``send``.  It adopts the first best move, only on a
    strict gain, and returns the final row and score within ``max_steps``.
    """
    param = np.repeat(np.arange(len(counts)), counts)
    rank = np.concatenate([np.arange(c) for c in counts])
    for _ in range(max_steps):
        moves = np.tile(ranks, (len(param), 1))
        moves[np.arange(len(param)), param] = rank
        moves = moves[rank != ranks[param]]
        scores = yield moves
        if not len(moves):          # every parameter is single-valued
            break
        best = int(np.argmax(scores))
        if not scores[best] > value:
            break
        ranks, value = moves[best], float(scores[best])
    return ranks, value
