"""Gaussian-process regression over encoded design points.

The covariance is an ARD Matern-5/2 composed with the categorical snap
transformation: both arguments are projected onto their nearest admissible
vertex before the base kernel is evaluated.  Two points that snap to the same
configuration are therefore perfectly correlated, which collapses the
posterior variance there to the noise floor and stops the acquisition from
re-proposing designs that have already been synthesized.

Targets are standardized to zero mean / unit variance internally; predictions
are returned in original units.  Duplicate snapped inputs are merged by
averaging their targets and inflating the merged point's noise by the group
variance, keeping the Gram matrix well conditioned.

Hyperparameters come from L-BFGS-B restarts run by ``lbfgsb``, which drives
scipy's ``setulb`` directly and ends where ``minimize`` would.  The
likelihood calls LAPACK itself and takes every lengthscale gradient from one
``(n, n, D)`` product, bit for bit as scipy's wrappers and a loop would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import OptimizeResult
from scipy.optimize import minimize  # noqa: F401  (perfbench/spans.py wraps it)
from scipy.optimize._lbfgsb import setulb

from .errors import NumericalError
from .space import ParameterSpace, snap

logger = logging.getLogger(__name__)

SQRT5 = np.sqrt(5.0)

# log-space box for hyperparameter search; the noise floor sits lower than the
# generic box so noise-free synthetic data can be interpolated tightly
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_BOUNDS = (1e-3, 1e3)
NOISE_BOUNDS = (1e-8, 1e1)

MAX_JITTER = 1e-2

#: L-BFGS-B restarts per fit: the initial hyperparameters, then seeded draws
FIT_RESTARTS = 5


@dataclass
class KernelParams:
    """ARD Matern-5/2 hyperparameters (one lengthscale per encoded dimension)."""

    lengthscales: np.ndarray
    signal_variance: float = 1.0
    noise_variance: float = 1e-6
    jitter: float = 1e-8

    def __post_init__(self):
        self.lengthscales = np.asarray(self.lengthscales, dtype=float)
        if np.any(self.lengthscales <= 0):
            raise ValueError("lengthscales must be positive")
        if self.signal_variance <= 0:
            raise ValueError("signal variance must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be non-negative")
        if self.jitter <= 0:
            raise ValueError("jitter must be positive")

    @classmethod
    def default(cls, dim: int) -> "KernelParams":
        return cls(lengthscales=np.full(dim, 0.5))


def _matern_terms(ell, sv, diff: np.ndarray):
    """Matern-5/2 at differences ``diff``: (K, r, exp(-sqrt5 r), scaled_sq)."""
    scaled_sq = (diff / ell) ** 2
    r = np.sqrt(np.sum(scaled_sq, axis=-1))
    expo = np.exp(-SQRT5 * r)
    return sv * (1 + SQRT5 * r + 5 * r * r / 3) * expo, r, expo, scaled_sq


def _matern52(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Base kernel matrix between row sets A (n x D) and B (m x D)."""
    return _matern_terms(params.lengthscales, params.signal_variance,
                         A[:, None, :] - B[None, :, :])[0]


def kernel_value(space: ParameterSpace, params: KernelParams, x, y) -> float:
    """Snap-composed covariance between two encoded points."""
    xs = snap(space, x)
    ys = snap(space, y)
    return float(_matern52(params, xs[None, :], ys[None, :])[0, 0])


def gram_matrix(space: ParameterSpace, params: KernelParams, points) -> np.ndarray:
    """Snap-composed Gram matrix of a point set."""
    snapped = np.stack([snap(space, p) for p in points])
    return _matern52(params, snapped, snapped)


def _cholesky_with_escalation(K: np.ndarray, jitter: float):
    """Lower Cholesky factor of K + jitter*I, escalating jitter tenfold.

    Returns (L, jitter_used); raises NumericalError past the escalation cap.
    """
    j = jitter
    while j <= MAX_JITTER:
        try:
            L = cholesky(K + j * np.eye(K.shape[0]), lower=True)
            return L, j
        except np.linalg.LinAlgError:
            j *= 10
        except ValueError as exc:  # non-finite entries: jitter cannot help
            raise NumericalError(f"Cholesky input is not finite: {exc}") from exc
    raise NumericalError(
        f"Cholesky failed with jitter escalated to {MAX_JITTER}")


def _nll_and_grad(theta, diff, y, extra_noise, jitter):
    """Negative log marginal likelihood and its gradient in log-space.

    theta = log([lengthscales (D), signal_variance, noise_variance]); ``diff``
    holds the input pairs' differences.  Returns a large penalty on Cholesky
    failure so line searches back off; raises ``NumericalError`` when the
    kernel or the likelihood is not finite.  The LAPACK calls are those
    ``cholesky`` and ``cho_solve`` make.
    """
    n, D = len(y), diff.shape[-1]
    ell = np.exp(theta[:D])
    sv = np.exp(theta[D])
    nv = np.exp(theta[D + 1])

    K_sig, r, expo, scaled_sq = _matern_terms(ell, sv, diff)
    K = K_sig + np.diag(nv + extra_noise) + jitter * np.eye(n)
    if not np.isfinite(K).all():
        raise NumericalError("likelihood kernel is not finite")
    L, info = dpotrf(K, lower=1, clean=1)
    if info:
        return 1e25, np.zeros_like(theta)
    alpha = dpotrs(L, y, lower=1)[0]
    nll = 0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2 * np.pi)
    if not np.isfinite(nll):
        raise NumericalError("likelihood is not finite")

    B = np.outer(alpha, alpha) - dpotrs(L, np.eye(n), lower=1)[0]
    # common factor of the Matern-5/2 radial derivative, with r cancelled:
    # d K / d log ell_j = radial * scaled_sq[..., j].  Each j sums its own
    # contiguous row, as np.sum over one n x n product would.
    radial = (5.0 / 3.0) * sv * (1 + SQRT5 * r) * expo
    terms = B[..., None] * (radial[..., None] * scaled_sq)
    grad = np.empty_like(theta)
    grad[:D] = -0.5 * np.ascontiguousarray(terms.reshape(n * n, D).T).sum(axis=1)
    grad[D] = -0.5 * np.sum(B * K_sig)
    grad[D + 1] = -0.5 * nv * np.trace(B)
    return float(nll), grad


def log_marginal_likelihood(space, params: KernelParams, inputs, targets,
                            extra_noise=None):
    """LML and its gradient wrt log(lengthscales, signal, noise).

    Inputs are snapped first; targets are used as given (callers standardize).
    """
    X = np.stack([snap(space, p) for p in inputs])
    y = np.asarray(targets, dtype=float)
    extra = np.zeros(len(y)) if extra_noise is None else np.asarray(extra_noise)
    theta = np.concatenate([np.log(params.lengthscales),
                            [np.log(params.signal_variance),
                             np.log(max(params.noise_variance, 1e-300))]])
    nll, grad = _nll_and_grad(theta, X[:, None, :] - X[None, :, :], y, extra,
                              params.jitter)
    return -nll, -grad


def _merge_duplicates(X: np.ndarray, y: np.ndarray):
    """Average targets of identical snapped rows; inflate their noise.

    Returns (X_unique, y_mean, extra_noise) preserving first-seen order.
    """
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(X):
        groups.setdefault(tuple(np.round(row, 12)), []).append(i)
    keep = []
    means = []
    extras = []
    for key, idx in groups.items():
        vals = y[idx]
        keep.append(idx[0])
        means.append(float(vals.mean()))
        extras.append(float(vals.var()) if len(idx) > 1 else 0.0)
    return X[keep], np.asarray(means), np.asarray(extras)


class GpModel:
    """Immutable fitted model; safe to query from many threads."""

    def __init__(self, space: ParameterSpace, params: KernelParams,
                 X: np.ndarray, targets: np.ndarray, extra_noise: np.ndarray,
                 target_mean: float, target_std: float):
        self.space = space
        self.params = params
        self.X = X
        self.targets = targets              # merged, original units
        self.extra_noise = extra_noise      # standardized units
        self.target_mean = target_mean
        self.target_std = target_std
        self.y_std = (targets - target_mean) / target_std
        K = _matern52(params, X, X) + np.diag(params.noise_variance + extra_noise)
        self.L, self.jitter_used = _cholesky_with_escalation(K, params.jitter)
        self.alpha = cho_solve((self.L, True), self.y_std)

    @property
    def n_train(self) -> int:
        return len(self.X)

    def duplicate_sigma_floor(self) -> float:
        """Posterior sigma at (near-)duplicates of training inputs, original units.

        Queries at or below this floor carry no new information.
        """
        return float(np.sqrt(self.params.noise_variance + 10 * self.jitter_used)
                     * self.target_std)

    def _posterior(self, k: np.ndarray):
        """Posterior (mean, variance) in original units from a kernel row."""
        mean_std = float(k @ self.alpha)
        # the LAPACK call solve_triangular makes for a lower factor in
        # Fortran order, as cholesky returns it
        v, info = dtrtrs(self.L, k, lower=1)
        if info:
            raise NumericalError(f"triangular solve failed (info {info})")
        var_std = self.params.signal_variance - float(v @ v)
        if var_std < -1e-10:
            logger.warning("negative posterior variance %.3e clamped", var_std)
        var_std = max(var_std, 0.0)
        return (mean_std * self.target_std + self.target_mean,
                var_std * self.target_std ** 2)

    def predict(self, x):
        """Posterior (mean, variance) at one encoded point, original units.

        The query is projected onto its vertex first, so any two points with
        the same snap get bitwise-identical predictions.
        """
        return self.predict_batch(snap(self.space, x)[None, :])[0]

    def predict_batch(self, Q: np.ndarray) -> list[tuple[float, float]]:
        """Posterior (mean, variance) at every row of ``Q``, taken as given.

        One kernel matrix serves the whole batch.  The mean and the
        triangular solve then run row by row through the same dot and LAPACK
        calls, so each row equals its batch of one bit for bit; a
        matrix-vector product or a multi-right-hand-side solve would sum in
        another order.
        """
        return [self._posterior(k) for k in _matern52(self.params, Q, self.X)]

    def predict_with_gradient(self, x):
        """Relaxed posterior and its gradient: (mean, var, dmean, dvar)."""
        return self.predict_with_gradient_batch(
            np.asarray(x, dtype=float)[None, :])[0]

    def predict_with_gradient_batch(self, Q: np.ndarray) -> list[tuple]:
        """``predict_with_gradient`` at every row of ``Q``, bit for bit.

        One kernel matrix and one gradient tensor serve the batch; the dot
        products and the Cholesky solve then run row by row, as in
        ``predict_batch``.
        """
        diff = Q[:, None, :] - self.X[None, :, :]
        K = _matern_terms(self.params.lengthscales,
                          self.params.signal_variance, diff)[0]
        # d k_i / d x_j, with the Matern radial term's r cancelled.  This r
        # and its exp round differently from the kernel's; sharing those
        # changes trajectories, so it waits for a fixture re-record.
        ell2 = self.params.lengthscales ** 2
        r = np.sqrt(np.sum(diff ** 2 / ell2, axis=-1))
        coef = -(5.0 / 3.0) * self.params.signal_variance \
            * (1 + SQRT5 * r) * np.exp(-SQRT5 * r)
        dK = coef[..., None] * diff / ell2        # (rows, n, D)

        s = self.target_std
        out = []
        for k, dk in zip(K, dK):
            mean_std = float(k @ self.alpha)
            w, info = dpotrs(self.L, k, lower=1)   # the call cho_solve makes
            if info:
                raise NumericalError(f"Cholesky solve failed (info {info})")
            var_std = max(self.params.signal_variance - float(k @ w), 0.0)
            dmean = dk.T @ self.alpha
            dvar = -2.0 * (dk.T @ w)
            out.append((mean_std * s + self.target_mean, var_std * s * s,
                        dmean * s, dvar * s * s))
        return out


def lbfgsb(fun, x0, lo, hi, maxiter: int) -> OptimizeResult:
    """``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": maxiter})`` over the box of float arrays ``lo`` and
    ``hi``, without its wrappers: the same ``x``, ``fun``, ``nfev``, ``nit``
    and ``status``.

    Drives scipy's ``setulb`` in reverse communication as ``minimize`` does:
    ``x0`` is clipped and evaluated once, a request at an unchanged point is
    answered from the last evaluation, and ``nit`` counts new iterates.
    """
    # minimize's defaults: 10 corrections, factr = ftol / eps at its default
    # ftol, pgtol 1e-5, 20 line-search steps and 15000 evaluations
    m, factr, maxfun = 10, 2.2204460492503131e-09 / np.finfo(float).eps, 15000
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n, memo_x = len(x), x.copy()
    memo, nfev, nit = fun(memo_x), 1, 0
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
                memo, nfev = fun(memo_x), nfev + 1
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
    return OptimizeResult(x=x, fun=f, nfev=nfev, nit=nit, status=status)


def fit(space: ParameterSpace, inputs, targets, init: KernelParams | None = None,
        *, optimize: bool = True, seed: int = 0) -> GpModel:
    """Fit a model, maximizing marginal likelihood by multi-start L-BFGS-B.

    Restart 0 begins at ``init`` (or the defaults), the rest at seeded
    log-uniform draws; ties between restarts resolve to the lowest index.
    The restarts run one after another, each through ``lbfgsb`` (60
    iterations at most), which ends where ``minimize`` would.
    With ``optimize=False`` the given hyperparameters are used as-is (this is
    the only mode that accepts a single training point, and the way to pin
    ``noise_variance=0`` for exact interpolation).
    """
    X_raw = np.stack([snap(space, p) for p in inputs])
    y_raw = np.asarray(targets, dtype=float)
    if X_raw.shape[0] != y_raw.shape[0]:
        raise ValueError("inputs and targets length mismatch")
    if X_raw.shape[0] < (2 if optimize else 1):
        raise ValueError("need at least 2 training points to fit "
                         "(1 with optimize=False)")
    X, y_mean, extra_raw = _merge_duplicates(X_raw, y_raw)

    mean = float(y_mean.mean())
    std = float(y_mean.std())
    if std < 1e-12:
        std = 1.0
    y = (y_mean - mean) / std
    extra = extra_raw / std ** 2

    D = space.encoded_dim
    init = init or KernelParams.default(D)
    if not optimize:
        return GpModel(space, init, X, y_mean, extra, mean, std)

    lo = np.log([*([LENGTHSCALE_BOUNDS[0]] * D), SIGNAL_BOUNDS[0], NOISE_BOUNDS[0]])
    hi = np.log([*([LENGTHSCALE_BOUNDS[1]] * D), SIGNAL_BOUNDS[1], NOISE_BOUNDS[1]])

    def start_point(r: int) -> np.ndarray:
        if r == 0:
            return np.concatenate([
                np.log(init.lengthscales),
                [np.log(init.signal_variance),
                 np.log(np.clip(init.noise_variance, NOISE_BOUNDS[0], None))]])
        rng = np.random.default_rng([seed, r])
        return np.concatenate([
            rng.uniform(np.log(0.05), np.log(5.0), size=D),
            [rng.uniform(np.log(0.1), np.log(10.0)),
             rng.uniform(np.log(1e-7), np.log(1e-2))]])

    diff = X[:, None, :] - X[None, :, :]
    best = None
    for r in range(FIT_RESTARTS):
        res = lbfgsb(lambda t: _nll_and_grad(t, diff, y, extra, init.jitter),
                     start_point(r), lo, hi, 60)
        if best is None or res.fun < best.fun:
            best = res

    theta = best.x
    params = KernelParams(lengthscales=np.exp(theta[:D]),
                          signal_variance=float(np.exp(theta[D])),
                          noise_variance=float(np.exp(theta[D + 1])),
                          jitter=init.jitter)
    return GpModel(space, params, X, y_mean, extra, mean, std)
