"""Gaussian-process regression over encoded design points.

The covariance is an ARD Matern-5/2 composed with the categorical snap
transformation: both arguments are projected onto their nearest admissible
vertex before the base kernel is evaluated.  Two points that snap to the same
configuration are therefore perfectly correlated, which collapses the
posterior variance there to the noise floor and stops the acquisition from
re-proposing designs that have already been synthesized.

Targets are standardized to zero mean / unit variance internally; predictions
are returned in original units.  Inputs with equal rank rows are merged by
averaging their targets and inflating the merged point's noise by the group
variance, keeping the Gram matrix well conditioned.

Pair differences are held feature-major, ``(D, n, n)`` or ``(D, rows, n)``,
so per-dimension work runs over long contiguous rows, and the radius adds
the dimensions up row after row: an entry's bits do not depend on where it
sits, except a lone entry (one row, one input), which numpy sums pairwise.

Hyperparameters come from one L-BFGS-B solve per fit, started at the given
(or default) hyperparameters and run on the scaffold in ``solvers``, which
ends it where ``minimize`` would.  Its likelihood closure scores one theta
at a time, with one ``dpotrf`` and two ``dpotrs`` calls.
One batched posterior, for the vertex scores and the relaxed gradients,
takes one kernel matrix, one ``dpotrs`` and per-row sums: from two training
inputs on, each row of a batch equals its batch of one bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .solvers import dpotrf, dpotrs, lbfgsb_steps, lockstep
from .solvers import minimize  # noqa: F401  (lazy; perfbench/spans.py wraps it)
from .space import ParameterSpace, encode_ranks, point_ranks, snap

logger = logging.getLogger(__name__)

SQRT5 = np.sqrt(5.0)

# log-space box for hyperparameter search; the noise floor sits lower than the
# generic box so noise-free synthetic data can be interpolated tightly
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_BOUNDS = (1e-3, 1e3)
NOISE_BOUNDS = (1e-8, 1e1)

MAX_JITTER = 1e-2

#: L-BFGS-B iteration cap per fit
FIT_MAXITER = 60


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


def _differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C-contiguous feature-major differences: ``A[i] - B[j]`` at [:, i, j]."""
    return np.subtract(A.T[:, :, None], B.T[:, None, :], order="C")


def _matern_terms(ell, sv, diff: np.ndarray, scaled_sq=None):
    """(K, 1 + sqrt5 r, exp(-sqrt5 r), scaled_sq) at feature-major ``diff``
    (D, ...), ``ell`` and ``sv`` broadcasting against it and the radius,
    ``scaled_sq`` optionally an output buffer.  Each dimension's divide and
    square runs over one contiguous row, and the radius sums the rows one
    after another."""
    scaled_sq = np.divide(diff, ell, out=scaled_sq)
    np.multiply(scaled_sq, scaled_sq, out=scaled_sq)        # ** 2
    r = np.sqrt(scaled_sq.sum(axis=0))
    expo, lin = np.exp(-SQRT5 * r), 1 + SQRT5 * r
    return sv * (lin + 5 * r * r / 3) * expo, lin, expo, scaled_sq


def _matern52(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Base kernel matrix between row sets A (n x D) and B (m x D)."""
    return _matern_terms(params.lengthscales[:, None, None],
                         params.signal_variance, _differences(A, B))[0]


def kernel_value(space: ParameterSpace, params: KernelParams, x, y) -> float:
    """Snap-composed covariance between two encoded points."""
    return float(_matern52(params, snap(space, x)[None, :],
                           snap(space, y)[None, :])[0, 0])


def gram_matrix(space: ParameterSpace, params: KernelParams, points) -> np.ndarray:
    """Snap-composed Gram matrix of a point set."""
    snapped = snap(space, points)
    return _matern52(params, snapped, snapped)


def _cholesky_with_escalation(K: np.ndarray, jitter: float):
    """Lower Cholesky factor of K + jitter*I, escalating jitter tenfold.

    Returns (L, jitter_used); raises NumericalError on a non-finite K or
    past the escalation cap.
    """
    if not np.isfinite(K).all():    # jitter cannot help
        raise NumericalError("Cholesky input is not finite")
    j = jitter
    while j <= MAX_JITTER:
        L, info = dpotrf(K + j * np.eye(K.shape[0]), lower=1, clean=1)
        if not info:
            return L, j
        j *= 10
    raise NumericalError(
        f"Cholesky failed with jitter escalated to {MAX_JITTER}")


def _likelihood(diff, y, extra_noise, jitter):
    """Negative log marginal likelihood and its log-space gradient at theta
    (D+2,) = log([lengthscales (D), signal_variance, noise_variance]), as a
    closure over feature-major ``diff`` (D, n, n).  A failed Cholesky gives
    a large penalty, so line searches back off.  A kernel not finite raises
    ``NumericalError`` before the Cholesky, and so does, after it, a
    likelihood not finite."""
    n, D = len(y), len(diff)
    diff = np.ascontiguousarray(diff)
    eye = np.eye(n)
    log_norm = 0.5 * n * np.log(2 * np.pi)
    terms = np.empty_like(diff)

    def nll_and_grad(theta):
        e = np.exp(theta)
        sv, nv = e[D], e[D + 1]
        K_sig, lin, expo, scaled_sq = _matern_terms(
            e[:D, None, None], sv, diff, terms)
        K = K_sig.copy()
        K.flat[::n + 1] += nv + extra_noise
        K.flat[::n + 1] += jitter
        if not np.isfinite(K).all():
            raise NumericalError("likelihood kernel is not finite")
        L, info = dpotrf(K, lower=1, clean=1)
        if info:
            return 1e25, np.zeros(D + 2)
        alpha = dpotrs(L, y, lower=1)[0]
        nll = 0.5 * (alpha * y).sum() + np.log(L.diagonal()).sum() + log_norm
        if not np.isfinite(nll):
            raise NumericalError("likelihood is not finite")

        B = alpha[:, None] * alpha[None, :] - dpotrs(L, eye, lower=1)[0]
        # common factor of the Matern-5/2 radial derivative, with r
        # cancelled: d K / d log ell_j = radial * scaled_sq[j]
        radial = (5.0 / 3.0) * sv * lin * expo
        np.multiply(radial, scaled_sq, out=scaled_sq)
        np.multiply(scaled_sq, B, out=scaled_sq)
        grad = np.empty(D + 2)
        grad[:D] = -0.5 * scaled_sq.reshape(D, n * n).sum(axis=1)
        grad[D] = -0.5 * (B * K_sig).sum()
        grad[D + 1] = -0.5 * nv * np.trace(B)
        return float(nll), grad

    return nll_and_grad


def log_marginal_likelihood(space, params: KernelParams, inputs, targets,
                            extra_noise=None):
    """LML and its gradient wrt log(lengthscales, signal, noise).

    Inputs are snapped first; targets are used as given (callers standardize).
    """
    X = snap(space, inputs)
    y = np.asarray(targets, dtype=float)
    extra = np.zeros(len(y)) if extra_noise is None else np.asarray(extra_noise)
    theta = np.concatenate([np.log(params.lengthscales),
                            [np.log(params.signal_variance),
                             np.log(max(params.noise_variance, 1e-300))]])
    nll, grad = _likelihood(_differences(X, X), y, extra, params.jitter)(theta)
    return -nll, -grad


def _merge_duplicates(ranks: np.ndarray, y: np.ndarray):
    """Average the targets of equal rank rows; inflate their noise.

    Returns (keep, y_mean, extra_noise) per distinct row, first-seen order.
    """
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(ranks):
        groups.setdefault(row.tobytes(), []).append(i)
    keep, means, extras = [], [], []
    for idx in groups.values():
        vals = y[idx]
        keep.append(idx[0])
        means.append(float(vals.mean()))
        extras.append(float(vals.var()) if len(idx) > 1 else 0.0)
    return keep, np.asarray(means), np.asarray(extras)


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
        self.alpha = dpotrs(self.L, self.y_std, lower=1)[0]

    def duplicate_sigma_floor(self) -> float:
        """Posterior sigma at (near-)duplicates of training inputs, original units.

        Queries at or below this floor carry no new information.
        """
        return float(np.sqrt(self.params.noise_variance + 10 * self.jitter_used)
                     * self.target_std)

    def predict(self, x):
        """Posterior (mean, variance) at one encoded point, original units.

        The query is projected onto its vertex first, so any two points with
        the same snap get bitwise-identical predictions.
        """
        mean, var = self.posterior(snap(self.space, x)[None, :])
        return float(mean[0]), float(var[0])

    def predict_with_gradient(self, x):
        """Relaxed posterior and its gradient: (mean, var, dmean, dvar)."""
        mean, var, dmean, dvar = self.posterior(
            np.asarray(x, dtype=float)[None, :], gradient=True)
        return float(mean[0]), float(var[0]), dmean[0], dvar[0]

    def posterior(self, Q: np.ndarray, gradient: bool = False):
        """Posterior means and variances (rows,) at the rows of ``Q``, as
        given, in original units; with ``gradient``, also their gradients
        (rows, D).  One multi-right-hand-side ``dpotrs`` gives W = K^-1 k
        for every row, solving each column on its own."""
        sv, s = self.params.signal_variance, self.target_std
        ell = self.params.lengthscales[:, None, None]
        diff = _differences(Q, self.X)
        K, lin, expo, dK = _matern_terms(ell, sv, diff)
        W, info = dpotrs(self.L, K.T, lower=1)
        if info:
            raise NumericalError(f"Cholesky solve failed (info {info})")
        var_std = sv - (K * W.T).sum(axis=1)
        for v in var_std[var_std < -1e-10].tolist():
            logger.warning("negative posterior variance %.3e clamped", v)
        mean = (K * self.alpha).sum(axis=1) * s + self.target_mean
        var = np.where(0.0 > var_std, 0.0, var_std) * s * s
        if not gradient:
            return mean, var
        # d k_i / d x_j (Matern r cancelled) in reused (D, rows, n) buffers
        np.multiply(-(5.0 / 3.0) * sv * lin * expo, diff, out=dK)
        np.divide(dK, ell ** 2, out=dK)
        return (mean, var, np.multiply(dK, self.alpha, out=diff).sum(-1).T * s,
                -2.0 * np.multiply(dK, W.T, out=diff).sum(-1).T * s * s)


def fit(space: ParameterSpace, inputs, targets, init: KernelParams | None = None,
        *, optimize: bool = True, seed: int = 0) -> GpModel:
    """Fit a model, maximizing marginal likelihood by L-BFGS-B from ``init``.

    One ``solvers.lbfgsb_steps`` solve (``FIT_MAXITER`` iterations at most),
    run by ``solvers.lockstep``, starts at ``init`` (or the defaults) and
    ends where ``minimize`` would.  A non-finite likelihood raises
    ``NumericalError``.  ``seed`` is not read: a fit has one start, and no
    random draw.
    Inputs with equal ``point_ranks`` rows merge into the first.
    With ``optimize=False`` the given hyperparameters are used as-is (this is
    the only mode that accepts a single training point, and the way to pin
    ``noise_variance=0`` for exact interpolation).
    """
    y_raw = np.asarray(targets, dtype=float)
    if len(inputs) != len(y_raw):
        raise ValueError("inputs and targets length mismatch")
    if len(y_raw) < (2 if optimize else 1):
        raise ValueError("need at least 2 training points to fit "
                         "(1 with optimize=False)")
    ranks = point_ranks(space, inputs)
    keep, y_mean, extra_raw = _merge_duplicates(ranks, y_raw)
    X = encode_ranks(space, ranks[keep])

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
    start = np.log([*init.lengthscales, init.signal_variance,
                    max(init.noise_variance, NOISE_BOUNDS[0])])
    nll_and_grad = _likelihood(_differences(X, X), y, extra, init.jitter)
    run, = lockstep(lambda thetas: map(nll_and_grad, thetas),
                    [lbfgsb_steps(start, lo, hi, FIT_MAXITER)])
    params = KernelParams(lengthscales=np.exp(run.x[:D]),
                          signal_variance=float(np.exp(run.x[D])),
                          noise_variance=float(np.exp(run.x[D + 1])),
                          jitter=init.jitter)
    return GpModel(space, params, X, y_mean, extra, mean, std)
