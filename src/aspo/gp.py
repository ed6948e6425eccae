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

Pair differences are held feature-major, ``(D, n, n)`` or ``(D, rows, n)``,
so per-dimension work runs over long contiguous rows, summed in the order
numpy sums a contiguous last axis: every entry keeps its ``(n, n, D)`` bits.

Hyperparameters come from L-BFGS-B restarts run on the multi-start
scaffold in ``solvers``, which ends each restart where ``minimize`` would.
Each fit builds one likelihood closure that scores every live restart in
one stacked pass, calling LAPACK row by row as scipy's wrappers would.
Posteriors are batched over query rows with stacked dots.  Each row of a
batch equals its batch of one bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize  # noqa: F401  (perfbench/spans.py wraps it)

from .errors import NumericalError
from .solvers import lbfgsb_steps, lockstep
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
#: L-BFGS-B iteration cap per restart
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


def _pairwise_rows(S: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of ``S`` as ``np.add.reduce`` sums a
    contiguous axis (up to the sign of a zero): term by term below 8 terms,
    else 8 running sums paired as a tree, then the rest; halves above 128."""
    m = len(S)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_rows(S[:half]) + _pairwise_rows(S[half:])
    if m < 8:
        out, rest = S[0].copy(), S[1:]
    else:
        r = S[:8]
        for i in range(8, m - m % 8, 8):
            r = r + S[i:i + 8]
        r = r[0::2] + r[1::2]
        out, rest = r[0] + r[1] + (r[2] + r[3]), S[m - m % 8:]
    for row in rest:
        out += row
    return out


def _differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C-contiguous feature-major differences: ``A[i] - B[j]`` at [:, i, j]."""
    return np.subtract(A.T[:, :, None], B.T[:, None, :], order="C")


def _matern_terms(ell, sv, diff: np.ndarray, scaled_sq=None):
    """(K, 1 + sqrt5 r, exp(-sqrt5 r), scaled_sq) at feature-major ``diff``
    (D, ...), ``ell`` and ``sv`` broadcasting against it and the radius,
    ``scaled_sq`` optionally an output buffer.  Each dimension's divide and
    square runs over one contiguous row.  The radius sum's order sets its
    last bits: ``_pairwise_rows`` repeats numpy's pairwise sum over an
    (a, b, D) last axis, which adding row after row misses from D = 8 on."""
    scaled_sq = np.divide(diff, ell, out=scaled_sq)
    np.multiply(scaled_sq, scaled_sq, out=scaled_sq)        # ** 2
    r = np.sqrt(_pairwise_rows(scaled_sq))
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
    snapped = np.stack([snap(space, p) for p in points])
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
    """Negative log marginal likelihood and its log-space gradient, one
    ``(nll, grad)`` per row of theta (R, D+2) = log([lengthscales (D),
    signal_variance, noise_variance]), as a closure over feature-major
    ``diff`` (D, n, n).  Matern arithmetic and gradient products run once
    over (D, R, n, n), the ``dpotrf`` and ``dpotrs`` calls row by row: each
    row keeps its bits alone.  A failed Cholesky gives its row a large
    penalty, so line searches back off.  Rows are checked in order, kernel
    first: the first not finite raises ``NumericalError``."""
    n, D = len(y), len(diff)
    diff = np.ascontiguousarray(diff)[:, None]     # (D, 1, n, n)
    eye = np.eye(n)
    log_norm = 0.5 * n * np.log(2 * np.pi)
    terms = np.empty((D, 0, n, n))

    def nll_and_grad(theta):
        nonlocal terms
        R = len(theta)
        if terms.shape[1] < R:          # a buffer for the widest batch yet
            terms = np.empty((D, R, n, n))
        e = np.exp(theta)
        sv, nv = e[:, D, None, None], e[:, D + 1]
        K_sig, lin, expo, scaled_sq = _matern_terms(
            e[:, :D].T[:, :, None, None], sv, diff, terms[:, :R])
        K = K_sig.copy()
        diagonal = K.reshape(R, n * n)[:, ::n + 1]     # a view: each diagonal
        np.add(diagonal, nv[:, None] + extra_noise, out=diagonal)
        np.add(diagonal, jitter, out=diagonal)
        finite = np.isfinite(K).reshape(R, n * n).all(axis=1)

        alpha, L_diag = np.zeros((R, n)), np.ones((R, n))
        inverse, failed = np.zeros((R, n, n)), np.zeros(R, dtype=bool)
        for i in range(R if finite.all() else int(np.argmin(finite))):
            L, info = dpotrf(K[i], lower=1, clean=1)
            if info:
                failed[i] = True
                continue
            alpha[i], L_diag[i] = dpotrs(L, y, lower=1)[0], L.diagonal()
            inverse[i] = dpotrs(L, eye, lower=1)[0]
        nll = 0.5 * _row_dots(alpha, y) + np.log(L_diag).sum(axis=1) + log_norm
        for i in range(R):
            if not finite[i]:
                raise NumericalError("likelihood kernel is not finite")
            if not (failed[i] or np.isfinite(nll[i])):
                raise NumericalError("likelihood is not finite")

        B = alpha[:, :, None] * alpha[:, None, :] - inverse
        # common factor of the Matern-5/2 radial derivative, with r
        # cancelled: d K / d log ell_j = radial * scaled_sq[j]
        radial = (5.0 / 3.0) * sv * lin * expo
        np.multiply(radial, scaled_sq, out=scaled_sq)
        np.multiply(scaled_sq, B, out=scaled_sq)
        grad = np.empty((R, D + 2))
        grad[:, :D] = (-0.5 * scaled_sq.reshape(D, R, n * n).sum(axis=2)).T
        grad[:, D] = -0.5 * (B * K_sig).reshape(R, n * n).sum(axis=1)
        grad[:, D + 1] = -0.5 * nv * np.trace(B, axis1=1, axis2=2)
        nll[failed], grad[failed] = 1e25, 0.0
        return list(zip(nll.tolist(), grad))

    return nll_and_grad


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
    (nll, grad), = _likelihood(_differences(X, X), y, extra,
                               params.jitter)(theta[None, :])
    return -nll, -grad


def _merge_duplicates(X: np.ndarray, y: np.ndarray):
    """Average targets of identical snapped rows; inflate their noise.

    Returns (X_unique, y_mean, extra_noise) preserving first-seen order.
    """
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
        mean, var = self.predict_batch(snap(self.space, x)[None, :])
        return float(mean[0]), float(var[0])

    def predict_batch(self, Q: np.ndarray):
        """Posterior means and variances at the rows of ``Q``, as given.  The
        triangular solve (``solve_triangular``'s LAPACK call) runs row by
        row: one multi-right-hand-side ``dtrtrs`` would round differently."""
        K = _matern52(self.params, Q, self.X)
        V = np.empty_like(K)
        for i, k in enumerate(K):
            V[i], info = dtrtrs(self.L, k, lower=1)
            if info:
                raise NumericalError(f"triangular solve failed (info {info})")
        var_std = self.params.signal_variance - _row_dots(V, V)
        for v in var_std[var_std < -1e-10].tolist():
            logger.warning("negative posterior variance %.3e clamped", v)
        return (_row_dots(K, self.alpha) * self.target_std + self.target_mean,
                np.where(0.0 > var_std, 0.0, var_std) * self.target_std ** 2)

    def predict_with_gradient(self, x):
        """Relaxed posterior and its gradient: (mean, var, dmean, dvar)."""
        mean, var, dmean, dvar = self.predict_with_gradient_arrays(
            np.asarray(x, dtype=float)[None, :])
        return float(mean[0]), float(var[0]), dmean[0], dvar[0]

    def predict_with_gradient_arrays(self, Q: np.ndarray):
        """Relaxed means and variances (rows,) and their gradients (rows, D)
        at the rows of ``Q``.  One multi-right-hand-side ``dpotrs`` solves
        each column on its own."""
        diff = _differences(Q, self.X)
        K = _matern_terms(self.params.lengthscales[:, None, None],
                          self.params.signal_variance, diff)[0]
        # d k_i / d x_j, with the Matern radial term's r cancelled.  This r
        # and its exp round differently from the kernel's; sharing those
        # changes trajectories, so it waits for a fixture re-record.
        ell2 = (self.params.lengthscales ** 2)[:, None, None]
        r = np.sqrt(_pairwise_rows(diff ** 2 / ell2))
        coef = -(5.0 / 3.0) * self.params.signal_variance \
            * (1 + SQRT5 * r) * np.exp(-SQRT5 * r)
        # (rows, D, n) over (rows, n, D) memory: the stacked matmul below
        # sums a C-contiguous (rows, D, n) operand in another order
        dKt = np.ascontiguousarray((coef * diff / ell2).transpose(1, 2, 0)) \
            .transpose(0, 2, 1)
        W, info = dpotrs(self.L, K.T, lower=1)
        if info:
            raise NumericalError(f"Cholesky solve failed (info {info})")
        W = W.T[:, :, None]
        var_std = self.params.signal_variance - _row_dots(K, W[..., 0])
        s = self.target_std
        return (_row_dots(K, self.alpha) * s + self.target_mean,
                np.where(0.0 > var_std, 0.0, var_std) * s * s,
                np.matmul(dKt, self.alpha[:, None])[..., 0] * s,
                -2.0 * np.matmul(dKt, W)[..., 0] * s * s)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``a @ b`` per row ``a`` of ``A`` and row (or vector) ``b`` of ``B``:
    one BLAS dot per row, where a 2-D product would sum batch-dependently."""
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


def fit(space: ParameterSpace, inputs, targets, init: KernelParams | None = None,
        *, optimize: bool = True, seed: int = 0) -> GpModel:
    """Fit a model, maximizing marginal likelihood by multi-start L-BFGS-B.

    Restart 0 begins at ``init`` (or the defaults), the rest at seeded
    log-uniform draws; ties between restarts resolve to the lowest index.
    The restarts are ``solvers.lbfgsb_steps`` solves (``FIT_MAXITER``
    iterations at most) run by ``solvers.lockstep``, one stacked likelihood
    call per round; each ends where ``minimize`` would take it alone.  A
    non-finite likelihood raises ``NumericalError``.
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

    starts = [np.log([*init.lengthscales, init.signal_variance,
                      max(init.noise_variance, NOISE_BOUNDS[0])])]
    for r in range(1, FIT_RESTARTS):
        rng = np.random.default_rng([seed, r])
        starts.append(np.concatenate([
            rng.uniform(np.log(0.05), np.log(5.0), size=D),
            [rng.uniform(np.log(0.1), np.log(10.0)),
             rng.uniform(np.log(1e-7), np.log(1e-2))]]))
    nll_and_grad = _likelihood(_differences(X, X), y, extra, init.jitter)
    runs = lockstep(nll_and_grad,
                    [lbfgsb_steps(x0, lo, hi, FIT_MAXITER) for x0 in starts])
    theta = min(runs, key=lambda res: res.fun).x    # the first on ties
    params = KernelParams(lengthscales=np.exp(theta[:D]),
                          signal_variance=float(np.exp(theta[D])),
                          noise_variance=float(np.exp(theta[D + 1])),
                          jitter=init.jitter)
    return GpModel(space, params, X, y_mean, extra, mean, std)
