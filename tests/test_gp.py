import dataclasses
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotrf, dpotrs

from aspo.errors import NumericalError
from aspo.gp import (
    KernelParams,
    _cholesky_with_escalation,
    _differences,
    _likelihood,
    _pairwise_rows,
    _row_dots,
    fit,
    gram_matrix,
    kernel_value,
    log_marginal_likelihood,
)
from aspo.space import ParameterDef, ParameterSpace, encode, snap
from oracles import (
    reference_nll_and_grad,
    reference_posterior,
    reference_posterior_gradient,
)


def make_space(n_ordinals=3, levels=5, n_cats=1, cat_values=3):
    params = []
    for i in range(n_cats):
        params.append(ParameterDef(f"c{i}", "categorical",
                                   tuple(f"v{j}" for j in range(cat_values)), "v0"))
    for i in range(n_ordinals):
        params.append(ParameterDef(f"o{i}", "ordinal",
                                   tuple(range(1, levels + 1)), 1))
    return ParameterSpace(params)


def random_vertices(space, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cfg = {p.name: p.values[rng.integers(p.count)] for p in space.params}
        out.append(encode(space, cfg))
    return np.stack(out)


class TestKernel:
    def test_self_covariance_is_signal_variance(self):
        space = make_space()
        params = KernelParams.default(space.encoded_dim)
        params.signal_variance = 2.5
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(size=space.encoded_dim)
            assert kernel_value(space, params, x, x) == pytest.approx(2.5)

    def test_same_snap_full_covariance(self):
        space = ParameterSpace([
            ParameterDef("c", "categorical", ("a", "b", "x"), "a")])
        params = KernelParams.default(3)
        x = [0.2, 0.7, 0.1]
        y = [0.0, 1.0, 0.0]
        assert kernel_value(space, params, x, y) == pytest.approx(
            params.signal_variance)

    def test_matern_value_at_unit_scaled_distance(self):
        # independent oracle: the closed-form Matern-5/2 expression
        expected = (1 + np.sqrt(5) + 5 / 3) * np.exp(-np.sqrt(5))
        assert expected == pytest.approx(0.52399, abs=5e-5)
        space = ParameterSpace([ParameterDef("o", "ordinal", (1, 2), 1)])
        params = KernelParams(lengthscales=np.array([1.0]), signal_variance=1.0)
        got = kernel_value(space, params, [0.0], [1.0])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_snap_invariance_bitwise(self):
        space = make_space()
        params = KernelParams.default(space.encoded_dim)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = rng.uniform(size=space.encoded_dim)
            y = rng.uniform(size=space.encoded_dim)
            a = kernel_value(space, params, x, y)
            b = kernel_value(space, params, snap(space, x), snap(space, y))
            assert a == b

    def test_gram_psd(self):
        space = make_space()
        params = KernelParams.default(space.encoded_dim)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.uniform(size=(20, space.encoded_dim))
            G = gram_matrix(space, params, pts)
            assert np.linalg.eigvalsh(G).min() >= -1e-8


class TestLogMarginalLikelihood:
    def test_gradient_matches_finite_differences(self):
        space = make_space(n_ordinals=2, levels=4, n_cats=1, cat_values=2)
        rng = np.random.default_rng(3)
        X = random_vertices(space, 9, seed=4)
        y = rng.normal(size=9)
        params = KernelParams(lengthscales=rng.uniform(0.3, 1.5, space.encoded_dim),
                              signal_variance=1.3, noise_variance=1e-3)
        lml, grad = log_marginal_likelihood(space, params, X, y)
        h = 1e-6
        theta = np.concatenate([np.log(params.lengthscales),
                                [np.log(params.signal_variance),
                                 np.log(params.noise_variance)]])
        for j in range(len(theta)):
            t_hi, t_lo = theta.copy(), theta.copy()
            t_hi[j] += h
            t_lo[j] -= h

            def lml_at(t):
                p = KernelParams(np.exp(t[:space.encoded_dim]),
                                 float(np.exp(t[space.encoded_dim])),
                                 float(np.exp(t[space.encoded_dim + 1])))
                return log_marginal_likelihood(space, p, X, y)[0]

            fd = (lml_at(t_hi) - lml_at(t_lo)) / (2 * h)
            assert abs(grad[j] - fd) / max(1.0, abs(fd)) < 1e-4


class TestPairwiseOrder:
    """``_pairwise_rows`` sums the leading axis as ``np.add.reduce`` sums a
    contiguous last axis, on whichever numpy is installed."""

    @pytest.mark.parametrize("D", [*range(1, 41), 64, 127, 128, 129, 200, 257])
    def test_equals_add_reduce_over_last_axis(self, D):
        rng = np.random.default_rng(D)
        for a, b in [(1, 1), (1, 64), (64, 1), (2, 3), (7, 9), (8, 8),
                     (13, 40), (39, 39), (64, 64)]:
            S = rng.normal(size=(a, b, D)) * rng.uniform(0.0, 10.0, D)
            got = _pairwise_rows(np.ascontiguousarray(S.transpose(2, 0, 1)))
            assert got.tobytes() == np.add.reduce(S, axis=-1).tobytes(), (a, b)


class TestNllAndGrad:
    @pytest.mark.parametrize("n", [2, 7, 10, 40])
    @pytest.mark.parametrize("D", [3, 8, 12])
    def test_matches_reference_bit_for_bit(self, n, D):
        rng = np.random.default_rng([n, D])
        # rows on a coarse grid, so some pairs share coordinates
        X = rng.integers(0, 4, size=(n, D)) / 3.0
        diff = X[:, None, :] - X[None, :, :]
        y = rng.normal(size=n)
        extra = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0, 0.1, n), 0.0)
        nll_and_grad = _likelihood(_differences(X, X), y, extra, 1e-8)
        for _ in range(20):
            theta = np.concatenate([rng.uniform(np.log(0.01), np.log(20.0), D),
                                    [rng.uniform(np.log(0.1), np.log(10.0)),
                                     rng.uniform(np.log(1e-8), np.log(1.0))]])
            (nll, grad), = nll_and_grad(theta[None, :])
            want_nll, want_grad = reference_nll_and_grad(theta, diff, y,
                                                         extra, 1e-8)
            assert nll == want_nll
            assert grad.tolist() == want_grad.tolist()

    @pytest.mark.parametrize("D", [3, 12])
    def test_transposed_view_input(self, D):
        # a (D, n, n) view of (n, n, D) memory must read as its copy does
        rng = np.random.default_rng(D)
        X = rng.uniform(size=(9, D))
        diff = X[:, None, :] - X[None, :, :]
        y, extra = rng.normal(size=9), np.zeros(9)
        theta = rng.uniform(-1.0, 1.0, D + 2)
        got, = _likelihood(diff.transpose(2, 0, 1), y, extra, 1e-8)(
            theta[None, :])
        want = reference_nll_and_grad(theta, diff, y, extra, 1e-8)
        assert got[0] == want[0]
        assert got[1].tolist() == want[1].tolist()

    def test_differences_are_feature_major(self):
        X = np.random.default_rng(1).uniform(size=(5, 3))
        diff = _differences(X, X[:4])
        assert diff.shape == (3, 5, 4) and diff.flags.c_contiguous
        assert diff.tolist() == (X[:, None, :] - X[None, :4, :]) \
            .transpose(2, 0, 1).tolist()

    def test_cholesky_failure_is_the_penalty(self):
        diff = np.zeros((2, 2, 3))    # two identical rows, no noise: singular
        theta = np.log([1.0, 1.0, 1.0, 1.0, 1e-300])
        args = (np.array([1.0, -1.0]), np.zeros(2), 1e-300)
        (nll, grad), = _likelihood(diff.transpose(2, 0, 1), *args)(
            theta[None, :])
        assert nll == reference_nll_and_grad(theta, diff, *args)[0] == 1e25
        assert grad.tolist() == [0.0] * 5

    def test_nan_difference_raises_numerical_error(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(5, 3))
        diff = _differences(X, X)
        diff[2, 0, 1] = np.nan      # one entry, above the diagonal
        with pytest.raises(NumericalError, match="not finite"):
            _likelihood(diff, rng.normal(size=5), np.zeros(5), 1e-8)(
                np.zeros((1, 5)))

    def test_nan_target_raises_numerical_error_from_fit(self):
        space = make_space()
        X = random_vertices(space, 6, seed=30)
        y = np.random.default_rng(31).normal(size=6)
        y[2] = np.nan
        with pytest.raises(NumericalError):
            fit(space, X, y, seed=0)


class TestStackedLikelihood:
    """Each row of a likelihood batch equals the oracle at its theta, bit for
    bit, whatever else the batch holds."""

    @staticmethod
    def problem(n, D):
        rng = np.random.default_rng([n, D, 1])
        X = rng.integers(0, 4, size=(n, D)) / 3.0   # pairs share coordinates
        y = rng.normal(size=n)
        extra = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0, 0.1, n), 0.0)
        thetas = np.column_stack([
            rng.uniform(np.log(0.01), np.log(20.0), (5, D)),
            rng.uniform(np.log(0.1), np.log(10.0), 5),
            rng.uniform(np.log(1e-8), np.log(1.0), 5)])
        return X, y, extra, thetas

    @pytest.mark.parametrize("n", [2, 7, 10, 40])
    @pytest.mark.parametrize("D", [3, 8, 12])
    def test_rows_match_reference(self, n, D):
        X, y, extra, thetas = self.problem(n, D)
        diff = X[:, None, :] - X[None, :, :]
        want = [reference_nll_and_grad(t, diff, y, extra, 1e-8) for t in thetas]
        nll_and_grad = _likelihood(_differences(X, X), y, extra, 1e-8)
        for R in range(1, 6):
            got = nll_and_grad(thetas[:R])
            assert len(got) == R
            for (nll, grad), (want_nll, want_grad) in zip(got, want):
                assert nll == want_nll
                assert grad.tolist() == want_grad.tolist()

    @pytest.mark.parametrize("n, D", [(2, 3), (7, 8), (40, 12)])
    def test_rows_keep_their_bits_when_permuted_or_cut(self, n, D):
        X, y, extra, thetas = self.problem(n, D)
        nll_and_grad = _likelihood(_differences(X, X), y, extra, 1e-8)
        whole = nll_and_grad(thetas)
        rng = np.random.default_rng(n)
        for _ in range(12):
            rows = rng.permutation(5)[:rng.integers(1, 6)]
            for i, (nll, grad) in zip(rows, nll_and_grad(thetas[rows])):
                assert nll == whole[i][0]
                assert grad.tobytes() == whole[i][1].tobytes()

    def test_cholesky_failure_row_among_good_rows(self):
        # points 0 and 1 coincide: with signal 1 and no noise the middle row
        # is singular, while the rows around it carry noise
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(6, 3))
        X[1] = X[0]
        y, extra = rng.normal(size=6), np.zeros(6)
        thetas = np.log([[0.5, 1.0, 2.0, 1.0, 1e-2],
                         [1.0, 1.0, 1.0, 1.0, 1e-300],
                         [0.3, 0.7, 1.5, 2.0, 1e-3]])
        diff = X[:, None, :] - X[None, :, :]
        nll_and_grad = _likelihood(_differences(X, X), y, extra, 1e-300)
        got = nll_and_grad(thetas)
        assert got[1][0] == 1e25
        assert got[1][1].tobytes() == np.zeros(5).tobytes()
        for theta, (nll, grad) in zip(thetas, got):
            want_nll, want_grad = reference_nll_and_grad(theta, diff, y, extra,
                                                         1e-300)
            assert nll == want_nll
            assert grad.tolist() == want_grad.tolist()
        for i in (0, 2):
            (nll, grad), = nll_and_grad(thetas[i:i + 1])
            assert nll == got[i][0] and grad.tobytes() == got[i][1].tobytes()

    def test_nan_difference_gives_the_kernel_message(self):
        X, y, extra, thetas = self.problem(7, 3)
        diff = _differences(X, X)
        diff[2, 0, 1] = np.nan
        with pytest.raises(NumericalError,
                           match="^likelihood kernel is not finite$"):
            _likelihood(diff, y, extra, 1e-8)(thetas)

    def test_nan_target_gives_the_likelihood_message(self):
        X, y, extra, thetas = self.problem(7, 3)
        y[3] = np.nan
        with pytest.raises(NumericalError, match="^likelihood is not finite$"):
            _likelihood(_differences(X, X), y, extra, 1e-8)(thetas)

    def test_rows_are_checked_in_order_kernel_first(self):
        # an overflowing signal variance leaves only its own row's kernel not
        # finite; the NaN target leaves every other row's likelihood not finite
        X, y, extra, thetas = self.problem(7, 3)
        y[3] = np.nan
        thetas[2, 3] = 1000.0
        nll_and_grad = _likelihood(_differences(X, X), y, extra, 1e-8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError,
                               match="^likelihood kernel is not finite$"):
                nll_and_grad(thetas[2:])
            with pytest.raises(NumericalError,
                               match="^likelihood is not finite$"):
                nll_and_grad(thetas[1:])


class TestFit:
    def test_constant_targets(self):
        space = make_space()
        X = random_vertices(space, 6, seed=5)
        model = fit(space, X, np.full(6, 42.0), seed=0)
        rng = np.random.default_rng(6)
        for _ in range(10):
            mean, var = model.predict(rng.uniform(size=space.encoded_dim))
            assert mean == pytest.approx(42.0, abs=1e-6)
            assert var <= model.params.signal_variance * model.target_std ** 2 + 1e-9

    def test_beats_mean_baseline_on_additive_function(self):
        space = make_space(n_ordinals=4, levels=6, n_cats=0)
        X = random_vertices(space, 20, seed=7)
        y = X.sum(axis=1)
        model = fit(space, X, y, seed=1)
        X_test = random_vertices(space, 50, seed=8)
        y_test = X_test.sum(axis=1)
        preds = np.array([model.predict(x)[0] for x in X_test])
        rmse = np.sqrt(np.mean((preds - y_test) ** 2))
        baseline = np.sqrt(np.mean((y.mean() - y_test) ** 2))
        assert rmse < baseline

    def test_noise_free_interpolation(self):
        space = make_space()
        X = random_vertices(space, 10, seed=9)
        rng = np.random.default_rng(10)
        y = rng.normal(size=10)
        params = KernelParams.default(space.encoded_dim)
        params.noise_variance = 0.0
        model = fit(space, X, y, init=params, optimize=False)
        # duplicates were merged; compare against the merged targets
        for x, target in zip(model.X, model.targets):
            mean, var = model.predict(x)
            assert mean == pytest.approx(target, abs=1e-6)
            assert var <= 1e-6

    def test_snap_duplicate_variance_at_noise_floor(self):
        space = make_space()
        X = random_vertices(space, 8, seed=11)
        rng = np.random.default_rng(12)
        y = rng.normal(size=8)
        params = KernelParams.default(space.encoded_dim)
        params.noise_variance = 1e-4
        model = fit(space, X, y, init=params, optimize=False)
        # query points that snap onto training vertices
        for i in range(len(model.X)):
            x = model.X[i] + rng.uniform(-0.2, 0.2, size=space.encoded_dim)
            x = np.clip(x, 0, 1)
            if not np.array_equal(snap(space, x), model.X[i]):
                continue
            _, var = model.predict(x)
            bound = (model.params.noise_variance + 10 * model.jitter_used) \
                * model.target_std ** 2
            assert var <= bound * (1 + 1e-9)

    def test_predictions_snap_invariant_bitwise(self):
        space = make_space()
        X = random_vertices(space, 8, seed=13)
        y = np.random.default_rng(14).normal(size=8)
        model = fit(space, X, y, seed=2)
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.uniform(size=space.encoded_dim)
            assert model.predict(x) == model.predict(snap(space, x))

    def test_prior_recovery_far_from_single_point(self):
        space = ParameterSpace([
            ParameterDef("o", "ordinal", tuple(range(1, 12)), 1)])
        params = KernelParams(lengthscales=np.array([0.01]),
                              signal_variance=2.0, noise_variance=0.0)
        model = fit(space, [np.array([0.0])], [5.0],
                    init=params, optimize=False)
        mean, var = model.predict(np.array([1.0]))
        assert mean == pytest.approx(model.target_mean, rel=0.01)
        assert var == pytest.approx(2.0 * model.target_std ** 2, rel=0.01)

    def test_duplicate_snapped_inputs_merged(self):
        space = make_space()
        x = random_vertices(space, 1, seed=16)[0]
        X = np.stack([x, x, x])
        model = fit(space, X, np.array([1.0, 2.0, 3.0]), optimize=False,
                    init=KernelParams.default(space.encoded_dim))
        assert len(model.X) == 1
        assert model.targets[0] == pytest.approx(2.0)
        assert model.extra_noise[0] > 0

    def test_adding_point_never_increases_variance(self):
        space = make_space(n_ordinals=3, levels=6, n_cats=0)
        params = KernelParams.default(space.encoded_dim)
        params.noise_variance = 1e-4
        rng = np.random.default_rng(17)
        for trial in range(10):
            X = random_vertices(space, 8, seed=100 + trial)
            # drop duplicate vertices so the comparison uses the same params
            X = np.unique(X, axis=0)
            y = rng.normal(size=len(X))
            small = fit(space, X[:-1], y[:-1], init=params, optimize=False)
            big = fit(space, X, y, init=params, optimize=False)
            # compare in standardized space to cancel destandardization shifts
            for _ in range(20):
                q = rng.uniform(size=space.encoded_dim)
                var_small = small.predict(q)[1] / small.target_std ** 2
                var_big = big.predict(q)[1] / big.target_std ** 2
                assert var_big <= var_small + 1e-9

    def test_requires_two_points_when_optimizing(self):
        space = make_space()
        with pytest.raises(ValueError):
            fit(space, random_vertices(space, 1, seed=18), [1.0])

    def test_restart_determinism(self):
        space = make_space()
        X = random_vertices(space, 10, seed=19)
        y = np.random.default_rng(20).normal(size=10)
        m1 = fit(space, X, y, seed=3)
        m2 = fit(space, X, y, seed=3)
        assert np.array_equal(m1.params.lengthscales, m2.params.lengthscales)
        assert m1.params.noise_variance == m2.params.noise_variance

    def test_cholesky_factor_reconstructs_gram(self):
        space = make_space()
        X = random_vertices(space, 8, seed=27)
        y = np.random.default_rng(28).normal(size=8)
        model = fit(space, X, y, seed=6)
        K = gram_matrix(space, model.params, model.X) \
            + (model.params.noise_variance + model.jitter_used) * np.eye(len(model.X))
        recon = model.L @ model.L.T
        assert np.max(np.abs(recon - K)) <= 1e-8


class TestCholeskyEscalation:
    def test_escalates_then_succeeds(self):
        # eigenvalues {2, ~-1e-6}: tiny jitter fails, escalation fixes it
        K = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]])
        L, used = _cholesky_with_escalation(K - 2e-6 * np.eye(2), 1e-8)
        assert used > 1e-8

    def test_raises_past_cap(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericalError):
            _cholesky_with_escalation(K, 1e-8)

    def test_non_finite_kernel_raises_without_escalating(self, monkeypatch):
        import aspo.gp as gp_mod
        calls = []

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(gp_mod, "dpotrf", counting_dpotrf)
        K = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericalError, match="not finite"):
            _cholesky_with_escalation(K, 1e-8)
        assert calls == []


class TestRelaxedGradient:
    def test_gradient_matches_finite_differences(self):
        space = make_space()
        X = random_vertices(space, 10, seed=24)
        y = np.random.default_rng(25).normal(size=10)
        model = fit(space, X, y, seed=5)
        rng = np.random.default_rng(26)
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(0.05, 0.95, size=space.encoded_dim)
            mean, var, dmean, dvar = model.predict_with_gradient(q)
            for j in range(space.encoded_dim):
                q_hi, q_lo = q.copy(), q.copy()
                q_hi[j] += h
                q_lo[j] -= h
                m_hi, v_hi, _, _ = model.predict_with_gradient(q_hi)
                m_lo, v_lo, _, _ = model.predict_with_gradient(q_lo)
                assert dmean[j] == pytest.approx((m_hi - m_lo) / (2 * h),
                                                 rel=1e-3, abs=1e-7)
                assert dvar[j] == pytest.approx((v_hi - v_lo) / (2 * h),
                                                rel=1e-3, abs=1e-7)


# --------------------------------------------------------------------------
# the BLAS and LAPACK facts behind the batched posterior: a stacked matmul
# runs the same dot or matrix-vector product per row as a 1-D product, and
# one multi-right-hand-side dpotrs solves each column as a lone one does

def same_bits(got, want):
    """Equal bit for bit, NaN where NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return got.shape == want.shape and (np.isnan(got) == nan).all() \
        and got[~nan].tobytes() == want[~nan].tobytes()


def blas_problem(n, rows):
    """A Cholesky factor, a vector, kernel rows and a gradient tensor; one
    row (the returned index) holds a NaN."""
    rng = np.random.default_rng([n, rows])
    A = rng.normal(size=(n, n))
    L = cholesky(A @ A.T + n * np.eye(n), lower=True)
    K = rng.normal(size=(rows, n))
    dK = rng.normal(size=(rows, n, 12))
    nan_row = rows // 2
    K[nan_row, n // 2] = np.nan
    dK[nan_row, n // 2, 5] = np.nan
    return L, rng.normal(size=n), K, dK, nan_row


def assert_rows(got, want, nan_row):
    """Every row as its per-row value; only ``nan_row`` holds NaN."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert same_bits(g, w)
        assert np.isnan(g).any() == (i == nan_row)


@pytest.mark.parametrize("rows", [1, 42, 2000])
@pytest.mark.parametrize("n", [1, 2, 7, 12, 40, 64])
class TestBlasRowFacts:
    def test_multi_rhs_dpotrs_equals_per_column(self, n, rows):
        L, _, K, _, nan_row = blas_problem(n, rows)
        W, info = dpotrs(L, K.T, lower=1)
        assert info == 0
        assert_rows(W.T, [dpotrs(L, k, lower=1)[0] for k in K],
                    nan_row if rows > 1 else 0)

    def test_stacked_matmul_equals_per_row_products(self, n, rows):
        L, alpha, K, dK, nan_row = blas_problem(n, rows)
        nan_row = nan_row if rows > 1 else 0
        W = dpotrs(L, K.T, lower=1)[0].T
        dKt = dK.transpose(0, 2, 1)
        assert_rows(_row_dots(K, alpha), [k @ alpha for k in K], nan_row)
        assert_rows(_row_dots(K, W), [k @ w for k, w in zip(K, W)], nan_row)
        assert_rows(_row_dots(W, W), [w @ w for w in W], nan_row)
        assert_rows(np.matmul(dKt, alpha[:, None])[..., 0],
                    [dk.T @ alpha for dk in dK], nan_row)
        assert_rows(np.matmul(dKt, W[:, :, None])[..., 0],
                    [dk.T @ w for dk, w in zip(dK, W)], nan_row)


def test_blas_row_facts_at_one_blas_thread():
    # the setting of benchmark runs; the default count is checked in-process
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestBlasRowFacts"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert proc.stdout.splitlines()[-1].startswith("36 passed")


class TestBatchedPosterior:
    """The array posterior against its row-by-row oracles, bit for bit."""

    @staticmethod
    def model_and_queries(seed):
        space = make_space(n_ordinals=4, levels=6, n_cats=2)
        X = random_vertices(space, 14, seed=seed)
        y = np.random.default_rng(seed + 1).normal(size=14)
        model = fit(space, X, y, seed=seed)
        rng = np.random.default_rng(seed + 2)
        # box points, and training vertices whose sigma sits at the floor
        Q = np.concatenate([rng.uniform(size=(300, space.encoded_dim)),
                            model.X])
        return model, Q[rng.permutation(len(Q))]

    @pytest.mark.parametrize("seed", [40, 41])
    def test_predict_batch_matches_oracle(self, seed):
        model, Q = self.model_and_queries(seed)
        mean, var = model.predict_batch(Q)
        want = reference_posterior(model, Q)
        assert same_bits(mean, [w[0] for w in want])
        assert same_bits(var, [w[1] for w in want])

    @pytest.mark.parametrize("seed", [40, 41])
    def test_gradient_arrays_match_oracle(self, seed):
        model, Q = self.model_and_queries(seed)
        got = model.predict_with_gradient_arrays(Q)
        want = reference_posterior_gradient(model, Q)
        for j in range(4):
            assert same_bits(got[j], [w[j] for w in want])
        one = model.predict_with_gradient(Q[0])
        assert same_bits(one[2], got[2][0]) and same_bits(one[3], got[3][0])

    def test_negative_variance_logged_once_per_row_in_order(self, caplog):
        model, Q = self.model_and_queries(42)
        # a signal variance the factor was not built with: rows at the
        # training vertices go negative, rows far from them stay positive
        model.params = dataclasses.replace(
            model.params, signal_variance=2 * model.params.signal_variance)
        raw = [w[2] for w in reference_posterior(model, Q)]
        want = ["negative posterior variance %.3e clamped" % v
                for v in raw if v < -1e-10]
        assert 0 < len(want) < len(Q)
        caplog.set_level(logging.WARNING, logger="aspo.gp")
        _, var = model.predict_batch(Q)
        assert [r.getMessage() for r in caplog.records
                if r.name == "aspo.gp"] == want
        assert (var >= 0).all()
