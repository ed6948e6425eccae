import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from aspo.errors import NumericalError
from aspo.gp import (
    SQRT5,
    KernelParams,
    _cholesky_with_escalation,
    _matern_terms,
    _nll_and_grad,
    fit,
    gram_matrix,
    kernel_value,
    log_marginal_likelihood,
)
from aspo.space import ParameterDef, ParameterSpace, encode, snap


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


def reference_nll_and_grad(theta, diff, y, extra_noise, jitter):
    """The likelihood through scipy's Cholesky wrappers and one gradient
    entry per lengthscale: the oracle for ``_nll_and_grad``."""
    n, D = len(y), diff.shape[-1]
    ell = np.exp(theta[:D])
    sv = np.exp(theta[D])
    nv = np.exp(theta[D + 1])

    K_sig, r, expo, scaled_sq = _matern_terms(ell, sv, diff)
    K = K_sig + np.diag(nv + extra_noise)
    try:
        L = cholesky(K + jitter * np.eye(n), lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)

    alpha = cho_solve((L, True), y)
    nll = 0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2 * np.pi)

    Kinv = cho_solve((L, True), np.eye(n))
    B = np.outer(alpha, alpha) - Kinv

    grad = np.zeros_like(theta)
    radial = (5.0 / 3.0) * sv * (1 + SQRT5 * r) * expo
    for j in range(D):
        dK = radial * scaled_sq[:, :, j]  # d K / d log ell_j
        grad[j] = -0.5 * np.sum(B * dK)
    grad[D] = -0.5 * np.sum(B * K_sig)
    grad[D + 1] = -0.5 * nv * np.trace(B)
    return float(nll), grad


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
        for _ in range(20):
            theta = np.concatenate([rng.uniform(np.log(0.01), np.log(20.0), D),
                                    [rng.uniform(np.log(0.1), np.log(10.0)),
                                     rng.uniform(np.log(1e-8), np.log(1.0))]])
            nll, grad = _nll_and_grad(theta, diff, y, extra, 1e-8)
            want_nll, want_grad = reference_nll_and_grad(theta, diff, y,
                                                         extra, 1e-8)
            assert nll == want_nll
            assert grad.tolist() == want_grad.tolist()

    def test_cholesky_failure_is_the_penalty(self):
        diff = np.zeros((2, 2, 3))    # two identical rows, no noise: singular
        theta = np.log([1.0, 1.0, 1.0, 1.0, 1e-300])
        args = (theta, diff, np.array([1.0, -1.0]), np.zeros(2), 1e-300)
        nll, grad = _nll_and_grad(*args)
        assert nll == reference_nll_and_grad(*args)[0] == 1e25
        assert grad.tolist() == [0.0] * 5

    def test_nan_difference_raises_numerical_error(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(5, 3))
        diff = X[:, None, :] - X[None, :, :]
        diff[0, 1, 2] = np.nan      # one entry, above the diagonal
        with pytest.raises(NumericalError, match="not finite"):
            _nll_and_grad(np.zeros(5), diff, rng.normal(size=5),
                          np.zeros(5), 1e-8)

    def test_nan_target_raises_numerical_error_from_fit(self):
        space = make_space()
        X = random_vertices(space, 6, seed=30)
        y = np.random.default_rng(31).normal(size=6)
        y[2] = np.nan
        with pytest.raises(NumericalError):
            fit(space, X, y, seed=0)


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
        assert model.n_train == 1
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
            + (model.params.noise_variance + model.jitter_used) * np.eye(model.n_train)
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

        def counting_cholesky(*args, **kwargs):
            calls.append(1)
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(gp_mod, "cholesky", counting_cholesky)
        K = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericalError, match="not finite"):
            _cholesky_with_escalation(K, 1e-8)
        assert len(calls) == 1


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
