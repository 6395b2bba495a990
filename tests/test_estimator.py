import math
from dataclasses import replace

import numpy as np
import pytest

from wavegplm import (
    ConfigurationError,
    Dataset,
    DimensionError,
    FitConfig,
    FitDivergenceError,
    Gaussian,
    GplmFit,
    PenaltyConfig,
    WaveletCoefficients,
    backfit,
    coefficient_layout,
    criterion_value,
    default_coarse_level,
    dwt,
    functional_step,
    idwt,
    initialize,
    linear_step,
    make_family,
    make_filter,
    penalty_value,
    per_coefficient_thresholds,
    soft_threshold,
    universal_lambda,
)


class TestSoftThreshold:
    def test_values(self):
        x = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(soft_threshold(x, 1.0),
                                   [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_threshold_is_identity(self):
        x = np.array([-2.0, 0.3, 5.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_vector_thresholds(self):
        out = soft_threshold(np.array([2.0, 2.0]), np.array([0.5, 3.0]))
        np.testing.assert_allclose(out, [1.5, 0.0])

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        out = soft_threshold(x, 0.7)
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(out * x >= 0.0)


class TestUniversalLambda:
    def test_gaussian(self):
        assert universal_lambda(Gaussian(phi=1.0), 256) == pytest.approx(
            math.sqrt(2 * math.log(256)), abs=1e-15
        )

    def test_binomial(self):
        fam = make_family("binomial", m=24)
        assert universal_lambda(fam, 256) == pytest.approx(
            0.5 * math.sqrt(math.log(256) / 24), abs=1e-15
        )

    def test_poisson(self):
        fam = make_family("poisson")
        assert universal_lambda(fam, 256) == pytest.approx(
            2.0 * math.sqrt(math.log(256)), abs=1e-15
        )

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigurationError):
            universal_lambda(Gaussian(), 1)


def test_default_coarse_level():
    assert default_coarse_level(256) == 3
    assert default_coarse_level(8) == 3
    assert default_coarse_level(4) == 2
    assert default_coarse_level(2) == 1


class TestConfigValidation:
    def test_penalty_kind(self):
        with pytest.raises(ConfigurationError):
            PenaltyConfig(kind="l2")

    def test_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            PenaltyConfig(lam=-0.5)

    def test_sobolev_smoothness(self):
        with pytest.raises(ConfigurationError):
            PenaltyConfig(kind="sobolev", sobolev_s=0.5)
        PenaltyConfig(kind="sobolev", sobolev_s=0.51)

    def test_fit_counts(self):
        with pytest.raises(ConfigurationError):
            FitConfig(kappa=0)

    def test_dataset_shapes(self):
        with pytest.raises(DimensionError):
            Dataset(y=np.zeros(12), X=np.zeros((12, 1)))
        with pytest.raises(DimensionError):
            Dataset(y=np.zeros(8), X=np.zeros((4, 1)))

    def test_dataset_grid(self):
        data = Dataset(y=np.zeros(4), X=np.zeros((4, 1)))
        np.testing.assert_allclose(data.t, [0.25, 0.5, 0.75, 1.0])


class TestThresholdVector:
    def test_uniform_for_unit_weights(self):
        filt = make_filter("symmlet-8")
        thr = per_coefficient_thresholds(2.5, np.ones(64), filt, 3)
        layout = coefficient_layout(64, 3)
        np.testing.assert_allclose(thr[layout.detail_mask], 2.5, atol=1e-10)
        np.testing.assert_array_equal(thr[layout.scaling_slice], 0.0)

    def test_scales_linearly_with_lambda(self):
        filt = make_filter("daubechies-4")
        rng = np.random.default_rng(4)
        w = np.exp(rng.standard_normal(32))
        a = per_coefficient_thresholds(1.0, w, filt, 2)
        b = per_coefficient_thresholds(3.0, w, filt, 2)
        np.testing.assert_allclose(b, 3.0 * a, atol=1e-12)

    def test_matches_dense_matrix_formula(self):
        # |Psi diag(w) Psi^T 1| computed with the explicit matrix
        from wavegplm import transform_matrix

        filt = make_filter("haar")
        rng = np.random.default_rng(9)
        w = 0.5 + rng.random(16)
        psi = transform_matrix(16, filt, 2)
        dense = np.abs(psi @ (w * (psi.T @ np.ones(16))))
        dense[:4] = 0.0
        thr = per_coefficient_thresholds(1.0, w, filt, 2)
        np.testing.assert_allclose(thr, dense, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "poisson"])
    def test_cached_psi_t_one_is_bit_identical(self, kind):
        # lambda |dwt(w * idwt(1))| with Psi^T 1 synthesized afresh, against
        # the vector taken from a cold and then from a warm cache
        from wavegplm.estimator import _synthesized_ones

        n, j0, lam = 256, 3, 1.7
        filt = make_filter("symmlet-8")
        family = make_family(kind)
        eta = np.sin(np.arange(n) / 9.0)
        w = 1.0 / family.b_ddot(eta)
        ones = idwt(WaveletCoefficients(values=np.ones(n), layout=coefficient_layout(n, j0)),
                    filt)
        expected = lam * np.abs(dwt(w * ones, filt, j0).values)
        expected[:1 << j0] = 0.0
        _synthesized_ones.cache_clear()
        for _ in ("cold", "warm"):
            thr = per_coefficient_thresholds(lam, w, filt, j0)
            np.testing.assert_array_equal(thr, expected)
            np.testing.assert_array_equal(np.signbit(thr), np.signbit(expected))
        assert _synthesized_ones.cache_info().hits == 1


def _gaussian_data(seed, n=64, p=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta0 = np.arange(1, p + 1, dtype=float)
    t = np.arange(1, n + 1) / n
    f0 = np.sin(2 * np.pi * t)
    y = X @ beta0 + f0 + sigma * rng.standard_normal(n)
    return Dataset(y=y, X=X), beta0, f0


class TestGaussianClosedForm:
    """For the gaussian family each step has an explicit closed form:
    functional step = soft-thresholded DWT of y - X beta, linear step =
    OLS of y - f on X.  The generic Fisher-scoring code must match."""

    @pytest.mark.parametrize("seed", range(5))
    def test_functional_step(self, seed):
        data, _, _ = _gaussian_data(seed)
        fam = Gaussian()
        config = FitConfig()
        filt = make_filter(config.filter_name)
        beta = np.array([0.3, -1.2])
        f_current = np.zeros(data.n)
        got = idwt(functional_step(data, fam, beta, f_current, config, filt), filt)
        j0 = config.penalty.resolve_coarse_level(data.n)
        lam = universal_lambda(fam, data.n)
        coeffs = dwt(data.y - data.X @ beta, filt, j0)
        values = coeffs.values.copy()
        mask = coeffs.layout.detail_mask
        values[mask] = soft_threshold(values[mask], lam)
        expected = idwt(replace(coeffs, values=values), filt)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_step_is_ols(self, seed):
        data, _, f0 = _gaussian_data(seed)
        fam = Gaussian()
        got = linear_step(data, fam, np.zeros(2), f0)
        expected, *_ = np.linalg.lstsq(data.X, data.y - f0, rcond=None)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestGlmOracle:
    """With f frozen at zero and no penalty, backfitting must solve the
    plain GLM; the oracle is an independent Newton iteration on the
    loglikelihood sum y*eta - b(eta)."""

    @staticmethod
    def _newton_glm(family, y, X, steps=200):
        beta = np.zeros(X.shape[1])
        for _ in range(steps):
            eta = X @ beta
            mu = family.mean(eta)
            W = family.b_ddot(eta)
            grad = X.T @ (y - mu)
            hess = (X.T * W) @ X
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if np.linalg.norm(step) < 1e-13:
                break
        return beta

    @pytest.mark.parametrize("kind,m", [("gaussian", None), ("binomial", 24), ("poisson", None)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_newton(self, kind, m, seed):
        rng = np.random.default_rng([seed, 17])
        n, p = 128, 3
        X = 0.4 * rng.standard_normal((n, p))
        family = make_family(kind, m=m)
        beta0 = np.array([0.5, -0.3, 0.2])
        y = family.sample(X @ beta0, rng)
        data = Dataset(y=y, X=X)
        config = FitConfig(kappa=300, delta=1e-14,
                           penalty=PenaltyConfig(lam=0.0),
                           freeze_f_at_zero=True)
        fit = backfit(data, family, config)
        oracle = self._newton_glm(family, y, X)
        np.testing.assert_allclose(fit.beta, oracle, atol=1e-6)


class TestPenaltyAndCriterion:
    def test_l1_penalty_ignores_scaling_block(self):
        layout = coefficient_layout(16, 2)
        values = np.arange(16.0)
        coeffs = dwt(np.zeros(16), make_filter("haar"), 2)
        coeffs = replace(coeffs, values=values)
        pen = penalty_value(coeffs, PenaltyConfig(), 2.0)
        assert pen == pytest.approx(2.0 * np.sum(values[4:]))
        assert layout.detail_mask.sum() == 12

    def test_sobolev_penalty_level_weights(self):
        coeffs = dwt(np.zeros(8), make_filter("haar"), 1)
        values = np.zeros(8)
        values[2] = 1.0  # level-1 detail
        values[4] = 1.0  # level-2 detail
        coeffs = replace(coeffs, values=values)
        pen = penalty_value(coeffs, PenaltyConfig(kind="sobolev", sobolev_s=1.0), 2.0)
        assert pen == pytest.approx(2.0 ** 2 + 2.0 ** 4)

    def test_sobolev_step_maximizes_criterion(self):
        # with beta fixed the gaussian Sobolev step is the exact maximizer
        # of K_n over f, so moving any detail coefficient cannot raise it
        data, beta0, _ = _gaussian_data(6, n=64)
        fam = Gaussian()
        config = FitConfig(penalty=PenaltyConfig(kind="sobolev", lam=0.5))
        filt = make_filter(config.filter_name)
        coeffs = functional_step(data, fam, beta0, data.y, config, filt)
        best = criterion_value(data, fam, beta0, idwt(coeffs, filt), coeffs, config)
        for k in np.flatnonzero(coeffs.layout.detail_mask):
            for move in (1e-4, -1e-4):
                values = coeffs.values.copy()
                values[k] += move
                moved = replace(coeffs, values=values)
                assert criterion_value(data, fam, beta0, idwt(moved, filt), moved, config) <= best

    def test_criterion_is_loglik_minus_penalty(self):
        data, _, f0 = _gaussian_data(3)
        fam = Gaussian()
        config = FitConfig()
        beta = np.array([1.0, 2.0])
        filt = make_filter(config.filter_name)
        j0 = config.penalty.resolve_coarse_level(data.n)
        crit = criterion_value(data, fam, beta, f0, dwt(f0, filt, j0), config)
        eta = data.X @ beta + f0
        loglik = fam.loglik(data.y, eta)
        lam = universal_lambda(fam, data.n)
        pen = lam * np.sum(np.abs(dwt(f0, filt, j0).details))
        assert crit == pytest.approx(loglik - pen, abs=1e-10)


class TestBackfit:
    def test_recovers_gaussian_truth(self):
        data, beta0, f0 = _gaussian_data(11, n=256, sigma=0.3)
        fit = backfit(data, Gaussian(phi=0.3 ** 2), FitConfig())
        assert isinstance(fit, GplmFit)
        assert fit.converged
        np.testing.assert_allclose(fit.beta, beta0, atol=0.15)
        assert np.sqrt(np.mean((fit.f_hat - f0) ** 2)) < 0.3

    def test_initialization(self):
        data, _, _ = _gaussian_data(0)
        f, beta = initialize(data, Gaussian())
        np.testing.assert_array_equal(f, data.y)
        np.testing.assert_array_equal(beta, np.zeros(2))

    def test_noiseless_zero_lambda_interpolates(self):
        data, beta0, f0 = _gaussian_data(5, sigma=0.0)
        config = FitConfig(penalty=PenaltyConfig(lam=0.0), kappa=200)
        fit = backfit(data, Gaussian(phi=0.0), config)
        eta = data.X @ fit.beta + fit.f_hat
        np.testing.assert_allclose(eta, data.y, atol=1e-8)

    def test_trace_and_iteration_count(self):
        data, _, _ = _gaussian_data(2)
        fit = backfit(data, Gaussian(), FitConfig(kappa=7, delta=0.0))
        assert fit.iterations == 7
        assert fit.trace.shape == (7,)
        assert fit.trace[-1] == fit.criterion
        assert not fit.converged

    def test_transform_budget(self, monkeypatch):
        # per outer iteration: dwt of the pseudo-response and of the
        # threshold signal, idwt of theta; Psi^T 1 costs one idwt per
        # cold cache, and the criterion no transform
        import wavegplm.estimator as estimator

        estimator._synthesized_ones.cache_clear()
        calls = {"dwt": 0, "idwt": 0}

        def counted(name):
            original = getattr(estimator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimator, "dwt", counted("dwt"))
        monkeypatch.setattr(estimator, "idwt", counted("idwt"))
        data, _, _ = _gaussian_data(2)
        fit = backfit(data, Gaussian(), FitConfig(kappa=25, delta=0.0))
        assert fit.iterations >= 20
        assert 2 * fit.iterations <= calls["dwt"] <= 2 * fit.iterations + 1
        assert calls["idwt"] == fit.iterations + 1

    def test_poisson_divergence_detected(self):
        # a threshold far below the universal level lets the poisson
        # iterates blow up instead of converging
        rng = np.random.default_rng(1)
        n = 256
        t = np.arange(1, n + 1) / n
        f0 = 3.0 * np.sin(4 * np.pi * t) + 2.0 * (t > 0.7)
        X = rng.standard_normal((n, 1))
        y = rng.poisson(np.exp(np.clip(X[:, 0] + f0, -30, 30))).astype(float)
        config = FitConfig(
            kappa=2000,
            penalty=PenaltyConfig(lam=0.2 * math.sqrt(math.log(n))),
        )
        with pytest.raises(FitDivergenceError):
            backfit(Dataset(y=y, X=X), make_family("poisson"), config)

    def test_binomial_fit_stays_finite(self):
        rng = np.random.default_rng(21)
        n = 128
        fam = make_family("binomial", m=24)
        t = np.arange(1, n + 1) / n
        f0 = 1.5 * np.sin(2 * np.pi * t)
        X = 0.3 * rng.standard_normal((n, 1))
        y = fam.sample(X[:, 0] + f0, rng)
        fit = backfit(Dataset(y=y, X=X), fam, FitConfig(kappa=500, delta=1e-10))
        assert np.all(np.isfinite(fit.f_hat))
        assert np.all(np.isfinite(fit.beta))
        assert np.sqrt(np.mean((fit.f_hat - f0) ** 2)) < 1.0


def test_sobolev_shrinkage_is_linear_in_coefficients():
    data, _, _ = _gaussian_data(6)
    fam = Gaussian()
    config = FitConfig(penalty=PenaltyConfig(kind="sobolev", lam=0.5, sobolev_s=1.0))
    filt = make_filter(config.filter_name)
    beta = np.zeros(2)
    got = idwt(functional_step(data, fam, beta, np.zeros(data.n), config, filt), filt)
    j0 = config.penalty.resolve_coarse_level(data.n)
    coeffs = dwt(data.y, filt, j0)
    values = coeffs.values.copy()
    for level in coeffs.layout.detail_levels():
        sl = coeffs.layout.detail_slice(level)
        values[sl] /= 1.0 + 0.5 * 2.0 ** (2 * level)
    expected = idwt(replace(coeffs, values=values), filt)
    np.testing.assert_allclose(got, expected, atol=1e-12)


class TestSpecialCases:
    def test_zero_lambda_thresholds_vanish(self):
        filt = make_filter("symmlet-8")
        thr = per_coefficient_thresholds(0.0, np.ones(32), filt, 2)
        np.testing.assert_array_equal(thr, 0.0)

    def test_constant_weight_gives_uniform_scaled_threshold(self):
        filt = make_filter("daubechies-6")
        thr = per_coefficient_thresholds(1.5, np.full(32, 2.0), filt, 2)
        layout = coefficient_layout(32, 2)
        np.testing.assert_allclose(thr[layout.detail_mask], 3.0, atol=1e-10)

    def test_zero_lambda_functional_step_interpolates(self):
        data, _, _ = _gaussian_data(4)
        config = FitConfig(penalty=PenaltyConfig(lam=0.0))
        beta = np.array([0.7, -0.2])
        filt = make_filter(config.filter_name)
        f = idwt(functional_step(data, Gaussian(), beta, np.zeros(data.n), config, filt), filt)
        np.testing.assert_allclose(f, data.y - data.X @ beta, atol=1e-10)

    def test_coarse_only_truth_keeps_details_at_zero(self):
        # noiseless data whose f lives entirely in the scaling block:
        # thresholding cannot create detail coefficients
        n = 64
        config = FitConfig()
        filt = make_filter(config.filter_name)
        j0 = config.penalty.resolve_coarse_level(n)
        layout = coefficient_layout(n, j0)
        theta = np.zeros(n)
        theta[layout.scaling_slice] = np.linspace(1.0, 4.0, 1 << j0)
        f0 = idwt(replace(dwt(np.zeros(n), filt, j0), values=theta), filt)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, 1))
        beta0 = np.array([2.0])
        data = Dataset(y=X @ beta0 + f0, X=X)
        f = idwt(functional_step(data, Gaussian(), beta0, f0, config, filt), filt)
        np.testing.assert_allclose(dwt(f, filt, j0).details, 0.0, atol=1e-10)
        np.testing.assert_allclose(f, f0, atol=1e-10)

    def test_poisson_linear_step_matches_scalar_newton(self):
        # p=1, f=0: the score equation sum (y - e^{xb}) x = 0 has a
        # scalar Newton oracle
        rng = np.random.default_rng(3)
        n = 256
        x = 0.3 * rng.standard_normal(n)
        fam = make_family("poisson")
        y = fam.sample(x * 0.8, rng)
        data = Dataset(y=y, X=x[:, None])
        beta = np.zeros(1)
        for _ in range(100):
            beta = linear_step(data, fam, beta, np.zeros(n))
        b = 0.0
        for _ in range(100):
            score = float(np.sum((y - np.exp(x * b)) * x))
            info = float(np.sum(np.exp(x * b) * x * x))
            b += score / info
        assert abs(beta[0] - b) < 1e-8

    def test_pure_glm_backfit_f_is_thresholded_residual_transform(self):
        # f0 = 0 data: beta matches OLS and the returned f equals the
        # soft-thresholded DWT of the fitted residuals
        rng = np.random.default_rng(14)
        n = 128
        X = rng.standard_normal((n, 2))
        y = X @ [3.0, -1.5] + 0.1 * rng.standard_normal(n)
        data = Dataset(y=y, X=X)
        config = FitConfig(kappa=2000, delta=1e-16)
        fit = backfit(data, Gaussian(), config)
        ols, *_ = np.linalg.lstsq(X, y - fit.f_hat, rcond=None)
        np.testing.assert_allclose(fit.beta, ols, atol=1e-10)
        filt = make_filter(config.filter_name)
        j0 = config.penalty.resolve_coarse_level(n)
        lam = universal_lambda(Gaussian(), n)
        coeffs = dwt(y - X @ fit.beta, filt, j0)
        values = coeffs.values.copy()
        mask = coeffs.layout.detail_mask
        values[mask] = soft_threshold(values[mask], lam)
        expected_f = idwt(replace(coeffs, values=values), filt)
        np.testing.assert_allclose(fit.f_hat, expected_f, atol=1e-8)

    def test_exact_linear_data_recovers_beta_and_kills_details(self):
        rng = np.random.default_rng(15)
        n = 128
        X = rng.standard_normal((n, 2))
        beta0 = np.array([50.0, -30.0])
        data = Dataset(y=X @ beta0, X=X)
        config = FitConfig(kappa=3000, delta=1e-16)
        fit = backfit(data, Gaussian(), config)
        np.testing.assert_allclose(fit.beta, beta0, atol=1e-6)
        filt = make_filter(config.filter_name)
        j0 = config.penalty.resolve_coarse_level(n)
        assert np.max(np.abs(dwt(fit.f_hat, filt, j0).details)) < 1e-8

    def test_penalty_of_constant_function_is_zero(self):
        filt = make_filter("daubechies-8")
        coeffs = dwt(np.full(64, 5.0), filt, 3)
        assert penalty_value(coeffs, PenaltyConfig(), 1.0) == pytest.approx(0.0, abs=1e-10)
        assert penalty_value(coeffs, PenaltyConfig(kind="sobolev"), 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_criterion_nondecreasing_on_gaussian_instance(self):
        data, _, _ = _gaussian_data(20, n=128)
        fam = Gaussian()
        config = FitConfig(kappa=40, delta=0.0)
        filt = make_filter(config.filter_name)
        f, beta = initialize(data, fam)
        crits = []
        for _ in range(config.kappa):
            theta = functional_step(data, fam, beta, f, config, filt)
            f = idwt(theta, filt)
            beta = linear_step(data, fam, beta, f)
            crits.append(criterion_value(data, fam, beta, f, theta, config))
        diffs = np.diff(crits)
        assert np.all(diffs >= -1e-8)
        # backfit records the same criterion path
        fit = backfit(data, fam, config)
        np.testing.assert_array_equal(fit.trace, crits[:fit.iterations])
