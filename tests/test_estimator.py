import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wavegplm import (
    ConfigurationError,
    Dataset,
    DimensionError,
    DomainError,
    FitConfig,
    FitDivergenceError,
    FitError,
    Gaussian,
    GplmFit,
    NumericError,
    PenaltyConfig,
    RankError,
    WaveletCoefficients,
    WaveletFilter,
    backfit,
    backfit_rows,
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
        # NaN and inf as well, which `lam < 0` lets through
        for lam in (-0.5, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="finite and nonnegative"):
                PenaltyConfig(lam=lam)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_lockstep_rejects_negative_or_non_finite_levels(self, bad):
        data, family, config, lams = _lockstep_case("gaussian")
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            backfit_rows(data, family, config, lams[:-1] + [bad])

    def test_sobolev_smoothness(self):
        with pytest.raises(ConfigurationError):
            PenaltyConfig(kind="sobolev", sobolev_s=0.5)
        PenaltyConfig(kind="sobolev", sobolev_s=0.51)

    def test_fit_counts(self):
        with pytest.raises(ConfigurationError):
            FitConfig(kappa=0)

    @pytest.mark.parametrize("delta", [-1e-12, math.nan, math.inf])
    def test_negative_or_non_finite_delta(self, delta):
        # NaN never ends a fit and inf ends it at iteration 2 with a warning
        with pytest.raises(ConfigurationError, match="delta must be finite and nonnegative"):
            FitConfig(delta=delta)

    def test_dataset_shapes(self):
        with pytest.raises(DimensionError):
            Dataset(y=np.zeros(12), X=np.zeros((12, 1)))
        with pytest.raises(DimensionError):
            Dataset(y=np.zeros(8), X=np.zeros((4, 1)))

    def test_dataset_needs_a_covariate(self):
        with pytest.raises(DimensionError, match="at least one covariate column"):
            Dataset(y=np.zeros(8), X=np.zeros((8, 0)))

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
        # no weights (a gaussian evaluation) takes the cached |Psi Psi^T 1|;
        # it gives the bits of the weighted formula at w = 1, row by row
        lam = np.array([2.5, 0.7])
        for n in (64, 4096):
            signals = np.random.default_rng(n).standard_normal((2, n))
            unit, coeffs = per_coefficient_thresholds(lam, None, filt, 3, signals)
            weighted, expected = per_coefficient_thresholds(lam, np.ones((2, n)), filt, 3,
                                                            signals)
            np.testing.assert_array_equal(unit, weighted)
            np.testing.assert_array_equal(coeffs.values, expected.values)

    def test_unit_weights_without_signals_name_the_missing_signals(self):
        # w = 1 leaves n to the signals
        with pytest.raises(ConfigurationError, match="signals"):
            per_coefficient_thresholds(1.0, None, make_filter("haar"), 2)

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
        # the vector taken from a cold and then from a warm cache (for the
        # gaussian w = 1, lambda times the cached base); each cache entry
        # holds one read-only array, Psi^T 1 or the base
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
        signal = _synthesized_ones(n, filt, j0, False)
        assert _synthesized_ones.cache_info()[:2] == (2, 1)  # hits, misses
        base = _synthesized_ones(n, filt, j0, True)
        assert _synthesized_ones.cache_info()[:2] == (2, 2)
        expected_base = np.abs(dwt(ones, filt, j0).values)
        expected_base[:1 << j0] = 0.0
        thr, _ = per_coefficient_thresholds(lam, None, filt, j0, eta)
        assert _synthesized_ones.cache_info()[:2] == (3, 2)
        np.testing.assert_array_equal(thr, lam * expected_base)
        for cached, reference in ((signal, ones), (base, expected_base)):
            assert not cached.flags.writeable
            np.testing.assert_array_equal(cached, reference)
            np.testing.assert_array_equal(np.signbit(cached), np.signbit(reference))

    def test_directly_built_filter_uses_its_own_taps(self):
        # under a name of its own, and under a supported name with other
        # taps, a filter gets lambda |dwt(w * idwt(1))| from its own taps
        n, j0 = 64, 2
        taps = make_filter("daubechies-4").lowpass
        w = np.exp(np.random.default_rng(3).standard_normal(n))
        ones = WaveletCoefficients(values=np.ones(n), layout=coefficient_layout(n, j0))
        for name in ("custom", "haar"):
            filt = WaveletFilter(name=name, lowpass=taps, vanishing_moments=2)
            expected = np.abs(dwt(w * idwt(ones, filt), filt, j0).values)
            expected[:1 << j0] = 0.0
            thr = per_coefficient_thresholds(1.0, w, filt, j0)
            np.testing.assert_array_equal(thr, expected)
            np.testing.assert_array_equal(np.signbit(thr), np.signbit(expected))


def _gaussian_data(seed, n=64, p=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta0 = np.arange(1, p + 1, dtype=float)
    t = np.arange(1, n + 1) / n
    f0 = np.sin(2 * np.pi * t)
    y = X @ beta0 + f0 + sigma * rng.standard_normal(n)
    return Dataset(y=y, X=X), beta0, f0


class _UnitWeightsAsArray(Gaussian):
    """The gaussian family with bddot = 1 spelled out as an array of ones,
    which sends the steps down the weighted path."""

    def evaluate(self, eta, cumulant=False):
        return replace(super().evaluate(eta, cumulant), b_ddot=np.ones(np.shape(eta)))


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
        # the unit-weight step gives the bits of the weighted one at bddot = 1,
        # alone and for a stack of rows; at n = 4096 numpy's X.T @ X (BLAS
        # syrk) differs from the weighted Gram matrix in the last bits
        big, _, f_big = _gaussian_data(seed, n=4096)
        stack = Dataset(y=np.stack([big.y, big.y[::-1]]), X=big.X)
        for rows, f in ((big, f_big), (stack, np.stack([f_big, -f_big]))):
            beta = np.zeros(rows.y.shape[:-1] + (2,))
            np.testing.assert_array_equal(linear_step(rows, fam, beta, f),
                                          linear_step(rows, _UnitWeightsAsArray(), beta, f))

    def test_dataset_forms_its_unit_normal_equations_once(self):
        # the first gaussian linear step forms X^T and X^T X on the dataset;
        # a second step reuses those two arrays and gives the same bits
        data, _, f0 = _gaussian_data(4)
        fam = Gaussian()
        assert "_unit_normal" not in vars(data)
        first = linear_step(data, fam, np.zeros(2), f0)
        xt, gram = data._unit_normal
        second = linear_step(data, fam, np.zeros(2), f0)
        assert data._unit_normal[0] is xt and data._unit_normal[1] is gram
        np.testing.assert_array_equal(second, first)
        np.testing.assert_array_equal(np.signbit(second), np.signbit(first))


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

    def test_large_gaussian_fit_peak(self):
        # at n = 65536 a warm gaussian fit holds the copy of X (two
        # n-vectors), the carried f, X beta and eta, and one iteration's
        # theta, f and transform buffers: at most 12 n-vectors at its
        # traced peak, the data not counted.  X is a strided view, as the
        # CLI hands it over
        n = 65536
        rng = np.random.default_rng(4)
        table = np.empty((n, 3))
        table[:, 1:] = rng.standard_normal((n, 2))
        table[:, 0] = table[:, 1:] @ [1.0, -0.5] + np.sin(np.arange(n) / 900.0)
        table[:, 0] += rng.standard_normal(n)
        data = Dataset(y=table[:, 0], X=table[:, 1:])
        family, config = make_family("gaussian"), FitConfig(kappa=1000, delta=1e-12)
        backfit(data, family, config)  # the caches
        tracemalloc.start()
        try:
            fit = backfit(data, family, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.iterations > 1
        assert peak <= 12 * n * 8

    def test_transform_budget(self, monkeypatch):
        # per outer iteration: one dwt of the pseudo-responses (stacked with
        # w Psi^T 1 under the poisson weights; the unit gaussian weights
        # take the thresholds from the cache), one idwt of theta, and two
        # family evaluations, at X beta + f_new for the linear step and at
        # X beta_new + f_new for the criterion and the next functional
        # step.  Once per fit: the first functional step's evaluation and
        # final_loglik's; per cold cache, the gaussian threshold base costs
        # one idwt and one dwt, and the poisson Psi^T 1 one idwt
        import wavegplm.estimator as estimator

        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimator, "dwt", counted(estimator, "dwt"))
        monkeypatch.setattr(estimator, "idwt", counted(estimator, "idwt"))
        data, _, _ = _gaussian_data(2)
        for kind in ("gaussian", "poisson"):
            family = make_family(kind)
            monkeypatch.setattr(family, "evaluate", counted(family, "evaluate"))
            if kind == "poisson":
                data = Dataset(y=family.sample(0.3 * data.y, np.random.default_rng(2)),
                               X=data.X)
            estimator._synthesized_ones.cache_clear()
            for cold in (1, 0):
                calls.update(dwt=0, idwt=0, evaluate=0)
                fit = backfit(data, family, FitConfig(kappa=25, delta=0.0))
                assert fit.iterations >= 20
                assert calls == {"dwt": fit.iterations + cold * (kind == "gaussian"),
                                 "idwt": fit.iterations + cold,
                                 "evaluate": 2 * fit.iterations + 2}

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


def _lockstep_case(kind):
    """(data with stacked y, family, config, per-row lambdas) of one mix of rows."""
    from wavegplm.simulate import covariate_design, design_rng, replication_rng, test_function

    n = 256
    if kind == "gaussian":
        # rows that converge at different iterations, and one row whose
        # non-finite response fails the first iteration
        family = make_family("gaussian")
        X = covariate_design(n, 2, design_rng(3))
        eta0 = X @ [1.0, -0.5] + test_function("sinus", n, 9.0).values
        ys = [family.sample(eta0, replication_rng(3, r)) for r in range(4)]
        ys.insert(2, np.where(np.arange(n) == 7, np.nan, ys[0]))
        lams = [1.0, 3.3, 3.3, 2.0, 4.0]
        return Dataset(y=np.array(ys), X=X), family, FitConfig(kappa=200, delta=1e-12), lams
    if kind == "binomial":
        # a row that cycles up to the cap among rows that converge
        family = make_family("binomial", m=24)
        X = covariate_design(n, 1, design_rng(11))
        eta0 = X[:, 0] + test_function("sinus", n, 5.0, phi=family.phi).values
        ys = [family.sample(eta0, replication_rng(11, r)) for r in range(4)]
        lams = [0.2, 0.4, 0.3, 0.6]
        return Dataset(y=np.array(ys), X=X), family, FitConfig(kappa=120, delta=1e-6), lams
    # poisson seed 5: replication 5 leaves the sup-norm bound at iteration
    # 14 (1.2 sqrt(log n)) and 84 (1.6 sqrt(log n)), replication 29 stops
    # on the criterion's decrease, the other rows run to the cap
    family = make_family("poisson")
    X = covariate_design(n, 1, design_rng(5))
    eta0 = X[:, 0] + test_function("sinus", n, 1.5).values
    scale = math.sqrt(math.log(n))
    rows = [(0, 1.2), (5, 1.2), (5, 1.6), (29, 2.0), (0, 2.4), (5, 2.4)]
    ys = [family.sample(eta0, replication_rng(5, r)) for r, _ in rows]
    lams = [q * scale for _, q in rows]
    return Dataset(y=np.array(ys), X=X), family, FitConfig(kappa=100, delta=1e-12), lams


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "binomial", "poisson", "singular"])
def test_lockstep_rows_equal_one_row_backfits(kind):
    data, family, config, lams = _lockstep_case("gaussian" if kind == "singular" else kind)
    if kind == "singular":
        data = Dataset(y=data.y, X=np.column_stack([data.X, np.zeros(data.n)]))
    fits = backfit_rows(data, family, config, lams)
    outcomes = []
    for y, lam, fit in zip(data.y, lams, fits):
        alone_config = replace(config, penalty=replace(config.penalty, lam=lam))
        try:
            alone = backfit(Dataset(y=y, X=data.X), family, alone_config)
        except FitError as exc:
            assert type(fit) is type(exc) and str(fit) == str(exc)
            outcomes.append(str(exc))
            continue
        assert isinstance(fit, GplmFit)
        for name in ("beta", "f_hat", "trace", "iterations", "converged", "criterion",
                     "final_loglik", "lam"):
            _assert_same_bits(getattr(fit, name), getattr(alone, name))
        outcomes.append(("converged" if fit.converged else "cap", fit.iterations))
    print(kind, outcomes)
    if kind == "gaussian":
        iterations = {o[1] for o in outcomes if o[0] == "converged"}
        assert len(iterations) >= 3 and outcomes[2].endswith("non-finite values")
    elif kind == "binomial":
        assert ("cap", 120) in outcomes and any(o[0] == "converged" for o in outcomes)
    elif kind == "poisson":
        assert outcomes[1].endswith("(outer iteration 14)")
        assert outcomes[2].endswith("(outer iteration 84)")
        assert "criterion decreased" in outcomes[3]
        assert outcomes[0] == outcomes[4] == outcomes[5] == ("cap", 100)
    else:
        singular = "outer iteration 1: singular weighted normal equations"
        assert outcomes == [singular] * 2 + [
            "outer iteration 1: natural parameter contains non-finite values"] + [singular] * 2


@pytest.mark.parametrize("kind", ["binomial", "poisson"])
def test_lockstep_carries_only_the_mean_and_bddot(kind):
    # the next iteration reads the family's mean and bddot at the
    # criterion's eta; eta and the cumulant would be dead n-vectors, also
    # in the rows that stay when others leave
    from wavegplm.estimator import _Active

    data, family, config, lams = _lockstep_case(kind)
    f, beta = initialize(data, family)
    active = _Active(np.arange(len(lams)), data, np.array(lams), beta, f)
    *_, at = active.iterate(family, config, make_filter(config.filter_name), 0)
    for carried, rows in ((at, len(lams)), (at.rows(slice(1, None)), len(lams) - 1)):
        assert carried.eta is None and carried.cumulant is None
        assert carried.mean.shape == carried.b_ddot.shape == (rows, data.n)


def _backfit_by_hand(data, family, config, lam, iterations):
    """(beta, f, trace) after ``iterations`` outer iterations of one row,
    each a fresh call of the public steps with nothing carried over, with
    backfit's error checks; or the FitError backfit raises."""
    from wavegplm.estimator import EXPLOSION_BOUND

    filt = make_filter(config.filter_name)
    j0 = config.penalty.resolve_coarse_level(data.n)
    if config.freeze_f_at_zero:
        f, beta = np.zeros(data.n), np.zeros(data.p)
        theta = dwt(f, filt, j0)
    else:
        f, beta = initialize(data, family)
    trace = []
    for k in range(iterations):
        try:
            if not config.freeze_f_at_zero:
                theta = functional_step(data, family, beta, f, config, filt, lam)
                f = idwt(theta, filt)
            beta = linear_step(data, family, beta, f)
        except (NumericError, RankError) as exc:
            return FitError(f"outer iteration {k + 1}: {exc}")
        if np.max(np.abs(f)) > EXPLOSION_BOUND or np.max(np.abs(beta)) > EXPLOSION_BOUND:
            return FitDivergenceError(
                f"iterates exceeded sup-norm bound {EXPLOSION_BOUND:g} (outer iteration {k + 1})")
        trace.append(criterion_value(data, family, beta, f, theta, config, lam))
    return beta, f, np.array(trace)


def _assert_loop_equals_steps(data, family, config, lams):
    """backfit_rows against each row stepped by hand; returns the fits."""
    fits = backfit_rows(data, family, config, lams)
    for row, lam, fit in zip(data.y, lams, fits):
        returned = isinstance(fit, GplmFit)
        by_hand = _backfit_by_hand(Dataset(y=row, X=data.X), family, config, lam,
                                   fit.iterations if returned else config.kappa)
        if returned:
            for name, value in zip(("beta", "f_hat", "trace"), by_hand):
                _assert_same_bits(getattr(fit, name), value)
        else:
            assert type(by_hand) is type(fit) and str(by_hand) == str(fit)
    return fits


@pytest.mark.parametrize("variant", ["l1", "sobolev", "frozen", "coarse-0"])
@pytest.mark.parametrize("kind", ["gaussian", "poisson", "binomial"])
def test_lockstep_loop_equals_public_steps(kind, variant):
    # the loop carries X beta and the family at the criterion's eta into
    # the next iteration and stacks its analyses; stepping each row by hand
    # through the public steps, which recompute everything, gives the same
    # bits
    from wavegplm.simulate import covariate_design, design_rng, replication_rng, test_function

    n = 256
    family = make_family(kind, m=8 if kind == "binomial" else None)
    X = covariate_design(n, 2, design_rng(4))
    eta0 = X @ [0.5, -0.3] + test_function("sinus", n, 3.0, phi=family.phi).values
    y = np.array([family.sample(eta0, replication_rng(4, r)) for r in range(3)])
    lams = [q * universal_lambda(family, n) for q in (0.6, 1.0, 1.5)]
    penalty = PenaltyConfig(kind="sobolev" if variant == "sobolev" else "l1",
                            coarse_level=0 if variant == "coarse-0" else None)
    config = FitConfig(kappa=40, delta=1e-12, penalty=penalty,
                       freeze_f_at_zero=variant == "frozen")
    _assert_loop_equals_steps(Dataset(y=y, X=X), family, config, lams)


def test_lockstep_loop_fails_where_public_steps_fail():
    # poisson seed 5: replication 5 leaves the sup-norm bound at iteration
    # 14 at 1.2 sqrt(log n) and at iteration 84 at 1.6 sqrt(log n)
    data, family, config, lams = _lockstep_case("poisson")
    fits = _assert_loop_equals_steps(Dataset(y=data.y[:3], X=data.X), family, config, lams[:3])
    assert isinstance(fits[0], GplmFit)
    assert [str(fit) for fit in fits[1:]] == [
        f"iterates exceeded sup-norm bound 1e+06 (outer iteration {k})" for k in (14, 84)]


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("kind, value", [("poisson", -4.0), ("binomial", 3.0),
                                         ("binomial", -0.25)])
def test_out_of_support_response_is_a_domain_error(kind, value, frozen):
    # checked before the first iteration, also when f stays frozen at zero
    n = 64
    rng = np.random.default_rng(0)
    family = make_family(kind, m=4)
    X = rng.standard_normal((n, 1))
    y = family.sample(X[:, 0], rng)
    y[17] = value
    config = FitConfig(kappa=5, freeze_f_at_zero=frozen)
    with pytest.raises(DomainError, match=re.escape(
            f"{kind} response {value:g} at index 17 lies outside [0, ")):
        backfit(Dataset(y=y, X=X), family, config)
    stack = np.array([family.sample(X[:, 0], rng), y])
    with pytest.raises(DomainError, match="at index 1, 17 lies"):
        backfit_rows(Dataset(y=stack, X=X), family, config)


@pytest.mark.parametrize("kind", ["poisson", "binomial"])
def test_support_ends_fit(kind):
    n = 64
    rng = np.random.default_rng(1)
    family = make_family(kind, m=4)
    X = rng.standard_normal((n, 1))
    y = family.sample(X[:, 0], rng)
    y[:3] = [0.0, 1.0, 0.0]
    fit = backfit(Dataset(y=y, X=X), family, FitConfig(kappa=5))
    assert fit.iterations == 5
