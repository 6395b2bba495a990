import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wavegplm import (
    ConfigurationError,
    DimensionError,
    FitConfig,
    FitError,
    Gaussian,
    PenaltyConfig,
    SimulationConfig,
    calibrate_threshold,
    calibration_regression,
    covariate_design,
    make_family,
    quartic_trend,
    rmise,
    run_monte_carlo,
    snr,
)
from wavegplm import simulate
from wavegplm import test_function as benchmark_function
from wavegplm.simulate import design_rng, replication_rng


class TestCovariateDesign:
    def test_trend_values(self):
        # g(1/2) = 0, g(0) = 30/16 - 6/4 - 1/2
        assert quartic_trend(0.5) == pytest.approx(0.0)
        assert quartic_trend(0.0) == pytest.approx(30 / 16 - 1.5 - 0.5)

    def test_columns_share_trend(self):
        X = covariate_design(256, 3, np.random.default_rng(0))
        t = np.arange(1, 257) / 256
        centered = X - quartic_trend(t)[:, None]
        # residuals are iid standard normal
        assert abs(centered.mean()) < 0.1
        assert abs(centered.std() - 1.0) < 0.05

    def test_needs_positive_p(self):
        with pytest.raises(ConfigurationError):
            covariate_design(8, 0, np.random.default_rng(0))


class TestTestFunction:
    def test_zero_target_gives_zero_function(self):
        assert np.all(benchmark_function("sinus", 64, 0.0).values == 0.0)

    @pytest.mark.parametrize("name", ["sinus", "blocs", "pics"])
    def test_snr_self_consistency(self, name):
        # amplitude scaling must make the gaussian-family SNR hit the target
        n = 256
        f0 = benchmark_function(name, n, 9.0).values
        X = np.zeros((n, 1))
        snr_f, snr_b = snr(Gaussian(phi=1.0), X, [0.0], f0)
        assert snr_f == pytest.approx(9.0, abs=1e-8)
        assert snr_b == 0.0

    def test_sinus_jump(self):
        f0 = benchmark_function("sinus", 1024, 3.0).values
        t = np.arange(1, 1025) / 1024
        # one upward discontinuity just after t = 0.7
        i = np.searchsorted(t, 0.7, side="right")
        assert f0[i] - f0[i - 1] > 0.5

    def test_blocs_is_piecewise_constant(self):
        f0 = benchmark_function("blocs", 2048, 3.0).values
        jumps = np.abs(np.diff(f0)) > 1e-9
        # count maximal runs of nonzero differences: one per discontinuity
        runs = np.sum(jumps & ~np.concatenate(([False], jumps[:-1])))
        assert runs == 11

    def test_pics_is_nonnegative_with_peaks(self):
        f0 = benchmark_function("pics", 1024, 3.0).values
        assert np.all(f0 >= 0.0)
        assert f0.max() > 5 * np.median(f0)

    def test_dispersion_reference_scales_amplitude(self):
        a = benchmark_function("sinus", 64, 3.0, phi=1.0).values
        b = benchmark_function("sinus", 64, 3.0, phi=0.25).values
        np.testing.assert_allclose(b, 0.5 * a, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            benchmark_function("doppler", 64, 1.0)

    def test_non_dyadic_grid(self):
        with pytest.raises(DimensionError):
            benchmark_function("sinus", 100, 1.0)

    def test_zero_dispersion_rejected(self):
        # an SNR is relative to the noise, so a noiseless design has none
        with pytest.raises(ConfigurationError, match="positive dispersion"):
            benchmark_function("sinus", 64, 3.0, phi=0.0)
        assert not benchmark_function("sinus", 64, 0.0, phi=0.0).values.any()


class TestSnrAndRmise:
    def test_constant_function_gaussian(self):
        n = 16
        X = np.zeros((n, 1))
        snr_f, snr_b = snr(Gaussian(phi=1.0), X, [0.0], np.full(n, 2.0))
        assert snr_f == pytest.approx(2.0)
        assert snr_b == 0.0

    def test_dispersion_scaling_law(self):
        n = 32
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, 1))
        f0 = rng.standard_normal(n)
        a = snr(Gaussian(phi=1.0), X, [1.0], f0)
        b = snr(Gaussian(phi=2.0), X, [1.0], f0)
        np.testing.assert_allclose(np.array(b) * math.sqrt(2.0), a, rtol=1e-12)

    def test_rmise_metric_properties(self):
        rng = np.random.default_rng(1)
        f, g, h = rng.standard_normal((3, 64))
        assert rmise(f, f) == 0.0
        assert rmise(f, g) == pytest.approx(rmise(g, f))
        assert rmise(f, h) <= rmise(f, g) + rmise(g, h) + 1e-12

    def test_rmise_values(self):
        f0 = np.zeros(8)
        assert rmise(f0 + 3.0, f0) == pytest.approx(3.0)
        alt = np.resize([1.0, -1.0], 8)
        assert rmise(alt, f0) == pytest.approx(1.0)

    def test_rmise_length_mismatch(self):
        with pytest.raises(DimensionError):
            rmise(np.zeros(8), np.zeros(16))


class TestSeedHierarchy:
    def test_replication_stream_depends_only_on_index(self):
        a = replication_rng(42, 3).standard_normal(5)
        b = replication_rng(42, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        draws = [design_rng(0).standard_normal(4)]
        draws += [replication_rng(0, r).standard_normal(4) for r in range(3)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])


_FAST_FIT = FitConfig(kappa=300, delta=1e-10)


def _small_config(**kw):
    base = dict(family_kind="gaussian", function="sinus", n=64,
                target_snr_f=5.0, replications=5, seed=3, fit=_FAST_FIT)
    base.update(kw)
    return SimulationConfig(**base)


class TestRunMonteCarlo:
    def test_reproducible(self):
        a = run_monte_carlo(_small_config())
        b = run_monte_carlo(_small_config())
        np.testing.assert_array_equal(a.betas, b.betas)
        np.testing.assert_array_equal(a.rmises, b.rmises)
        assert a.failures == b.failures == 0

    def test_single_rep_matches_ols_oracle(self):
        # lambda=0, f0 = 0: the fit must solve ordinary least squares
        fit_cfg = FitConfig(kappa=300, delta=1e-14,
                            penalty=PenaltyConfig(lam=0.0),
                            freeze_f_at_zero=True)
        cfg = _small_config(target_snr_f=0.0, replications=1, fit=fit_cfg)
        report = run_monte_carlo(cfg)
        X = covariate_design(cfg.n, cfg.p, design_rng(cfg.seed))
        fam = cfg.family()
        y = fam.sample(X @ np.array([cfg.beta0]), replication_rng(cfg.seed, 0))
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(report.betas[0], oracle, atol=1e-10)

    def test_snr_beta_targeting(self):
        report = run_monte_carlo(_small_config(target_snr_beta=4.0, replications=1))
        assert report.snr_beta == pytest.approx(4.0, rel=1e-8)

    def test_beta_estimates_near_truth(self):
        report = run_monte_carlo(_small_config(n=256, replications=10,
                                               target_snr_f=9.0,
                                               target_snr_beta=9.0))
        assert report.failures == 0
        assert abs(report.mean_beta[0] - 1.0) < 0.1
        assert report.mean_rmise < 1.0

    def test_mean_iterations_skips_failed_fits(self):
        # replication 5 diverges at this threshold; its count stays 0 and
        # must not pull the mean below the iterations of the fits that ran
        lam = 1.2 * math.sqrt(math.log(256))
        fit_cfg = FitConfig(kappa=20, penalty=PenaltyConfig(lam=lam))
        report = run_monte_carlo(_small_config(
            family_kind="poisson", n=256, target_snr_f=1.5, replications=6,
            seed=5, fit=fit_cfg))
        assert report.failures == 1
        np.testing.assert_array_equal(report.iteration_counts, [20] * 5 + [0])
        assert report.mean_iterations == 20.0

    def test_aggregates_without_returned_fits_are_nan_and_silent(self):
        # the only fit diverges, as at the first point of
        # test_argmin_skips_failed_grid_points
        lam = 1.2 * math.sqrt(math.log(256))
        failed = run_monte_carlo(SimulationConfig(
            family_kind="poisson", function="sinus", n=256, target_snr_f=1.5,
            replications=1, seed=1,
            fit=FitConfig(kappa=200, penalty=PenaltyConfig(lam=lam))))
        single = run_monte_carlo(_small_config(replications=1))
        assert failed.failures == 1 and single.failures == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(failed.mean_beta).all()
            assert np.isnan(failed.sd_beta).all()
            assert math.isnan(failed.mean_rmise)
            assert math.isnan(failed.mean_iterations)
            # one returned fit has a mean but no standard deviation
            assert np.isfinite(single.mean_beta).all()
            assert np.isnan(single.sd_beta).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _small_config(replications=0)
        with pytest.raises(DimensionError):
            _small_config(n=100)

    @pytest.mark.parametrize("field", ["beta0", "target_snr_f", "target_snr_beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            _small_config(**{field: value})

    @pytest.mark.parametrize("snr_beta", [None, 2.0])
    def test_zero_dispersion_rejected(self, snr_beta):
        config = _small_config(phi=0.0, target_snr_beta=snr_beta)
        with pytest.raises(ConfigurationError, match="positive dispersion"):
            run_monte_carlo(config)


class TestCalibration:
    def test_curve_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_threshold(_small_config(), [])
        with pytest.raises(ConfigurationError):
            calibrate_threshold(_small_config(), [1.0, 0.5])

    def test_undersmoothing_penalty_visible(self):
        # near lambda = 0 nothing is denoised, so mean rmise must exceed
        # the curve's minimum
        cfg = _small_config(n=128, replications=8)
        lam0 = math.sqrt(2 * math.log(128))
        curve = calibrate_threshold(cfg, np.array([1e-3, 0.5 * lam0, lam0]))
        assert curve.mean_rmise[0] > curve.mean_rmise.min()
        assert curve.argmin_lambda != pytest.approx(1e-3)

    def test_argmin_skips_failed_grid_points(self):
        # the only fit at 1.2 sqrt(log n) diverges; the argmin must come
        # from the points that have an estimate
        cfg = SimulationConfig(family_kind="poisson", function="sinus", n=256,
                               target_snr_f=1.5, replications=1, seed=1,
                               fit=FitConfig(kappa=200))
        grid = np.array([1.2, 1.6, 2.0]) * math.sqrt(math.log(256))
        curve = calibrate_threshold(cfg, grid)
        assert np.isnan(curve.mean_rmise[0])
        np.testing.assert_array_equal(curve.failures, [1, 0, 0])
        assert curve.argmin_lambda == grid[1]
        # when every fit fails, the error names the first failure
        with pytest.raises(FitError, match=re.escape(
                f"grid; the first was replication 0 at lambda {grid[0]:g}: "
                "iterates exceeded sup-norm bound")):
            calibrate_threshold(cfg, grid[:1])

    def test_regression_exact_proportionality(self):
        x = np.array([1.0, 2.0, 4.0])
        c, r2 = calibration_regression(x, 0.5 * x)
        assert c == pytest.approx(0.5)
        assert r2 == pytest.approx(1.0)

    def test_regression_residual_lowers_r2(self):
        x = np.array([1.0, 2.0, 4.0])
        y = 0.5 * x + np.array([0.3, -0.3, 0.1])
        c, r2 = calibration_regression(x, y)
        assert 0.0 < r2 < 1.0

    def test_regression_validation(self):
        with pytest.raises(DimensionError):
            calibration_regression([1.0], [1.0, 2.0])


def test_shared_seed_sweep_reuses_datasets():
    # identical grids produce identical curves because the seeds are shared
    cfg = _small_config(replications=4)
    grid = np.array([1.0, 2.0])
    a = calibrate_threshold(cfg, grid)
    b = calibrate_threshold(cfg, grid)
    np.testing.assert_array_equal(a.mean_rmise, b.mean_rmise)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_results_do_not_depend_on_the_lockstep_block(monkeypatch, rows):
    # Poisson seed 5: replication 5 fails at 1.2 and 1.6 sqrt(log n), so
    # blocks of 1, 2 and 5 rows split a replication's grid and hold a
    # failure in a later block; the default block holds all 21 fits
    n = 256
    grid = np.array([1.2, 1.6, 2.0]) * math.sqrt(math.log(n))
    cfg = SimulationConfig(family_kind="poisson", function="sinus", n=n, target_snr_f=1.5,
                           replications=7, seed=5, fit=FitConfig(kappa=120))
    mc_cfg = replace(cfg, fit=replace(cfg.fit, penalty=PenaltyConfig(lam=grid[0])))
    runs = [(calibrate_threshold(cfg, grid), run_monte_carlo(mc_cfg))]
    monkeypatch.setattr(simulate, "LOCKSTEP_ELEMENTS", rows * n)
    runs.append((calibrate_threshold(cfg, grid), run_monte_carlo(mc_cfg)))
    (curve, report), (block_curve, block_report) = runs
    np.testing.assert_array_equal(curve.failures, [1, 1, 0])
    assert report.failures == 1 and report.iteration_counts[5] == 0
    assert _bits(block_curve.mean_rmise) == _bits(curve.mean_rmise)
    assert _bits(block_curve.failures) == _bits(curve.failures)
    assert block_curve.argmin_lambda == curve.argmin_lambda
    for name in ("betas", "rmises", "iteration_counts", "example_f_hat"):
        assert _bits(getattr(block_report, name)) == _bits(getattr(report, name)), name
    assert block_report.failures == report.failures
