"""Each correctness check of the benchmark rejects a wrong answer.

    python3 -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def gaussian_sample(n=256, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    f0 = np.sin(2 * np.pi * np.arange(1, n + 1) / n)
    y = X @ np.array([1.0, -0.5]) + f0 + rng.standard_normal(n)
    f_hat = f0 + 0.1 * rng.standard_normal(n)
    beta = np.linalg.lstsq(X, y - f_hat, rcond=None)[0]
    document = {"converged": True, "iterations": 17, "beta": beta.tolist(),
                "f_hat": f_hat.tolist()}
    return document, y, X, f0


def test_gaussian_fit_passes_when_right():
    document, y, X, f0 = gaussian_sample()
    assert checks.check_gaussian_fit(0, document, y, X, f0, noise=1.0) == []


def test_gaussian_fit_rejects_beta_off_by_1e_6():
    document, y, X, f0 = gaussian_sample()
    document["beta"][0] += 1e-6
    assert checks.check_gaussian_fit(0, document, y, X, f0, noise=1.0)


def test_gaussian_fit_rejects_fit_stopped_early():
    document, y, X, f0 = gaussian_sample()
    document["converged"] = False
    assert checks.check_gaussian_fit(0, document, y, X, f0, noise=1.0)


def test_gaussian_fit_rejects_nonzero_exit_and_noise_level_error():
    document, y, X, f0 = gaussian_sample()
    assert checks.check_gaussian_fit(3, document, y, X, f0, noise=1.0)
    rough = dict(document, f_hat=(np.asarray(document["f_hat"]) + 1.5).tolist())
    rough["beta"] = np.linalg.lstsq(X, y - np.asarray(rough["f_hat"]), rcond=None)[0].tolist()
    assert checks.check_gaussian_fit(0, rough, y, X, f0, noise=1.0)


def monte_carlo_sample(R=100, seed=0):
    rng = np.random.default_rng(seed)
    betas = 1.0 + 0.01 * rng.standard_normal((R, 1))
    rmises = 0.8 + 0.02 * rng.standard_normal(R)
    return betas, rmises


def test_monte_carlo_passes_when_right():
    betas, rmises = monte_carlo_sample()
    assert checks.check_monte_carlo(betas, rmises, 0, noise=1.0) == []


@pytest.mark.parametrize("shift_beta, scale_beta, rmise_level, failures", [
    (0.05, 1.0, 0.8, 0),     # biased beta
    (0.0, 10.0, 0.8, 0),     # beta too variable
    (0.0, 1.0, 1.05, 0),     # no better than the raw data
    (0.0, 1.0, 0.8, 1),      # a failed replication
])
def test_monte_carlo_rejects(shift_beta, scale_beta, rmise_level, failures):
    betas, rmises = monte_carlo_sample()
    betas = 1.0 + shift_beta + scale_beta * (betas - 1.0)
    rmises = rmises - 0.8 + rmise_level
    assert checks.check_monte_carlo(betas, rmises, failures, noise=1.0)


def test_monte_carlo_rejects_nan_replication():
    betas, rmises = monte_carlo_sample()
    betas[3, 0] = np.nan
    assert checks.check_monte_carlo(betas, rmises, 0, noise=1.0)


def test_recorded_rmise():
    f0 = np.linspace(0.0, 1.0, 64)
    f_hat = f0 + 0.1
    assert checks.check_recorded_rmise(0.1, f_hat, f0) == []
    assert checks.check_recorded_rmise(0.1 + 1e-9, f_hat, f0)


def test_calibration_rejects_nan_point_and_points_above_naive():
    assert checks.check_calibration([0.7, 0.65, 0.68], naive_rmise=1.0) == []
    assert checks.check_calibration([0.7, np.nan, 0.68], naive_rmise=1.0)
    assert checks.check_calibration([0.7, 1.02, 0.68], naive_rmise=1.0)
    assert checks.check_calibration([], naive_rmise=1.0)


def test_fit_outcomes_only_named_failures_allowed():
    ok = (np.ones(1), np.zeros(8))
    assert checks.check_fit_outcomes({"a": None, "b": ok}, allowed_failures={"a"}) == []
    assert checks.check_fit_outcomes({"a": None, "b": None}, allowed_failures={"a"})
    bad = (np.ones(1), np.full(8, np.nan))
    assert checks.check_fit_outcomes({"a": bad}, allowed_failures={"a"})


def test_naive_poisson_rmise():
    f0 = np.log(np.array([2.0, 3.0, 4.0, 5.0]))
    X = np.zeros((4, 1))
    assert checks.naive_poisson_rmise(np.exp(f0), X, [1.0], f0) == pytest.approx(0.0, abs=1e-15)
    y = np.array([0.0, 3.0, 4.0, 5.0])
    expected = math.sqrt((math.log(0.5) - f0[0]) ** 2 / 4)
    assert checks.naive_poisson_rmise(y, X, [1.0], f0) == pytest.approx(expected)


def test_inputs_follow_the_package_seeding_contract():
    """The numpy regeneration used by the checks reproduces the draws the
    package makes for the same seed."""
    from wavegplm.families import make_family
    from wavegplm.simulate import (covariate_design, design_rng, replication_rng,
                                   test_function)

    n, seed = 256, 5
    X = covariate_design(n, 1, design_rng(seed))
    np.testing.assert_array_equal(workloads.design(n, 1, seed), X)
    f0 = test_function("sinus", n, 1.5).values
    np.testing.assert_allclose(workloads.sinus(n, 1.5), f0, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(workloads.pics(n, 5.0), test_function("pics", n, 5.0).values,
                               rtol=1e-15, atol=1e-15)
    y = make_family("poisson").sample(X[:, 0] + f0, replication_rng(seed, 5))
    np.testing.assert_array_equal(workloads.poisson_draw(X[:, 0] + f0, seed, 5), y)


def test_tracer_counts_transforms_and_restores_the_package():
    import wavegplm
    import wavegplm.simulate
    from spans import Tracer
    from wavegplm import Dataset, FitConfig, backfit, make_family

    originals = (wavegplm.estimator.dwt, wavegplm.simulate.backfit,
                 wavegplm.families.Gaussian.mean)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 1))
    y = X[:, 0] + rng.standard_normal(64)
    tracer = Tracer()
    tracer.install()
    try:
        fit = wavegplm.simulate.backfit(Dataset(y=y, X=X), make_family("gaussian"),
                                        FitConfig(kappa=50, delta=1e-12))
    finally:
        tracer.uninstall()
    figures = tracer.layer_metrics(rounds=1)
    assert figures["estimator.fits"][0] == 1
    assert figures["estimator.iterations"][0] == fit.iterations
    assert figures["wavelet.dwt.calls"][0] == 3 * fit.iterations
    assert figures["wavelet.idwt.calls"][0] == 2 * fit.iterations
    assert figures["wavelet.transforms_per_iteration"][0] == 5
    assert (wavegplm.estimator.dwt, wavegplm.simulate.backfit,
            wavegplm.families.Gaussian.mean) == originals
    assert backfit is wavegplm.estimator.backfit
