"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion.  Each test prints its measured quantities, visible
with ``-s`` or on failure.

The Monte Carlo criteria (5-8) are tolerance bands, not exact targets:
the benchmark functions have no canonical closed form, so the reference
tables can only be bracketed.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from wavegplm import (
    Dataset,
    FitConfig,
    PenaltyConfig,
    SimulationConfig,
    SUPPORTED_FILTERS,
    backfit,
    calibrate_threshold,
    calibration_regression,
    covariate_design,
    dwt,
    idwt,
    make_family,
    make_filter,
    run_monte_carlo,
    transform_matrix,
    universal_lambda,
)
from wavegplm.simulate import design_rng, replication_rng
from wavegplm import test_function as benchmark_function


def test_criterion_01_dwt_round_trip_parseval_and_matrix_agreement():
    """Round-trip and Parseval < 1e-10 for all filters, n in {8..4096};
    pyramid agrees with the dense orthogonal matrix within 1e-12."""
    started = time.perf_counter()
    worst_rt = worst_par = 0.0
    for name in SUPPORTED_FILTERS:
        filt = make_filter(name)
        for J in range(3, 13):  # n = 8 .. 4096
            n = 1 << J
            x = np.random.default_rng(J).standard_normal(n)
            coeffs = dwt(x, filt, min(3, J))
            worst_rt = max(worst_rt, float(np.max(np.abs(idwt(coeffs, filt) - x))))
            worst_par = max(worst_par, abs(float(np.linalg.norm(coeffs.values))
                                           - float(np.linalg.norm(x))))
    worst_mat = 0.0
    for name in SUPPORTED_FILTERS:
        filt = make_filter(name)
        for n in (8, 16, 32):
            j0 = min(2, int(math.log2(n)))
            psi = transform_matrix(n, filt, j0)
            x = np.random.default_rng(n).standard_normal(n)
            worst_mat = max(worst_mat, float(np.max(np.abs(psi @ x - dwt(x, filt, j0).values))))
    elapsed = time.perf_counter() - started
    print(f"criterion 1: round-trip {worst_rt:.2e}, parseval {worst_par:.2e}, "
          f"matrix {worst_mat:.2e}, {elapsed:.1f}s")
    assert worst_rt < 1e-10
    assert worst_par < 1e-10
    assert worst_mat < 1e-12
    assert elapsed < 5.0


def test_criterion_02_glm_newton_oracle_equivalence():
    """f frozen at 0, lambda = 0: backfit solves the plain GLM; compare
    with an independent Newton maximizer over 20 seeds x 3 families."""
    started = time.perf_counter()

    def newton(family, y, X):
        beta = np.zeros(X.shape[1])
        for _ in range(200):
            eta = X @ beta
            W = family.b_ddot(eta)
            step = np.linalg.solve((X.T * W) @ X, X.T @ (y - family.mean(eta)))
            beta = beta + step
            if np.linalg.norm(step) < 1e-13:
                break
        return beta

    config = FitConfig(kappa=500, delta=1e-14, penalty=PenaltyConfig(lam=0.0),
                       freeze_f_at_zero=True)
    n, p = 256, 3
    beta0 = np.array([0.5, -0.3, 0.2])
    worst = 0.0
    for kind, m in (("gaussian", None), ("binomial", 24), ("poisson", None)):
        family = make_family(kind, m=m)
        for seed in range(20):
            rng = np.random.default_rng([seed, 101])
            X = 0.4 * rng.standard_normal((n, p))
            y = family.sample(X @ beta0, rng)
            fit = backfit(Dataset(y=y, X=X), family, config)
            worst = max(worst, float(np.max(np.abs(fit.beta - newton(family, y, X)))))
    elapsed = time.perf_counter() - started
    print(f"criterion 2: worst |beta - newton| {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_03_gaussian_closed_form_equivalence():
    """Generic-family iterations equal the explicit gaussian special case
    (soft-thresholded DWT of y - X beta; OLS of y - f on X) within 1e-12
    per iteration, over 10 seeded instances."""
    from wavegplm import functional_step, linear_step, soft_threshold

    worst = 0.0
    family = make_family("gaussian")
    config = FitConfig()
    filt = make_filter(config.filter_name)
    for seed in range(10):
        rng = np.random.default_rng([seed, 202])
        n, p = 128, 2
        X = rng.standard_normal((n, p))
        t = np.arange(1, n + 1) / n
        y = X @ [1.0, -1.0] + np.sin(2 * np.pi * t) + rng.standard_normal(n)
        data = Dataset(y=y, X=X)
        lam = universal_lambda(family, n)
        j0 = config.penalty.resolve_coarse_level(n)
        beta = np.zeros(p)
        f = y.copy()
        for _ in range(5):
            # generic-family step
            f_generic = idwt(functional_step(data, family, beta, f, config, filt), filt)
            # explicit special case: threshold the DWT of the partial residual
            coeffs = dwt(y - X @ beta, filt, j0)
            values = coeffs.values.copy()
            mask = coeffs.layout.detail_mask
            values[mask] = soft_threshold(values[mask], lam)
            from dataclasses import replace
            f_explicit = idwt(replace(coeffs, values=values), filt)
            worst = max(worst, float(np.max(np.abs(f_generic - f_explicit))))
            f = f_generic
            beta_generic = linear_step(data, family, beta, f)
            beta_explicit, *_ = np.linalg.lstsq(X, y - f, rcond=None)
            worst = max(worst, float(np.max(np.abs(beta_generic - beta_explicit))))
            beta = beta_generic
    print(f"criterion 3: worst per-iteration deviation {worst:.2e}")
    assert worst < 1e-12


def test_criterion_04_universal_threshold_values():
    """Per-family threshold formulas, with spot values at n = 256."""
    n = 256
    g = universal_lambda(make_family("gaussian"), n)
    b = universal_lambda(make_family("binomial", m=24), n)
    p = universal_lambda(make_family("poisson"), n)
    assert abs(g - math.sqrt(2 * math.log(n))) < 1e-12
    assert abs(b - 0.5 * math.sqrt(math.log(n) / 24)) < 1e-12
    assert abs(p - 2.0 * math.sqrt(math.log(n))) < 1e-12
    print(f"criterion 4: lambdas {g:.4f} / {b:.4f} / {p:.4f}")
    assert abs(g - 3.3302) < 5e-5
    assert abs(b - 0.2403) < 5e-5
    assert abs(p - 4.7096) < 5e-5


def test_criterion_05_gaussian_reference_band():
    """Gaussian sinus at SNR_f ~ SNR_beta ~ 9, n = 256, R = 100:
    mean beta in [0.97, 1.03], sd(beta) <= 0.05."""
    started = time.perf_counter()
    config = SimulationConfig(
        family_kind="gaussian", function="sinus", n=256,
        target_snr_f=9.0, target_snr_beta=9.0,
        replications=100, seed=7,
        fit=FitConfig(kappa=1000, delta=1e-12),
    )
    report = run_monte_carlo(config)
    elapsed = time.perf_counter() - started
    mean = float(report.mean_beta[0])
    sd = float(report.sd_beta[0])
    print(f"criterion 5: mean beta {mean:.4f}, sd {sd:.4f}, "
          f"rmise {report.mean_rmise:.4f}, failures {report.failures}, {elapsed:.0f}s")
    assert report.failures == 0
    assert 0.97 <= mean <= 1.03
    assert sd <= 0.05
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_06_poisson_calibration_band():
    """Poisson GPLM threshold sweep at n = 256, R = 30: the rmise-minimizing
    level satisfies lambda* / sqrt(log n) in [1.2, 2.2]."""
    started = time.perf_counter()
    n = 256
    config = SimulationConfig(
        family_kind="poisson", function="sinus", n=n,
        target_snr_f=1.5, replications=30, seed=5,
        fit=FitConfig(kappa=1200, delta=1e-12),
    )
    scale = math.sqrt(math.log(n))
    ratios = np.linspace(1.2, 2.4, 7)
    curve = calibrate_threshold(config, ratios * scale)
    ratio_star = curve.argmin_lambda / scale
    elapsed = time.perf_counter() - started
    print(f"criterion 6: lambda*/sqrt(log n) = {ratio_star:.3f}, "
          f"curve {np.round(curve.mean_rmise, 4)}, {elapsed:.0f}s")
    assert 1.2 <= ratio_star <= 2.2
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_07_binomial_calibration_regression():
    """Binomial sweep over m in {8, 24, 96, 200} at n = 256, R = 30:
    lambda*(m) = c * sqrt(log(n)/m) with c in [0.4, 0.6] and R^2 >= 0.9."""
    started = time.perf_counter()
    n = 256
    ratios = np.linspace(0.2, 1.0, 9)
    scales, stars = [], []
    for m in (8, 24, 96, 200):
        config = SimulationConfig(
            family_kind="binomial", m=m, function="blocs", n=n,
            target_snr_f=2.0, replications=30, seed=5,
            fit=FitConfig(kappa=2000, delta=1e-12),
        )
        scale = math.sqrt(math.log(n) / m)
        curve = calibrate_threshold(config, ratios * scale)
        scales.append(scale)
        stars.append(curve.argmin_lambda)
        print(f"criterion 7: m={m} argmin ratio {curve.argmin_lambda / scale:.3f}")
    c, r2 = calibration_regression(scales, stars)
    elapsed = time.perf_counter() - started
    print(f"criterion 7: slope c {c:.3f}, R^2 {r2:.3f}, {elapsed:.0f}s")
    assert 0.4 <= c <= 0.6
    assert r2 >= 0.9


@pytest.mark.slow
def test_criterion_08_rmise_decreases_with_sample_size():
    """Gaussian sinus at fixed SNR, R = 50: mean rmise strictly decreasing
    over n in {128, 256, 512, 1024}."""
    means = []
    for n in (128, 256, 512, 1024):
        config = SimulationConfig(
            family_kind="gaussian", function="sinus", n=n,
            target_snr_f=9.0, replications=50, seed=13,
            fit=FitConfig(kappa=1000, delta=1e-12),
        )
        report = run_monte_carlo(config)
        assert report.failures == 0
        means.append(report.mean_rmise)
    print(f"criterion 8: mean rmise by n: {[round(v, 4) for v in means]}")
    assert all(a > b for a, b in zip(means, means[1:]))


def test_criterion_09_decorrelation_under_covariate_shift():
    """A constant shift of the covariate means is a pure scaling-block
    perturbation; with the penalty off the scaling block, beta moves by
    less than 1e-6 on 10 gaussian instances."""
    worst = 0.0
    config = FitConfig(kappa=500, delta=1e-14)
    family = make_family("gaussian")
    for seed in range(10):
        n = 128
        X = covariate_design(n, 1, design_rng(seed))
        f0 = benchmark_function("sinus", n, 5.0).values
        y = family.sample(X[:, 0] + f0, replication_rng(seed, 0))
        fit_a = backfit(Dataset(y=y, X=X), family, config)
        fit_b = backfit(Dataset(y=y, X=X + 4.0), family, config)
        worst = max(worst, float(np.max(np.abs(fit_a.beta - fit_b.beta))))
    print(f"criterion 9: worst |delta beta| under shift {worst:.2e}")
    assert worst < 1e-6


def test_criterion_10_cli_byte_determinism(tmp_path):
    """Re-running a subcommand from the same config/seed reproduces its
    output files byte for byte."""
    args = [sys.executable, "-m", "wavegplm.cli", "simulate",
            "--n", "64", "--reps", "5", "--seed", "123",
            "--kappa", "300", "--delta", "1e-10", "--snr-f", "5"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        proc = subprocess.run(args + ["--out", str(out)], capture_output=True)
        assert proc.returncode == 0
        outs.append((out.read_bytes(), (tmp_path / f"{tag}.json.plot.tsv").read_bytes()))
    assert outs[0] == outs[1]
    # the report embeds the resolved config and seed it was produced from
    doc = json.loads(outs[0][0])
    assert doc["config"]["seed"] == 123
    assert doc["config"]["fit"]["kappa"] == 300
    print("criterion 10: byte-identical reports with embedded config")
