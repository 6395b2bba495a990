"""The benchmark's workloads: inputs made from a seed, one round of work,
and the checks on that round's outputs.

A round is the unit the timed phase repeats. Every round of a run does
the same work on the same inputs, so a run's failed share and its
per-round counts do not depend on how many rounds fit into the run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import checks


# -- inputs made with plain numpy, following the package's seeding contract --
# The design is drawn from default_rng([seed, 0]) and replication r from
# default_rng([seed, r + 1]); the checks recompute reference quantities
# from these draws without calling the package.

def grid(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / n


def design(n: int, p: int, seed: int) -> np.ndarray:
    u = grid(n) - 0.5
    trend = 30.0 * u ** 4 - 6.0 * u ** 2 + u
    return trend[:, None] + np.random.default_rng([seed, 0]).standard_normal((n, p))


def sinus(n: int, snr: float) -> np.ndarray:
    t = grid(n)
    raw = 3.0 * np.sin(4.0 * np.pi * t) + 2.0 * (t > 0.7)
    return raw * (snr / math.sqrt(float(np.mean(raw ** 2))))


_PICS_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_PICS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_PICS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def pics(n: int, snr: float) -> np.ndarray:
    t = grid(n)
    raw = np.zeros(n)
    for tj, hj, wj in zip(_PICS_T, _PICS_H, _PICS_W):
        raw += hj * (1.0 + np.abs((t - tj) / wj)) ** -4
    return raw * (snr / math.sqrt(float(np.mean(raw ** 2))))


def poisson_draw(eta0: np.ndarray, seed: int, r: int) -> np.ndarray:
    rng = np.random.default_rng([seed, r + 1])
    return rng.poisson(np.exp(np.clip(eta0, -30.0, 30.0))).astype(float)


@dataclass
class Round:
    """What one round did: fits attempted and failed, problems found."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0


class MonteCarloGaussian:
    """``run_monte_carlo`` in the criterion-5 setting: gaussian ``sinus``,
    n = 256, SNR_f = SNR_beta = 9, kappa 1000, delta 1e-12.

    A round runs ``designs`` Monte Carlo experiments of ``replications``
    fits, each on its own covariate design. The iteration count of a fit
    depends mostly on the design (one design per seed gave totals that
    differed by 15% between seeds), so spreading the round over many
    designs makes its work nearly the same for every seed.
    """

    name = "mc-gaussian-n256"
    designs = 20
    replications = 3
    n = 256
    snr = 9.0

    def setup(self, seed: int, workdir: str):
        from wavegplm import FitConfig, SimulationConfig, run_monte_carlo

        self.run_monte_carlo = run_monte_carlo
        self.configs = [SimulationConfig(
            family_kind="gaussian", function="sinus", n=self.n,
            target_snr_f=self.snr, target_snr_beta=self.snr,
            replications=self.replications, seed=seed * self.designs + i,
            fit=FitConfig(kappa=1000, delta=1e-12),
        ) for i in range(self.designs)]
        self.f0 = sinus(self.n, self.snr)
        run_monte_carlo(replace(self.configs[0], replications=1))

    def run_round(self):
        return [self.run_monte_carlo(config) for config in self.configs]

    def check(self, reports) -> Round:
        failures = sum(report.failures for report in reports)
        problems = checks.check_monte_carlo(
            np.concatenate([report.betas for report in reports]),
            np.concatenate([report.rmises for report in reports]), failures, noise=1.0)
        for report in reports:
            problems += checks.check_recorded_rmise(report.rmises[0], report.example_f_hat,
                                                    self.f0)
        return Round(self.designs * self.replications, failures, problems)


class CalibrationPoisson:
    """``calibrate_threshold`` in the criterion-6 setting: Poisson ``sinus``,
    n = 256, SNR_f = 1.5, seed 5, kappa 1200, delta 1e-12, over the
    criterion-6 grid of 1.2 ... 2.4 sqrt(log n); plus the two fits of
    replication 5 that diverge (the known fault).

    The inputs do not depend on ``--seed``. Poisson fits diverge on some
    seeds' replications at thresholds anywhere on the grid (seed 1 at 1.2,
    seed 8 at 2.4 sqrt(log n)), so seeded inputs would make the failed
    share depend on the seed.
    """

    name = "calib-poisson-n256"
    n = 256
    snr = 1.5
    seed = 5
    replications = 1
    ratios = np.linspace(1.2, 2.4, 7)     # multiples of sqrt(log n)
    fault_replication = 5
    fault_ratios = (1.2, 1.6)

    def setup(self, seed: int, workdir: str):
        from wavegplm import (Dataset, FitConfig, PenaltyConfig, SimulationConfig,
                              backfit, calibrate_threshold, make_family)
        from wavegplm.errors import FitError

        self.calibrate_threshold = calibrate_threshold
        self.backfit, self.FitError = backfit, FitError
        self.family = make_family("poisson")
        scale = math.sqrt(math.log(self.n))
        self.lambdas = self.ratios * scale
        fit = FitConfig(kappa=1200, delta=1e-12)
        self.config = SimulationConfig(
            family_kind="poisson", function="sinus", n=self.n, target_snr_f=self.snr,
            replications=self.replications, seed=self.seed, fit=fit,
        )
        f0 = sinus(self.n, self.snr)
        X = design(self.n, 1, self.seed)
        self.naive = float(np.mean([
            checks.naive_poisson_rmise(poisson_draw(X[:, 0] + f0, self.seed, r), X, [1.0], f0)
            for r in range(self.replications)
        ]))
        y = poisson_draw(X[:, 0] + f0, self.seed, self.fault_replication)
        self.fault_data = Dataset(y=y, X=X)
        self.fault_fits = {
            f"seed{self.seed}-rep{self.fault_replication}-ratio{q}": replace(
                fit, penalty=PenaltyConfig(lam=q * scale))
            for q in self.fault_ratios
        }
        calibrate_threshold(replace(self.config, fit=replace(fit, kappa=10)),
                            self.lambdas[:1])

    def run_round(self):
        curve = self.calibrate_threshold(self.config, self.lambdas)
        outcomes = {}
        for label, config in self.fault_fits.items():
            try:
                fit = self.backfit(self.fault_data, self.family, config)
                outcomes[label] = (fit.beta, fit.f_hat)
            except self.FitError:
                outcomes[label] = None
        return curve, outcomes

    def check(self, output) -> Round:
        curve, outcomes = output
        attempted = self.replications * self.lambdas.size
        # with one replication a grid point is NaN exactly when its fit failed
        failed = int(np.isnan(curve.mean_rmise).sum())
        problems = checks.check_calibration(curve.mean_rmise, self.naive)
        problems += checks.check_fit_outcomes(outcomes, allowed_failures=set(self.fault_fits))
        fault_failed = sum(result is None for result in outcomes.values())
        return Round(attempted + len(outcomes), failed + fault_failed, problems)


class FitCliLarge:
    """``wavegplm.cli.main(["fit", ...])`` in-process on one long gaussian
    ``pics`` signal, n = 65536, p = 2: one fit per supported filter."""

    name = "fit-cli-n65536"
    n = 65536
    snr = 5.0
    beta0 = np.array([1.0, -0.5])

    def setup(self, seed: int, workdir: str):
        from wavegplm import SUPPORTED_FILTERS
        from wavegplm.cli import main

        self.main = main
        self.X = design(self.n, self.beta0.size, seed)
        self.f0 = pics(self.n, self.snr)
        noise = np.random.default_rng([seed, 1]).standard_normal(self.n)
        self.y = self.X @ self.beta0 + self.f0 + noise
        self.csv = os.path.join(workdir, "data.csv")
        header = "y," + ",".join(f"x{j + 1}" for j in range(self.beta0.size))
        np.savetxt(self.csv, np.column_stack([self.y, self.X]), fmt="%.17g",
                   delimiter=",", header=header, comments="")
        self.runs = [
            (name, os.path.join(workdir, f"fit-{name}.json"),
             ["fit", self.csv, "--family", "gaussian", "--filter", name,
              "--kappa", "1000", "--delta", "1e-12"])
            for name in SUPPORTED_FILTERS
        ]
        warm = os.path.join(workdir, "warm-up.json")
        if main(["fit", self.csv, "--filter", "haar", "--kappa", "1", "--out", warm]) != 0:
            raise RuntimeError("warm-up fit failed")

    def run_round(self):
        return [self.main(argv + ["--out", out]) for _, out, argv in self.runs]

    def check(self, codes) -> Round:
        problems, failed, size = [], 0, 0
        for code, (name, out, _) in zip(codes, self.runs):
            document = None
            if code == 0:
                size += os.path.getsize(out)
                with open(out) as handle:
                    document = json.load(handle)
                os.remove(out)  # the next round must write its own report
            else:
                failed += 1
            problems += [f"{name}: {p}" for p in checks.check_gaussian_fit(
                code, document, self.y, self.X, self.f0, noise=1.0)]
        return Round(len(codes), failed, problems, output_bytes=size)


WORKLOADS = {w.name: w for w in (MonteCarloGaussian, CalibrationPoisson, FitCliLarge)}
