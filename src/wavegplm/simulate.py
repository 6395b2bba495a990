"""Deterministic simulation harness: data generation, quality metrics,
Monte Carlo replication and threshold-calibration sweeps.

Seeding contract: the covariate design is drawn from the stream
``default_rng([seed, 0])`` and replication r (0-based) from
``default_rng([seed, r + 1])``, so each replication's draws depend only on
the master seed and its own index.

Monte Carlo runs and threshold sweeps share one collector,
``_fit_replications``, which draws each replication's y once, fits it at every
threshold level in lockstep (:func:`wavegplm.estimator.backfit_rows`) and
fills (level, replication) tables.  Rows go in blocks of at most
LOCKSTEP_ELEMENTS = 2^15 response values R * n, where the cost per row of an
iteration stops falling (measured at n = 64, 256 and 1024); at n >= 32768 a
block is one row, so a large-n run holds one response vector at a time, as a
one-fit-at-a-time loop does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, FitError
# backfit is not called here; it stays reachable as wavegplm.simulate.backfit
from .estimator import Dataset, FitConfig, backfit, backfit_rows  # noqa: F401
from .families import Family, make_family

TEST_FUNCTIONS = ("sinus", "blocs", "pics")

#: most response values R * n in one lockstep block of fits; the cost per
#: row of an iteration is flat from about 2^13 to 2^15 values and rises beyond
LOCKSTEP_ELEMENTS = 1 << 15

# Jump locations and signed heights of the classical piecewise-constant
# 11-jump benchmark signal, and the matching localized-peaks benchmark.
_JUMP_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCK_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMP_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def quartic_trend(x):
    """Polynomial trend of the covariate design, g(x) = 30(x-1/2)^4 - 6(x-1/2)^2 + (x-1/2)."""
    u = np.asarray(x, dtype=float) - 0.5
    return 30.0 * u ** 4 - 6.0 * u ** 2 + u


def covariate_design(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Covariates x_ij = g(i/n) + xi_ij with iid standard normal noise."""
    if p < 1:
        raise ConfigurationError("need at least one covariate column")
    t = np.arange(1, n + 1) / n
    return quartic_trend(t)[:, None] + rng.standard_normal((n, p))


def _raw_sinus(t):
    # smooth sinusoid plus one jump at t = 0.7
    return 3.0 * np.sin(4.0 * np.pi * t) + 2.0 * (t > 0.7)


def _raw_blocs(t):
    out = np.zeros_like(t)
    for tj, hj in zip(_JUMP_T, _BLOCK_H):
        out += hj * (1.0 + np.sign(t - tj)) / 2.0
    return out


def _raw_pics(t):
    out = np.zeros_like(t)
    for tj, hj, wj in zip(_JUMP_T, _BUMP_H, _BUMP_W):
        out += hj * (1.0 + np.abs((t - tj) / wj)) ** -4
    return out


_RAW = {"sinus": _raw_sinus, "blocs": _raw_blocs, "pics": _raw_pics}


@dataclass(frozen=True)
class TestFunction:
    """A benchmark functional part evaluated on the grid t_i = i/n."""

    name: str
    values: np.ndarray
    target_snr_f: float


def test_function(name: str, n: int, target_snr: float, phi: float = 1.0) -> TestFunction:
    """Evaluate a benchmark function and rescale its amplitude so that the
    gaussian-family SNR_f at dispersion ``phi`` equals ``target_snr``."""
    if name not in _RAW:
        raise ConfigurationError(
            f"unknown test function {name!r}; supported: {', '.join(TEST_FUNCTIONS)}"
        )
    if n <= 0 or n & (n - 1):
        raise DimensionError(f"grid size {n} is not a power of two")
    t = np.arange(1, n + 1) / n
    raw = _RAW[name](t)
    if target_snr == 0.0:
        values = np.zeros(n)
    else:
        if not phi > 0.0:
            raise ConfigurationError(f"an SNR needs a positive dispersion, got phi = {phi}")
        rms = math.sqrt(float(np.mean(raw ** 2)) / phi)
        values = raw * (target_snr / rms)
    return TestFunction(name=name, values=values, target_snr_f=float(target_snr))


def snr(family: Family, X, beta0, f0) -> tuple[float, float]:
    """Signal-to-noise ratios of the functional and linear parts.

    SNR_f^2 = (1/n) sum f0(t_i)^2 / Var_i and likewise with (X_i beta0)^2,
    where Var_i = phi * bddot(X_i beta0 + f0(t_i)).
    """
    X = np.asarray(X, dtype=float)
    beta0 = np.atleast_1d(np.asarray(beta0, dtype=float))
    f0 = np.asarray(f0, dtype=float)
    xb = X @ beta0
    var = family.variance(xb + f0)
    snr_f = math.sqrt(float(np.mean(f0 ** 2 / var)))
    snr_b = math.sqrt(float(np.mean(xb ** 2 / var)))
    return snr_f, snr_b


def rmise(f_hat, f0) -> float:
    """Root mean integrated squared error on the design grid."""
    f_hat = np.asarray(f_hat, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    if f_hat.shape != f0.shape:
        raise DimensionError("grid functions must have equal lengths")
    return math.sqrt(float(np.mean((f_hat - f0) ** 2)))


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one Monte Carlo experiment."""

    family_kind: str = "gaussian"
    m: int | None = None
    phi: float | None = None
    function: str = "sinus"
    n: int = 2 ** 8
    p: int = 1
    beta0: float = 1.0
    target_snr_f: float = 9.0
    target_snr_beta: float | None = None
    replications: int = 500
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name in ("beta0", "target_snr_f", "target_snr_beta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        if self.n <= 0 or self.n & (self.n - 1):
            raise DimensionError(f"sample size {self.n} is not a power of two")

    def family(self) -> Family:
        return make_family(self.family_kind, m=self.m, phi=self.phi)


@dataclass(frozen=True)
class SimulationReport:
    """Per-replication records plus aggregates of one Monte Carlo run."""

    config: SimulationConfig
    betas: np.ndarray          # (R, p), nan rows for failed fits
    rmises: np.ndarray         # (R,), nan for failed fits
    iteration_counts: np.ndarray  # (R,), 0 for failed fits
    failures: int
    snr_f: float
    snr_beta: float
    f0: np.ndarray
    example_f_hat: np.ndarray  # f_hat of the first successful replication
    wall_time_s: float

    # The aggregates run over the fits that returned and are NaN when too
    # few did; failed fits hold NaN rows and an iteration count of 0.
    @property
    def _returned(self) -> int:
        return self.rmises.size - self.failures

    @property
    def mean_beta(self) -> np.ndarray:
        if not self._returned:
            return np.full(self.betas.shape[1], np.nan)
        return np.nanmean(self.betas, axis=0)

    @property
    def sd_beta(self) -> np.ndarray:
        if self._returned < 2:
            return np.full(self.betas.shape[1], np.nan)
        return np.nanstd(self.betas, axis=0, ddof=1)

    @property
    def mean_rmise(self) -> float:
        if not self._returned:
            return math.nan
        return float(np.nanmean(self.rmises))

    @property
    def mean_iterations(self) -> float:
        if not self._returned:
            return math.nan
        return float(np.mean(self.iteration_counts[self.iteration_counts > 0]))


def design_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def replication_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r + 1])


def _design(config: SimulationConfig, family: Family):
    """Covariates X, true f0, the SNRs and the true eta0 of an experiment."""
    if family.phi == 0.0:
        raise ConfigurationError("an SNR needs a positive dispersion, got phi = 0.0")
    rng = design_rng(config.seed)
    X = covariate_design(config.n, config.p, rng)
    beta0 = np.full(config.p, config.beta0)
    if config.target_snr_beta is not None:
        # proportional covariates: scale X so the gaussian-baseline SNR of
        # the linear part hits the target while the true beta stays beta0
        base = math.sqrt(float(np.mean((X @ beta0) ** 2)) / family.phi)
        if base > 0:
            X = X * (config.target_snr_beta / base)
    # amplitude is referenced to the family's own dispersion, so sweeping
    # the dispersion (e.g. binomial m) keeps the effective SNR comparable
    f0 = test_function(config.function, config.n, config.target_snr_f,
                       phi=family.phi).values
    snr_f, snr_b = snr(family, X, beta0, f0)
    return X, f0, snr_f, snr_b, X @ beta0 + f0


@dataclass(frozen=True)
class _Replications:
    """(level, replication) tables of every replication's fit at every level;
    a failed fit holds NaN betas and rmises and an iteration count of 0."""

    betas: np.ndarray          # (levels, R, p)
    rmises: np.ndarray         # (levels, R)
    iteration_counts: np.ndarray  # (levels, R)
    example_f_hat: np.ndarray  # the first returned f_hat, replication-major
    first_failure: str | None  # description of the first failed fit
    f0: np.ndarray
    snr_f: float
    snr_beta: float


def _fit_replications(config: SimulationConfig, lams=None) -> _Replications:
    """Draw the design once and fit every replication at every level of
    ``lams`` (by default the level ``config.fit`` resolves to) in lockstep
    blocks of at most LOCKSTEP_ELEMENTS response values, replication-major;
    each replication's y is drawn once.  Fit failures never abort the run."""
    family = config.family()
    X, f0, snr_f, snr_b, eta0 = _design(config, family)
    if lams is None:
        lams = [config.fit.penalty.resolve_lambda(family, config.n)]
    shape = (len(lams), config.replications)
    betas, rmises = np.full(shape + (config.p,), np.nan), np.full(shape, np.nan)
    iterations = np.zeros(shape, dtype=int)
    example_f_hat, first_failure = np.full(config.n, np.nan), None
    pairs = [(r, g) for r in range(config.replications) for g in range(len(lams))]
    block = max(1, LOCKSTEP_ELEMENTS // config.n)
    drawn, y = -1, None
    for start in range(0, len(pairs), block):
        chunk = pairs[start:start + block]
        ys = []
        for r, _ in chunk:
            if r != drawn:
                drawn, y = r, family.sample(eta0, replication_rng(config.seed, r))
            ys.append(y)
        fits = backfit_rows(Dataset(y=np.array(ys), X=X), family, config.fit,
                            [lams[g] for _, g in chunk])
        for (r, g), fit in zip(chunk, fits):
            if isinstance(fit, FitError):
                first_failure = first_failure or f"replication {r} at lambda {lams[g]:g}: {fit}"
                continue
            if not iterations.any():
                example_f_hat = fit.f_hat
            betas[g, r], rmises[g, r], iterations[g, r] = (fit.beta, rmise(fit.f_hat, f0),
                                                           fit.iterations)
    return _Replications(betas, rmises, iterations, example_f_hat, first_failure, f0, snr_f,
                         snr_b)


def run_monte_carlo(config: SimulationConfig) -> SimulationReport:
    """Draw the design once, then fit ``replications`` seeded datasets in
    lockstep blocks: the one-level view of :func:`_fit_replications`.

    Fit failures (divergence, singular weights) are recorded per
    replication and never abort the run.
    """
    started = time.perf_counter()
    fits = _fit_replications(config)
    counts = fits.iteration_counts[0]
    return SimulationReport(
        config=config, betas=fits.betas[0], rmises=fits.rmises[0], iteration_counts=counts,
        failures=int((counts == 0).sum()), snr_f=fits.snr_f, snr_beta=fits.snr_beta,
        f0=fits.f0, example_f_hat=fits.example_f_hat, wall_time_s=time.perf_counter() - started)


@dataclass(frozen=True)
class ThresholdCurve:
    """Mean root-MISE and count of failed fits per threshold level."""

    lambdas: np.ndarray
    mean_rmise: np.ndarray
    failures: np.ndarray
    argmin_lambda: float


def calibrate_threshold(config: SimulationConfig, lambda_grid) -> ThresholdCurve:
    """Sweep fixed threshold levels over shared-seed Monte Carlo runs: every
    replication, drawn once, is fitted at every level in lockstep: the grid
    view of :func:`_fit_replications`.  The argmin skips grid points where
    every fit failed (FitError if all did)."""
    lam_grid = np.asarray(lambda_grid, dtype=float)
    if lam_grid.size == 0:
        raise ConfigurationError("threshold grid must be nonempty")
    if lam_grid.size > 1 and not np.all(np.diff(lam_grid) > 0):
        raise ConfigurationError("threshold grid must be strictly increasing")
    fits = _fit_replications(config, lam_grid)
    failures = (fits.iteration_counts == 0).sum(axis=1)
    # the mean over the fits that returned, as SimulationReport.mean_rmise
    curve = np.array([np.nanmean(row) if failed < row.size else math.nan
                      for row, failed in zip(fits.rmises, failures)])
    if np.isnan(curve).all():
        raise FitError("every fit failed at every threshold of the grid; the first was "
                       + fits.first_failure)
    argmin = float(lam_grid[int(np.nanargmin(curve))])
    return ThresholdCurve(lambdas=lam_grid, mean_rmise=curve, failures=failures,
                          argmin_lambda=argmin)


def calibration_regression(scales, lambda_stars) -> tuple[float, float]:
    """Through-origin regression of optimal thresholds on sqrt(phi log n).

    Returns the slope c and the (uncentered) R^2 of the fit
    lambda* = c * sqrt(phi log n).
    """
    x = np.asarray(scales, dtype=float)
    y = np.asarray(lambda_stars, dtype=float)
    if x.shape != y.shape or x.size == 0:
        raise DimensionError("need matching nonempty scale and threshold vectors")
    c = float(x @ y / (x @ x))
    resid = y - c * x
    total = float(y @ y)
    r2 = 1.0 - float(resid @ resid) / total if total > 0 else 0.0
    return c, r2
