"""Penalized maximum-loglikelihood GPLM estimator.

The model is G(E[y | X, t]) = X beta + f(t) on the equispaced grid
t_i = i/n, n = 2^J, with f = Psi^T theta.  Estimation maximizes
K_n(beta, theta) = l(beta, Psi^T theta) - Pen(theta) by alternating two
Fisher-scoring steps, one of each per outer iteration:

* functional step: soft-thresholding (or quadratic shrinkage) of the
  wavelet coefficients of a pseudo-response, with per-coefficient
  threshold levels lambda * Psi W^{-1} Psi^T 1 driven by the current
  variance weights; it yields the shrunk coefficients theta;
* linear step: weighted least squares of a pseudo-response on X.

The backfit carries (beta, theta, f = idwt(theta)) and reads Pen from
theta, so an outer iteration does 2 dwt (pseudo-response, thresholds)
and 1 idwt.  Scaling coefficients are never penalized; the penalty acts
on detail (wavelet) coefficients only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    FitDivergenceError,
    FitError,
    NumericError,
    RankError,
)
from .families import Family
from .wavelet import (
    CoefficientLayout,
    WaveletCoefficients,
    WaveletFilter,
    coefficient_layout,
    dwt,
    idwt,
    make_filter,
)

#: consecutive criterion decreases tolerated before the fit is declared divergent
DIVERGENCE_PATIENCE = 50

#: sup-norm bound on the functional iterate beyond which the fit is declared divergent
EXPLOSION_BOUND = 1e6


def soft_threshold(x, lam):
    """sign(x) * max(|x| - lam, 0), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def universal_lambda(family: Family, n: int) -> float:
    """Calibrated threshold level for each family.

    gaussian: sqrt(2 phi log n); binomial: 0.5 sqrt(phi log n);
    poisson: 2 sqrt(log n).
    """
    if n < 2:
        raise ConfigurationError("universal threshold needs n >= 2")
    logn = math.log(n)
    if family.kind == "gaussian":
        return math.sqrt(2.0 * family.phi * logn)
    if family.kind == "binomial":
        return 0.5 * math.sqrt(family.phi * logn)
    if family.kind == "poisson":
        return 2.0 * math.sqrt(logn)
    raise ConfigurationError(f"no threshold policy for family {family.kind!r}")


def default_coarse_level(n: int) -> int:
    """Coarse level giving a scaling block of min(8, n) coefficients."""
    J = int(n).bit_length() - 1
    return min(3, J)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty on the detail coefficients of f.

    kind "l1" is the soft-thresholding penalty lambda * sum |theta_W|;
    kind "sobolev" is the quadratic penalty
    (lambda/2) sum_j 2^(2js) sum_k theta_jk^2; the functional step
    maximizes the Fisher-scoring approximation of K_n under it by the
    linear shrinkage theta / (1 + lambda 2^(2js)), exactly so for the
    gaussian family.

    ``lam`` of None selects the per-family universal threshold.  Under
    kind "l1" each detail coefficient gets its own threshold
    lambda * |Psi diag(d eta/d mu) Psi^T 1|, so thresholds scale with the
    local noise level of the pseudo-responses; for constant unit weights
    (the gaussian case) this is the uniform level lambda.
    """

    kind: str = "l1"
    lam: float | None = None
    sobolev_s: float = 1.0
    coarse_level: int | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "sobolev"):
            raise ConfigurationError(f"unknown penalty kind {self.kind!r}")
        if self.lam is not None and self.lam < 0:
            raise ConfigurationError("threshold level must be nonnegative")
        if self.kind == "sobolev" and not self.sobolev_s > 0.5:
            raise ConfigurationError("sobolev smoothness must exceed 1/2")

    def resolve_lambda(self, family: Family, n: int) -> float:
        return universal_lambda(family, n) if self.lam is None else self.lam

    def resolve_coarse_level(self, n: int) -> int:
        return default_coarse_level(n) if self.coarse_level is None else self.coarse_level


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the backfitting loop."""

    kappa: int = 5000
    delta: float = 1e-20
    filter_name: str = "symmlet-8"
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    freeze_f_at_zero: bool = False

    def __post_init__(self):
        if self.kappa < 1:
            raise ConfigurationError("kappa must be at least 1")
        if self.delta < 0:
            raise ConfigurationError("delta must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """Responses y, covariates X (n x p), implicit grid t_i = i/n."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1:
            raise DimensionError("y must be a vector")
        if X.ndim != 2 or X.shape[0] != y.size:
            raise DimensionError("X must be an n x p matrix matching y")
        n = y.size
        if n <= 0 or n & (n - 1):
            raise DimensionError(f"sample size {n} is not a power of two")
        if X.shape[1] >= n:
            raise DimensionError("need p < n covariates")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n


@dataclass(frozen=True)
class GplmFit:
    """Result of one backfitting run."""

    beta: np.ndarray
    f_hat: np.ndarray
    iterations: int
    converged: bool
    final_loglik: float
    criterion: float
    lam: float
    trace: np.ndarray  # K_n after each outer iteration; criterion is the last


@lru_cache(maxsize=8)
def _synthesized_ones(n: int, filter_name: str, coarse_level: int) -> np.ndarray:
    """Psi^T 1, the signal whose coefficients are all ones (read-only)."""
    ones = WaveletCoefficients(values=np.ones(n), layout=coefficient_layout(n, coarse_level))
    signal = idwt(ones, make_filter(filter_name))
    signal.flags.writeable = False
    return signal


def per_coefficient_thresholds(
    lam: float,
    noise_scale_diag: np.ndarray,
    filt: WaveletFilter,
    coarse_level: int,
) -> np.ndarray:
    """Threshold vector lambda * |Psi diag(w) Psi^T 1|, scaling entries zeroed.

    ``noise_scale_diag`` carries the per-observation noise scale of the
    pseudo-responses, d eta/d mu = 1/bddot(eta).  For constant weights w
    the vector is uniformly lambda * w on the detail blocks, recovering
    the uniform gaussian threshold when w = 1.
    """
    w = np.asarray(noise_scale_diag, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NumericError("variance weights contain non-finite values")
    levels = dwt(w * _synthesized_ones(w.size, filt.name, coarse_level), filt, coarse_level)
    thresholds = lam * np.abs(levels.values)
    thresholds[levels.layout.scaling_slice] = 0.0
    return thresholds


def _sobolev_weights(layout: CoefficientLayout, s: float) -> np.ndarray:
    """Level weights 2^(2js) on each detail block j, 0 on the scaling block."""
    weights = np.zeros(layout.n)
    for level in layout.detail_levels():
        weights[layout.detail_slice(level)] = 2.0 ** (2.0 * s * level)
    return weights


def _working_residual(data: Dataset, family: Family, beta, f) -> tuple[np.ndarray, np.ndarray]:
    """bddot(eta) and the working residual (y - mu)/bddot(eta) at eta = X beta + f."""
    eta = data.X @ np.asarray(beta, dtype=float) + np.asarray(f, dtype=float)
    weight = family.b_ddot(eta)  # W^{-1} = diag(b_ddot)
    return weight, (data.y - family.mean(eta)) / weight


def functional_step(
    data: Dataset,
    family: Family,
    beta: np.ndarray,
    f_current: np.ndarray,
    config: FitConfig,
    filt: WaveletFilter,
) -> WaveletCoefficients:
    """One functional Fisher-scoring step: the shrunk coefficients theta of
    the pseudo-response f + (y - mu)/bddot(eta), soft thresholded at
    :func:`per_coefficient_thresholds` (l1) or divided by 1 + lambda 2^(2js)
    (Sobolev).  The new f is ``idwt(theta, filt)``."""
    penalty = config.penalty
    j0 = penalty.resolve_coarse_level(data.n)
    lam = penalty.resolve_lambda(family, data.n)
    weight, residual = _working_residual(data, family, beta, f_current)
    coeffs = dwt(f_current + residual, filt, j0)
    values = coeffs.values.copy()
    if penalty.kind == "l1":
        thresholds = per_coefficient_thresholds(lam, 1.0 / weight, filt, j0)
        mask = coeffs.layout.detail_mask
        values[mask] = soft_threshold(values[mask], thresholds[mask])
    else:
        values /= 1.0 + lam * _sobolev_weights(coeffs.layout, penalty.sobolev_s)
    return WaveletCoefficients(values=values, layout=coeffs.layout)


def linear_step(data: Dataset, family: Family, beta_current: np.ndarray,
                f: np.ndarray) -> np.ndarray:
    """One parametric Fisher-scoring step: weighted least squares of the
    pseudo-response X beta + (y - mu)/bddot(eta) on X."""
    weight, residual = _working_residual(data, family, beta_current, f)
    pseudo = data.X @ np.asarray(beta_current, dtype=float) + residual
    xtw = data.X.T * weight
    try:
        return np.linalg.solve(xtw @ data.X, xtw @ pseudo)
    except np.linalg.LinAlgError as exc:
        raise RankError("singular weighted normal equations") from exc


def initialize(data: Dataset, family: Family) -> tuple[np.ndarray, np.ndarray]:
    """Starting values f^(0) = G(clamped y), beta^(0) = 0."""
    return family.init_eta(data.y), np.zeros(data.p)


def penalty_value(coeffs: WaveletCoefficients, penalty: PenaltyConfig,
                  lam: float) -> float:
    """Pen(f) at threshold level ``lam``, on detail coefficients only."""
    if penalty.kind == "l1":
        return float(lam * np.sum(np.abs(coeffs.details)))
    weights = _sobolev_weights(coeffs.layout, penalty.sobolev_s)
    return 0.5 * lam * float(weights @ coeffs.values ** 2)


def criterion_value(data: Dataset, family: Family, beta, f,
                    coeffs: WaveletCoefficients, config: FitConfig) -> float:
    """Penalized loglikelihood K_n(beta, theta) = sum l(y_i, eta_i) - Pen(theta),
    with eta = X beta + f and ``coeffs`` the coefficients theta of f."""
    penalty = config.penalty
    eta = data.X @ np.asarray(beta, dtype=float) + np.asarray(f, dtype=float)
    lam = penalty.resolve_lambda(family, data.n)
    return family.loglik(data.y, eta) - penalty_value(coeffs, penalty, lam)


def backfit(data: Dataset, family: Family, config: FitConfig) -> GplmFit:
    """Alternate functional and linear steps until the beta iterates settle.

    The iterate is (beta, theta, f = idwt(theta)).  Stops when
    ||beta^(k) - beta^(k-1)|| <= delta ||beta^(k-1)|| or after kappa outer
    iterations.  Aborts with :class:`FitDivergenceError` when f or beta
    leaves the sup-norm bound EXPLOSION_BOUND, or when the penalized
    criterion decreases over DIVERGENCE_PATIENCE consecutive iterations.
    """
    filt = make_filter(config.filter_name)
    f, beta = initialize(data, family)
    if config.freeze_f_at_zero:
        f = np.zeros(data.n)
        theta = dwt(f, filt, config.penalty.resolve_coarse_level(data.n))
    trace = []
    converged = False
    decreasing = 0
    for k in range(config.kappa):
        try:
            if not config.freeze_f_at_zero:
                theta = functional_step(data, family, beta, f, config, filt)
                f = idwt(theta, filt)
            beta_new = linear_step(data, family, beta, f)
        except (NumericError, RankError) as exc:
            raise FitError(f"outer iteration {k + 1}: {exc}") from exc
        if np.max(np.abs(f)) > EXPLOSION_BOUND or np.max(np.abs(beta_new)) > EXPLOSION_BOUND:
            raise FitDivergenceError(
                f"iterates exceeded sup-norm bound {EXPLOSION_BOUND:g} "
                f"(outer iteration {k + 1})"
            )
        crit = criterion_value(data, family, beta_new, f, theta, config)
        if not np.isfinite(crit):
            raise FitError(f"outer iteration {k + 1}: non-finite criterion")
        decreasing = decreasing + 1 if trace and crit < trace[-1] else 0
        if decreasing >= DIVERGENCE_PATIENCE:
            raise FitDivergenceError(
                f"criterion decreased over {DIVERGENCE_PATIENCE} consecutive "
                f"iterations (outer iteration {k + 1})"
            )
        trace.append(crit)
        step = float(np.linalg.norm(beta_new - beta))
        denom = float(np.linalg.norm(beta))
        beta = beta_new
        if step <= config.delta * denom:
            converged = True
            break
    eta = data.X @ beta + f
    return GplmFit(
        beta=beta,
        f_hat=f,
        iterations=len(trace),
        converged=converged,
        final_loglik=family.loglik(data.y, eta),
        criterion=trace[-1],
        lam=config.penalty.resolve_lambda(family, data.n),
        trace=np.asarray(trace),
    )
