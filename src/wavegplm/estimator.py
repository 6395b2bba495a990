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

Each iteration reads Pen from the theta it has just shrunk.  The backfit
carries (beta, f = idwt(theta)), X beta and the family at the criterion's
eta = X beta + f (its mean and bddot only), which are the
next iteration's eta and X beta_current.
So an outer iteration does 1 dwt (the pseudo-responses and w Psi^T 1,
stacked in one call; under the unit gaussian weights the thresholds come
from a cache and the least squares from the X^T X each :class:`Dataset`
forms once), 1 idwt, 1 product X beta and 2 family evaluations, at
X beta + f_new for the linear step and at X beta_new + f_new for the
criterion.  Scaling coefficients are never penalized; the penalty acts on
detail (wavelet) coefficients only.

Lockstep: :func:`backfit_rows` runs one outer-iteration loop over a stack of R
fits that share X, the family and the config, each row with its own y and
threshold level; the steps, the criterion and the transforms work row by row
on ``(R, n)`` arrays, and the K_n trace and the criterion-decrease counters
are tables indexed by row id.  Rows that converge, reach kappa or fail leave
the active set, and every row returns the bits a fit on its own returns:
products go through the same BLAS calls per row (stacked ``@`` and
``np.linalg.solve``, never ``einsum``) and sums run along the last axis.  An
iteration that some row fails (non-finite eta, a singular solve, the sup-norm
bound, a non-finite criterion) is redone one row at a time, so each row fails
alone with its own message.  :func:`backfit` is the one-row call of that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitDivergenceError,
    FitError,
    NumericError,
    RankError,
)
from .families import Evaluation, Family
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


def _check_threshold_levels(lam):
    lam = np.asarray(lam, dtype=float)
    # NaN fails both comparisons
    bad = lam[~((lam >= 0) & (lam < np.inf))]
    if bad.size:
        raise ConfigurationError(f"threshold level must be finite and nonnegative, got {bad[0]}")


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
        if self.lam is not None:
            _check_threshold_levels(self.lam)
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
        # NaN fails both comparisons
        if not 0 <= self.delta < math.inf:
            raise ConfigurationError(f"delta must be finite and nonnegative, got {self.delta}")


@dataclass(frozen=True)
class Dataset:
    """Responses y, covariates X (n x p), implicit grid t_i = i/n.

    ``y`` may be a stack (R, n) of response vectors on the shared X, one
    fit per row.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if y.ndim not in (1, 2):
            raise DimensionError("y must be a vector or a stack of row vectors")
        if X.ndim != 2 or X.shape[0] != y.shape[-1]:
            raise DimensionError("X must be an n x p matrix matching y")
        n = y.shape[-1]
        if n <= 0 or n & (n - 1):
            raise DimensionError(f"sample size {n} is not a power of two")
        if X.shape[1] >= n:
            raise DimensionError("need p < n covariates")
        if X.shape[1] == 0:
            raise DimensionError("need at least one covariate column")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n

    @cached_property
    def _unit_normal(self) -> tuple[np.ndarray, np.ndarray]:
        """X^T, laid out as the transpose of a C-ordered copy of X, and X^T X:
        the normal matrices of least squares under unit weights.  numpy sends
        X.T @ X on one buffer to BLAS syrk, whose bits differ from the gemm of
        the rows, and X.T @ p on a strided X gives other bits than on the copy."""
        xt = self.X.copy().T
        return xt, xt @ self.X


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
def _synthesized_ones(n: int, filt: WaveletFilter, coarse_level: int, base: bool) -> np.ndarray:
    """Psi^T 1, the signal whose coefficients are all ones, or, if ``base``,
    the threshold base |Psi Psi^T 1| with the scaling block zeroed
    (read-only), for ``filt``.  An entry holds the one array its caller reads."""
    ones = WaveletCoefficients(values=np.ones(n), layout=coefficient_layout(n, coarse_level))
    table = idwt(ones, filt)
    if base:
        levels = dwt(table, filt, coarse_level)
        table = np.abs(levels.values)
        table[levels.layout.scaling_slice] = 0.0
    table.flags.writeable = False
    return table


def per_coefficient_thresholds(
    lam: float | np.ndarray,
    noise_scale_diag: np.ndarray,
    filt: WaveletFilter,
    coarse_level: int,
    signals: np.ndarray | None = None,
):
    """Threshold vectors lambda * |Psi diag(w) Psi^T 1|, scaling entries zeroed.

    ``noise_scale_diag`` carries the per-observation noise scale of the
    pseudo-responses, d eta/d mu = 1/bddot(eta), one row of ``(..., n)``
    per fit, and ``lam`` one level per row (or one for all).  For constant
    weights w the vector is uniformly lambda * w on the detail blocks,
    recovering the uniform gaussian threshold when w = 1.
    ``noise_scale_diag`` None stands for w = 1 (the gaussian family, whose
    :class:`~wavegplm.families.Evaluation` has no ``b_ddot``); the vector
    is then lambda times the cached |Psi Psi^T 1|, with no transform, the
    bits the transform of w = 1 gives, and ``signals`` gives n.

    Given ``signals`` (..., n), it returns (thresholds, dwt(signals)),
    transforming the rows of ``signals`` and of w Psi^T 1 in one stacked
    ``dwt`` call; each row gets the bits of its own transform.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    if noise_scale_diag is None:
        if signals is None:
            raise ConfigurationError("unit weights need the signals, which give n")
        n = np.shape(signals)[-1]
        thresholds = lam * _synthesized_ones(n, filt, coarse_level, True)
        return thresholds, dwt(signals, filt, coarse_level)
    w = np.asarray(noise_scale_diag, dtype=float)
    if not np.isfinite(w).all():
        raise NumericError("variance weights contain non-finite values")
    n = w.shape[-1]
    signal = _synthesized_ones(n, filt, coarse_level, False)
    rows = 0 if signals is None else np.size(signals) // n
    stacked = np.empty((rows + w.size // n, n))
    if signals is not None:
        stacked[:rows] = np.reshape(signals, (-1, n))
    np.multiply(w.reshape(-1, n), signal, out=stacked[rows:])
    values = dwt(stacked, filt, coarse_level).values
    thresholds = lam * np.abs(values[rows:].reshape(w.shape))
    thresholds[..., :1 << coarse_level] = 0.0
    if signals is None:
        return thresholds
    coeffs = values[:rows].reshape(np.shape(signals))
    return thresholds, WaveletCoefficients(values=coeffs,
                                           layout=coefficient_layout(n, coarse_level))


def _sobolev_weights(layout: CoefficientLayout, s: float) -> np.ndarray:
    """Level weights 2^(2js) on each detail block j, 0 on the scaling block."""
    weights = np.zeros(layout.n)
    for level in layout.detail_levels():
        weights[layout.detail_slice(level)] = 2.0 ** (2.0 * s * level)
    return weights


def _x_beta(data: Dataset, beta) -> np.ndarray:
    """X beta, row by row: one BLAS gemv per row of ``beta``."""
    beta = np.asarray(beta, dtype=float)
    return (data.X @ beta[..., None])[..., 0]


def _working_residual(data: Dataset, at: Evaluation) -> np.ndarray:
    """The working residual (y - mu)/bddot(eta) at the evaluated eta."""
    residual = data.y - at.mean
    return residual if at.b_ddot is None else residual / at.b_ddot  # W^{-1} = diag(b_ddot)


def functional_step(
    data: Dataset,
    family: Family,
    beta: np.ndarray,
    f_current: np.ndarray,
    config: FitConfig,
    filt: WaveletFilter,
    lam=None,
    at: Evaluation | None = None,
) -> WaveletCoefficients:
    """One functional Fisher-scoring step: the shrunk coefficients theta of
    the pseudo-response f + (y - mu)/bddot(eta), soft thresholded at
    :func:`per_coefficient_thresholds` (l1) or divided by 1 + lambda 2^(2js)
    (Sobolev).  The new f is ``idwt(theta, filt)``.

    Rows of ``data.y``, ``beta`` (..., p) and ``f_current`` (..., n) are
    separate fits; ``lam`` gives each its threshold level, by default the
    one ``config`` resolves to.  ``at`` is the family at
    eta = X beta + f_current when the caller has it.
    """
    penalty = config.penalty
    j0 = penalty.resolve_coarse_level(data.n)
    if lam is None:
        lam = penalty.resolve_lambda(family, data.n)
    if at is None:
        at = family.evaluate(_x_beta(data, beta) + f_current)
    pseudo = f_current + _working_residual(data, at)
    if penalty.kind == "l1":
        thresholds, coeffs = per_coefficient_thresholds(
            lam, None if at.b_ddot is None else 1.0 / at.b_ddot, filt, j0, pseudo)
        values = coeffs.values
        details = slice(1 << j0, None)
        values[..., details] = soft_threshold(values[..., details], thresholds[..., details])
    else:
        coeffs = dwt(pseudo, filt, j0)
        values = coeffs.values
        values /= 1.0 + np.asarray(lam)[..., None] * _sobolev_weights(coeffs.layout,
                                                                      penalty.sobolev_s)
    return coeffs


def linear_step(data: Dataset, family: Family, beta_current: np.ndarray,
                f: np.ndarray, x_beta: np.ndarray | None = None) -> np.ndarray:
    """One parametric Fisher-scoring step: weighted least squares of the
    pseudo-response X beta + (y - mu)/bddot(eta) on X, row by row, at
    eta = X beta + f; ``x_beta`` is X beta_current when the caller has it.
    Under unit weights (the gaussian family) it is least squares, whose
    X^T and X^T X ``data`` forms once."""
    if x_beta is None:
        x_beta = _x_beta(data, beta_current)
    at = family.evaluate(x_beta + f)
    pseudo = x_beta + _working_residual(data, at)
    if at.b_ddot is None:
        xtw, gram = data._unit_normal
    else:
        # X^T W per row, laid out as the transpose of a C-ordered (n, p) array
        xtw = np.swapaxes(data.X * at.b_ddot[..., None], -1, -2)
        gram = xtw @ data.X
    try:
        return np.linalg.solve(gram, xtw @ pseudo[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RankError("singular weighted normal equations") from exc


def initialize(data: Dataset, family: Family) -> tuple[np.ndarray, np.ndarray]:
    """Starting values f^(0) = G(clamped y), beta^(0) = 0, one per row of y."""
    return family.init_eta(data.y), np.zeros(data.y.shape[:-1] + (data.p,))


def penalty_value(coeffs: WaveletCoefficients, penalty: PenaltyConfig, lam):
    """Pen(f) at threshold level ``lam``, on detail coefficients only; one
    value per row of ``coeffs`` (a float for a single vector)."""
    if penalty.kind == "l1":
        pen = lam * np.abs(coeffs.details).sum(axis=-1)
    else:
        weights = _sobolev_weights(coeffs.layout, penalty.sobolev_s)
        squares = coeffs.values[..., None, :] ** 2
        pen = 0.5 * lam * (squares @ weights[:, None])[..., 0, 0]
    return pen if np.ndim(pen) else float(pen)


def criterion_value(data: Dataset, family: Family, beta, f,
                    coeffs: WaveletCoefficients, config: FitConfig, lam=None,
                    at: Evaluation | None = None):
    """Penalized loglikelihood K_n(beta, theta) = sum l(y_i, eta_i) - Pen(theta),
    with eta = X beta + f and ``coeffs`` the coefficients theta of f; one
    value per row, at ``lam`` or the level ``config`` resolves to.  ``at``
    is the family at eta, with the cumulant, when the caller has it."""
    penalty = config.penalty
    if lam is None:
        lam = penalty.resolve_lambda(family, data.n)
    if at is None:
        at = family.evaluate(_x_beta(data, beta) + f, cumulant=True)
    return at.loglik(data.y) - penalty_value(coeffs, penalty, lam)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """||v_r|| per row as np.linalg.norm spells it for a vector: the square
    root of a BLAS dot product of the row with itself."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass
class _Active:
    """The rows of a lockstep backfit that still iterate: what the next iteration reads."""

    ids: np.ndarray          # row numbers in the caller's stack
    rows: Dataset
    lam: np.ndarray
    beta: np.ndarray
    f: np.ndarray
    x_beta: np.ndarray | None = None  # X beta, once an iteration has formed it
    at: Evaluation | None = None      # the family at X beta + f, likewise

    def take(self, keep) -> "_Active":
        """The rows that ``keep`` selects."""
        return _Active(self.ids[keep], Dataset(y=self.rows.y[keep], X=self.rows.X),
                       self.lam[keep], self.beta[keep], self.f[keep],
                       None if self.x_beta is None else self.x_beta[keep],
                       None if self.at is None else self.at.rows(keep))

    def iterate(self, family: Family, config: FitConfig, filt: WaveletFilter, k: int):
        """Outer iteration k + 1 of every row: the new (f, beta), K_n, X beta
        and the family's mean and bddot at X beta + f, or the error of
        the first check that some row fails.  The shrunk theta lives only
        for the iteration that reads Pen from it; under freeze_f_at_zero it
        is the zero theta of f = 0."""
        f = self.f
        try:
            if config.freeze_f_at_zero:
                j0 = config.penalty.resolve_coarse_level(self.rows.n)
                theta = WaveletCoefficients(np.zeros(f.shape), coefficient_layout(self.rows.n, j0))
            else:
                theta = functional_step(self.rows, family, self.beta, f, config, filt,
                                        self.lam, self.at)
                f = idwt(theta, filt)
            beta = linear_step(self.rows, family, self.beta, f, self.x_beta)
        except (NumericError, RankError) as exc:
            raise FitError(f"outer iteration {k + 1}: {exc}") from exc
        if np.abs(f).max() > EXPLOSION_BOUND or np.abs(beta).max() > EXPLOSION_BOUND:
            raise FitDivergenceError(
                f"iterates exceeded sup-norm bound {EXPLOSION_BOUND:g} (outer iteration {k + 1})"
            )
        x_beta = _x_beta(self.rows, beta)
        at = family.evaluate(x_beta + f, cumulant=True)
        crit = criterion_value(self.rows, family, beta, f, theta, config, self.lam, at)
        if not np.isfinite(crit).all():
            raise FitError(f"outer iteration {k + 1}: non-finite criterion")
        # the next iteration reads the mean and bddot; eta and the cumulant
        # would be dead n-vectors
        return f, beta, crit, x_beta, Evaluation(None, at.mean, at.b_ddot)


def backfit_rows(data: Dataset, family: Family, config: FitConfig,
                 lams=None) -> list[GplmFit | FitError]:
    """Backfit every row of ``data.y`` (R, n) on the shared X in lockstep.

    Row r is fitted at threshold level ``lams[r]`` (by default the level
    ``config`` resolves to) and gets the :class:`GplmFit` that
    :func:`backfit` returns for it alone, bit for bit, or the error that
    :func:`backfit` raises for it.  All active rows go through each outer
    iteration together; a row that converges, reaches kappa or fails
    leaves the active set.  When an iteration fails, each row tries it
    alone; those that fail it drop out and the others redo it together.
    A :class:`NumericError` from the criterion (a non-finite eta that the
    sup-norm check lets through) ends the call, as it ends :func:`backfit`.
    A response outside ``family.support`` (below 0 for Poisson, outside
    [0, 1] for binomial) is a :class:`DomainError` before the first iteration.
    """
    n, X = data.n, data.X
    y = data.y.reshape(-1, n)
    count = y.shape[0]
    low, high = family.support
    bad = np.argwhere((data.y < low) | (data.y > high))  # NaN passes
    if len(bad):
        raise DomainError(f"{family.kind} response {data.y[tuple(bad[0])]:g} at index "
                          f"{', '.join(map(str, bad[0]))} lies outside [{low:g}, {high:g}]")
    filt = make_filter(config.filter_name)
    if lams is None:
        lam = np.full(count, config.penalty.resolve_lambda(family, n))
    else:
        lam = np.array(lams, dtype=float)
        if lam.shape != (count,):
            raise DimensionError(f"need one threshold level per row, got shape {lam.shape}")
        _check_threshold_levels(lam)
    rows = Dataset(y=y, X=X)
    if config.freeze_f_at_zero:
        f, beta = np.zeros(y.shape), np.zeros((count, data.p))
    else:
        f, beta = initialize(rows, family)
    active = _Active(np.arange(count), rows, lam, beta, f)
    trace = np.empty((config.kappa, count))       # K_n after each outer iteration, by row id
    decreasing = np.zeros(count, dtype=int)       # consecutive criterion decreases, by row id
    results: list = [None] * count
    for k in range(config.kappa):
        try:
            f, beta, crit, x_beta, at = active.iterate(family, config, filt, k)
        except FitError:
            failed = np.zeros(active.ids.size, dtype=bool)
            for i, row in enumerate(active.ids):
                try:
                    active.take(slice(i, i + 1)).iterate(family, config, filt, k)
                except FitError as row_exc:
                    results[row], failed[i] = row_exc, True
            if failed.all():
                break
            active = active.take(~failed)
            f, beta, crit, x_beta, at = active.iterate(family, config, filt, k)
        ids = active.ids
        trace[k][ids] = crit
        if k:
            decreasing[ids] = (decreasing[ids] + 1) * (crit < trace[k - 1][ids])
        gave_up = decreasing[ids] >= DIVERGENCE_PATIENCE
        converged = _row_norms(beta - active.beta) <= config.delta * _row_norms(active.beta)
        active.f, active.beta, active.x_beta, active.at = f, beta, x_beta, at
        done = gave_up | converged
        last = k + 1 == config.kappa
        if not (last or np.count_nonzero(done)):
            continue
        done |= last
        for i in np.flatnonzero(done):
            results[ids[i]] = FitDivergenceError(
                f"criterion decreased over {DIVERGENCE_PATIENCE} consecutive "
                f"iterations (outer iteration {k + 1})"
            ) if gave_up[i] else GplmFit(
                beta=beta[i], f_hat=f[i], iterations=k + 1, converged=bool(converged[i]),
                final_loglik=family.loglik(active.rows.y[i], X @ beta[i] + f[i]),
                criterion=float(crit[i]), lam=float(active.lam[i]),
                trace=trace[:k + 1, ids[i]].copy(),
            )
        if done.all():
            break
        active = active.take(~done)
    return results


def backfit(data: Dataset, family: Family, config: FitConfig) -> GplmFit:
    """Alternate functional and linear steps until the beta iterates settle.

    The iterate is (beta, theta, f = idwt(theta)).  Stops when
    ||beta^(k) - beta^(k-1)|| <= delta ||beta^(k-1)|| or after kappa outer
    iterations.  Aborts with :class:`FitDivergenceError` when f or beta
    leaves the sup-norm bound EXPLOSION_BOUND, or when the penalized
    criterion decreases over DIVERGENCE_PATIENCE consecutive iterations.
    This is :func:`backfit_rows` on one row.
    """
    if data.y.ndim != 1:
        raise DimensionError("backfit fits one response vector; use backfit_rows for a stack")
    [fit] = backfit_rows(data, family, config)
    if isinstance(fit, Exception):
        raise fit
    return fit
