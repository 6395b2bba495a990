"""Correctness checks on the outputs of each workload.

Every check compares the program's output with a quantity computed here
with plain numpy, or with a property the method must have. None compares
with a stored copy of an earlier output. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: criterion-5 reference band for the gaussian Monte Carlo
BETA_BAND = (0.97, 1.03)
BETA_SD_MAX = 0.05

#: tolerance of beta against the closed-form gaussian linear step
LSTSQ_TOL = 1e-8


def rmise(f_hat, f0) -> float:
    """Root mean squared error on the design grid, computed with numpy."""
    diff = np.asarray(f_hat, dtype=float) - np.asarray(f0, dtype=float)
    return math.sqrt(float(np.mean(diff * diff)))


def check_monte_carlo(betas, rmises, failures: int, noise: float) -> list[str]:
    """Gaussian Monte Carlo: no failures, beta in the reference band,
    mean rmise below the noise level (the error of the raw data)."""
    problems = []
    betas = np.asarray(betas, dtype=float)
    rmises = np.asarray(rmises, dtype=float)
    if failures != 0:
        problems.append(f"{failures} replications failed")
    if not (np.all(np.isfinite(betas)) and np.all(np.isfinite(rmises))):
        problems.append("non-finite beta or rmise in a replication")
        return problems
    mean = float(np.mean(betas[:, 0]))
    sd = float(np.std(betas[:, 0], ddof=1))
    if not BETA_BAND[0] <= mean <= BETA_BAND[1]:
        problems.append(f"mean beta {mean:.6f} outside {BETA_BAND}")
    if not sd <= BETA_SD_MAX:
        problems.append(f"sd of beta {sd:.6f} above {BETA_SD_MAX}")
    mean_rmise = float(np.mean(rmises))
    if not mean_rmise < noise:
        problems.append(f"mean rmise {mean_rmise:.6f} not below noise level {noise}")
    return problems


def check_recorded_rmise(recorded: float, f_hat, f0) -> list[str]:
    """The rmise the program records for a replication equals the rmise of
    the estimate it returns, recomputed here."""
    own = rmise(f_hat, f0)
    if not abs(recorded - own) <= 1e-12 * max(1.0, own):
        return [f"recorded rmise {recorded!r} differs from recomputed {own!r}"]
    return []


def check_calibration(curve, naive_rmise: float) -> list[str]:
    """Every grid point is finite and beats the naive estimate
    log(max(y, 1/2)) - X beta0."""
    curve = np.asarray(curve, dtype=float)
    if curve.size == 0:
        return ["empty calibration curve"]
    if not np.all(np.isfinite(curve)):
        return [f"non-finite calibration curve point: {curve.tolist()}"]
    worse = curve[curve >= naive_rmise]
    if worse.size:
        return [f"grid points {worse.tolist()} not below naive rmise {naive_rmise:.6f}"]
    return []


def check_fit_outcomes(outcomes: dict, allowed_failures) -> list[str]:
    """Fits that raise must be among ``allowed_failures``; every fit that
    returns must carry a finite estimate.

    ``outcomes`` maps a fit label to ``None`` for a fit that raised or to
    its returned ``(beta, f_hat)``.
    """
    problems = []
    for label, result in outcomes.items():
        if result is None:
            if label not in allowed_failures:
                problems.append(f"fit {label} failed")
            continue
        beta, f_hat = result
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(f_hat))):
            problems.append(f"fit {label} returned a non-finite estimate")
    return problems


def naive_poisson_rmise(y, X, beta0, f0) -> float:
    """rmise of the raw-data estimate log(max(y, 1/2)) - X beta0 of f0."""
    y = np.asarray(y, dtype=float)
    return rmise(np.log(np.maximum(y, 0.5)) - np.asarray(X) @ np.asarray(beta0), f0)


def check_gaussian_fit(exit_code: int, document: dict | None, y, X, f0,
                       noise: float) -> list[str]:
    """A gaussian CLI fit: exit code 0, converged, beta equal to the
    least-squares solution of y - f_hat on X (the closed-form linear step
    at its fixed point) and rmise of f_hat below the noise level."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if document is None:
        return ["no report written"]
    problems = []
    if document.get("converged") is not True:
        problems.append(f"fit not converged after {document.get('iterations')} iterations")
    beta = np.asarray(document["beta"], dtype=float)
    f_hat = np.asarray(document["f_hat"], dtype=float)
    y = np.asarray(y, dtype=float)
    if f_hat.shape != y.shape or not np.all(np.isfinite(f_hat)):
        return problems + ["f_hat has the wrong length or non-finite values"]
    ls = np.linalg.lstsq(np.asarray(X, dtype=float), y - f_hat, rcond=None)[0]
    gap = float(np.max(np.abs(beta - ls))) if beta.shape == ls.shape else math.inf
    if not gap <= LSTSQ_TOL:
        problems.append(f"beta {beta.tolist()} differs from lstsq {ls.tolist()} by {gap:.3g}")
    err = rmise(f_hat, f0)
    if not err < noise:
        problems.append(f"rmise {err:.6f} not below noise level {noise}")
    return problems
