"""One-parameter exponential families with canonical links.

Each family exposes the cumulant b and its derivatives, the canonical link
G = bdot^{-1}, the loglikelihood l(y, eta) = y*eta - b(eta) (terms constant
in eta are dropped), and a deterministic sampler driven by a caller-owned
``numpy.random.Generator``.  :meth:`Family.evaluate` checks one eta once and
returns what a caller uses of b, bdot and bddot together, sharing the
exponential between them; the single-value methods read from it.

The natural parameter is clamped to [-ETA_MAX, ETA_MAX] for the binomial
and poisson families before exponentials are taken; the statistically
meaningful range is far narrower, so the clamp only prevents overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError

ETA_MAX = 30.0


def _check_finite(eta):
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        raise NumericError("natural parameter contains non-finite values")
    return eta


@dataclass(frozen=True)
class Evaluation:
    """A family at one checked natural parameter eta: the mean bdot(eta),
    bddot(eta) and, when asked for, the cumulant b(eta).  ``b_ddot`` is
    None where bddot is 1 for every eta (the gaussian family): callers
    then take the unit-weight forms, plain least squares and the cached
    uniform thresholds.  The arrays may share memory with each other and
    with eta; treat them as read-only."""

    eta: np.ndarray
    mean: np.ndarray
    b_ddot: np.ndarray | None
    cumulant: np.ndarray | None = None

    def loglik(self, y):
        """Sum of y*eta - b(eta) along the last axis (a float for vectors,
        one sum per row for stacks)."""
        total = (np.asarray(y, dtype=float) * self.eta - self.cumulant).sum(axis=-1)
        return total if total.ndim else float(total)

    def rows(self, keep) -> "Evaluation":
        """The rows that ``keep`` selects, without the cumulant."""
        return Evaluation(self.eta[keep], self.mean[keep],
                          None if self.b_ddot is None else self.b_ddot[keep])


class Family:
    """Base class; subclasses define :meth:`evaluate`, the cumulant and its
    derivatives at once."""

    kind: str
    phi: float

    # -- cumulant and derivatives -------------------------------------
    def evaluate(self, eta, cumulant: bool = False) -> Evaluation:
        """bdot and bddot at eta, and b when ``cumulant`` is true, from one
        finiteness check of eta (NumericError) and one clamp."""
        raise NotImplementedError

    def cumulant(self, eta):
        """b(eta)."""
        return self.evaluate(eta, cumulant=True).cumulant

    def mean(self, eta):
        """bdot(eta), the conditional mean mu."""
        return self.evaluate(eta).mean

    def b_ddot(self, eta):
        """Second derivative of the cumulant (unit variance function)."""
        return self.evaluate(eta).b_ddot

    def variance(self, eta):
        """Conditional variance phi * bddot(eta)."""
        return self.phi * self.b_ddot(eta)

    # -- link ----------------------------------------------------------
    def link(self, mu):
        """Canonical link eta = G(mu) = bdot^{-1}(mu)."""
        raise NotImplementedError

    def mean_domain_clamp(self, y):
        """Clamp raw responses into the mean domain so G(y) exists."""
        raise NotImplementedError

    # -- likelihood ----------------------------------------------------
    def loglik(self, y, eta):
        """Sum of y*eta - b(eta) along the last axis (a float for vectors,
        one sum per row for stacks); dispersion and c(y, phi) terms dropped."""
        return self.evaluate(eta, cumulant=True).loglik(y)

    # -- sampling ------------------------------------------------------
    def sample(self, eta, rng: np.random.Generator):
        raise NotImplementedError

    def init_eta(self, y):
        """Initialization f^(0) = G(y), with the domain clamp applied."""
        return self.link(self.mean_domain_clamp(np.asarray(y, dtype=float)))

    def __repr__(self):
        return f"{type(self).__name__}(phi={self.phi!r})"


class Gaussian(Family):
    """Gaussian family with identity link; phi is the noise variance."""

    kind = "gaussian"

    def __init__(self, phi: float = 1.0):
        self.phi = float(phi)
        if not 0.0 <= self.phi < np.inf:
            raise ConfigurationError(f"gaussian phi must be finite and nonnegative, got {phi}")

    def evaluate(self, eta, cumulant=False):
        eta = _check_finite(eta)
        return Evaluation(eta, eta, None, eta ** 2 / 2.0 if cumulant else None)

    def b_ddot(self, eta):
        return np.ones_like(_check_finite(eta))

    def link(self, mu):
        return np.asarray(mu, dtype=float)

    def mean_domain_clamp(self, y):
        return y

    def sample(self, eta, rng):
        eta = _check_finite(eta)
        if self.phi == 0.0:
            return eta.copy()
        return rng.normal(eta, np.sqrt(self.phi))


class Binomial(Family):
    """Scaled binomial: y*m ~ B(m, logistic(eta)), phi = 1/m, logit link."""

    kind = "binomial"

    def __init__(self, m: int = 1):
        if m < 1 or int(m) != m:
            raise ConfigurationError("binomial class count m must be a positive integer")
        self.m = int(m)
        self.phi = 1.0 / self.m

    def evaluate(self, eta, cumulant=False):
        eta = _check_finite(eta)
        clamped = eta.clip(-ETA_MAX, ETA_MAX)
        mu = 1.0 / (1.0 + np.exp(-clamped))
        # log(1 + e^eta) via the stable log1p branch
        b = np.logaddexp(0.0, clamped) if cumulant else None
        return Evaluation(eta, mu, mu * (1.0 - mu), b)

    def link(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0.0) or np.any(mu >= 1.0):
            raise DomainError("binomial mean must lie in (0, 1)")
        return np.log(mu / (1.0 - mu))

    def mean_domain_clamp(self, y):
        lo = 1.0 / (2.0 * self.m)
        return np.clip(y, lo, 1.0 - lo)

    def sample(self, eta, rng):
        p = self.mean(eta)
        return rng.binomial(self.m, p) / self.m


class Poisson(Family):
    """Poisson family with log link; phi is fixed at 1."""

    kind = "poisson"

    def __init__(self):
        self.phi = 1.0

    def evaluate(self, eta, cumulant=False):
        eta = _check_finite(eta)
        # b = bdot = bddot = exp(eta)
        mu = np.exp(eta.clip(-ETA_MAX, ETA_MAX))
        return Evaluation(eta, mu, mu, mu if cumulant else None)

    def link(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0.0):
            raise DomainError("poisson mean must be positive")
        return np.log(mu)

    def mean_domain_clamp(self, y):
        return np.maximum(y, 0.5)

    def sample(self, eta, rng):
        return rng.poisson(self.mean(eta)).astype(float)


def make_family(kind: str, m: int | None = None, phi: float | None = None) -> Family:
    """Build a family from its name and family-specific parameters."""
    if kind == "gaussian":
        return Gaussian(phi=1.0 if phi is None else phi)
    if kind == "binomial":
        if m is None:
            raise ConfigurationError("binomial family requires the class count m")
        return Binomial(m=m)
    if kind == "poisson":
        return Poisson()
    raise ConfigurationError(f"unknown family {kind!r}")

