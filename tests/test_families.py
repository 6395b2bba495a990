import numpy as np
import pytest

from wavegplm import (
    Binomial,
    ConfigurationError,
    DomainError,
    Gaussian,
    NumericError,
    Poisson,
    make_family,
)

FAMILIES = [Gaussian(), Gaussian(phi=2.5), Binomial(m=1), Binomial(m=24), Poisson()]


def _ids(fams):
    return [repr(f) for f in fams]


@pytest.mark.parametrize("family", FAMILIES, ids=_ids(FAMILIES))
class TestDerivativeConsistency:
    """Finite-difference oracles for bdot and bddot on a safe eta range."""

    eta = np.linspace(-4.0, 4.0, 33)
    h = 1e-6

    def test_mean_is_cumulant_derivative(self, family):
        fd = (family.cumulant(self.eta + self.h) - family.cumulant(self.eta - self.h)) / (2 * self.h)
        np.testing.assert_allclose(family.mean(self.eta), fd, rtol=1e-6, atol=1e-8)

    def test_b_ddot_is_mean_derivative(self, family):
        fd = (family.mean(self.eta + self.h) - family.mean(self.eta - self.h)) / (2 * self.h)
        np.testing.assert_allclose(family.b_ddot(self.eta), fd, rtol=1e-5, atol=1e-8)

    def test_link_inverts_mean(self, family):
        np.testing.assert_allclose(family.link(family.mean(self.eta)), self.eta,
                                   rtol=1e-10, atol=1e-10)

    def test_variance_scales_with_dispersion(self, family):
        np.testing.assert_allclose(family.variance(self.eta),
                                   family.phi * family.b_ddot(self.eta))

    def test_loglik_maximized_at_truth(self, family):
        # d/d eta [y eta - b(eta)] = y - mu vanishes when y = mean(eta)
        y = family.mean(self.eta)
        base = family.loglik(y, self.eta)
        assert family.loglik(y, self.eta + 0.05) < base
        assert family.loglik(y, self.eta - 0.05) < base

    def test_rejects_non_finite_eta(self, family):
        with pytest.raises(NumericError):
            family.mean(np.array([0.0, np.nan]))


class TestGaussian:
    def test_identity_link(self):
        y = np.array([-3.0, 0.0, 7.5])
        fam = Gaussian(phi=4.0)
        np.testing.assert_array_equal(fam.mean(y), y)
        np.testing.assert_array_equal(fam.init_eta(y), y)
        assert fam.phi == 4.0

    def test_loglik_value(self):
        # l = sum y*eta - eta^2/2
        fam = Gaussian()
        assert fam.loglik(np.array([1.0, 2.0]), np.array([0.5, 1.0])) == pytest.approx(
            1 * 0.5 - 0.125 + 2 * 1.0 - 0.5
        )

    def test_degenerate_sampler(self):
        fam = Gaussian(phi=0.0)
        eta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(fam.sample(eta, np.random.default_rng(0)), eta)

    def test_sampler_moments(self):
        fam = Gaussian(phi=2.0)
        eta = np.full(200_000, 1.5)
        y = fam.sample(eta, np.random.default_rng(3))
        assert abs(y.mean() - 1.5) < 0.02
        assert abs(y.var() - 2.0) < 0.05

    def test_negative_phi_rejected(self):
        with pytest.raises(ConfigurationError):
            Gaussian(phi=-1.0)

    @pytest.mark.parametrize("phi", [np.nan, np.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            Gaussian(phi=phi)


class TestBinomial:
    def test_dispersion_is_reciprocal_m(self):
        assert Binomial(m=24).phi == pytest.approx(1 / 24)

    def test_mean_is_logistic(self):
        fam = Binomial(m=5)
        np.testing.assert_allclose(fam.mean(np.array([0.0])), [0.5])
        np.testing.assert_allclose(fam.mean(np.array([np.log(3.0)])), [0.75])

    def test_extreme_eta_does_not_overflow(self):
        fam = Binomial(m=2)
        out = fam.mean(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert np.all((out > 0) & (out < 1))

    def test_init_clamp(self):
        fam = Binomial(m=4)
        eta = fam.init_eta(np.array([0.0, 1.0]))
        # y clamped into [1/8, 7/8] before the logit
        np.testing.assert_allclose(eta, [np.log(1 / 7), np.log(7.0)], rtol=1e-12)

    def test_link_domain(self):
        with pytest.raises(DomainError):
            Binomial(m=2).link(np.array([0.0]))

    def test_sampler_is_scaled_count(self):
        fam = Binomial(m=24)
        y = fam.sample(np.zeros(50_000), np.random.default_rng(11))
        counts = y * 24
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert abs(y.mean() - 0.5) < 0.005

    def test_rejects_bad_m(self):
        with pytest.raises(ConfigurationError):
            Binomial(m=0)


class TestPoisson:
    def test_phi_fixed_at_one(self):
        assert Poisson().phi == 1.0

    def test_log_link(self):
        fam = Poisson()
        np.testing.assert_allclose(fam.link(np.array([1.0, np.e])), [0.0, 1.0])
        with pytest.raises(DomainError):
            fam.link(np.array([-1.0]))

    def test_init_clamp_floors_zero_counts(self):
        eta = Poisson().init_eta(np.array([0.0, 3.0]))
        np.testing.assert_allclose(eta, [np.log(0.5), np.log(3.0)])

    def test_sampler_moments(self):
        y = Poisson().sample(np.full(100_000, 1.0), np.random.default_rng(2))
        assert abs(y.mean() - np.e) < 0.03
        assert abs(y.var() - np.e) < 0.1
        np.testing.assert_array_equal(y, np.round(y))


class TestMakeFamily:
    def test_dispatch(self):
        assert isinstance(make_family("gaussian"), Gaussian)
        assert isinstance(make_family("binomial", m=3), Binomial)
        assert isinstance(make_family("poisson"), Poisson)

    def test_binomial_requires_m(self):
        with pytest.raises(ConfigurationError):
            make_family("binomial")

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            make_family("gamma")


class TestSpotValues:
    """Hand-computed values of the cumulant, loglikelihood and link."""

    def test_cumulant_at_reference_points(self):
        assert Gaussian().cumulant(np.array([2.0]))[0] == pytest.approx(2.0)
        assert Poisson().cumulant(np.array([0.0]))[0] == pytest.approx(1.0)
        assert Binomial(m=3).cumulant(np.array([0.0]))[0] == pytest.approx(np.log(2.0))

    def test_loglik_spot_values(self):
        assert Gaussian().loglik(np.array([1.0]), np.array([0.0])) == 0.0
        assert Poisson().loglik(np.array([2.0]), np.array([0.0])) == pytest.approx(-1.0)

    def test_binomial_saturated_sampler(self):
        fam = Binomial(m=24)
        y = fam.sample(np.full(100, 50.0), np.random.default_rng(0))
        np.testing.assert_array_equal(y, 1.0)

    def test_binomial_init_reference_value(self):
        eta = Binomial(m=24).init_eta(np.array([0.0]))
        assert eta[0] == pytest.approx(np.log((1 / 48) / (1 - 1 / 48)), abs=1e-4)
        assert eta[0] == pytest.approx(-3.8501, abs=1e-4)
