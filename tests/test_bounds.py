"""Tests for the analytic MSE bounds: genie-aided lower and LMMSE upper,
both below the prior trace."""

import numpy as np
import pytest

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    genie_lower_bound,
    lmmse_upper_bound,
    scale_noise,
)

from conftest import random_model


def scalar_wiener_model() -> BayesianLinearModel:
    std = GaussianMixture.single(np.zeros(1), np.eye(1))
    return BayesianLinearModel(np.array([[1.0]]), std, std)


def identity_beta_model(beta: float) -> BayesianLinearModel:
    rng = np.random.default_rng(17)
    means = [rng.normal(scale=30.0, size=5) for _ in range(4)]
    x = GaussianMixture.from_parameters([0.25] * 4, means, [np.eye(5)] * 4)
    noise = GaussianMixture.single(np.zeros(5), beta * np.eye(5))
    return BayesianLinearModel(np.eye(5), x, noise)


class TestGenieLowerBound:
    def test_identity_model_closed_form(self):
        # H = I_5, C^(k) = I, noise beta I -> bound = 5 beta / (1 + beta)
        for beta in (0.01, 0.5, 1.0, 25.0):
            pre = PrecomputedEstimator(identity_beta_model(beta))
            assert genie_lower_bound(pre) == pytest.approx(
                5.0 * beta / (1.0 + beta), rel=1e-12
            )

    def test_gaussian_case_coincides_with_upper(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 1, 1)
            lower = genie_lower_bound(PrecomputedEstimator(model))
            upper = lmmse_upper_bound(LmmseEstimator(model))
            assert abs(lower - upper) <= 1e-10 * (1.0 + upper)

    def test_vanishing_noise_drives_bound_to_zero(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 3, 2, 1)
        values = [
            genie_lower_bound(PrecomputedEstimator(scale_noise(model, a)))
            for a in (1e-2, 1e-4, 1e-6)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_model(rng, 2, 2, 2, 2)
            assert genie_lower_bound(PrecomputedEstimator(model)) >= 0.0


class TestLmmseUpperBound:
    def test_scalar_wiener(self):
        upper = lmmse_upper_bound(LmmseEstimator(scalar_wiener_model()))
        assert upper == pytest.approx(0.5, rel=1e-14)

    def test_huge_noise_approaches_prior_trace(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3, 3, 2)
        trace = float(np.trace(model.x_prior.covariance()))
        upper = lmmse_upper_bound(LmmseEstimator(scale_noise(model, 1e6)))
        assert upper == pytest.approx(trace, rel=1e-6)
        assert upper <= trace * (1 + 1e-12)

    def test_bounded_by_prior_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_model(rng, 3, 2, 3, 2)
            trace = float(np.trace(model.x_prior.covariance()))
            assert lmmse_upper_bound(LmmseEstimator(model)) <= trace * (1 + 1e-12)


class TestLooseUpperBound:
    """The prior trace tr C_x, the MSE of the prior-mean estimate, is the
    loose upper bound that caps the genie <= LMMSE sandwich."""

    @staticmethod
    def assert_sandwich(model):
        lower = genie_lower_bound(PrecomputedEstimator(model))
        upper = lmmse_upper_bound(LmmseEstimator(model))
        trace = float(np.trace(model.x_prior.covariance()))
        slack = 1e-10 * (1.0 + trace)
        assert 0.0 <= lower <= upper + slack
        assert upper <= trace + slack
        return trace

    def test_single_zero_mean_component(self):
        # scalar Wiener: the bounds meet at 1/2 below a unit prior trace
        model = scalar_wiener_model()
        assert self.assert_sandwich(model) == pytest.approx(1.0, rel=1e-14)
        assert lmmse_upper_bound(LmmseEstimator(model)) == pytest.approx(0.5, rel=1e-14)

    def test_moment_identity(self):
        # nonzero means: the cap is the centred moment, E||x||^2 - ||E x||^2
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 2, 4, 2)
        x = model.x_prior
        expected = x.second_moment_trace() - float(x.mean() @ x.mean())
        assert self.assert_sandwich(model) == pytest.approx(expected, rel=1e-12)

    def test_dominates_lmmse_upper(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            self.assert_sandwich(random_model(rng, 2, 3, 3, 2))


class TestOrderingAndMonotonicity:
    def test_bound_ordering_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            model = random_model(rng, d, m, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            lower = genie_lower_bound(PrecomputedEstimator(model))
            upper = lmmse_upper_bound(LmmseEstimator(model))
            trace = float(np.trace(model.x_prior.covariance()))
            scale = 1.0 + trace
            assert lower <= upper + 1e-10 * scale
            assert upper <= trace + 1e-10 * scale

    def test_bounds_nondecreasing_in_noise_scale(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = random_model(rng, 2, 2, 2, 2)
            scales = np.logspace(-3, 3, 13)
            lowers = [genie_lower_bound(PrecomputedEstimator(scale_noise(model, a))) for a in scales]
            uppers = [lmmse_upper_bound(LmmseEstimator(scale_noise(model, a))) for a in scales]
            for seq in (lowers, uppers):
                diffs = np.diff(seq)
                assert np.all(diffs >= -1e-12 * np.abs(seq[:-1]))


class TestBoundsReport:
    def test_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            model = random_model(rng, 3, 2, 3, 2)
            lower = genie_lower_bound(PrecomputedEstimator(model))
            upper = lmmse_upper_bound(LmmseEstimator(model))
            trace = float(np.trace(model.x_prior.covariance()))
            slack = 1e-10 * (1.0 + trace)
            assert 0.0 <= lower <= upper + slack
            assert upper <= trace + slack
