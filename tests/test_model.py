"""Tests for the Bayesian linear model layer: observation/joint mixtures,
SNR accounting, and noise-scale calibration."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    ValidationError,
    affine_transform,
    calibrate_noise_scale,
    independent_join,
    load_config,
    marginal,
    observation_mixture,
    packaged_config,
    scale_noise,
    snr,
    snr_db,
)

from conftest import assert_mixture_equal, random_model, reference_affine, reference_observation


def random_models(seed: int, count: int = 40):
    """Random models of dimensions 1 to 4 with 1 to 4 components per mixture;
    every other model has a zero-weight component in each mixture."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, m, k, l = (int(v) for v in rng.integers(1, 5, size=4))
        yield random_model(rng, d, m, k, l, zero_weight=i % 2 == 0)


def scalar_wiener_model() -> BayesianLinearModel:
    std = GaussianMixture.single(np.zeros(1), np.eye(1))
    return BayesianLinearModel(np.array([[1.0]]), std, std)


class TestModelConstruction:
    def test_dimension_consistency_enforced(self):
        x = GaussianMixture.single(np.zeros(3), np.eye(3))
        n = GaussianMixture.single(np.zeros(2), np.eye(2))
        BayesianLinearModel(np.ones((2, 3)), x, n)  # consistent
        with pytest.raises(ValidationError, match="noise"):
            BayesianLinearModel(np.ones((3, 3)), x, n)
        with pytest.raises(ValidationError, match="signal"):
            BayesianLinearModel(np.ones((2, 2)), x, n)

    def test_nonfinite_h_rejected(self):
        x = GaussianMixture.single(np.zeros(1), np.eye(1))
        with pytest.raises(ValidationError, match="finite"):
            BayesianLinearModel(np.array([[np.inf]]), x, x)


class TestObservationMixture:
    def test_scalar_sum_of_gaussians(self):
        obs = observation_mixture(scalar_wiener_model())
        assert len(obs) == 1
        npt.assert_array_equal(obs.means, [[0.0]])
        npt.assert_array_equal(obs.covariances, [[[2.0]]])

    def test_component_count(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, 2, 4, 1)
        assert len(observation_mixture(model)) == 4
        model = random_model(rng, 2, 3, 3, 2)
        assert len(observation_mixture(model)) == 6

    def test_mean_linearity(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 2, 3, 2)
        obs = observation_mixture(model)
        expected = model.H @ model.x_prior.mean() + model.noise.mean()
        npt.assert_allclose(obs.mean(), expected, rtol=1e-13)

    def test_sample_moments_agree(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2, 2, 2)
        n = 100_000
        x = model.x_prior.sample(n, seed=10)
        noise = model.noise.sample(n, seed=11)
        y = x @ model.H.T + noise
        obs = observation_mixture(model)
        se_mean = np.sqrt(np.diag(obs.covariance()) / n)
        npt.assert_array_less(np.abs(y.mean(axis=0) - obs.mean()), 5 * se_mean)
        cov_dev = np.abs(np.cov(y.T) - obs.covariance())
        dev = y - obs.mean()
        se_cov = np.sqrt(
            (np.einsum("ni,nj->ij", dev**2, dev**2) / n - obs.covariance() ** 2) / n
        )
        npt.assert_array_less(cov_dev, 5 * se_cov)

    def test_matches_per_component_reference(self):
        for model in random_models(40):
            assert_mixture_equal(observation_mixture(model), reference_observation(model))

    def test_non_pd_pair_names_pair(self):
        # H has rank 1 < m, so H C_x H^T is singular; a noise covariance far
        # below it in scale is absorbed by roundoff only for the pair (1,0)
        x = GaussianMixture.from_parameters([0.5, 0.5], [0.0, 0.0], [1e-50, 1.0])
        noise = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.zeros(2)] * 2, [1e-40 * np.eye(2), np.eye(2)]
        )
        model = BayesianLinearModel(np.array([[1.0], [1.0]]), x, noise)
        with pytest.raises(ValidationError, match=r"component \(1,0\): covariance not positive definite"):
            observation_mixture(model)


def joint_xy(model: BayesianLinearModel) -> GaussianMixture:
    """The joint mixture of ``[y; x]``: the independent join of signal and
    noise under the square, invertible map ``[[H, I], [I, 0]]``."""
    m, d = model.H.shape
    block = np.block([[model.H, np.eye(m)], [np.eye(d), np.zeros((d, m))]])
    return affine_transform(independent_join(model.x_prior, model.noise), block)


class TestJointMixture:
    def test_y_block_marginal_is_observation_mixture(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 2, 3, 2, 2)
        y_marg = marginal(joint_xy(model), slice(0, 3))
        obs = observation_mixture(model)
        npt.assert_allclose(y_marg.weights, obs.weights, atol=1e-12)
        npt.assert_allclose(y_marg.means, obs.means, atol=1e-12)
        npt.assert_allclose(y_marg.covariances, obs.covariances, atol=1e-12)

    def test_x_block_marginal_is_prior(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 3, 3, 2)
        x_marg = marginal(joint_xy(model), slice(3, 5))
        # joint components are (k, l) row-major; x parameters repeat per l
        for pair_index in range(len(x_marg)):
            k = pair_index // 2
            npt.assert_allclose(x_marg.means[pair_index], model.x_prior.means[k], atol=1e-12)
            npt.assert_allclose(
                x_marg.covariances[pair_index], model.x_prior.covariances[k], atol=1e-12
            )


class TestSnr:
    def test_unit_gaussians(self):
        x = GaussianMixture.single(np.zeros(5), np.eye(5))
        model = BayesianLinearModel(np.eye(5), x, x)
        assert snr(model) == pytest.approx(1.0, rel=1e-15)
        assert snr_db(model) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_divides_by_a_squared(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 2, 2, 1, mean_scale=0.0)
        a = 3.0
        scaled = scale_noise(model, a)
        assert snr(scaled) == pytest.approx(snr(model) / a**2, rel=1e-12)

    def test_beta_noise_formula(self):
        # zero-mean x with Tr(C_xx) = 5, noise N(0, beta I_5) -> snr = 1/beta
        x = GaussianMixture.single(np.zeros(5), np.eye(5))
        for beta in (0.1, 1.0, 7.5):
            noise = GaussianMixture.single(np.zeros(5), beta * np.eye(5))
            model = BayesianLinearModel(np.eye(5), x, noise)
            assert snr(model) == pytest.approx(1.0 / beta, rel=1e-12)

    def test_second_moments_include_means(self):
        x = GaussianMixture.single(np.array([3.0, 4.0]), np.eye(2))  # E||x||^2 = 27
        n = GaussianMixture.single(np.zeros(2), np.eye(2))  # E||n||^2 = 2
        model = BayesianLinearModel(np.eye(2), x, n)
        assert snr(model) == pytest.approx(13.5, rel=1e-14)

    def test_snr_db_finite_where_linear_ratio_overflows(self):
        # At 3090 dB the linear ratio, 10^309, exceeds the largest double;
        # the dB value is a difference of the two second moments' logarithms.
        model = load_config(packaged_config("figure1.config")).model
        scaled, _ = calibrate_noise_scale(model, 3090.0)
        assert snr_db(scaled) == pytest.approx(3090.0, rel=1e-9)

    @pytest.mark.parametrize("func", [snr, snr_db, lambda m: calibrate_noise_scale(m, 0.0)])
    def test_second_moment_rounding_to_zero_rejected(self, func):
        # 0.5 * 5e-324 rounds to 0, so this valid two-component noise has
        # E||n||^2 == 0 exactly.
        x = GaussianMixture.single(np.zeros(1), np.eye(1))
        noise = GaussianMixture.from_parameters((0.5, 0.5), [[0.0], [0.0]], [[[5e-324]]] * 2)
        model = BayesianLinearModel(np.eye(1), x, noise)
        with pytest.raises(ValidationError, match="noise second moment 0 is not positive"):
            func(model)


class TestCalibration:
    def test_unit_case(self):
        x = GaussianMixture.single(np.zeros(5), np.eye(5))
        model = BayesianLinearModel(np.eye(5), x, x)
        scaled, factor = calibrate_noise_scale(model, 0.0)
        assert factor == pytest.approx(1.0, rel=1e-14)
        assert snr_db(scaled) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db_shrinks_scale_tenfold(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 3, 2, 2)
        _, a0 = calibrate_noise_scale(model, 0.0)
        _, a20 = calibrate_noise_scale(model, 20.0)
        assert a20 == pytest.approx(a0 / 10.0, rel=1e-12)

    def test_calibration_exact(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 3, 3, 2)
        for target in (-10.0, 0.0, 17.0, 50.0):
            scaled, _ = calibrate_noise_scale(model, target)
            assert snr(scaled) == pytest.approx(10.0 ** (target / 10.0), rel=1e-12)

    def test_sixty_one_grid_points(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2, 2, 2, 1)
        grid = np.arange(-10.0, 51.0, 1.0)
        assert grid.size == 61
        scales = [calibrate_noise_scale(model, s)[1] for s in grid]
        assert all(np.isfinite(scales))
        assert all(b < a for a, b in zip(scales, scales[1:]))  # higher SNR, less noise

    def test_nonfinite_target_rejected(self):
        model = scalar_wiener_model()
        with pytest.raises(ValidationError, match="not finite"):
            calibrate_noise_scale(model, np.inf)

    def test_extreme_target_rejected(self):
        model = scalar_wiener_model()
        with pytest.raises(ValidationError, match="unusable"):
            calibrate_noise_scale(model, -20000.0)

    def test_prior_snr_above_linear_overflow_calibrates(self):
        # figure-1 with its noise at a 3122 dB prior SNR: the linear ratio
        # overflows a double, the second moments' log difference does not
        model = load_config(packaged_config("figure1.config")).model
        high = scale_noise(model, 10.0 ** ((snr_db(model) - 3122.0) / 20.0))
        scaled, _ = calibrate_noise_scale(high, 0.0)
        assert abs(snr_db(scaled)) <= 1e-9

    @pytest.mark.parametrize("target", [3200.0, 3300.0, 6160.0, -6100.0])
    def test_scaled_noise_a_double_cannot_hold_rejected(self, target):
        # On figure-1 the scale itself is a double, but the scaled noise
        # variance is subnormal (3200 dB, 1.6e-317), underflows (3300, 6160
        # dB) or overflows (-6100 dB): the error names the unusable scale and
        # nothing warns on the way.
        model = load_config(packaged_config("figure1.config")).model
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_noise_scale(model, 3100.0)  # variance 1.6e-307, still normal
            with pytest.raises(ValidationError, match=f"target SNR {target} dB gives unusable noise scale"):
                calibrate_noise_scale(model, target)


class TestScaleNoise:
    def test_scales_means_and_covariances(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 2, 2, 1, 2)
        scaled = scale_noise(model, 2.0)
        npt.assert_allclose(scaled.noise.means, 2.0 * model.noise.means, rtol=1e-14)
        npt.assert_allclose(
            scaled.noise.covariances, 4.0 * model.noise.covariances, rtol=1e-12
        )

    def test_matches_per_component_reference(self):
        for model, factor in zip(random_models(41), np.geomspace(1e-12, 1e12, 40)):
            transform = factor * np.eye(model.noise.dim)
            assert_mixture_equal(
                scale_noise(model, factor).noise,
                reference_affine(model.noise, transform, np.zeros(model.noise.dim)),
            )

    def test_bad_factors_rejected(self):
        model = scalar_wiener_model()
        for factor in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                scale_noise(model, factor)
