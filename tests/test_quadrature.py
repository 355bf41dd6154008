"""Tests for the 1-D quadrature oracle."""

import numpy as np
import pytest

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    QuadratureSpec,
    ValidationError,
    estimate_mse,
    genie_lower_bound,
    lmmse_upper_bound,
    load_config,
    observation_mixture,
    packaged_config,
    quad_mse,
    quad_posterior_mean,
)
from gmbayes.quadrature import SPAN_SIGMAS, support_grid

from conftest import random_model

SPEC = QuadratureSpec(grid_points=4001)


def scalar_wiener_model() -> BayesianLinearModel:
    std = GaussianMixture.single(np.zeros(1), np.eye(1))
    return BayesianLinearModel(np.array([[1.0]]), std, std)


def oracle1d_model(h: float | None = None) -> BayesianLinearModel:
    model = load_config(packaged_config("oracle1d.config")).model
    if h is None:
        return model
    return BayesianLinearModel(np.array([[h]]), model.x_prior, model.noise)


def brute_force_quad_mse(model: BayesianLinearModel, spec: QuadratureSpec) -> float:
    """Reference double quadrature over every (y, x) pair of two independent grids.

    The y grid is an evenly spaced ``grid_points`` grid over the observation
    mixture's support, unrelated to the x grid, and the noise log-density is
    evaluated at all ``grid_points**2`` residuals.
    """
    h = model.H[0, 0]
    obs = observation_mixture(model)
    x = support_grid(model.x_prior, SPAN_SIGMAS, spec.grid_points)
    y = support_grid(obs, SPAN_SIGMAS, spec.grid_points)
    log_prior = model.x_prior.log_density(x)
    variance = np.empty_like(y)
    for start in range(0, y.size, 64):
        rows = slice(start, start + 64)
        residual = y[rows, None] - h * x[None, :]
        log_w = log_prior + model.noise.log_density(residual.ravel()).reshape(residual.shape)
        w = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
        mass = np.trapezoid(w, x, axis=1)
        first = np.trapezoid(w * x, x, axis=1) / mass
        second = np.trapezoid(w * x**2, x, axis=1) / mass
        variance[rows] = second - first**2
    return float(np.trapezoid(np.exp(obs.log_density(y)) * variance, y))


def noise_evaluations(monkeypatch, model: BayesianLinearModel, spec: QuadratureSpec) -> int:
    """Number of points at which ``quad_mse`` evaluates the noise log-density."""
    counts = []
    original = GaussianMixture.log_density

    def counting(self, x):
        if self is model.noise:
            counts.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(GaussianMixture, "log_density", counting)
    quad_mse(model, spec)
    return sum(counts)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.grid_points == 20001
        assert SPAN_SIGMAS == 12.0

    def test_even_grid_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            QuadratureSpec(grid_points=2000)

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError, match="1001"):
            QuadratureSpec(grid_points=999)

    @pytest.mark.parametrize("points", [1001.0, 2001.5, "2001", True])
    def test_non_integer_grid_rejected(self, points):
        # formerly accepted (floats) or a raw TypeError from the comparison
        with pytest.raises(ValidationError, match=f"grid_points {points!r} is not an integer"):
            QuadratureSpec(grid_points=points)

    def test_numpy_integer_stored_as_int(self):
        assert type(QuadratureSpec(grid_points=np.int64(1001)).grid_points) is int


class TestQuadPosteriorMean:
    def test_single_gaussian_matches_wiener(self):
        value = quad_posterior_mean(scalar_wiener_model(), 2.0, SPEC)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_prior_at_origin(self):
        x = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([-2.0]), np.array([2.0])], [np.eye(1)] * 2
        )
        n = GaussianMixture.single(np.zeros(1), np.eye(1))
        model = BayesianLinearModel(np.array([[1.0]]), x, n)
        assert abs(quad_posterior_mean(model, 0.0, SPEC)) < 1e-10

    def test_matches_analytic_estimator(self):
        run = load_config(packaged_config("oracle1d.config"))
        pre = PrecomputedEstimator(run.model)
        ys = np.linspace(-6.0, 6.0, 101)
        analytic = pre.estimate(ys[:, None])[:, 0]
        reference = quad_posterior_mean(run.model, ys, SPEC)
        assert np.max(np.abs(analytic - reference)) < 1e-6

    def test_grid_convergence(self):
        model = load_config(packaged_config("oracle1d.config")).model
        coarse = quad_posterior_mean(model, 0.7, QuadratureSpec(2001))
        fine = quad_posterior_mean(model, 0.7, QuadratureSpec(4001))
        assert abs(coarse - fine) < 1e-9

    def test_observation_outside_support(self):
        with pytest.raises(ValidationError, match="outside numerical support"):
            quad_posterior_mean(scalar_wiener_model(), 60.0, QuadratureSpec(1001))

    def test_non_1d_model_rejected(self):
        model = random_model(np.random.default_rng(0), 2, 2, 2, 1)
        with pytest.raises(ValidationError, match="1-D"):
            quad_posterior_mean(model, 0.0, SPEC)

    def test_vector_h_scaling(self):
        # H = [[2]]: posterior mean of x given y should track y/2 at high SNR
        x = GaussianMixture.single(np.zeros(1), np.eye(1))
        n = GaussianMixture.single(np.zeros(1), 1e-4 * np.eye(1))
        model = BayesianLinearModel(np.array([[2.0]]), x, n)
        assert quad_posterior_mean(model, 1.0, SPEC) == pytest.approx(0.5, abs=1e-4)


class TestQuadMse:
    def test_single_gaussian_value(self):
        assert quad_mse(scalar_wiener_model(), SPEC) == pytest.approx(0.5, abs=1e-8)

    def test_inside_analytic_bounds(self):
        run = load_config(packaged_config("oracle1d.config"))
        pre = PrecomputedEstimator(run.model)
        value = quad_mse(run.model, SPEC)
        assert genie_lower_bound(pre) - 1e-8 <= value <= lmmse_upper_bound(LmmseEstimator(run.model)) + 1e-8

    @pytest.mark.parametrize("h", [1.0, 2.5, -3.0, 0.0, 1e-6, -1e-6])
    def test_matches_brute_force(self, h):
        model = oracle1d_model(h)
        spec = QuadratureSpec(grid_points=1001)
        reference = brute_force_quad_mse(model, spec)
        assert quad_mse(model, spec) == pytest.approx(reference, rel=1e-12)

    def test_matches_brute_force_on_random_models(self):
        # the models of acceptance criterion 2
        spec = QuadratureSpec(grid_points=1001)
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = random_model(rng, 1, 1, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            reference = brute_force_quad_mse(model, spec)
            assert quad_mse(model, spec) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("h", [1.0, -3.0, 0.0])
    def test_lattice_evaluates_noise_on_few_points(self, monkeypatch, h):
        spec = QuadratureSpec(grid_points=1001)
        count = noise_evaluations(monkeypatch, oracle1d_model(h), spec)
        assert count < 0.05 * spec.grid_points**2

    @pytest.mark.parametrize("points, nodes", [(4001, 9341), (20001, 46695)])
    def test_lattice_evaluates_noise_once_per_node(self, monkeypatch, points, nodes):
        # the oracle1d residual lattice, one noise evaluation per node
        spec = QuadratureSpec(grid_points=points)
        assert noise_evaluations(monkeypatch, oracle1d_model(), spec) == nodes

    @pytest.mark.parametrize("h", [1e-6, -1e-6])
    def test_tiny_gain_work_bounded_by_brute_force(self, monkeypatch, h):
        # the lattice stride exceeds the grid: residuals are evaluated directly
        spec = QuadratureSpec(grid_points=1001)
        count = noise_evaluations(monkeypatch, oracle1d_model(h), spec)
        assert spec.grid_points**2 // 2 <= count <= spec.grid_points**2

    def test_grid_convergence(self):
        model = oracle1d_model()
        values = [quad_mse(model, QuadratureSpec(points)) for points in (1001, 2001, 4001)]
        assert max(values) - min(values) <= 1e-12 * max(values)

    def test_matches_monte_carlo(self):
        run = load_config(packaged_config("oracle1d.config"))
        reference = quad_mse(run.model, SPEC)
        mse, stderr = estimate_mse(run.model, 1_000_000, seed=31)
        assert abs(mse - reference) < 5 * stderr


class TestSupportGrid:
    def test_oracle_observation_values(self):
        # oracle-check compares the estimator at these 101 observation values
        obs = observation_mixture(oracle1d_model())
        sigmas = np.sqrt(obs.covariances[:, 0, 0])
        expected = np.linspace(
            float(np.min(obs.means[:, 0] - 6.0 * sigmas)),
            float(np.max(obs.means[:, 0] + 6.0 * sigmas)),
            101,
        )
        np.testing.assert_array_equal(support_grid(obs, 6.0, 101), expected)
