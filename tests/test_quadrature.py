"""Tests for the 1-D quadrature oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    QuadratureSpec,
    ValidationError,
    calibrate_noise_scale,
    estimate_mse,
    genie_lower_bound,
    lmmse_upper_bound,
    load_config,
    observation_mixture,
    packaged_config,
    quad_mse,
    quad_posterior_mean,
)
from gmbayes.mixture import _peak
from gmbayes.quadrature import (
    _BLOCK_CELLS,
    _CHUNK_ROWS,
    _MAX_GRID_POINTS,
    _RESIDUALS_PER_BLOCK,
    SPAN_SIGMAS,
    _moment_weights,
    _posterior_rows,
    _require_support,
    _row_moments,
    _support_interval,
    _x_grid,
    support_grid,
)

from conftest import oracle_equivalence_models, random_model, scalar_wiener_model

SPEC = QuadratureSpec(grid_points=4001)


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
    log_prior = model.x_prior.log_density(x[:, None])
    variance = np.empty_like(y)
    for start in range(0, y.size, 64):
        rows = slice(start, start + 64)
        residual = y[rows, None] - h * x[None, :]
        log_w = log_prior + model.noise.log_density(residual.reshape(-1, 1)).reshape(residual.shape)
        w = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
        mass = np.trapezoid(w, x, axis=1)
        first = np.trapezoid(w * x, x, axis=1) / mass
        second = np.trapezoid(w * x**2, x, axis=1) / mass
        variance[rows] = second - first**2
    return float(np.trapezoid(np.exp(obs.log_density(y[:, None])) * variance, y))


def posterior_moments_before(log_w: np.ndarray, moment_weights: np.ndarray):
    """First/second posterior moments and absolute log-mass of each row of the
    log posterior ``log_w``, shifted by the row's peak: the per-row arithmetic
    of the quadrature before its weights were factored by noise component,
    frozen here as the "before" reference. ``log_w`` is overwritten."""
    shift = _peak(log_w, axis=1)
    log_w -= shift[:, None]
    mass, first, second = (np.exp(log_w, out=log_w) @ moment_weights).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return first / mass, second / mass, shift + np.log(mass)


def row_moments_before(noise: GaussianMixture, residual, log_prior, moment_weights):
    """:func:`posterior_moments_before` of the noise mixture's log-density at a
    ``(rows, grid)`` block of residuals plus the log prior."""
    log_w = noise.log_density(residual.reshape(-1, 1)).reshape(residual.shape)
    log_w += log_prior
    return posterior_moments_before(log_w, moment_weights)


def factored_row_moments(noise: GaussianMixture, residual, log_prior, moment_weights):
    """The per-row arithmetic of :func:`quad_posterior_mean` and ``quad_mse``'s
    per-row path: cells ``log q_l + log N_l(residual) + log prior``, shifted by
    the peak of each row's ``L x grid`` cells, exponentiated, summed over
    components and multiplied by the moment weights."""
    cells = noise.component_log_pdfs(residual.reshape(-1, 1)).reshape((len(noise),) + residual.shape)
    cells += noise.log_weights[:, None, None] + log_prior[None, None, :]
    shift = _peak(cells, axis=(0, 2))
    weights = np.exp(cells - shift[:, None]).sum(axis=0)
    mass, first, second = (weights @ moment_weights).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return first / mass, second / mass, shift + np.log(mass)


def quad_posterior_mean_before(model: BayesianLinearModel, y, spec: QuadratureSpec):
    """:func:`quad_posterior_mean` as it was before its weights were factored
    by noise component, on blocks of 16 rows."""
    x = support_grid(model.x_prior, SPAN_SIGMAS, spec.grid_points)
    log_prior = model.x_prior.log_density(x[:, None])
    moment_weights = _moment_weights(x)
    means = np.empty_like(y)
    for start in range(0, y.size, 16):
        rows = slice(start, start + 16)
        residual = y[rows, None] - model.H[0, 0] * x[None, :]
        means[rows] = row_moments_before(model.noise, residual, log_prior, moment_weights)[0]
    return means


def lattice_quad_mse(model: BayesianLinearModel, spec: QuadratureSpec, row_variances,
                     row_moments=factored_row_moments) -> float:
    """:func:`quad_mse`'s y lattice and outer integral around a posterior variance rule.

    Every block of y rows (at most ``_CHUNK_ROWS`` rows of at most
    ``_BLOCK_CELLS`` cells, as in ``quad_mse``) gathers its noise
    log-densities from the residual lattice through a ``(rows, grid)`` array of lattice indices with
    ``np.take``. ``row_variances(log_noise, shift, log_prior,
    moment_weights)`` turns a block into its rows' posterior variances;
    ``shift`` is the lattice's peak. When the lattice would span more than
    ``_CHUNK_ROWS`` x grids, by ``quad_mse``'s test made before any lattice
    exists, the y grid is the plain :func:`support_grid` of the observation
    mixture, and ``row_moments(noise, residual, log_prior, moment_weights)``
    gives the posterior moments of residuals ``y - H x`` in blocks of
    ``_RESIDUALS_PER_BLOCK`` residuals; the default,
    :func:`factored_row_moments`, is the arithmetic of ``quad_mse``'s
    per-row path.
    """
    h = float(model.H[0, 0])
    x_grid = support_grid(model.x_prior, SPAN_SIGMAS, spec.grid_points)
    log_prior = model.x_prior.log_density(x_grid[:, None])
    moment_weights = _moment_weights(x_grid)
    size = x_grid.size
    dx = (x_grid[-1] - x_grid[0]) / (size - 1)
    step = abs(h) * dx
    obs = observation_mixture(model)
    low, high = _support_interval(obs, SPAN_SIGMAS)

    if not (0.0 < step < math.inf and high - low <= (_CHUNK_ROWS - 1) * size * step):
        y_grid = support_grid(obs, SPAN_SIGMAS, size)
        density = np.exp(obs.log_density(y_grid[:, None]))
        integrand = np.empty_like(y_grid)
        block_rows = _RESIDUALS_PER_BLOCK // size
        for start in range(0, size, block_rows):
            rows = slice(start, start + block_rows)
            residual = y_grid[rows, None] - h * x_grid[None, :]
            first, second, log_mass = row_moments(model.noise, residual, log_prior, moment_weights)
            integrand[rows] = density[rows] * np.where(log_mass > -np.inf, second - first**2, 0.0)
        return float(np.trapezoid(integrand, y_grid))

    sign = int(np.sign(h))
    stride = max(1, math.ceil((high - low) / ((size - 1) * step)))
    y_count = min(size, math.ceil((high - low) / (stride * step)) + 1)
    y_index = stride * np.arange(y_count)
    y_grid = low + y_index * step
    origin = low - h * x_grid[0]
    density = np.exp(obs.log_density(y_grid[:, None]))
    column = -sign * np.arange(size)
    column_low, column_high = int(column.min()), int(column.max())
    block_rows = min(_CHUNK_ROWS, _BLOCK_CELLS // size)
    offsets = (stride * np.arange(block_rows) - column_low)[:, None] + column[None, :]
    nodes = int(y_index[-1]) + column_high - column_low + 1

    integrand = np.empty_like(y_grid)
    lattice = model.noise.log_density((origin + np.arange(column_low, column_low + nodes) * step)[:, None])
    for start in range(0, y_count, block_rows):
        rows = slice(start, min(start + block_rows, y_count))
        log_noise = np.take(lattice[stride * start:], offsets[: rows.stop - start])
        integrand[rows] = density[rows] * row_variances(log_noise, lattice.max(), log_prior, moment_weights)
    return float(np.trapezoid(integrand, y_grid))


def factored_moments(log_noise, shift, log_prior, moment_weights):
    """Mass, first and second moment sums of each row under the weights
    ``exp(log_noise - shift) x exp(log_prior - peak)``."""
    prior_weights = np.exp(log_prior - log_prior.max())[:, None] * moment_weights
    return (np.exp(log_noise - shift) @ prior_weights).T


def factored_variances(log_noise, shift, log_prior, moment_weights):
    """Posterior variances from :func:`factored_moments`; a row whose mass
    underflows to 0 has variance 0."""
    mass, first, second = factored_moments(log_noise, shift, log_prior, moment_weights)
    live = mass > 0.0
    variances = np.zeros_like(mass)
    variances[live] = second[live] / mass[live] - (first[live] / mass[live]) ** 2
    return variances


def per_row_shift_variances(log_noise, shift, log_prior, moment_weights):
    """Posterior variances from the log posterior shifted by each row's own peak,
    the arithmetic :func:`quad_mse`'s lattice path used before it factored its
    weights; a row of no mass has variance 0."""
    first, second, log_mass = posterior_moments_before(log_noise + log_prior, moment_weights)
    return np.where(log_mass > -np.inf, second - first**2, 0.0)


def gather_quad_mse(model: BayesianLinearModel, spec: QuadratureSpec) -> float:
    """Reference :func:`quad_mse`: its factored arithmetic on index-gathered blocks."""
    return lattice_quad_mse(model, spec, factored_variances)


def per_row_shift_quad_mse(model: BayesianLinearModel, spec: QuadratureSpec) -> float:
    """Reference :func:`quad_mse` with its lattice path as it was before the
    factored weights."""
    return lattice_quad_mse(model, spec, per_row_shift_variances)


def zero_mass_rows(model: BayesianLinearModel, spec: QuadratureSpec) -> tuple[int, int]:
    """Rows of :func:`quad_mse`'s y lattice whose factored mass underflows to 0, of all rows."""
    masses = []

    def recording(*block):
        masses.append(factored_moments(*block)[0])
        return factored_variances(*block)

    lattice_quad_mse(model, spec, recording)
    masses = np.concatenate(masses)
    return int(np.count_nonzero(masses == 0.0)), masses.size


def noise_work(monkeypatch, model: BayesianLinearModel, call) -> tuple[int, int]:
    """Points at which ``call()`` evaluates the noise mixture's log-density or
    its per-component log-densities, and its tracemalloc peak in bytes."""
    counts = []

    def counting(original):
        def counted(self, x):
            if self is model.noise:
                counts.append(np.size(x))
            return original(self, x)
        return counted

    for name in ("log_density", "component_log_pdfs"):
        monkeypatch.setattr(GaussianMixture, name, counting(getattr(GaussianMixture, name)))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(counts), peak


def quad_mse_work(monkeypatch, model: BayesianLinearModel, spec: QuadratureSpec) -> tuple[int, int]:
    """:func:`noise_work` of ``quad_mse``."""
    return noise_work(monkeypatch, model, lambda: quad_mse(model, spec))


def oracle_values(model: BayesianLinearModel) -> np.ndarray:
    """101 observation values evenly spaced over the observation mixture's
    6-sigma window, as many as oracle-check compares."""
    return support_grid(observation_mixture(model), 6.0, 101)


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

    def test_grid_points_capped(self):
        # the cap keeps each noise component's lattice array near 51 MB; only the
        # spec is built here, never a quadrature at such a grid
        assert _MAX_GRID_POINTS == 100_001
        assert QuadratureSpec(grid_points=_MAX_GRID_POINTS).grid_points == _MAX_GRID_POINTS
        with pytest.raises(ValidationError, match="from 1001 to 100001"):
            QuadratureSpec(grid_points=_MAX_GRID_POINTS + 2)


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

    def test_zero_posterior_mass_outside_support(self):
        # the noise log-density is -inf at every residual, so the posterior
        # has zero mass: the support error, not a NaN mean
        model = load_config(packaged_config("oracle1d.config")).model
        with pytest.raises(ValidationError, match="y = 1e\\+200 outside numerical support of the grid"):
            quad_posterior_mean(model, 1e200, QuadratureSpec(1001))

    @pytest.mark.parametrize("y, message", [
        (np.zeros((2, 1)), r"y must be scalar or 1-D, got shape \(2, 1\)"),
        ([0.0, np.nan], "y has non-finite entries"),
    ])
    def test_bad_y_rejected(self, y, message):
        with pytest.raises(ValidationError, match=message):
            quad_posterior_mean(scalar_wiener_model(), y, SPEC)

    def test_non_1d_model_rejected(self):
        model = random_model(np.random.default_rng(0), 2, 2, 2, 1)
        with pytest.raises(ValidationError, match="1-D"):
            quad_posterior_mean(model, 0.0, SPEC)

    @pytest.mark.parametrize("points", [1001, 4001])
    @pytest.mark.parametrize("snr_db", [-40, 0, 40])
    def test_factored_weights_match_before(self, snr_db, points):
        # the weights factored by noise component round differently from
        # the log-sum-exp and per-row shift they replace, by a few ulps
        model, _ = calibrate_noise_scale(oracle1d_model(), float(snr_db))
        spec = QuadratureSpec(grid_points=points)
        y = oracle_values(model)
        np.testing.assert_allclose(quad_posterior_mean(model, y, spec),
                                   quad_posterior_mean_before(model, y, spec), rtol=1e-13, atol=0)

    def test_factored_weights_with_zero_weight_component(self):
        # a zero-weight noise component has log weight -inf: every cell of
        # it is -inf and adds exactly 0
        noise = GaussianMixture.from_parameters(
            [0.5, 0.0, 0.5], [[0.0], [1.0], [-0.4]], [[[0.4]], [[0.2]], [[1.1]]]
        )
        model = BayesianLinearModel(np.array([[1.0]]), oracle1d_model().x_prior, noise)
        y = oracle_values(model)
        np.testing.assert_allclose(quad_posterior_mean(model, y, SPEC),
                                   quad_posterior_mean_before(model, y, SPEC), rtol=1e-13, atol=0)

    def test_evaluates_noise_once_per_residual(self, monkeypatch):
        # per component, at every residual y - H x of the 101 oracle values
        model = oracle1d_model()
        count, _ = noise_work(monkeypatch, model,
                              lambda: quad_posterior_mean(model, oracle_values(model), SPEC))
        assert count == 101 * SPEC.grid_points

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
        # 0, 1e-6 and -1e-6 take the per-row path on the plain support grid,
        # which the reference mirrors; the others the window read, which
        # gives the same bits as the index gather
        model = oracle1d_model(h)
        spec = QuadratureSpec(grid_points=1001)
        value = quad_mse(model, spec)
        assert value == gather_quad_mse(model, spec)
        assert value == pytest.approx(brute_force_quad_mse(model, spec), rel=1e-12)

    def test_matches_brute_force_on_random_models(self):
        # the models of acceptance criterion 2
        spec = QuadratureSpec(grid_points=1001)
        for model in oracle_equivalence_models():
            value = quad_mse(model, spec)
            assert value == gather_quad_mse(model, spec)
            assert value == pytest.approx(brute_force_quad_mse(model, spec), rel=1e-12)

    def test_window_read_matches_gather_on_oracle1d(self):
        assert quad_mse(oracle1d_model(), SPEC) == gather_quad_mse(oracle1d_model(), SPEC)

    @pytest.mark.parametrize("points", [1001, 4001])
    @pytest.mark.parametrize("snr_db", range(-40, 41, 10))
    def test_factored_weights_match_per_row_shift(self, snr_db, points):
        # the factored weights round differently from the per-row shift, by
        # a few ulps of the integral (worst seen 2.5e-13 relative); at -30
        # and -40 dB the lattice would be too large, and quad_mse runs its
        # per-row path on the plain support grid, as the reference does,
        # bit for bit. That path's weights are factored by noise component
        # too, and the per-row arithmetic before that differs by an ulp.
        model, _ = calibrate_noise_scale(oracle1d_model(), float(snr_db))
        spec = QuadratureSpec(grid_points=points)
        value, reference = quad_mse(model, spec), per_row_shift_quad_mse(model, spec)
        assert value == pytest.approx(reference, rel=1e-12)
        if snr_db <= -30:
            assert value == reference
            before = lattice_quad_mse(model, spec, per_row_shift_variances, row_moments_before)
            assert value == pytest.approx(before, rel=1e-12)

    @pytest.mark.parametrize("points, zero_rows, rows", [(1001, 346, 512), (4001, 1386, 2044)])
    def test_zero_mass_rows_contribute_nothing(self, points, zero_rows, rows):
        # signal components at +-200: between them the y lattice has rows
        # whose factored mass underflows to 0, and whose observation density
        # is far below the last bit of the integral. The bound is above the
        # raw-moment cancellation eps E[x^2|y] / Var[x|y], about 2e-11 here
        # (seen 2.8e-11 at 1001 points and 1.3e-11 at 4001).
        noise = oracle1d_model().noise
        x = GaussianMixture.from_parameters([0.5, 0.5], [[-200.0], [200.0]], [[[1.0]], [[1.0]]])
        model = BayesianLinearModel(np.array([[1.0]]), x, noise)
        spec = QuadratureSpec(grid_points=points)
        assert zero_mass_rows(model, spec) == (zero_rows, rows)
        value = quad_mse(model, spec)
        assert value == gather_quad_mse(model, spec)
        assert value == pytest.approx(brute_force_quad_mse(model, spec), rel=5e-11)

    @pytest.mark.parametrize("h", [1.0, -3.0])
    def test_lattice_evaluates_noise_on_few_points(self, monkeypatch, h):
        spec = QuadratureSpec(grid_points=1001)
        count, _ = quad_mse_work(monkeypatch, oracle1d_model(h), spec)
        assert count < 0.05 * spec.grid_points**2

    @pytest.mark.parametrize("points, nodes", [(4001, 9341), (20001, 46695)])
    def test_lattice_evaluates_noise_once_per_node(self, monkeypatch, points, nodes):
        # the oracle1d residual lattice, one noise evaluation per node; memory
        # is one reused block of at most _BLOCK_CELLS weights (6 rows, 0.96 MB
        # at 20 001 points; peak seen 5.6 MB, 15.1 MB with the former 64-row
        # block) and no index array of the block's size
        spec = QuadratureSpec(grid_points=points)
        count, peak = quad_mse_work(monkeypatch, oracle1d_model(), spec)
        assert count == nodes
        assert peak < 8e6

    def test_per_row_fallback_memory_bounded(self, monkeypatch):
        # at -40 dB the lattice is too large, and quad_mse's per-row blocks
        # hold _RESIDUALS_PER_BLOCK residuals, 8 rows at 4001 points (peak
        # seen 2.7 MB; 4.9 MB with 16-row blocks, 21.5 MB with 64-row ones)
        model, _ = calibrate_noise_scale(oracle1d_model(), -40.0)
        _, peak = quad_mse_work(monkeypatch, model, SPEC)
        assert peak < 12e6

    @pytest.mark.parametrize("h", [1e-6, -1e-6, 0.0])
    def test_tiny_gain_work_bounded_by_brute_force(self, monkeypatch, h):
        # the lattice would span more than _CHUNK_ROWS x grids, or has no
        # spacing at all when H = 0: quad_mse evaluates all grid_points**2
        # residuals of the plain support grid
        spec = QuadratureSpec(grid_points=1001)
        count, _ = quad_mse_work(monkeypatch, oracle1d_model(h), spec)
        assert spec.grid_points**2 // 2 <= count <= spec.grid_points**2

    @pytest.mark.parametrize("h", [-1e-17, 3e-18, 1e-19, 1e-25, 1e-200, 1e-310, 5e-324, -5e-324])
    def test_degenerate_gain_matches_brute_force(self, h):
        # |H| dx is far too small for a residual lattice, or underflows to 0
        # at +-5e-324: quad_mse takes the per-row path on the plain support
        # grid, which forms no lattice index, and returns the no-information
        # MSE Var[x] = 3.5625 to rounding
        model = oracle1d_model(h)
        spec = QuadratureSpec(grid_points=1001)
        value = quad_mse(model, spec)
        assert value == pytest.approx(brute_force_quad_mse(model, spec), rel=1e-12)
        genie = genie_lower_bound(PrecomputedEstimator(model))
        assert genie - 1e-8 <= value <= lmmse_upper_bound(LmmseEstimator(model)) + 1e-8

    def test_grid_convergence(self):
        model = oracle1d_model()
        values = [quad_mse(model, QuadratureSpec(points)) for points in (1001, 2001, 4001)]
        assert max(values) - min(values) <= 1e-12 * max(values)

    def test_matches_monte_carlo(self):
        run = load_config(packaged_config("oracle1d.config"))
        reference = quad_mse(run.model, SPEC)
        mse, stderr = estimate_mse(run.model, 1_000_000, seed=31)
        assert abs(mse - reference) < 5 * stderr


# -40 to 40 dB at 1001, 4001 and 20 001 points, less the two per-row cases
# at 20 001 points (-40, -30 dB), which take about 10 s each
COMPARED_CASES = [(snr_db, points) for points in (1001, 4001, 20001) for snr_db in range(-40, 41, 10)
                  if points < 20001 or snr_db > -30]


def compared_rows(model: BayesianLinearModel, spec: QuadratureSpec):
    """The quadrature rows of ``model`` and the y values and posterior means
    that oracle-check compares among them."""
    rows = _posterior_rows(model, spec)
    return rows, *rows.means_inside(6.0, 101)


class TestPosteriorRows:
    """The one quadrature pass of oracle-check: quad_mse's rows, and the
    posterior means it compares at 101 of them."""

    @pytest.mark.parametrize("snr_db, points", COMPARED_CASES)
    def test_compared_means_match_quad_posterior_mean(self, snr_db, points):
        # the per-row kernel stays an independent oracle of the lattice
        # path's means (-20 to 40 dB), and of the per-row path's own
        # blocks (-40, -30 dB); seen at most 2e-14 sd_x
        model, _ = calibrate_noise_scale(oracle1d_model(), float(snr_db))
        spec = QuadratureSpec(grid_points=points)
        _, y, means = compared_rows(model, spec)
        sd_x = math.sqrt(model.x_prior.covariance()[0, 0])
        assert np.max(np.abs(means - quad_posterior_mean(model, y, spec))) <= 1e-12 * sd_x

    @pytest.mark.parametrize("snr_db", [-40.0, None, 40.0])
    def test_compared_rows_spread_over_window(self, snr_db):
        # 101 distinct, increasing rows of the y grid, evenly spread by
        # index from the first row inside the 6-sigma window to the last
        model = oracle1d_model()
        if snr_db is not None:
            model, _ = calibrate_noise_scale(model, snr_db)
        rows, y, _ = compared_rows(model, SPEC)
        low, high = _support_interval(rows.obs, 6.0)
        inside = np.flatnonzero((rows.y >= low) & (rows.y <= high))
        index = np.searchsorted(rows.y, y)
        np.testing.assert_array_equal(rows.y[index], y)
        assert y.size == 101 and np.all(np.diff(index) > 0)
        assert (index[0], index[-1]) == (inside[0], inside[-1])
        assert np.ptp(np.diff(index)) <= 1
        assert inside.size > 101

    @pytest.mark.parametrize("snr_db, h", [(None, None), (-40.0, None), (None, 1e-19)])
    def test_integral_is_quad_mse(self, snr_db, h):
        # oracle-check prints this integral as quad_mse: on the lattice
        # path, and on the per-row path at -40 dB and at a tiny gain
        model = oracle1d_model(h)
        if snr_db is not None:
            model, _ = calibrate_noise_scale(model, snr_db)
        assert _posterior_rows(model, SPEC).mse() == quad_mse(model, SPEC)

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    def test_lattice_log_mass_matches_per_row(self, snr_db):
        # the lattice path's absolute log-mass, its two peaks plus the log of
        # its factored mass, is the per-row kernel's at the same y
        model = oracle1d_model()
        if snr_db is not None:
            model, _ = calibrate_noise_scale(model, snr_db)
        rows, y, _ = compared_rows(model, SPEC)
        index = np.searchsorted(rows.y, y)
        per_row = _row_moments(model, y, *_x_grid(model, SPEC))[2]
        np.testing.assert_allclose(rows.log_mass[index], per_row, rtol=1e-13, atol=1e-12)

    def test_compared_row_below_support_floor_raises(self):
        # signal components at +-200: the window spans the gap between them,
        # where the posterior mass underflows, as quad_posterior_mean reports
        x = GaussianMixture.from_parameters([0.5, 0.5], [[-200.0], [200.0]], [[[1.0]], [[1.0]]])
        model = BayesianLinearModel(np.array([[1.0]]), x, oracle1d_model().noise)
        rows = _posterior_rows(model, SPEC)
        with pytest.raises(ValidationError, match="outside numerical support of the grid"):
            rows.means_inside(6.0, 101)

    @pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-3, 1e-5])
    def test_zero_gain_is_prior_variance(self, scale):
        # H = 0 runs the per-row path on the observation mixture's own
        # support grid, which resolves a noise of any width, and gets the
        # no-information MSE Var[x]
        noise = oracle1d_model().noise
        scaled = GaussianMixture.from_parameters(noise.weights, scale * noise.means,
                                                 scale**2 * noise.covariances)
        model = BayesianLinearModel(np.array([[0.0]]), oracle1d_model().x_prior, scaled)
        assert quad_mse(model, QuadratureSpec(grid_points=1001)) == pytest.approx(3.5625, rel=1e-12)

    def test_every_y_grid_puts_rows_inside_window(self):
        # a lattice y grid has at least (G - 1) / 2 rows and the per-row grid
        # G, and the 6-sigma window is at least a third of the 12-sigma
        # support, so about (G - 1) / 6 rows fall inside it (166 at 1001
        # points), more than the 101 compared
        spec = QuadratureSpec(grid_points=1001)
        models = [*oracle_equivalence_models(),
                  *(oracle1d_model(h) for h in (0.0, 1e-8, -1e-8, 1e8, -1e8))]
        for model in models:
            rows = _posterior_rows(model, spec)
            low, high = _support_interval(rows.obs, 6.0)
            inside = np.count_nonzero((rows.y >= low) & (rows.y <= high))
            assert inside > (spec.grid_points - 1) // 8
            y, _ = rows.means_inside(6.0, 101)
            assert y.size == 101 and np.all(np.diff(y) > 0)

    def test_nan_log_mass_outside_support(self):
        with pytest.raises(ValidationError, match="y = 2 outside numerical support"):
            _require_support(np.array([1.0, 2.0]), np.array([0.0, np.nan]))


class TestSupportGrid:
    def test_oracle_observation_values(self):
        # each component mean by 6 standard deviations, 101 values
        obs = observation_mixture(oracle1d_model())
        sigmas = np.sqrt(obs.covariances[:, 0, 0])
        expected = np.linspace(
            float(np.min(obs.means[:, 0] - 6.0 * sigmas)),
            float(np.max(obs.means[:, 0] + 6.0 * sigmas)),
            101,
        )
        np.testing.assert_array_equal(support_grid(obs, 6.0, 101), expected)
