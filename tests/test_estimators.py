"""Tests for the MMSE/LMMSE estimators and the posterior mixture."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    ValidationError,
    calibrate_noise_scale,
    load_config,
    observation_mixture,
    packaged_config,
    scale_noise,
)

from conftest import (
    oracle_equivalence_models,
    point_inputs,
    random_model,
    reference_inv_chols,
    reference_log_sum_exp,
    reference_mixture_covariance,
    rejected_input,
)

LOG_TINY = math.log(np.finfo(float).tiny)


def scalar_wiener_model() -> BayesianLinearModel:
    std = GaussianMixture.single(np.zeros(1), np.eye(1))
    return BayesianLinearModel(np.array([[1.0]]), std, std)


def two_component_1d_model() -> BayesianLinearModel:
    x = GaussianMixture.from_parameters(
        [0.4, 0.6], [np.array([-2.0]), np.array([1.5])], [[[0.5]], [[1.2]]]
    )
    n = GaussianMixture.from_parameters(
        [0.7, 0.3], [np.array([0.0]), np.array([0.4])], [[[0.3]], [[0.8]]]
    )
    return BayesianLinearModel(np.array([[1.0]]), x, n)


def information_form_means(model: BayesianLinearModel, y: np.ndarray) -> np.ndarray:
    """Per-(k,l) posterior component means via the information-form identity.

    u + (C_x^{-1} + H^T C_n^{-1} H)^{-1} H^T C_n^{-1} (y - H u_x - u_n),
    an independent evaluation path used only as a test oracle.
    """
    H = model.H
    out = []
    x, noise = model.x_prior, model.noise
    for x_mean, x_cov in zip(x.means, x.covariances):
        for n_mean, n_cov in zip(noise.means, noise.covariances):
            cx_inv = np.linalg.inv(x_cov)
            cn_inv = np.linalg.inv(n_cov)
            info = np.linalg.inv(cx_inv + H.T @ cn_inv @ H)
            residual = y - H @ x_mean - n_mean
            out.append(x_mean + info @ H.T @ cn_inv @ residual)
    return np.stack(out)


def triangular_solve_log_pdfs(obs: GaussianMixture, ys: np.ndarray) -> np.ndarray:
    """Per-component log-densities, one ``solve_triangular`` per component.

    The estimator's former per-pair kernel, kept as a reference for the
    stacked whitening kernel it now shares with the observation mixture.
    """
    out = np.empty((len(obs), ys.shape[0]))
    for i, chol in enumerate(obs.chols):
        z = solve_triangular(chol, (ys - obs.means[i]).T, lower=True)
        log_norm = -0.5 * obs.dim * math.log(2.0 * math.pi) - np.sum(np.log(np.diag(chol)))
        out[i] = log_norm - 0.5 * np.sum(z * z, axis=0)
    return out


def per_pair_conditioning(pre: PrecomputedEstimator) -> tuple[np.ndarray, np.ndarray]:
    """Gains and component posterior covariances, one ``cho_solve`` per pair.

    The estimator's former nested loop over (signal, noise) pairs, kept as
    the bit-exact reference for its stacked Cholesky solve.
    """
    model = pre.model
    n_noise = len(model.noise)
    gains, post_covs = [], []
    for k, x_cov in enumerate(model.x_prior.covariances):
        h_cov = model.H @ x_cov
        for chol in pre.obs.chols[k * n_noise:(k + 1) * n_noise]:
            gain = cho_solve((chol, True), h_cov).T
            post_cov = x_cov - gain @ h_cov
            gains.append(gain)
            post_covs.append(0.5 * (post_cov + post_cov.T))
    return np.stack(gains), np.stack(post_covs)


def einsum_posterior_terms(pre: PrecomputedEstimator, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities ``(n_pairs, n)`` and per-pair posterior means ``(n_pairs, n, d)``.

    The estimator's former gain path, kept as the reference for its batched
    gain product: a second innovation ``y - mu_y`` per pair, after the one the
    log-densities formed, with the gains applied by a generic einsum.
    """
    alpha = pre.responsibilities(ys).reshape(pre.n_pairs, -1)
    innov = ys[None, :, :] - pre.obs.means[:, None, :]
    return alpha, pre.x_means[:, None, :] + np.einsum("pdm,pnm->pnd", pre.gains, innov)


def einsum_estimate(pre: PrecomputedEstimator, ys: np.ndarray) -> np.ndarray:
    """The former batch estimate: the einsum reference, reduced over ``(pairs, n, d)``."""
    alpha, comp_means = einsum_posterior_terms(pre, ys)
    return np.einsum("pn,pnd->nd", alpha, comp_means)


def einsum_single_estimate(pre: PrecomputedEstimator, y: np.ndarray) -> np.ndarray:
    """The former single-observation estimate from the einsum reference."""
    alpha, comp_means = einsum_posterior_terms(pre, y[None, :])
    return alpha[:, 0] @ comp_means[:, 0, :]


def assert_matches_per_pair_loops(pre: PrecomputedEstimator) -> None:
    gains, post_covs = per_pair_conditioning(pre)
    npt.assert_array_equal(pre.gains, gains)
    assert pre.gains.flags.c_contiguous  # the layout the batched gain product reads
    npt.assert_array_equal(pre.comp_post_covs, post_covs)
    npt.assert_array_equal(pre.obs._inv_chols, reference_inv_chols(pre.obs.chols))


class TestPrecompute:
    def test_scalar_wiener_gain(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        npt.assert_allclose(pre.gains, [[[0.5]]], rtol=1e-15)
        npt.assert_allclose(pre.comp_post_covs, [[[0.5]]], rtol=1e-15)

    def test_identity_model_component_posteriors(self):
        # H = I_5, C^(k) = I, noise beta I -> C_x|y = beta/(1+beta) I for every k
        rng = np.random.default_rng(0)
        means = [rng.normal(scale=30.0, size=5) for _ in range(4)]
        x = GaussianMixture.from_parameters([0.25] * 4, means, [np.eye(5)] * 4)
        for beta in (0.1, 1.0, 10.0):
            noise = GaussianMixture.single(np.zeros(5), beta * np.eye(5))
            pre = PrecomputedEstimator(BayesianLinearModel(np.eye(5), x, noise))
            expected = beta / (1.0 + beta) * np.eye(5)
            for pair in range(4):
                npt.assert_allclose(pre.comp_post_covs[pair], expected, rtol=1e-12)

    def test_gain_count(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, 2, 4, 1)
        pre = PrecomputedEstimator(model)
        assert pre.gains.shape == (4, 3, 2)

    def test_component_covariances_psd(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 3, 3, 2)
        pre = PrecomputedEstimator(model)
        for cov in pre.comp_post_covs:
            npt.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)

    def test_stacked_solves_match_per_pair_loops_on_random_models(self):
        rng = np.random.default_rng(18)
        for i in range(40):
            d, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pre = PrecomputedEstimator(random_model(rng, d, m, k, l, zero_weight=i % 2 == 0))
            assert_matches_per_pair_loops(pre)

    def test_stacked_solves_match_per_pair_loops_on_figure1(self):
        run = load_config(packaged_config("figure1.config"))
        grid = run.sweep_config().snr_db_grid
        assert len(grid) == 61
        for snr_db in grid:
            scaled, _ = calibrate_noise_scale(run.model, snr_db)
            assert_matches_per_pair_loops(PrecomputedEstimator(scaled))


class TestResponsibilities:
    def test_single_component(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        npt.assert_array_equal(pre.responsibilities(np.array([3.7])), [[1.0]])

    def test_symmetric_prior_at_origin(self):
        x = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([-3.0]), np.array([3.0])], [np.eye(1)] * 2
        )
        n = GaussianMixture.single(np.zeros(1), np.eye(1))
        pre = PrecomputedEstimator(BayesianLinearModel(np.array([[1.0]]), x, n))
        alpha = pre.responsibilities(np.array([0.0]))
        npt.assert_allclose(alpha, [[0.5], [0.5]], atol=1e-15)

    def test_far_separated_components_concentrate(self):
        x = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([0.0]), np.array([100.0])], [np.eye(1)] * 2
        )
        n = GaussianMixture.single(np.zeros(1), np.eye(1))
        pre = PrecomputedEstimator(BayesianLinearModel(np.array([[1.0]]), x, n))
        alpha = pre.responsibilities(np.array([0.0]))
        assert alpha[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_at_extreme_observations(self):
        pre = PrecomputedEstimator(two_component_1d_model())
        for magnitude in (1.0, 1e3, 1e6):
            alpha = pre.responsibilities(np.array([magnitude]))
            assert abs(alpha.sum() - 1.0) <= 1e-12
            assert np.all(alpha >= 0)

    def test_zero_density_under_every_pair_rejected(self):
        # every pair's whitened squared distance overflows to inf, so the
        # log-sum-exp is -inf and no responsibility exists: an error, not NaN
        pre = PrecomputedEstimator(load_config(packaged_config("figure1.config")).model)
        far = np.full(5, 1e200)
        for call in (pre.estimate, pre.responsibilities, pre.posterior):
            with pytest.raises(ValidationError, match="zero density under every component pair"):
                call(far)
        batch = np.zeros((3, 5))
        batch[2] = far
        with pytest.raises(ValidationError, match="observation 2 "):
            pre.estimate(batch)
        # far out but representable: the nearest pair takes all the weight
        alpha = PrecomputedEstimator(two_component_1d_model()).responsibilities(1e150)
        assert alpha.sum() == 1.0 and np.all(np.isfinite(alpha))

    def test_overflowing_whitening_is_zero_density(self):
        # y - u overflows to inf for the pair at -1e308 and its whitening
        # gives 0 * inf = NaN; the pair at 0 overflows to -inf. A NaN lane
        # counts as 0 like an underflow, so this is zero density, not NaN.
        x = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.full(2, -1e308), np.zeros(2)], [np.eye(2)] * 2
        )
        pre = PrecomputedEstimator(
            BayesianLinearModel(np.eye(2), x, GaussianMixture.single(np.zeros(2), np.eye(2)))
        )
        far = np.full(2, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert pre.obs.log_density(far) == -np.inf
            for call in (pre.estimate, pre.responsibilities, pre.posterior):
                with pytest.raises(ValidationError, match="zero density under every component pair"):
                    call(far)
            with pytest.raises(ValidationError, match="observation 1 has zero density"):
                pre.estimate(np.stack([np.full(2, 0.5), far]))

    def test_batch_matches_single(self):
        # batched whitening products may round differently from one-row
        # ones, so agreement is to a few ulp, not bit for bit
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2, 3, 2)
        pre = PrecomputedEstimator(model)
        ys = rng.normal(size=(7, 2))
        batch = pre.responsibilities(ys)
        for i, y in enumerate(ys):
            npt.assert_allclose(
                batch[:, :, i], pre.responsibilities(y), rtol=1e-13, atol=1e-300
            )


class TestIdlePairs:
    """A pair of zero responsibility adds nothing to the posterior mean, even a
    pair whose own mean is not finite."""

    def test_nan_mean_of_idle_pair_is_dropped(self):
        # At y = (1e308, 1e308) the pair at -1e308 overflows its deviation and
        # has zero responsibility; its gain product is NaN. The pair at
        # +1e308 holds all the weight, and its posterior mean is y itself.
        x = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.full(2, -1e308), np.full(2, 1e308)], [np.eye(2)] * 2
        )
        pre = PrecomputedEstimator(
            BayesianLinearModel(np.eye(2), x, GaussianMixture.single(np.zeros(2), np.eye(2)))
        )
        far = np.full(2, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            npt.assert_array_equal(pre.responsibilities(far), [[0.0], [1.0]])
            _, comp_means = pre._posterior_terms(far[None])
            assert np.isnan(comp_means[0]).all()
            npt.assert_array_equal(pre.estimate(far), far)
            npt.assert_array_equal(pre.estimate(np.stack([far, far])), [far, far])
            post = pre.posterior(far)
            npt.assert_array_equal(post.mean(), far)
            # the uncentred second moments overflow: an error, not NaN
            with pytest.raises(ValidationError, match="posterior covariance overflows"):
                post.covariance()

    def test_idle_overflowing_pair_leaves_covariance(self):
        # H = 1, signal components at -1e308 and 0, noise variance 1e308: at
        # y = 9e307 the pair at -1e308 is idle and its mean overflows to inf.
        # Over the live pair the posterior covariance is 1e308 / (1e308 + 1).
        x = GaussianMixture.from_parameters([0.5, 0.5], [-1e308, 0.0], [1.0, 1.0])
        pre = PrecomputedEstimator(
            BayesianLinearModel([[1.0]], x, GaussianMixture.single(0.0, 1e308))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            post = pre.posterior(9e307)
            npt.assert_array_equal(post.responsibilities, [[0.0], [1.0]])
            npt.assert_array_equal(post.component_means[:, 0, 0], [np.inf, 0.9])
            npt.assert_array_equal(post.mean(), [0.9])
            npt.assert_allclose(post.covariance(), [[1.0]], rtol=0, atol=1e-12)

    def test_overflowing_live_pair_rejected(self):
        # One pair, gain 2 (H = 1/2, C_x = 1e306 against unit noise); the
        # posterior mean x_mean + 2 (y - mu_y) exceeds the largest double.
        x = GaussianMixture.single(np.full(1, 1.7976e308), np.full((1, 1), 1e306))
        pre = PrecomputedEstimator(
            BayesianLinearModel([[0.5]], x, GaussianMixture.single(np.zeros(1), np.eye(1)))
        )
        y = pre.obs.means[0] + 5e305
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (pre.estimate, lambda y: pre.posterior(y).mean()):
                with pytest.raises(ValidationError, match="observation 0 has a posterior mean"):
                    call(y)
            with pytest.raises(ValidationError, match="observation 1 has a posterior mean"):
                pre.estimate(np.stack([pre.obs.means[0], y]))


def figure1_batch(snr_db: float, rows: int = 4096) -> tuple[PrecomputedEstimator, np.ndarray]:
    """The figure-1 estimator at ``snr_db`` and ``rows`` observations drawn from its model."""
    scaled, _ = calibrate_noise_scale(load_config(packaged_config("figure1.config")).model, snr_db)
    ys = scaled.x_prior.sample(rows, 41) @ scaled.H.T + scaled.noise.sample(rows, 42)
    return PrecomputedEstimator(scaled), ys


def unflushed_softmax(pre: PrecomputedEstimator, ys: np.ndarray) -> np.ndarray:
    """The two-step softmax without the subnormal flush, ``(n_pairs, n)``:
    the bit-exact reference for every responsibility the flush keeps."""
    logs = pre.log_observation_pdfs(ys) + pre.obs.log_weights[:, None]
    logs -= reference_log_sum_exp(logs)
    alpha = np.exp(logs)
    return alpha / np.sum(alpha, axis=0, keepdims=True)


def flushed_softmax(pre: PrecomputedEstimator, log_pdfs: np.ndarray) -> np.ndarray:
    """Responsibilities ``(n_pairs, n)`` as the estimator formed them while its
    flushed lanes still went through ``exp``: log-sum-exp over every term, then
    values below ``log(tiny)`` set to ``-inf`` and exponentiated. The bit-exact
    reference for the responsibilities."""
    logs = log_pdfs + pre.obs.log_weights[:, None]
    logs -= reference_log_sum_exp(logs)
    np.putmask(logs, logs < LOG_TINY, -np.inf)
    alpha = np.exp(logs)
    return alpha / np.sum(alpha, axis=0, keepdims=True)


def assert_matches_flushed_softmax(pre: PrecomputedEstimator, ys: np.ndarray, singles: int) -> None:
    """Batch responsibilities and estimates of ``ys``, and single-observation
    estimates and posterior means of its first ``singles`` rows, equal the
    :func:`flushed_softmax` reference bit for bit."""
    alpha = flushed_softmax(pre, pre.log_observation_pdfs(ys))
    npt.assert_array_equal(pre.responsibilities(ys).reshape(pre.n_pairs, -1), alpha)
    _, comp_means = pre._posterior_terms(ys)
    npt.assert_array_equal(pre.estimate(ys), np.einsum("pn,pdn->nd", alpha, comp_means))
    for y in ys[:singles]:
        one = flushed_softmax(pre, pre.log_observation_pdfs(y[None]))[:, 0]
        _, means = pre._posterior_terms(y[None])
        post = pre.posterior(y)
        npt.assert_array_equal(post.responsibilities.reshape(-1), one)
        npt.assert_array_equal(post.mean(), one @ means[:, :, 0])
        npt.assert_array_equal(pre.estimate(y), one @ means[:, :, 0])


class TestSubnormalFlush:
    """Responsibilities below the smallest normal double are exactly 0."""

    def test_figure1_20db(self):
        self.check_figure1(20.0, flushes=True)

    def test_figure1_0db(self):
        self.check_figure1(0.0, flushes=False)

    @staticmethod
    def check_figure1(snr_db: float, flushes: bool) -> None:
        pre, ys = figure1_batch(snr_db)
        tiny = np.finfo(float).tiny
        reference = unflushed_softmax(pre, ys)
        # the case occurs at 20 dB; at 0 dB nothing flushes
        assert (np.count_nonzero((reference > 0) & (reference < tiny)) > 100) == flushes

        alpha = pre.responsibilities(ys).reshape(pre.n_pairs, -1)
        assert not np.any((alpha > 0) & (alpha < tiny))
        kept = reference >= tiny
        npt.assert_array_equal(alpha[kept], reference[kept])
        assert not np.any(alpha[~kept])

        _, comp_means = pre._posterior_terms(ys)
        npt.assert_array_equal(pre.estimate(ys), np.einsum("pn,pdn->nd", reference, comp_means))

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 120.0, 200.0])
    def test_figure1_matches_flushed_softmax(self, snr_db):
        pre, ys = figure1_batch(snr_db)
        assert_matches_flushed_softmax(pre, ys, singles=64)

    def test_criterion_2_models_match_flushed_softmax(self):
        # the 20 random models of acceptance criterion 2, over 60 standard
        # deviations of the observation mixture, where far pairs flush
        rng = np.random.default_rng(42)
        for _ in range(20):
            pre = PrecomputedEstimator(
                random_model(rng, 1, 1, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            )
            sigmas = np.sqrt(pre.obs.covariances[:, 0, 0])
            ys = np.linspace(np.min(pre.obs.means[:, 0] - 60.0 * sigmas),
                             np.max(pre.obs.means[:, 0] + 60.0 * sigmas), 401)
            assert_matches_flushed_softmax(pre, ys[:, None], singles=41)

    def test_zero_weight_pair(self):
        # a zero-weight signal component gives its pairs a -inf log weight:
        # flushed, never exponentiated, and exactly 0
        x = GaussianMixture.from_parameters(
            [0.6, 0.0, 0.4], [np.array([-2.0]), np.array([0.5]), np.array([30.0])],
            [[[0.5]], [[1.0]], [[0.01]]],
        )
        n = GaussianMixture.from_parameters(
            [0.9, 0.1], [np.array([0.0]), np.array([1.0])], [[[0.01]], [[4.0]]]
        )
        pre = PrecomputedEstimator(BayesianLinearModel(np.array([[1.0]]), x, n))
        ys = np.linspace(-40.0, 70.0, 221)[:, None]
        assert_matches_flushed_softmax(pre, ys, singles=221)
        assert not np.any(pre.responsibilities(ys)[1])

    def test_nan_column_leaves_other_columns_flushed(self):
        # A NaN log-density (an overflow inside the whitening) is a lane a
        # double cannot hold: it flushes to exactly 0 like an underflow, and
        # neither its column nor the rest of the batch turns NaN.
        pre, ys = figure1_batch(20.0)
        logs = pre.log_observation_pdfs(ys)
        reference = flushed_softmax(pre, logs)
        lane = int(np.argmax(reference[:, 7]))  # the lane that carried column 7
        logs[lane, 7] = np.nan
        alpha = pre._softmax(logs.copy())
        assert alpha[lane, 7] == 0.0
        logs[lane, 7] = -np.inf
        npt.assert_array_equal(alpha[:, 7], flushed_softmax(pre, logs)[:, 7])
        others = np.delete(alpha, 7, axis=1)
        tiny = np.finfo(float).tiny
        assert np.count_nonzero(others == 0.0) > 100  # far lanes were flushed
        assert not np.any((others > 0) & (others < tiny))
        npt.assert_array_equal(others, np.delete(reference, 7, axis=1))

    def test_all_nan_column_has_zero_density(self):
        pre, ys = figure1_batch(20.0)
        logs = pre.log_observation_pdfs(ys)
        logs[:, 7] = np.nan
        with pytest.raises(ValidationError, match="observation 7 has zero density"):
            pre._softmax(logs)

    def test_zero_density_agrees_with_reference(self):
        pre, ys = figure1_batch(20.0, rows=3)
        ys[2] = 1e200
        logs = pre.log_observation_pdfs(ys) + pre.obs.log_weights[:, None]
        npt.assert_array_equal(np.isneginf(reference_log_sum_exp(logs)), [False, False, True])
        with pytest.raises(ValidationError, match="observation 2 has zero density"):
            pre.estimate(ys)
        assert_matches_flushed_softmax(pre, ys[:2], singles=2)


class TestExpFastPath:
    """No lane below ``log(tiny)`` reaches ``numpy.exp``, where it would take the slow path."""

    def test_flushed_lanes_never_reach_exp(self, monkeypatch):
        (pre20, ys20), (pre40, ys40) = (figure1_batch(snr_db) for snr_db in (20.0, 40.0))
        calls = [(pre20, ys20), (pre40, ys40), (pre40, ys40[0])]  # two batches, one observation
        for pre, y in calls:
            logs = pre.log_observation_pdfs(np.atleast_2d(y)) + pre.obs.log_weights[:, None]
            assert np.any(logs - logs.max(axis=0) < LOG_TINY)  # lanes that flush exist

        smallest = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            smallest.append(np.min(x, initial=np.inf))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        for pre, y in calls:
            pre.estimate(y)
        assert len(smallest) == 2 * len(calls)  # the log-sum-exp's and the normalisation's
        assert min(smallest) >= LOG_TINY


class TestMmseEstimate:
    def test_scalar_wiener(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        npt.assert_allclose(pre.estimate(np.array([2.0])), [1.0], rtol=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 2, 2, 2)
        pre = PrecomputedEstimator(model)
        ys = rng.normal(size=(9, 2))
        batch = pre.estimate(ys)
        for i, y in enumerate(ys):
            npt.assert_allclose(batch[i], pre.estimate(y), rtol=1e-13, atol=1e-300)

    def test_nonlinearity(self):
        # genuine 2-component prior: xhat(y1+y2) != xhat(y1)+xhat(y2)-xhat(0)
        pre = PrecomputedEstimator(two_component_1d_model())
        y1, y2 = np.array([0.8]), np.array([-1.3])
        lhs = pre.estimate(y1 + y2)
        rhs = pre.estimate(y1) + pre.estimate(y2) - pre.estimate(np.zeros(1))
        assert abs(float(lhs[0] - rhs[0])) > 1e-3

    def test_dimension_mismatch(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        with pytest.raises(ValidationError, match="dimension"):
            pre.estimate(np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected(self, bad):
        pre = PrecomputedEstimator(two_component_1d_model())
        for y in (np.array([bad]), np.array([[0.5], [bad]])):
            with pytest.raises(ValidationError, match="non-finite"):
                pre.estimate(y)
        with pytest.raises(ValidationError, match="non-finite"):
            pre.posterior(np.array([bad]))
        with pytest.raises(ValidationError, match="non-finite"):
            pre.responsibilities(np.array([bad]))

    def test_scalar_observation_on_1d_model(self):
        pre = PrecomputedEstimator(two_component_1d_model())
        est = pre.estimate(np.float64(0.7))
        assert est.shape == (1,)
        npt.assert_array_equal(est, pre.estimate(np.array([0.7])))
        assert pre.responsibilities(0.7).shape == (2, 2)

    def test_scalar_observation_on_wider_model_rejected(self):
        pre = PrecomputedEstimator(random_model(np.random.default_rng(6), 2, 2, 2, 1))
        with pytest.raises(ValidationError, match="dimension"):
            pre.estimate(0.7)

    def test_three_dimensional_observation_rejected(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        with pytest.raises(ValidationError, match="vector or a batch"):
            pre.estimate(np.zeros((2, 3, 1)))

    def test_concurrent_reads_consistent(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 3, 3, 2)
        pre = PrecomputedEstimator(model)
        ys = rng.normal(size=(32, 3))
        expected = [pre.estimate(y) for y in ys]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(pre.estimate, ys))
        for got, want in zip(results, expected):
            npt.assert_array_equal(got, want)


class TestGainProduct:
    """The batched gain product against the einsum path it replaced."""

    def test_figure1_estimates_equal_einsum_reference(self):
        # Every figure-1 gain is diagonal, so each product term is exact and
        # the estimates keep their bits at every calibrated SNR.
        run = load_config(packaged_config("figure1.config"))
        grid = run.sweep_config().snr_db_grid
        assert len(grid) == 61
        for index, snr_db in enumerate(grid):
            scaled, _ = calibrate_noise_scale(run.model, snr_db)
            pre = PrecomputedEstimator(scaled)
            ys = scaled.x_prior.sample(2000, 2 * index) @ scaled.H.T \
                + scaled.noise.sample(2000, 2 * index + 1)
            npt.assert_array_equal(pre.estimate(ys), einsum_estimate(pre, ys))
            npt.assert_array_equal(pre.estimate(ys[0]), einsum_single_estimate(pre, ys[0]))

    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 4097])
    def test_scalar_gains_match_matmul(self, components, count):
        # d = m = 1: the gains are applied by a broadcast multiply, one
        # multiplication per entry, so the bits are the batched matmul's
        rng = np.random.default_rng(10 * components + count)
        pre = PrecomputedEstimator(random_model(rng, 1, 1, components, 2))
        ys = rng.normal(scale=3.0, size=(count, 1))
        _, means = pre._posterior_terms(ys)
        reference = pre.gains @ pre.obs._deviations(ys) + pre.x_means[:, :, None]
        npt.assert_array_equal(means, reference)

    def test_random_models_match_einsum_reference(self):
        # Full gains sum their products in another order; tolerance relative
        # to the largest per-pair posterior mean, which the estimate averages.
        rng = np.random.default_rng(20)
        for i in range(40):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            k, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            model = random_model(rng, d, m, k, l, zero_weight=i % 2 == 0)
            scaled, _ = calibrate_noise_scale(model, float(rng.uniform(-20.0, 60.0)))
            pre = PrecomputedEstimator(scaled)
            ys = scaled.x_prior.sample(300, 2 * i) @ scaled.H.T + scaled.noise.sample(300, 2 * i + 1)
            _, comp_means = einsum_posterior_terms(pre, ys)
            atol = 1e-13 * (1.0 + np.max(np.abs(comp_means)))
            npt.assert_allclose(pre.estimate(ys), einsum_estimate(pre, ys), rtol=1e-13, atol=atol)
            y = ys[0]
            npt.assert_allclose(pre.estimate(y), einsum_single_estimate(pre, y), rtol=1e-13, atol=atol)
            post = pre.posterior(y)
            _, single_means = einsum_posterior_terms(pre, y[None, :])
            npt.assert_allclose(post.component_means.reshape(-1, d), single_means[:, 0, :],
                                rtol=1e-13, atol=atol)
            npt.assert_allclose(post.mean(), einsum_single_estimate(pre, y), rtol=1e-13, atol=atol)


class TestPosterior:
    def test_mean_equals_estimate_exactly(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 3, 3, 2)
        pre = PrecomputedEstimator(model)
        for _ in range(10):
            y = rng.normal(size=3)
            post = pre.posterior(y)
            npt.assert_array_equal(post.mean(), pre.estimate(y))

    def test_component_covariances_independent_of_y(self):
        # views of the one precomputed array, not recomputed per call
        pre = PrecomputedEstimator(two_component_1d_model())
        post_a = pre.posterior(np.array([0.3]))
        post_b = pre.posterior(np.array([-5.0]))
        assert np.shares_memory(post_a.component_covariances, pre.comp_post_covs)
        npt.assert_array_equal(post_a.component_covariances, post_b.component_covariances)

    def test_single_component_special_case(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        post = pre.posterior(np.array([2.0]))
        npt.assert_allclose(post.mean(), [1.0], rtol=1e-15)
        npt.assert_allclose(post.covariance(), [[0.5]], rtol=1e-15)

    def test_density_matches_bayes_rule_pointwise(self):
        model = two_component_1d_model()
        pre = PrecomputedEstimator(model)
        y = np.array([0.6])
        post = pre.posterior(y)
        post_mix = GaussianMixture.from_parameters(
            post.responsibilities.reshape(-1),
            list(post.component_means.reshape(-1, 1)),
            list(post.component_covariances.reshape(-1, 1, 1)),
        )
        # reference: f(x|y) = f_x(x) f_n(y - x) / integral, evaluated on a grid
        grid = np.linspace(-8.0, 8.0, 20001)
        log_joint = model.x_prior.log_density(grid) + model.noise.log_density(
            float(y[0]) - grid
        )
        weights = np.exp(log_joint - log_joint.max())
        reference = weights / np.trapezoid(weights, grid)
        ours = np.exp(post_mix.log_density(grid))
        npt.assert_allclose(ours, reference, atol=1e-8)

    def test_responsibility_table_shape_and_sum(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 2, 2, 4, 3)
        pre = PrecomputedEstimator(model)
        post = pre.posterior(rng.normal(size=2))
        assert post.responsibilities.shape == (4, 3)
        assert post.responsibilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorCovariance:
    def test_single_component(self):
        pre = PrecomputedEstimator(scalar_wiener_model())
        post = pre.posterior(np.array([1.3]))
        npt.assert_allclose(post.covariance(), [[0.5]], rtol=1e-15)

    def test_matches_inline_moment_formula(self):
        rng = np.random.default_rng(19)
        for i in range(10):
            model = random_model(rng, 3, 2, 3, 2, zero_weight=i % 2 == 0)
            pre = PrecomputedEstimator(model)
            for y in rng.normal(scale=3.0, size=(5, 2)):
                post = pre.posterior(y)
                npt.assert_array_equal(
                    post.covariance(),
                    reference_mixture_covariance(
                        post.responsibilities.reshape(-1),
                        post.component_means.reshape(-1, 3),
                        post.component_covariances.reshape(-1, 3, 3),
                    ),
                )

    def test_trace_dominates_average_component_trace(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, 3, 3, 2)
        pre = PrecomputedEstimator(model)
        for _ in range(5):
            post = pre.posterior(rng.normal(size=3))
            avg = float(
                post.responsibilities.reshape(-1)
                @ np.trace(post.component_covariances.reshape(-1, 3, 3), axis1=1, axis2=2)
            )
            assert np.trace(post.covariance()) >= avg - 1e-12

    def test_matches_quadrature_conditional_variance(self):
        model = two_component_1d_model()
        pre = PrecomputedEstimator(model)
        y = 0.0
        post = pre.posterior(np.array([y]))
        grid = np.linspace(-9.0, 9.0, 40001)
        log_w = model.x_prior.log_density(grid) + model.noise.log_density(y - grid)
        w = np.exp(log_w - log_w.max())
        mass = np.trapezoid(w, grid)
        mean = np.trapezoid(w * grid, grid) / mass
        var = np.trapezoid(w * (grid - mean) ** 2, grid) / mass
        assert float(post.covariance()[0, 0]) == pytest.approx(var, abs=1e-8)


class TestInformationFormIdentity:
    def test_component_means_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = random_model(rng, 3, 3, 2, 2)
            pre = PrecomputedEstimator(model)
            y = rng.normal(size=3)
            reference = information_form_means(model, y)
            ours = pre.posterior(y).component_means.reshape(-1, 3)
            scale = 1.0 + np.linalg.norm(reference, axis=1, keepdims=True)
            assert np.max(np.abs(ours - reference) / scale) < 1e-8


def affine_lmmse_estimate(lmmse: LmmseEstimator, y) -> np.ndarray:
    """The LMMSE estimator's former affine formula, ``x_mean + (y - y_hat) G^T``,
    read from its moment-matched pair: the bit-exact reference for the pair's
    gain step that the estimator now runs."""
    pair, y = lmmse.pair, np.asarray(y, dtype=float)
    batch = y.reshape(-1, pair.model.observation_dim)
    est = pair.x_means[0] + (batch - pair.obs.means[0]) @ pair.gains[0].T
    return est if y.ndim == 2 else est[0]


def assert_lmmse_is_affine_formula(model: BayesianLinearModel, ys: np.ndarray) -> None:
    """LMMSE estimates equal the frozen affine formula exactly: on ``ys`` and
    its blocks of 0, 1 and 2 rows, on single observations and, for ``m = 1``,
    on scalars."""
    lmmse = LmmseEstimator(model)
    inputs = [ys, ys[:0], ys[:1], ys[:2], ys[0], ys[1]]
    if model.observation_dim == 1:
        inputs += [float(ys[0, 0]), ys[1, 0]]
    for y in inputs:
        est, reference = lmmse.estimate(y), affine_lmmse_estimate(lmmse, y)
        assert est.shape == reference.shape and np.array_equal(est, reference)


class TestLmmse:
    def test_gaussian_case_matches_mmse(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 2, 1, 1)
        pre = PrecomputedEstimator(model)
        lmmse = LmmseEstimator(model)
        for _ in range(20):
            y = rng.normal(size=2)
            a = pre.estimate(y)
            b = lmmse.estimate(y)
            assert np.linalg.norm(a - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_zero_innovation_returns_prior_mean(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 3, 3, 2)
        y = model.H @ model.x_prior.mean() + model.noise.mean()
        npt.assert_allclose(
            LmmseEstimator(model).estimate(y), model.x_prior.mean(), atol=1e-10
        )

    def test_large_noise_returns_prior_mean(self):
        rng = np.random.default_rng(12)
        model = scale_noise(random_model(rng, 2, 2, 3, 2), 1e6)
        y = rng.normal(size=2, scale=1e6)
        est = LmmseEstimator(model).estimate(y)
        # gain decays as a^-2 while ||y|| grows as a, so the residual is O(1/a)
        assert np.linalg.norm(est - model.x_prior.mean()) < 1e-4

    def test_estimate_is_affine(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 2, 2, 3, 2)
        lmmse = LmmseEstimator(model)
        y1, y2 = rng.normal(size=2), rng.normal(size=2)
        lhs = lmmse.estimate(y1 + y2)
        rhs = lmmse.estimate(y1) + lmmse.estimate(y2) - lmmse.estimate(np.zeros(2))
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 3, 2, 2, 2)
        lmmse = LmmseEstimator(model)
        ys = rng.normal(size=(6, 2))
        batch = lmmse.estimate(ys)
        for i, y in enumerate(ys):
            npt.assert_allclose(batch[i], lmmse.estimate(y), rtol=1e-13, atol=1e-13)

    def test_non_finite_observation_rejected(self):
        lmmse = LmmseEstimator(two_component_1d_model())
        with pytest.raises(ValidationError, match="non-finite"):
            lmmse.estimate(np.array([[0.5], [np.nan]]))

    def test_scalar_observation_on_1d_model(self):
        lmmse = LmmseEstimator(two_component_1d_model())
        est = lmmse.estimate(0.7)
        assert est.shape == (1,)
        npt.assert_array_equal(est, lmmse.estimate(np.array([0.7])))

    def test_is_moment_matched_pair_estimate(self):
        # the LMMSE estimator of a mixture model is the MMSE estimator of the
        # Gaussian model with the same means and covariances, on the 20 random
        # models of acceptance criterion 2
        for model in oracle_equivalence_models():
            x, noise = model.x_prior, model.noise
            pair = PrecomputedEstimator(BayesianLinearModel(
                model.H,
                GaussianMixture.single(x.mean(), x.covariance()),
                GaussianMixture.single(noise.mean(), noise.covariance()),
            ))
            obs = observation_mixture(model)
            sigmas = np.sqrt(obs.covariances[:, 0, 0])
            ys = np.linspace(np.min(obs.means[:, 0] - 6.0 * sigmas),
                             np.max(obs.means[:, 0] + 6.0 * sigmas), 101)[:, None]
            expected = pair.estimate(ys)
            deviation = np.max(np.abs(LmmseEstimator(model).estimate(ys) - expected))
            assert deviation <= 1e-12 * np.max(np.abs(expected))
            # and exactly the frozen affine formula, here and on 4096 draws
            assert_lmmse_is_affine_formula(model, ys)
            assert_lmmse_is_affine_formula(model, obs.sample(4096, 7))

    @pytest.mark.parametrize("name", ["figure1.config", "oracle1d.config"])
    @pytest.mark.parametrize("snr_db", [-10.0, 20.0, 50.0])
    def test_packaged_models_run_the_affine_formula(self, name, snr_db):
        scaled, _ = calibrate_noise_scale(load_config(packaged_config(name)).model, snr_db)
        assert_lmmse_is_affine_formula(scaled, observation_mixture(scaled).sample(4096, 11))

    def test_dimension_mismatch(self):
        lmmse = LmmseEstimator(scalar_wiener_model())
        with pytest.raises(ValidationError, match="dimension"):
            lmmse.estimate(np.zeros(2))


class TestObservationDensityConsistency:
    def test_precomputed_log_pdfs_match_observation_mixture(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, 2, 2, 3, 2)
        pre = PrecomputedEstimator(model)
        obs = observation_mixture(model)
        ys = rng.normal(size=(5, 2))
        from scipy.special import logsumexp

        per_pair = pre.log_observation_pdfs(ys) + pre.obs.log_weights[:, None]
        npt.assert_allclose(
            logsumexp(per_pair, axis=0), obs.log_density(ys), rtol=1e-12
        )

    def test_kernel_matches_per_pair_triangular_solves(self):
        # Both kernels are backward stable, so they may differ by roundoff
        # amplified by the condition number of the pair's Cholesky factor: a
        # nearly singular H makes that 1e5 at high SNR, where both carry a
        # 1e-6 relative error against an extended-precision evaluation.
        rng = np.random.default_rng(16)
        for _ in range(20):
            model = random_model(rng, 4, 4, 4, 4)
            for snr_db in (-120.0, 0.0, 60.0, 120.0, 200.0):
                scaled, _ = calibrate_noise_scale(model, snr_db)
                pre = PrecomputedEstimator(scaled)
                ys = scaled.x_prior.sample(20, rng.integers(2**32)) @ scaled.H.T \
                    + scaled.noise.sample(20, rng.integers(2**32))
                reference = triangular_solve_log_pdfs(pre.obs, ys)
                deviation = np.abs(pre.log_observation_pdfs(ys) - reference)
                kappa = np.linalg.cond(pre.obs.chols)[:, None]
                assert np.all(deviation <= 1e-13 * kappa * np.abs(reference))


# One estimator per observation dimension: m = 1, where a scalar is one
# observation, and m = 2, where it is rejected.
CONTRACT_ESTIMATORS = {
    1: PrecomputedEstimator(two_component_1d_model()),
    2: PrecomputedEstimator(random_model(np.random.default_rng(17), 3, 2, 2, 3)),
}


class TestInputContract:
    """Shape and dtype contract of the estimator entry points, by property."""

    @pytest.mark.parametrize("m", sorted(CONTRACT_ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_estimate(self, m, data):
        pre = CONTRACT_ESTIMATORS[m]
        kind, y = data.draw(point_inputs(m))
        if rejected_input(kind, m):
            with pytest.raises(ValidationError):
                pre.estimate(y)
            return
        out = pre.estimate(y)
        d = pre.model.signal_dim
        assert out.dtype == np.float64
        assert out.shape == ((len(y), d) if kind == "batch" else (d,))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", sorted(CONTRACT_ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_responsibilities(self, m, data):
        pre = CONTRACT_ESTIMATORS[m]
        kind, y = data.draw(point_inputs(m))
        if rejected_input(kind, m):
            with pytest.raises(ValidationError):
                pre.responsibilities(y)
            return
        alpha = pre.responsibilities(y)
        table = (len(pre.model.x_prior), len(pre.model.noise))
        assert alpha.dtype == np.float64
        assert alpha.shape == (table + (len(y),) if kind == "batch" else table)
        assert np.all(alpha >= 0.0)
        npt.assert_allclose(alpha.sum(axis=(0, 1)), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("m", sorted(CONTRACT_ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_posterior(self, m, data):
        pre = CONTRACT_ESTIMATORS[m]
        kind, y = data.draw(point_inputs(m))
        if rejected_input(kind, m) or kind == "batch":
            with pytest.raises(ValidationError):
                pre.posterior(y)
            return
        post = pre.posterior(y)
        table, d = (len(pre.model.x_prior), len(pre.model.noise)), pre.model.signal_dim
        assert post.responsibilities.shape == table
        assert post.component_means.shape == table + (d,)
        assert post.component_covariances.shape == table + (d, d)
        assert post.mean().dtype == np.float64
        assert post.covariance().shape == (d, d)

    @pytest.mark.parametrize("m", sorted(CONTRACT_ESTIMATORS))
    def test_empty_batch(self, m):
        pre = CONTRACT_ESTIMATORS[m]
        empty, d = np.empty((0, m)), pre.model.signal_dim
        assert pre.estimate(empty).shape == (0, d)
        assert pre.responsibilities(empty).shape == (len(pre.model.x_prior), len(pre.model.noise), 0)
        assert LmmseEstimator(pre.model).estimate(empty).shape == (0, d)
        assert pre.obs.log_density(empty).shape == (0,)
