"""Tests for the analytic MSE bounds: genie-aided lower and LMMSE upper,
both below the prior trace."""

import numpy as np
import pytest
from mpmath import mp
from scipy.linalg import solve_triangular

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    calibrate_noise_scale,
    genie_lower_bound,
    lmmse_upper_bound,
    load_config,
    packaged_config,
    scale_noise,
)

from conftest import asymptotics_model, oracle_equivalence_models, random_model
from reference import DPS, components, reference_bounds


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

    def test_is_the_frozen_trace_formula(self):
        # exactly the formula LmmseEstimator.mse held before the bound moved
        # here, on criterion 2's models, figure1 and oracle1d from -100 to
        # 160 dB, and the asymptotics model
        packaged = [load_config(packaged_config(name)).model
                    for name in ("figure1.config", "oracle1d.config")]
        models = [*oracle_equivalence_models(), asymptotics_model()]
        models += [calibrate_noise_scale(model, snr_db)[0]
                   for model in packaged for snr_db in np.arange(-100.0, 161.0, 5.0)]
        for model in models:
            lmmse = LmmseEstimator(model)
            x_cov = model.x_prior.covariance()
            half = solve_triangular(lmmse.pair.obs.chols[0], model.H @ x_cov, lower=True)
            assert lmmse_upper_bound(lmmse) == float(np.trace(x_cov) - np.sum(half * half))

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


FIGURE1 = load_config(packaged_config("figure1.config"))
SUBTRACTION_LOSS = (
    "ROADMAP Direction 1: both bounds subtract nearly equal quantities, "
    "which loses relative precision as the SNR grows"
)


def figure1_bounds(snr_db: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Figure-1's computed ``(genie, LMMSE)`` bounds at ``snr_db`` and their
    closed forms, free of subtraction.

    With ``H = I``, unit signal covariances and one noise component of
    covariance ``c I`` (``c`` the squared noise scale), genie is
    ``5c / (1 + c)`` and LMMSE is ``sum_i lambda_i c / (lambda_i + c)`` over
    the eigenvalues ``lambda_i`` of ``C_xx``.
    """
    scaled, scale = calibrate_noise_scale(FIGURE1.model, snr_db)
    c = scale * scale
    lam = np.linalg.eigvalsh(FIGURE1.model.x_prior.covariance())
    computed = genie_lower_bound(PrecomputedEstimator(scaled)), lmmse_upper_bound(LmmseEstimator(scaled))
    return computed, (5.0 * c / (1.0 + c), float(np.sum(lam * c / (lam + c))))


class TestFigure1ClosedForms:
    @pytest.mark.parametrize("snr_db", FIGURE1.sweep.snr_db_grid)
    def test_packaged_grid(self, snr_db):
        # today's worst errors on the grid: genie 2.2e-14, LMMSE 1.2e-11 (at the top)
        (genie, lmmse), (genie_ref, lmmse_ref) = figure1_bounds(snr_db)
        assert genie == pytest.approx(genie_ref, rel=5e-14, abs=0.0)
        assert lmmse == pytest.approx(lmmse_ref, rel=2e-11, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=SUBTRACTION_LOSS)
    @pytest.mark.parametrize("snr_db", [120.0, 160.0])
    def test_extreme_snr(self, snr_db):
        # today LMMSE is 1.8e-4 off at 120 dB and 0.16 off at 160 dB
        (genie, lmmse), (genie_ref, lmmse_ref) = figure1_bounds(snr_db)
        assert genie == pytest.approx(genie_ref, rel=1e-13, abs=0.0)
        assert lmmse == pytest.approx(lmmse_ref, rel=1e-13, abs=0.0)


def relative_error(value: float, reference) -> float:
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - reference) / reference)


ORACLE1D = load_config(packaged_config("oracle1d.config"))


class TestMpmathReference:
    """Both bounds against the 60-digit conditioning of :mod:`reference`.

    The tolerances sit just above today's worst relative errors: figure-1
    genie 2.1e-14 and LMMSE 1.2e-11, oracle1d 5.3e-16 and 5.0e-15, the
    asymptotics model 2.8e-14 and 2.7e-12.
    """

    @pytest.mark.parametrize("model, grid, genie_tol, lmmse_tol", [
        (FIGURE1.model, FIGURE1.sweep.snr_db_grid, 5e-14, 2e-11),
        (ORACLE1D.model, ORACLE1D.sweep.snr_db_grid, 2e-15, 2e-14),
        (asymptotics_model(), np.arange(-10.0, 51.0, 10.0), 1e-13, 1e-11),
    ], ids=["figure1", "oracle1d", "asymptotics"])
    def test_bounds(self, model, grid, genie_tol, lmmse_tol):
        for snr_db in grid:
            scaled, _ = calibrate_noise_scale(model, snr_db)
            genie_ref, lmmse_ref = reference_bounds(scaled)
            assert relative_error(genie_lower_bound(PrecomputedEstimator(scaled)), genie_ref) <= genie_tol
            assert relative_error(lmmse_upper_bound(LmmseEstimator(scaled)), lmmse_ref) <= lmmse_tol

    @pytest.mark.parametrize("snr_db", sorted({*range(-300, 301, 50), -120, 120, 96}))
    def test_reference_meets_figure1_closed_forms(self, snr_db):
        # genie 5c/(1+c) and LMMSE sum_i lambda_i c/(lambda_i + c), worked at
        # 60 digits from the stored noise variance c and the eigenvalues of
        # the uncentred second moments less the outer mean
        scaled, _ = calibrate_noise_scale(FIGURE1.model, float(snr_db))
        c = float(scaled.noise.covariances[0, 0, 0])
        assert np.array_equal(scaled.noise.covariances[0], c * np.eye(5))
        genie_ref, lmmse_ref = reference_bounds(scaled)
        with mp.workdps(DPS):
            c = mp.mpf(c)
            mean, second = mp.zeros(5, 1), mp.zeros(5)
            for w, u, cov in components(FIGURE1.model.x_prior):
                mean += w * u
                second += w * (cov + u * u.T)
            lam = mp.eigsy(second - mean * mean.T, eigvals_only=True)
            genie = 5 * c / (1 + c)
            lmmse = mp.fsum(v * c / (v + c) for v in lam)
            assert abs(genie_ref - genie) <= mp.mpf("1e-15") * genie
            assert abs(lmmse_ref - lmmse) <= mp.mpf("1e-15") * lmmse
