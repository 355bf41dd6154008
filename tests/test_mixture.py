"""Tests for the Gaussian mixture toolkit (moments, densities, sampling,
affine transforms, joins, marginals, characteristic functions)."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from gmbayes import (
    GaussianMixture,
    ValidationError,
    affine_transform,
    independent_join,
    marginal,
)
from gmbayes.mixture import _LOG_TINY, _log_sum_exp, _row_blocks, _stacked_product

from conftest import (
    assert_mixture_equal,
    point_inputs,
    random_mixture,
    random_spd,
    reference_affine,
    reference_inv_chols,
    reference_join,
    reference_log_sum_exp,
    reference_marginal,
    reference_mixture_covariance,
    rejected_input,
)

# Frozen reference values (extended-precision evaluation, 50 digits).
STD_NORMAL_LOG_PDF_AT_0 = -0.9189385332046728
# log(0.3 N(400; 0, 1) + 0.7 N(400; 1, 1))
FAR_POINT_LOG_DENSITY = -79601.77561347715


def single_standard(dim: int = 1) -> GaussianMixture:
    return GaussianMixture.single(np.zeros(dim), np.eye(dim))


def masked_sample(mixture: GaussianMixture, count: int, seed: int) -> np.ndarray:
    """The sampler's former component loop, selecting rows by boolean masks:
    the bit-exact reference for the index-array loop and, as it makes the
    categorical pick for one component too, for the one-component skip."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty((count, mixture.dim))
    idx = rng.choice(len(mixture), size=count, p=mixture.weights)
    z = rng.standard_normal((count, mixture.dim))
    for k in range(len(mixture)):
        rows = idx == k
        if np.any(rows):
            out[rows] = mixture.means[k] + z[rows] @ mixture.chols[k].T
    return out


# ---------------------------------------------------------------- validation


class TestValidation:
    def test_identity_case_ok(self):
        mix = GaussianMixture.single(np.zeros(2), np.eye(2))
        npt.assert_array_equal(mix.chols, [np.eye(2)])
        assert not mix.chols.flags.writeable

    def test_weights_sum_violation_names_total(self):
        with pytest.raises(ValidationError, match=r"weights sum 1\.1"):
            GaussianMixture.from_parameters(
                [0.6, 0.5], [np.zeros(1), np.ones(1)], [np.eye(1), np.eye(1)]
            )

    def test_indefinite_covariance_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match="component 1: covariance not positive definite"):
            GaussianMixture.from_parameters([0.5, 0.5], [np.zeros(2)] * 2, [np.eye(2), bad])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="component 0: covariance not symmetric"):
            GaussianMixture.single(np.zeros(2), cov)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="component 1: weight -0.1 is negative"):
            GaussianMixture.from_parameters(
                [1.1, -0.1], [np.zeros(1)] * 2, [np.eye(1)] * 2
            )

    def test_dimension_mismatch_between_components(self):
        with pytest.raises(ValidationError, match="component 1: mean dimension"):
            GaussianMixture.from_parameters(
                [0.5, 0.5], [np.zeros(1), np.zeros(2)], [np.eye(1), np.eye(2)]
            )
        with pytest.raises(ValidationError, match="component 1: covariance dimension"):
            GaussianMixture.from_parameters(
                [0.5, 0.5], [np.zeros(2)] * 2, [np.eye(2), np.eye(3)]
            )
        with pytest.raises(ValidationError, match="does not match dimension 2"):
            GaussianMixture.single(np.zeros(2), np.eye(3))
        with pytest.raises(ValidationError, match=r"means shape \(3, 1\) does not match weights shape \(2,\)"):
            GaussianMixture([0.5, 0.5], np.zeros((3, 1)), np.ones((2, 1, 1)))
        with pytest.raises(ValidationError, match="parameter lists disagree: 2 weights, 1 means, 2 covariances"):
            GaussianMixture.from_parameters([0.5, 0.5], [np.zeros(1)], [np.eye(1)] * 2)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            GaussianMixture.from_parameters([], [], [])
        with pytest.raises(ValidationError, match="at least one"):
            GaussianMixture(np.empty(0), np.empty((0, 1)), np.empty((0, 1, 1)))

    def test_nonfinite_mean_rejected(self):
        with pytest.raises(ValidationError, match="component 0: mean has non-finite"):
            GaussianMixture.single(np.array([np.nan]), np.eye(1))

    @pytest.mark.parametrize("weight, mean, cov, what", [
        (np.nan, 0.0, 1.0, "weight nan is not finite"),
        (1.0, np.inf, 1.0, "mean has non-finite"),
        (1.0, 0.0, -np.inf, "covariance has non-finite"),
    ])
    def test_nonfinite_parameters_name_component(self, weight, mean, cov, what):
        with pytest.raises(ValidationError, match=f"component 1: {what}"):
            GaussianMixture.from_parameters([0.0, weight], [0.0, mean], [1.0, cov])

    def test_transforms_validate_their_result(self):
        # a covariance that underflows to zero under the map is not PD
        mix = GaussianMixture.from_parameters([0.5, 0.5], [0.0, 1.0], [1.0, 1e-300])
        with pytest.raises(ValidationError, match="component 1: covariance not positive definite"):
            affine_transform(mix, np.array([[1e-100]]))

    def test_weights_renormalized_once_within_tolerance(self):
        mix = GaussianMixture.from_parameters(
            [0.3, 0.7 + 1e-10], [np.zeros(1), np.ones(1)], [np.eye(1), np.eye(1)]
        )
        assert math.fsum(mix.weights) == pytest.approx(1.0, abs=1e-15)

    def test_zero_weight_component_permitted(self):
        mix = GaussianMixture.from_parameters(
            [0.0, 1.0], [np.zeros(1), np.ones(1)], [np.eye(1), np.eye(1)]
        )
        assert mix.log_weights[0] == -np.inf
        samples = mix.sample(2000, seed=5)
        # the zero-weight component (mean 0) is never drawn
        assert np.all(np.abs(samples - 1.0) < 6.0)
        assert np.isfinite(mix.log_density(np.array([0.5])))
        # transforms carry it through
        out = marginal(independent_join(mix, single_standard()), slice(0, 1))
        npt.assert_array_equal(out.weights, [0.0, 1.0])


# ------------------------------------------------------------------- moments


class TestMoments:
    def test_mean_weighted_average(self):
        mix = GaussianMixture.from_parameters(
            [0.25, 0.75], [np.array([0.0]), np.array([4.0])], [np.eye(1), np.eye(1)]
        )
        npt.assert_allclose(mix.mean(), [3.0], rtol=0, atol=1e-15)

    def test_mean_single_component_identity(self):
        mean = np.array([1.5, -2.0])
        mix = GaussianMixture.single(mean, np.eye(2))
        npt.assert_array_equal(mix.mean(), mean)

    def test_mean_symmetric_cancels(self):
        mix = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)]
        )
        npt.assert_allclose(mix.mean(), [0.0], atol=1e-15)

    def test_covariance_hand_value(self):
        # 0.5 (1 + 1) + 0.5 (1 + 1) - 0 = 2
        mix = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)]
        )
        npt.assert_allclose(mix.covariance(), [[2.0]], rtol=1e-15)

    def test_covariance_single_component(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        mix = GaussianMixture.single(np.array([3.0, -1.0]), cov)
        npt.assert_allclose(mix.covariance(), cov, rtol=0, atol=1e-12)

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mix = random_mixture(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            cov = mix.covariance()
            npt.assert_allclose(cov, cov.T, atol=1e-12 * max(1.0, np.abs(cov).max()))
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-10 * np.trace(cov)

    def test_moments_match_sample_statistics(self):
        rng = np.random.default_rng(11)
        mix = random_mixture(rng, 3, 4, mean_scale=1.5)
        n = 200_000
        samples = mix.sample(n, seed=99)
        mean_se = np.sqrt(np.diag(mix.covariance()) / n)
        npt.assert_array_less(np.abs(samples.mean(axis=0) - mix.mean()), 6 * mean_se)
        sample_cov = np.cov(samples.T)
        dev = samples - mix.mean()
        # kurtosis-aware standard error of each covariance entry
        se = np.sqrt(
            (np.einsum("ni,nj->ij", dev**2, dev**2) / n - mix.covariance() ** 2) / n
        )
        assert np.all(np.abs(sample_cov - mix.covariance()) < 6 * se)

    def test_second_moment_trace(self):
        mix = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)]
        )
        assert mix.second_moment_trace() == pytest.approx(2.0, rel=1e-15)


# ------------------------------------------------------------------- density


class TestLogDensity:
    def test_standard_normal_at_mean(self):
        mix = single_standard()
        assert mix.log_density(np.array([0.0])) == pytest.approx(
            STD_NORMAL_LOG_PDF_AT_0, abs=1e-12
        )

    def test_duplicate_components_collapse(self):
        single = single_standard()
        dup = GaussianMixture.from_parameters(
            [0.3, 0.7], [np.zeros(1), np.zeros(1)], [np.eye(1), np.eye(1)]
        )
        xs = np.linspace(-3, 3, 11)[:, None]
        npt.assert_allclose(dup.log_density(xs), single.log_density(xs), rtol=1e-14)

    def test_far_point_no_underflow(self):
        mix = GaussianMixture.from_parameters(
            [0.3, 0.7], [np.array([0.0]), np.array([1.0])], [np.eye(1), np.eye(1)]
        )
        value = mix.log_density(np.array([400.0]))
        assert math.isfinite(value)
        assert value == pytest.approx(FAR_POINT_LOG_DENSITY, rel=1e-12)

    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 4097])
    def test_scalar_whitening_matches_matmul(self, components, count):
        # 1-D mixtures whiten by a broadcast multiply; a 1 x 1 product is one
        # multiplication, so the bits are the batched matmul's
        rng = np.random.default_rng(10 * components + count)
        mix = random_mixture(rng, 1, components)
        points = rng.normal(scale=3.0, size=(count, 1))
        dev = mix._deviations(points)
        z = mix._inv_chols @ dev
        npt.assert_array_equal(_stacked_product(mix._inv_chols, dev), z)
        reference = -0.5 * np.einsum("kin,kin->kn", z, z) + mix._log_norms[:, None]
        npt.assert_array_equal(mix.component_log_pdfs(points), reference)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mix = random_mixture(rng, 1, int(rng.integers(1, 5)))
            sigma = math.sqrt(float(np.max(mix.covariances)))
            lo = float(np.min(mix.means)) - 10 * sigma
            hi = float(np.max(mix.means)) + 10 * sigma
            grid = np.linspace(lo, hi, 40001)
            total = np.trapezoid(np.exp(mix.log_density(grid[:, None])), grid)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        mix = single_standard(2)
        with pytest.raises(ValidationError, match="dimension"):
            mix.log_density(np.zeros(3))
        # a 1-D mixture reads a (2,) array as one point of width 2, as
        # component_log_pdfs does, not as two scalars; a (1,) array is one point
        mix = single_standard()
        message = "point dimension 2 != expected dimension 1"
        for call in (mix.log_density, mix.component_log_pdfs):
            with pytest.raises(ValidationError, match=message):
                call(np.zeros(2))
        assert isinstance(mix.log_density(np.zeros(1)), float)

    def test_matches_scipy_mixture_in_three_dimensions(self):
        rng = np.random.default_rng(29)
        weights = [0.5, 0.0, 0.3, 0.2]  # a zero-weight component stays in every formula
        means = [rng.normal(scale=2.0, size=3) for _ in weights]
        covs = [random_spd(rng, 3, scale) for scale in (0.5, 1.0, 2.0, 0.1)]
        mix = GaussianMixture.from_parameters(weights, means, covs)
        near = rng.normal(scale=3.0, size=(50, 3))
        directions = rng.normal(size=(50, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        far = means[0] + 3e3 * directions  # over 1e3 sigma from every component
        points = np.vstack([near, far])
        per_component = np.stack(
            [multivariate_normal(m, c).logpdf(points) for m, c in zip(means, covs)]
        )
        with np.errstate(divide="ignore"):
            expected = logsumexp(per_component + np.log(weights)[:, None], axis=0)
        npt.assert_allclose(mix.component_log_pdfs(points), per_component, rtol=1e-12)
        got = mix.log_density(points)
        assert np.all(np.isfinite(got))
        npt.assert_allclose(got, expected, rtol=1e-12)

    @given(spreads=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
           points=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_flushed_terms_leave_values_unchanged(self, spreads, points):
        # unit-variance components whose log-densities at 0 lie 0 to 1e4
        # nats under the first one's: the terms that fall below log(tiny)
        # under the peak are flushed, and the result is still the unflushed
        # sum bit for bit
        means = np.sqrt(2.0 * np.array([0.0] + spreads))[:, None]
        mix = GaussianMixture(np.full(len(means), 1.0 / len(means)), means,
                              np.ones((len(means), 1, 1)))
        x = np.array(points)
        logs = mix.component_log_pdfs(x[:, None]) + mix.log_weights[:, None]
        npt.assert_array_equal(mix.log_density(x[:, None]), reference_log_sum_exp(logs))

    @given(point=st.floats(-1e6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_log_density_always_finite(self, point):
        mix = GaussianMixture.from_parameters(
            [0.4, 0.6], [np.array([-2.0]), np.array([5.0])], [np.eye(1), 2 * np.eye(1)]
        )
        assert math.isfinite(mix.log_density(np.array([point])))

    @pytest.mark.parametrize("dim", [1, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_input_contract(self, dim, data):
        mix = random_mixture(np.random.default_rng(dim), dim, 3)
        kind, x = data.draw(point_inputs(dim))
        if rejected_input(kind, dim):
            with pytest.raises(ValidationError):
                mix.log_density(x)
            return
        out = mix.log_density(x)
        if kind == "batch":
            assert out.dtype == np.float64 and out.shape == (len(x),)
            assert np.all(np.isfinite(out))
        else:
            assert isinstance(out, float) and math.isfinite(out)


class TestLogSumExp:
    """Shifted terms below log(tiny) are exactly 0 and never reach ``exp``."""

    @given(peak=st.floats(-1e3, 1e3),
           spreads=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                          elements=st.floats(0.0, 1e4)))
    @settings(max_examples=200, deadline=None)
    def test_matches_unflushed_sum(self, peak, spreads):
        spreads[0] = 0.0  # the first row holds each column's peak
        logs = peak - spreads
        got, want = _log_sum_exp(logs), reference_log_sum_exp(logs)
        # bit for bit, except in the documented case of a peak this close to 0
        k = len(logs)
        exact = np.abs(logs.max(axis=0)) >= k * 2.0**-914
        npt.assert_array_equal(got[exact], want[exact])
        bound = np.maximum(np.spacing(np.abs(want)), k * 2.0**-1021)
        assert np.all(np.abs(got - want) <= bound)

    def test_flush_shows_only_against_a_tiny_peak(self):
        # one term at a peak of 2**-1000 and one 720 nats under it: the
        # unflushed sum adds exp(-720), about 1.9e-313, which shows against
        # so small a peak; flushed, the result is the peak itself
        peak = 2.0**-1000
        logs = np.array([[peak], [peak - 720.0]])
        assert logs[1, 0] - peak < _LOG_TINY
        assert _log_sum_exp(logs)[0] == peak
        want = reference_log_sum_exp(logs)[0]
        assert want != peak and abs(want - peak) < 2 * 2.0**-1021

    def test_columns_of_minus_infinity_and_empty_columns(self):
        logs = np.array([[-np.inf, 0.0], [-np.inf, -1e4]])
        npt.assert_array_equal(_log_sum_exp(logs), [-np.inf, 0.0])
        assert _log_sum_exp(np.empty((3, 0))).shape == (0,)

    def test_nan_lanes_count_as_zero(self):
        # a NaN lane (an overflow inside the whitening) flushes like an
        # underflow: beside other lanes it drops out, alone it is zero density
        logs = np.array([[np.nan, np.nan, np.nan], [-1.0, -np.inf, np.nan]])
        npt.assert_array_equal(_log_sum_exp(logs), [-1.0, -np.inf, -np.inf])


# ------------------------------------------------------------------ sampling


class TestSampling:
    def test_count_zero(self):
        assert single_standard().sample(0, seed=1).shape == (0, 1)

    def test_standard_normal_statistics(self):
        samples = single_standard().sample(1_000_000, seed=42)[:, 0]
        assert abs(samples.mean()) < 4e-3
        assert abs(samples.var() - 1.0) < 0.01

    def test_selection_frequency(self):
        mix = GaussianMixture.from_parameters(
            [0.25, 0.75], [np.array([-50.0]), np.array([50.0])], [np.eye(1), np.eye(1)]
        )
        samples = mix.sample(1_000_000, seed=7)[:, 0]
        freq = float(np.mean(samples < 0))
        assert abs(freq - 0.25) < 0.002

    def test_deterministic_given_seed(self):
        mix = random_mixture(np.random.default_rng(3), 2, 3)
        npt.assert_array_equal(mix.sample(100, seed=5), mix.sample(100, seed=5))
        assert not np.array_equal(mix.sample(100, seed=5), mix.sample(100, seed=6))

    def test_matches_masked_loop_reference(self):
        # K cycles through 1..5; with zero_weight, K = 2 leaves one component
        # holding every row.
        rng = np.random.default_rng(19)
        for i in range(40):
            mix = random_mixture(rng, int(rng.integers(1, 6)), 1 + i % 5, zero_weight=i % 2 == 1)
            count, seed = int(rng.integers(1, 3000)), int(rng.integers(2**32))
            npt.assert_array_equal(mix.sample(count, seed), masked_sample(mix, count, seed))

    @pytest.mark.parametrize("seed", [0, 2024, 2**63 + 12345])
    def test_one_component_skip_keeps_the_stream(self, seed):
        mix = random_mixture(np.random.default_rng(seed % 997), 3, 1)
        for count in (0, 1, 2, 3, 7, 4097, 8193, 50_000, 50_001):
            npt.assert_array_equal(mix.sample(count, seed), masked_sample(mix, count, seed))

    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_transposed_product_matches_reference(self, dim, components):
        # Each component's draws are formed as (L z^T)^T + mean; full random
        # covariances (an identity factor would hide any rounding change)
        # against the reference mean + z @ L^T, bit for bit.
        rng = np.random.default_rng(100 * dim + components)
        mix = random_mixture(rng, dim, components, zero_weight=True)
        for count in (0, 1, 4097, 8193, 50_000, 50_001):
            seed = int(rng.integers(2**63))
            npt.assert_array_equal(mix.sample(count, seed), masked_sample(mix, count, seed))

    @pytest.mark.parametrize("components", [1, 2, 4])
    def test_output_memory_order(self, components):
        # The figure-1 bytes depend on it: every sample is C-ordered, whether
        # one component fills it block by block or more transform z in place.
        mix = random_mixture(np.random.default_rng(components), 3, components)
        for count in (2, 4097, 50_001):
            out = mix.sample(count, seed=8)
            assert (out.flags.f_contiguous, out.flags.c_contiguous) == (False, True)

    @pytest.mark.parametrize("count, sizes", [
        (0, []), (1, [1]), (2, [2]), (4096, [4096]), (4097, [4097]), (4098, [4096, 2]),
        (8193, [4096, 4097]), (50_001, [4096] * 12 + [849]),
    ])
    def test_row_blocks(self, count, sizes):
        # Blocks of 4096 rows cover the rows in order; numpy rounds a one-row
        # product differently, so a lone last row joins the block before it.
        stops = np.cumsum(sizes, dtype=int).tolist()
        assert _row_blocks(count) == [slice(start, stop) for start, stop in zip([0] + stops, stops)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            single_standard().sample(-1, seed=0)

    @pytest.mark.parametrize(
        "count, seed, message",
        [
            (2.5, 1, "count 2.5 is not an integer"),
            (3.0, 1, "count 3.0 is not an integer"),
            (True, 1, "count True is not an integer"),
            (None, 1, "count None is not an integer"),
            (5, -1, "seed -1 is negative"),
            (5, 1.5, "seed 1.5 is not an integer"),
            (5, True, "seed True is not an integer"),
            (5, None, "seed None is not an integer"),
            (5, "7", "seed '7' is not an integer"),
            (5, np.random.SeedSequence(11), "seed SeedSequence"),
        ],
    )
    def test_bad_count_or_seed_rejected(self, count, seed, message):
        # formerly a raw TypeError or ValueError, or (seed None, True) accepted,
        # None drawing from fresh OS entropy; a SeedSequence was accepted too,
        # though every caller passes an integer
        with pytest.raises(ValidationError, match=message):
            single_standard().sample(count, seed)

    def test_numpy_integers_accepted(self):
        mix = random_mixture(np.random.default_rng(4), 2, 3)
        expected = mix.sample(50, 11)
        npt.assert_array_equal(mix.sample(np.int64(50), np.uint32(11)), expected)


# ----------------------------------------------------- appendix propositions


class TestAffineTransform:
    def test_scalar_affine(self):
        out = affine_transform(single_standard(), np.array([[2.0]]), np.array([1.0]))
        npt.assert_allclose(out.means, [[1.0]])
        npt.assert_allclose(out.covariances, [[[4.0]]])

    def test_identity_unchanged(self):
        rng = np.random.default_rng(5)
        mix = random_mixture(rng, 3, 2)
        out = affine_transform(mix, np.eye(3))
        npt.assert_array_equal(out.weights, mix.weights)
        npt.assert_allclose(out.means, mix.means, rtol=0, atol=0)
        npt.assert_allclose(out.covariances, mix.covariances, rtol=1e-15)

    def test_scalar_noise_scaling(self):
        rng = np.random.default_rng(6)
        mix = random_mixture(rng, 2, 3)
        a = 2.5
        out = affine_transform(mix, a * np.eye(2))
        npt.assert_allclose(out.means, a * mix.means, rtol=1e-15)
        npt.assert_allclose(out.covariances, a**2 * mix.covariances, rtol=1e-12)

    def test_rank_deficient_transform_rejected(self):
        mix = random_mixture(np.random.default_rng(8), 2, 2)
        d = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="rank deficient"):
            affine_transform(mix, d)

    @pytest.mark.parametrize("transform, offset, message", [
        (np.ones((2, 3)), None, "transform has 3 columns, mixture dimension is 2"),
        ([[1.0, np.inf], [0.0, 1.0]], None, "transform has non-finite entries"),
        (np.eye(2), np.zeros(3), r"offset shape \(3,\) != \(2,\)"),
    ])
    def test_bad_arguments_rejected(self, transform, offset, message):
        with pytest.raises(ValidationError, match=message):
            affine_transform(single_standard(2), transform, offset)

    def test_projection_to_lower_dimension(self):
        mix = random_mixture(np.random.default_rng(9), 3, 2)
        d = np.array([[1.0, 2.0, -1.0]])
        out = affine_transform(mix, d)
        assert out.dim == 1
        npt.assert_allclose(out.means[:, 0], mix.means @ d[0], rtol=1e-14)


class TestIndependentJoin:
    def test_two_singles_block_diagonal(self):
        a = GaussianMixture.single(np.array([1.0]), np.array([[2.0]]))
        b = GaussianMixture.single(np.array([-1.0, 0.5]), np.diag([3.0, 4.0]))
        joint = independent_join(a, b)
        assert len(joint) == 1
        npt.assert_array_equal(joint.means[0], [1.0, -1.0, 0.5])
        npt.assert_array_equal(
            joint.covariances[0],
            np.diag([2.0, 3.0, 4.0]),
        )

    def test_four_by_one_weights_pass_through(self):
        rng = np.random.default_rng(10)
        a = random_mixture(rng, 2, 4)
        b = GaussianMixture.single(np.zeros(1), np.eye(1))
        joint = independent_join(a, b)
        assert len(joint) == 4
        npt.assert_array_equal(joint.weights, a.weights)

    def test_product_weights_row_major(self):
        a = GaussianMixture.from_parameters(
            [0.5, 0.5], [np.array([1.0]), np.array([2.0])], [np.eye(1)] * 2
        )
        b = GaussianMixture.from_parameters(
            [0.3, 0.7], [np.array([10.0]), np.array([20.0])], [np.eye(1)] * 2
        )
        joint = independent_join(a, b)
        npt.assert_array_equal(joint.weights, [0.15, 0.35, 0.15, 0.35])
        # row-major: k outer, l inner
        npt.assert_array_equal(joint.means[:, 0], [1.0, 1.0, 2.0, 2.0])
        npt.assert_array_equal(joint.means[:, 1], [10.0, 20.0, 10.0, 20.0])
        assert math.fsum(joint.weights) == pytest.approx(1.0, abs=1e-15)


class TestMarginal:
    def test_join_round_trip_exact(self):
        rng = np.random.default_rng(12)
        a = random_mixture(rng, 2, 3)
        b = GaussianMixture.single(rng.normal(size=2), random_spd_local(rng))
        joint = independent_join(a, b)
        back = marginal(joint, slice(0, 2))
        npt.assert_array_equal(back.weights, a.weights)
        npt.assert_array_equal(back.means, a.means)
        npt.assert_array_equal(back.covariances, a.covariances)

    def test_full_range_identity(self):
        mix = random_mixture(np.random.default_rng(13), 3, 2)
        out = marginal(mix, slice(0, 3))
        npt.assert_array_equal(out.means, mix.means)
        npt.assert_array_equal(out.covariances, mix.covariances)

    def test_principal_subblock(self):
        mix = GaussianMixture.single(
            np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 3.0]])
        )
        out = marginal(mix, slice(0, 1))
        npt.assert_array_equal(out.means, [[1.0]])
        npt.assert_array_equal(out.covariances, [[[2.0]]])

    def test_out_of_range_rejected(self):
        mix = single_standard(2)
        with pytest.raises(ValidationError, match="out of bounds"):
            marginal(mix, slice(1, 5))
        with pytest.raises(ValidationError, match="empty"):
            marginal(mix, slice(1, 1))

    @pytest.mark.parametrize("keep, message", [
        (0, "keep must be a slice"),
        (slice(0, 3, 2), r"keep must be contiguous \(step 1\)"),
    ])
    def test_bad_keep_rejected(self, keep, message):
        with pytest.raises(ValidationError, match=message):
            marginal(single_standard(3), keep)


class TestPerComponentReference:
    """The stacked transforms, inverse factors and moments equal a
    component-by-component construction bit for bit."""

    @staticmethod
    def mixtures(seed: int, count: int = 40):
        rng = np.random.default_rng(seed)
        for i in range(count):
            dim, components = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            yield rng, random_mixture(rng, dim, components, zero_weight=i % 2 == 0)

    def test_affine_transform(self):
        for rng, mix in self.mixtures(30):
            rows = int(rng.integers(1, mix.dim + 1))
            transform = rng.normal(size=(rows, mix.dim))
            offset = rng.normal(size=rows)
            assert_mixture_equal(
                affine_transform(mix, transform, offset), reference_affine(mix, transform, offset)
            )

    def test_independent_join(self):
        for rng, mix in self.mixtures(31):
            other = random_mixture(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                   zero_weight=True)
            assert_mixture_equal(independent_join(mix, other), reference_join(mix, other))
            assert_mixture_equal(independent_join(other, mix), reference_join(other, mix))

    def test_marginal(self):
        for rng, mix in self.mixtures(32):
            start = int(rng.integers(0, mix.dim))
            keep = slice(start, int(rng.integers(start + 1, mix.dim + 1)))
            assert_mixture_equal(marginal(mix, keep), reference_marginal(mix, keep))

    def test_inverse_factors(self):
        for _, mix in self.mixtures(33):
            npt.assert_array_equal(mix._inv_chols, reference_inv_chols(mix.chols))

    def test_covariance(self):
        for _, mix in self.mixtures(34):
            npt.assert_array_equal(
                mix.covariance(),
                reference_mixture_covariance(mix.weights, mix.means, mix.covariances),
            )


def random_spd_local(rng):
    a = rng.normal(size=(2, 2))
    return a @ a.T + 2 * np.eye(2)


class TestCharacteristicFunction:
    def test_at_zero(self):
        mix = random_mixture(np.random.default_rng(14), 3, 3)
        assert mix.characteristic_function(np.zeros(3)) == pytest.approx(1.0 + 0.0j)

    def test_wrong_t_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"t shape \(2,\) != \(3,\)"):
            single_standard(3).characteristic_function(np.zeros(2))

    def test_standard_normal(self):
        value = single_standard().characteristic_function(np.array([1.0]))
        assert value == pytest.approx(0.6065306597126334 + 0.0j, abs=1e-15)

    def test_affine_identity(self):
        rng = np.random.default_rng(15)
        mix = random_mixture(rng, 3, 3)
        d = rng.normal(size=(2, 3))
        a = rng.normal(size=2)
        transformed = affine_transform(mix, d, a)
        for _ in range(100):
            t = rng.normal(size=2)
            lhs = transformed.characteristic_function(t)
            rhs = np.exp(1j * (t @ a)) * mix.characteristic_function(d.T @ t)
            assert abs(lhs - rhs) < 1e-10
