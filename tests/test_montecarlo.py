"""Tests for the Monte Carlo harness: seeding, MSE estimation, sweeps."""

import dataclasses
import math
import re
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gmbayes.mixture as mixture
import gmbayes.montecarlo as mc
from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    SweepConfig,
    SweepPoint,
    ValidationError,
    calibrate_noise_scale,
    derive_seed,
    estimate_mse,
    genie_lower_bound,
    lmmse_upper_bound,
    load_config,
    packaged_config,
    run_sweep,
)

from conftest import asymptotics_model, fail_mmse_estimate_at, random_model, scalar_wiener_model


def oracle_model():
    return load_config(packaged_config("oracle1d.config")).model


def staged_points(config: SweepConfig) -> list:
    """The sweep's points, each point's three stages run in turn on the
    calling thread."""
    points = []
    for index in range(len(config.snr_db_grid)):
        point, job = mc._prepare(config, index)
        points.append(mc._finish(point, job, lambda: mc._draw(job.model, config.trials, job.seed)))
    return points


def demo03_model() -> BayesianLinearModel:
    """Demo 03's model: H = I, a two-component signal prior, one noise component."""
    x = GaussianMixture.from_parameters(
        [0.25, 0.75], [[-3.0, 1.0], [2.0, -1.0]], [0.4 * np.eye(2), 0.9 * np.eye(2)]
    )
    noise = GaussianMixture.single(np.zeros(2), np.eye(2))
    return BayesianLinearModel(np.eye(2), x, noise)


def fsum_mean_stderr(errors: np.ndarray) -> tuple[float, float]:
    """The former reduction, ``math.fsum`` over Python lists: the bit-exact
    reference for the bucketed exact sum."""
    n = errors.size
    mean = math.fsum(errors.tolist()) / n
    dev = errors - mean
    var = math.fsum((dev * dev).tolist()) / (n - 1)
    return mean, math.sqrt(var / n)


def reduction_bits(reduce, values: np.ndarray):
    """The bytes of each float ``reduce(values)`` returns, or the type of the
    exception it raised; so two reductions compare bit for bit, signed zeros
    and NaNs included."""
    try:
        result = reduce(values)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return [np.float64(v).tobytes() for v in np.atleast_1d(result)]


def assert_reduces_like_fsum(values: np.ndarray) -> None:
    with np.errstate(all="ignore"):  # non-finite and overflowing inputs
        assert reduction_bits(mc._exact_sum, values) == reduction_bits(math.fsum, values)
        assert reduction_bits(mc._mean_stderr, values) == reduction_bits(fsum_mean_stderr, values)


def wide_terms(rng: np.random.Generator, size: int) -> np.ndarray:
    """Terms of both signs spanning 10**-40 to 10**40, about a tenth of them zero."""
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-40.0, 40.0, size)
    values[rng.random(size) < 0.1] = 0.0
    return values


class TestExactSum:
    """``_mean_stderr``'s bucketed exact sum against ``math.fsum``."""

    def test_wide_seeded_arrays(self):
        rng = np.random.default_rng(31)
        for size in (1, 2, 3, 5, 64, 1000, 4097, 16385, 60_000):
            for _ in range(4):
                values = wide_terms(rng, size)
                assert_reduces_like_fsum(values)
                assert_reduces_like_fsum(np.abs(values))  # all one sign, as squared errors

    def test_cancelling_terms(self):
        rng = np.random.default_rng(32)
        values = wide_terms(rng, 5000)
        assert_reduces_like_fsum(np.concatenate([values, -values[::-1], [1e-30]]))

    @pytest.mark.parametrize("values", [[0.0] * 1000, [-0.0, 0.0, -0.0], [3.5], [-0.0], [2.0**-1022]])
    def test_zeros_and_single_terms(self, values):
        assert_reduces_like_fsum(np.array(values))

    @pytest.mark.parametrize(
        "values",
        [
            [5e-324, 1.0, -3e-310, 2.5e-320],  # subnormal
            [1e-310] * 3000,
            [math.inf, 1.0],
            [1.0, -math.inf, 2.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [2.0**960, -(2.0**960), 1.0],  # at the fallback threshold
            [1e308, 1e308, -1e308],  # intermediate overflow in fsum
            [float.fromhex("0x1.fffffffffffffp959")] * 2**10,  # just below the threshold
            [float.fromhex("0x1.fffffffffffffp0")] * 60_000,  # every significand bit set
        ],
    )
    def test_special_terms(self, values):
        assert_reduces_like_fsum(np.array(values))

    def test_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(mc, "_EXACT_CHUNK", 8)
        rng = np.random.default_rng(33)
        for size in (7, 8, 9, 16, 17, 1000):
            assert_reduces_like_fsum(wide_terms(rng, size))
        late_inf = wide_terms(rng, 20)
        late_inf[-1] = math.inf  # in the third chunk
        assert_reduces_like_fsum(late_inf)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_labels_and_seeds_separate(self):
        seen = {
            derive_seed(1, "x"),
            derive_seed(1, "noise"),
            derive_seed(2, "x"),
            derive_seed(1, "point", 0),
            derive_seed(1, "point", 1),
        }
        assert len(seen) == 5

    def test_64_bit_range(self):
        for seed in range(50):
            value = derive_seed(seed, "point", seed)
            assert 0 <= value < 2**64


class TestEstimateMse:
    def test_gaussian_case_matches_wiener_mse(self):
        mse, stderr = estimate_mse(scalar_wiener_model(), 100_000, seed=5)
        assert abs(mse - 0.5) < 5 * stderr

    def test_lmmse_matches_analytic_value(self):
        model = oracle_model()
        mse, stderr = estimate_mse(model, 100_000, seed=6, estimator="lmmse")
        assert abs(mse - lmmse_upper_bound(LmmseEstimator(model))) < 5 * stderr

    def test_mmse_between_bounds(self):
        model = oracle_model()
        mse, stderr = estimate_mse(model, 100_000, seed=7)
        assert genie_lower_bound(PrecomputedEstimator(model)) - 3 * stderr <= mse
        assert mse <= lmmse_upper_bound(LmmseEstimator(model)) + 3 * stderr

    @pytest.mark.parametrize("snr_db", [-60.0, 60.0])
    def test_sandwich_limits_on_demo03(self, snr_db):
        # At low SNR the MMSE tends to tr C_xx, the LMMSE bound's limit (6.987
        # at -60 dB), while the genie bound tends to sum_k p_k tr C_k (1.55);
        # the gap is the spread of the signal means. At high SNR the one noise
        # component closes the sandwich: both bounds are 7.80e-6 at +60 dB.
        model, _ = calibrate_noise_scale(demo03_model(), snr_db)
        mse, stderr = estimate_mse(model, 20_000, seed=1)
        genie = genie_lower_bound(PrecomputedEstimator(model))
        lmmse = lmmse_upper_bound(LmmseEstimator(model))
        assert abs(mse - lmmse) <= 3 * stderr
        if snr_db < 0:
            assert mse - genie > 10 * stderr
        else:
            assert abs(mse - genie) <= 3 * stderr

    def test_deterministic(self):
        model = oracle_model()
        assert estimate_mse(model, 5000, seed=8) == estimate_mse(model, 5000, seed=8)

    def test_stderr_scales_with_trials(self):
        model = oracle_model()
        _, se_small = estimate_mse(model, 20_000, seed=9)
        _, se_large = estimate_mse(model, 80_000, seed=9)
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            estimate_mse(scalar_wiener_model(), 1, seed=0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            estimate_mse(scalar_wiener_model(), 100, seed=0, estimator="map")

    def test_negative_seed_rejected(self):
        # the same rule as SweepConfig and the config file
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            estimate_mse(scalar_wiener_model(), 10, -1)

    def test_numpy_integers_accepted(self):
        model = scalar_wiener_model()
        assert estimate_mse(model, np.int64(50), np.uint32(3)) == estimate_mse(model, 50, 3)


class TestSweepConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            SweepConfig(scalar_wiener_model(), (), trials=10, seed=0)

    def test_nonfinite_grid_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            SweepConfig(scalar_wiener_model(), (0.0, np.inf), trials=10, seed=0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError, match="trials"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=0, seed=0)

    def test_single_trial_rejected(self):
        # the same rule as estimate_mse: a standard error needs two trials
        with pytest.raises(ValidationError, match="trials 1 < 2"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed -5 is negative"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10, seed=-5)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10, seed=0, estimators=("em",))

    def test_float_trials_rejected(self):
        # formerly accepted, then a TypeError from the sampler inside run_sweep
        with pytest.raises(ValidationError, match="trials 10.0 is not an integer"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10.0, seed=0)

    def test_float_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed 1.5 is not an integer"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10, seed=1.5)

    def test_bool_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed True is not an integer"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10, seed=True)

    def test_numpy_integers_stored_as_int(self):
        config = SweepConfig(scalar_wiener_model(), (0.0,), trials=np.int64(10), seed=np.uint64(7))
        assert (config.trials, config.seed) == (10, 7)
        assert type(config.trials) is int and type(config.seed) is int

    @pytest.mark.parametrize("grid, message", [
        ("10", "snr_db_grid must be a sequence, not str '10'"),
        (b"10", "snr_db_grid must be a sequence, not bytes"),
        (5.0, "snr_db_grid must be a sequence, not float 5.0"),
        (("10",), "snr_db_grid has non-finite or non-real entries"),
        ((1.0, 2j), "snr_db_grid has non-finite or non-real entries"),
        (np.zeros((2, 2)), "snr_db_grid has non-finite or non-real entries"),
    ], ids=["str", "bytes", "scalar", "str-entry", "complex-entry", "2-d"])
    def test_grid_not_a_sequence_of_reals_rejected(self, grid, message):
        # formerly "10" swept 1 dB and 0 dB, and 5.0 raised a TypeError
        with pytest.raises(ValidationError, match=re.escape(message)):
            SweepConfig(scalar_wiener_model(), grid, trials=10, seed=1)

    @pytest.mark.parametrize("estimators", ["mmse", "lmmse", ""])
    def test_string_estimators_rejected(self, estimators):
        # formerly "mmse" failed with "unknown estimator 'm'", and "" ran no estimator
        with pytest.raises(ValidationError, match=f"estimators must be a sequence, not str {estimators!r}"):
            SweepConfig(scalar_wiener_model(), (0.0,), trials=10, seed=1, estimators=estimators)

    def test_grid_and_estimators_accept_any_sequence(self):
        config = SweepConfig(scalar_wiener_model(), np.array([5, 10]), trials=10, seed=1, estimators=["lmmse"])
        assert (config.snr_db_grid, config.estimators) == ((5.0, 10.0), ("lmmse",))
        assert all(type(v) is float for v in config.snr_db_grid)

    def test_estimators_canonicalized(self):
        config = SweepConfig(
            scalar_wiener_model(), (0.0,), trials=10, seed=0,
            estimators=("lmmse", "mmse", "lmmse"),
        )
        assert config.estimators == ("mmse", "lmmse")


class TestRunSweep:
    def test_figure_grid_produces_61_points(self):
        run = load_config(packaged_config("figure1.config"))
        config = run.sweep_config(trials=2)
        points = run_sweep(config)
        assert len(points) == 61
        assert [p.snr_db for p in points] == list(config.snr_db_grid)

    def test_bounds_only_sweep(self):
        config = SweepConfig(oracle_model(), (0.0, 10.0), trials=5, seed=1, estimators=())
        points = run_sweep(config)
        for point in points:
            assert point.error is None
            assert point.lower is not None and point.upper is not None
            assert point.mse_mmse is None and point.stderr_mmse is None
            assert point.mse_lmmse is None and point.stderr_lmmse is None

    def test_same_config_bit_identical(self):
        config = SweepConfig(oracle_model(), (-5.0, 5.0, 15.0), trials=3000, seed=2)
        assert run_sweep(config) == run_sweep(config)

    @pytest.mark.parametrize("workers, message", [
        (0, "workers 0 < 1"),
        (-2, "workers -2 is negative"),
        (2.5, "workers 2.5 is not an integer"),
        (True, "workers True is not an integer"),
    ])
    def test_bad_workers_rejected_before_any_point(self, monkeypatch, workers, message):
        # formerly 0 and -2 ran serially
        def started(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", started)
        monkeypatch.setattr(mc, "_prepare", started)
        monkeypatch.setattr(mc, "_finish", started)
        config = SweepConfig(oracle_model(), (0.0,), trials=10, seed=0)
        with pytest.raises(ValidationError, match=message):
            run_sweep(config, workers=workers)

    def test_parallel_matches_serial(self):
        config = SweepConfig(oracle_model(), tuple(range(-5, 16, 5)), trials=2000, seed=3)
        assert run_sweep(config, workers=4) == run_sweep(config, workers=1)

    def test_sandwich_and_dominance(self):
        config = SweepConfig(oracle_model(), tuple(range(-10, 21, 5)), trials=20_000, seed=4)
        for p in run_sweep(config):
            assert p.lower - 3 * p.stderr_mmse <= p.mse_mmse <= p.upper + 3 * p.stderr_mmse
            assert p.mse_mmse <= p.mse_lmmse + 3 * (p.stderr_mmse + p.stderr_lmmse)
            assert p.stderr_mmse >= 0 and p.stderr_lmmse >= 0

    def test_point_failure_recorded_not_raised(self, monkeypatch):
        real = mc.PrecomputedEstimator

        def flaky(model):
            # the -20 dB point scales the noise covariance well above 1
            if float(np.trace(model.noise.covariances[0])) > 1.0:
                raise ValidationError("synthetic failure for test")
            return real(model)

        monkeypatch.setitem(mc._ARMS, "mmse", flaky)
        # low SNR -> large noise scale -> the patched precompute fails there
        config = SweepConfig(oracle_model(), (-20.0, 20.0), trials=50, seed=5)
        points = run_sweep(config)
        assert points[0].error == "synthetic failure for test"
        assert points[0].mse_mmse is None and points[0].lower is None
        assert np.isfinite(points[0].noise_scale)
        assert points[1].error is None and points[1].mse_mmse is not None

    def test_one_estimator_pair_per_point(self, monkeypatch):
        # both Monte Carlo arms and both bounds read the MMSE and LMMSE
        # estimators that the point builds once
        counts = Counter()
        model = oracle_model()

        def spy(owner, name, label, when=lambda *args: True):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[label] += when(*args)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        # The MMSE precompute is the one of the point's model, whose scaled
        # noise keeps the signal prior. The one-pair precompute of the
        # moment-matched Gaussian model is part of building the LMMSE.
        spy(PrecomputedEstimator, "__init__", "mmse", lambda pre, m: m.x_prior is model.x_prior)
        spy(LmmseEstimator, "__init__", "lmmse")
        spy(mc, "genie_lower_bound", "lower")
        spy(mc, "lmmse_upper_bound", "upper")
        config = SweepConfig(model, (-10.0, 0.0, 10.0, 20.0, 30.0), trials=100, seed=12)
        assert all(point.error is None for point in run_sweep(config))
        assert counts == {"mmse": 5, "lmmse": 5, "lower": 5, "upper": 5}
        # estimate_mse builds only the estimator it is asked for
        counts.clear()
        estimate_mse(model, 100, 12, estimator="lmmse")
        assert +counts == {"lmmse": 1}

    @pytest.mark.parametrize("batch, trials", [
        (1000, None), (4097, None), (50_000, None), (2, 4097), (1000, 4097), (4097, 4097),
    ], ids=["1000", "4097", "50000", "2-trials4097", "1000-trials4097", "4097-trials4097"])
    def test_block_size_does_not_change_results(self, monkeypatch, batch, trials):
        # A point draws each one-component mixture and runs its trials in the
        # blocks of mixture._row_blocks, _BLOCK_ROWS rows each; every result
        # is bit-identical to the one at the default 4096. The oracle1d sweep
        # gets 10,000 trials so that each block size splits it differently.
        # At 4097 trials the default blocking would leave a last block of one
        # row, which numpy's products round differently. Random 4-D models
        # with full H and covariances run the general batched products, the
        # second with one-component signal and noise for the sampler's blocks.
        figure1 = load_config(packaged_config("figure1.config")).sweep_config()
        oracle1d = load_config(packaged_config("oracle1d.config")).sweep_config()
        if trials is None:
            configs = [
                dataclasses.replace(figure1, snr_db_grid=(-10.0, 20.0, 50.0)),
                dataclasses.replace(oracle1d, trials=10_000),
                SweepConfig(random_model(np.random.default_rng(31), 4, 4, 3, 2),
                            (-10.0, 20.0, 50.0), trials=10_000, seed=5),
                SweepConfig(random_model(np.random.default_rng(32), 4, 4, 1, 1),
                            (-10.0, 20.0, 50.0), trials=10_000, seed=6),
            ]
        else:
            configs = [
                dataclasses.replace(base, snr_db_grid=grid, trials=trials, seed=seed)
                for base, grid, seeds in [(figure1, (30.0, 40.0), (4, 11)),
                                          (oracle1d, (40.0, 50.0), (0, 19))]
                for seed in seeds
            ]
        assert mixture._BLOCK_ROWS == 4096
        expected = [run_sweep(config) for config in configs]
        monkeypatch.setattr(mixture, "_BLOCK_ROWS", batch)
        assert [run_sweep(config) for config in configs] == expected

    def test_point_memory_stays_blocked(self):
        # One figure-1 point (50,000 trials) peaks at about 6.6 MB; building a
        # full-length y or (pairs, m, trials) block again would exceed 8 MB.
        config = load_config(packaged_config("figure1.config")).sweep_config()

        def one_point():
            point, job = mc._prepare(config, 30)
            x, noise = mc._draw(job.model, config.trials, job.seed)
            return mc._finish(point, job, lambda: (x, noise))

        one_point()  # warm-up: imports and caches are not counted
        tracemalloc.start()
        try:
            one_point()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("workers, points, bound", [(1, 3, 12e6), (2, 4, 20e6)],
                             ids=["serial", "2-workers"])
    def test_sweep_holds_one_point_ahead(self, workers, points, bound):
        # The drawer works one point ahead of the finishers, so a sweep holds
        # at most workers + 1 points' draws, 4 MB each on figure 1. Serial, 3
        # points peak at about 11 MB; at 2 workers, 4 points peak at about
        # 17.7 MB. One more point's draws would exceed either bound.
        config = load_config(packaged_config("figure1.config")).sweep_config()
        config = dataclasses.replace(config, snr_db_grid=config.snr_db_grid[29:29 + points])
        run_sweep(config, workers=workers)  # warm-up
        tracemalloc.start()
        try:
            run_sweep(config, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_drawer_thread_draws_in_grid_order(self, monkeypatch, workers):
        # Every worker count runs one scheduler: the caller prepares, one
        # drawer thread draws every point in grid order and the finishers,
        # none of them the caller or the drawer, finish the points.
        draws, finishers = [], set()
        real_draw, real_finish = mc._draw, mc._finish

        def drawn(model, trials, seed):
            draws.append((threading.current_thread(), seed))
            return real_draw(model, trials, seed)

        def finished(*args):
            finishers.add(threading.current_thread())
            return real_finish(*args)

        monkeypatch.setattr(mc, "_draw", drawn)
        monkeypatch.setattr(mc, "_finish", finished)
        config = SweepConfig(oracle_model(), (-5.0, 0.0, 5.0, 10.0, 15.0), trials=3000, seed=2)
        before = threading.active_count()
        points = run_sweep(config, workers=workers)
        assert threading.active_count() == before
        drawers = {thread for thread, _ in draws}
        assert [seed for _, seed in draws] == [derive_seed(2, "point", i) for i in range(5)]
        assert len(drawers) == 1 and 1 <= len(finishers) <= workers
        assert threading.current_thread() not in drawers | finishers
        assert not drawers & finishers
        monkeypatch.undo()
        assert points == staged_points(config)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_finishes_at_once(self, monkeypatch, workers):
        lock = threading.Lock()
        running, peak = 0, 0
        real = mc._finish

        def counted(*args):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            try:
                time.sleep(0.05)  # long enough for the other finishers to start
                return real(*args)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(mc, "_finish", counted)
        config = SweepConfig(oracle_model(), tuple(range(-10, 20, 5)), trials=500, seed=3)
        run_sweep(config, workers=workers)
        assert running == 0 and peak == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finish_stage_failure_recorded(self, monkeypatch, workers):
        # A point whose estimator raises while the point is finished keeps its
        # SNR and noise scale and carries the error; the later points finish.
        config = SweepConfig(oracle_model(), (0.0, 5.0, 10.0, 15.0), trials=100, seed=0)
        expected = run_sweep(config)
        fail_mmse_estimate_at(monkeypatch, 5.0)
        points = run_sweep(config, workers=workers)
        assert points[1] == SweepPoint(5.0, expected[1].noise_scale, error="estimate broke")
        assert points[:1] + points[2:] == expected[:1] + expected[2:]

    def test_finish_failure_propagates(self, monkeypatch):
        # An error in a finisher leaves run_sweep at 2 workers, and both pools'
        # threads are joined before it does.
        real = mc._finish

        def broken(point, job, draws):
            if point.snr_db == 5.0:
                raise RuntimeError("finish broke")
            return real(point, job, draws)

        monkeypatch.setattr(mc, "_finish", broken)
        config = SweepConfig(oracle_model(), (0.0, 5.0, 10.0, 15.0), trials=100, seed=0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="finish broke"):
            run_sweep(config, workers=2)
        assert threading.active_count() == before

    def test_helper_draw_failure_propagates(self, monkeypatch):
        # An error in the helper thread's sampling leaves run_sweep, and the
        # helper is joined before it does.
        threads = []

        def broken(self, count, seed):
            threads.append(threading.current_thread())
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(GaussianMixture, "sample", broken)
        config = SweepConfig(oracle_model(), (0.0, 10.0, 20.0), trials=10, seed=0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sampler broke"):
            run_sweep(config)
        assert threading.active_count() == before
        assert threads and threading.current_thread() not in threads

    def test_unusable_snr_target_recorded(self, monkeypatch):
        # The failing point spends no Monte Carlo work: only the 0 dB point draws.
        seeds = []
        real = mc._draw

        def counted(model, trials, seed):
            seeds.append(seed)
            return real(model, trials, seed)

        monkeypatch.setattr(mc, "_draw", counted)
        config = SweepConfig(oracle_model(), (0.0, -20000.0), trials=10, seed=6)
        points = run_sweep(config)
        assert points[0].error is None
        assert points[1].error is not None and "unusable" in points[1].error
        assert np.isnan(points[1].noise_scale)
        assert seeds == [derive_seed(6, "point", 0)]

    def test_bounds_lost_to_rounding_fail_the_point(self, monkeypatch):
        # Both bounds are differences that rounding takes to zero or below at
        # extreme SNR: on the asymptotics model the upper bound is -2.2e-16 at
        # 190 and 200 dB, and on figure-1 the lower bound is exactly 0 at 200
        # dB. Such a point fails with both values, before any Monte Carlo work.
        runs = []
        real = mc._draw

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_draw", counted)
        figure1 = load_config(packaged_config("figure1.config")).model
        configs = [SweepConfig(asymptotics_model(), (150.0, 190.0, 200.0), trials=10, seed=0),
                   SweepConfig(figure1, (200.0,), trials=10, seed=0)]
        kept, *failed = [point for config in configs for point in run_sweep(config)]
        assert kept.error is None and kept.lower > 0.0 and kept.upper > 0.0
        assert len(runs) == 1
        pattern = (r"MSE bounds lost to rounding: genie lower (\S+), "
                   r"lmmse upper (\S+); both must be positive")
        for point in failed:
            lower, upper = map(float, re.fullmatch(pattern, point.error).groups())
            assert not (lower > 0.0 and upper > 0.0)
            assert point.lower is None and point.upper is None and point.mse_mmse is None
            assert math.isfinite(point.noise_scale)

    def test_point_matches_standalone_estimate(self):
        # a sweep point reproduces estimate_mse on the calibrated model with
        # the derived per-point seed
        from gmbayes import calibrate_noise_scale

        model = oracle_model()
        config = SweepConfig(model, (7.0,), trials=4000, seed=11)
        point = run_sweep(config)[0]
        scaled, _ = calibrate_noise_scale(model, 7.0)
        mse, stderr = estimate_mse(scaled, 4000, derive_seed(11, "point", 0))
        assert (point.mse_mmse, point.stderr_mmse) == (mse, stderr)
