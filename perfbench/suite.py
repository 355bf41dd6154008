"""The benchmark's workloads and what they measure.

``figure1``    the packaged ``figure1.config`` sweep, serial and with 2
               workers, then single-observation calls at 20 dB
``manypairs``  a generated 64-pair model at 10 dB; 200 000 observations
               estimated in 4096-row batches, then single-observation calls
``oracle1d``   ``oracle-check`` on the packaged ``oracle1d.config`` at 4001
               grid points, then single-observation calls

Each workload has one fixed job, timed as ``job_s``. All three share the
estimator measurements: closed single-caller loops of ``estimate`` and
``posterior``, batch throughput, and (traced) the kernel split. Every run
also checks the program's outputs; see :class:`Checks`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import gmbayes as gm
from gmbayes import cli

import inputs
from metrics import END_TO_END, PER_LAYER
from tracing import Layer, Tracer

# sha256 of the figure1 sweep CSV as the program rendered it at the commit
# that introduced this benchmark (numpy 2.4.6, OpenBLAS with 1 thread).
FIGURE1_CSV_SHA256 = "69649aba08a285ef3320c2ed903a452496f3c42864e107ac689cfdca816e7a89"
FIGURE1_LOOP_SNR_DB = 20.0
# Sweep points whose ``estimate_mse`` is traced to split out the reduction:
# -10, 0, ..., 50 dB on the figure1 grid.
FIGURE1_REDUCTION_POINTS = tuple(range(0, 61, 10))
SWEEP_WORKERS = 2
SWEEP_BATCH_ROWS = 16384  # the sweep's own batch size, used for the figure1 kernel split

ORACLE_ARGS = ["oracle-check", "--config", "oracle1d.config", "--grid-points", "4001"]
ORACLE_POINTS = 101  # observation values oracle-check compares
QUADRATURE = gm.QuadratureSpec(grid_points=4001)

POOL_ROWS = 1024  # observations cycled through by the single-call loops
CHECK_ROWS = 256  # observations whose single-call results are checked
BATCH_ROWS = 4096  # rows per call for batch_obs_per_s and the manypairs job
MIN_CALLS = 1000  # single calls per loop at least, so p99 has 10 samples beyond it
SETUP_REPEATS = 3
MICRO_REPEATS = 5

SINGLE_RTOL = 1e-12  # single-call and batch paths reduce in different orders
REFERENCE_RTOL = 1e-9
REFERENCE_ROWS = 256

# An untraced run repeats rounds of the job and interleaved estimator loops
# (see end_to_end) until --seconds is spent.
MIN_ROUNDS = 2
ROUND_LOOP_S = 1.5
WINDOW_S = 0.02
WARMUP_CALLS = 3
QUIET_QUANTILE = 0.02

LAYERS = (
    Layer("gmbayes.mixture", "GaussianMixture.sample", "mixture.sample",
          rows=lambda self, count, *a, **k: count),
    Layer("gmbayes.mixture", "GaussianMixture.log_density", "mixture.log_density",
          rows=lambda self, x, *a, **k: np.size(x) // self.dim),
    Layer("gmbayes.model", "calibrate_noise_scale", "model.calibrate_noise_scale"),
    Layer("gmbayes.estimators", "PrecomputedEstimator.__init__", "estimators.precompute"),
    Layer("gmbayes.estimators", "PrecomputedEstimator.estimate", "estimators.estimate",
          rows=lambda self, y, *a, **k: len(np.atleast_2d(y))),
    Layer("gmbayes.estimators", "PrecomputedEstimator.log_observation_pdfs",
          "estimators.log_observation_pdfs", rows=lambda self, batch, *a, **k: len(batch)),
    Layer("gmbayes.estimators", "LmmseEstimator.estimate", "estimators.lmmse_estimate",
          rows=lambda self, y, *a, **k: len(np.atleast_2d(y))),
    Layer("gmbayes.bounds", "genie_lower_bound", "bounds.genie_lower_bound"),
    Layer("gmbayes.bounds", "lmmse_upper_bound", "bounds.lmmse_upper_bound"),
    Layer("gmbayes.montecarlo", "run_sweep", "montecarlo.run_sweep"),
    Layer("gmbayes.montecarlo", "estimate_mse", "montecarlo.estimate_mse"),
    Layer("gmbayes.sweepio", "render_sweep_csv", "sweepio.render_sweep_csv"),
    Layer("gmbayes.svg", "render_sweep_svg", "svg.render_sweep_svg"),
    Layer("gmbayes.quadrature", "quad_posterior_mean", "quadrature.quad_posterior_mean"),
    Layer("gmbayes.quadrature", "quad_mse", "quadrature.quad_mse"),
    Layer("gmbayes.config", "load_config", "config.load_config"),
)


class Checks:
    """Checked operations and failed checks; ``error_rate`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool).ravel()
        self.attempted += ok.size
        bad = ok.size - int(np.count_nonzero(ok))
        if bad:
            self.failed += bad
            self.messages.append(f"{what}: {bad} of {ok.size} failed")


def close_rows(actual, expected, rtol: float) -> np.ndarray:
    """Per row: every entry within ``rtol * max(1, |expected|)``."""
    actual, expected = np.atleast_2d(actual), np.atleast_2d(expected)
    ok = np.abs(actual - expected) <= rtol * np.maximum(1.0, np.abs(expected))
    return np.all(ok, axis=1)


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


# -- timing -------------------------------------------------------------------


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def median_time(fn, *args, repeats: int = MICRO_REPEATS) -> float:
    return statistics.median(timed(fn, *args)[0] for _ in range(repeats))


class Loop:
    """A closed loop with one caller: each call starts when the previous one returned.

    Cycles through ``items`` and keeps every latency (ns), and the median
    latency of each window it was run in. Running it in short windows lets
    loops of different calls interleave.
    """

    def __init__(self, call, items):
        self.call, self.items = call, items
        self.calls = 0
        self.latencies: list[int] = []
        self.window_medians: list[float] = []
        for item in items[:WARMUP_CALLS]:
            call(item)

    def run(self, seconds: float, min_calls: int = 1) -> None:
        deadline = time.perf_counter() + seconds
        first = len(self.latencies)
        while len(self.latencies) - first < min_calls or time.perf_counter() < deadline:
            item = self.items[self.calls % len(self.items)]
            start = time.perf_counter_ns()
            self.call(item)
            self.latencies.append(time.perf_counter_ns() - start)
            self.calls += 1
        self.window_medians.append(statistics.median(self.latencies[first:]))

    def quiet_median(self) -> float:
        """The QUIET_QUANTILE of the window medians (ns)."""
        return float(np.quantile(self.window_medians, QUIET_QUANTILE))


# -- estimator measurements shared by all workloads ---------------------------


@dataclass
class EstimatorInputs:
    """The estimator under single-call and batch measurement, and its inputs."""

    pre: gm.PrecomputedEstimator
    lmmse: gm.LmmseEstimator
    observations: np.ndarray  # the first POOL_ROWS feed the single-call loops
    kernel_rows: int  # batch size of the kernel split


def params_of(model: gm.BayesianLinearModel) -> inputs.LinearModelParams:
    def mixture(mix):
        return inputs.MixtureParams(mix.weights, mix.means, mix.covariances)

    return inputs.LinearModelParams(model.H, mixture(model.x_prior), mixture(model.noise))


def model_of(params: inputs.LinearModelParams) -> gm.BayesianLinearModel:
    def mixture(mix):
        return gm.GaussianMixture.from_parameters(mix.weights, mix.means, mix.covariances)

    return gm.BayesianLinearModel(params.H, mixture(params.x), mixture(params.noise))


def posterior_call(pre: gm.PrecomputedEstimator):
    """The ``gmbayes estimate`` path: the posterior, its mean and its covariance."""

    def call(y):
        post = pre.posterior(y)
        return post.mean(), post.covariance()

    return call


def check_estimator(est: EstimatorInputs, checks: Checks) -> None:
    """Single-call estimates and posterior means equal the batch rows for the same observations."""
    pool = est.observations[:CHECK_ROWS]
    expected = est.pre.estimate(pool)
    checks.record(np.all(np.isfinite(expected), axis=1), "batch estimates finite")
    singles = np.array([est.pre.estimate(y) for y in pool])
    checks.record(close_rows(singles, expected, SINGLE_RTOL), "single-call estimate equals its batch row")
    posteriors = [posterior_call(est.pre)(y) for y in pool]
    means = np.array([mean for mean, _ in posteriors])
    covs = np.array([cov for _, cov in posteriors])
    checks.record(close_rows(means, expected, SINGLE_RTOL), "posterior mean equals the batch estimate")
    checks.record(np.all(np.isfinite(covs), axis=(1, 2))
                  & np.all(np.diagonal(covs, axis1=1, axis2=2) >= 0.0, axis=1),
                  "posterior covariance finite with nonnegative diagonal")


def batches(observations: np.ndarray) -> list[np.ndarray]:
    return [observations[i:i + BATCH_ROWS] for i in range(0, len(observations) - BATCH_ROWS + 1, BATCH_ROWS)]


def closed_form_counts(pre: gm.PrecomputedEstimator, batch_rows: int) -> tuple[int, float]:
    """Nominal flops and bytes per observation of the closed-form MMSE estimate.

    Per component pair: a whitening triangular solve (m^2), the quadratic
    form (3m), the log-density scale and offset (2), the softmax (5), the
    innovation and gain (m + 2dm) and the weighted combination (3d). Bytes
    count the observation, the estimate, the per-pair log-density and
    responsibility, and the per-pair parameters (mean, Cholesky factor,
    gain, signal mean, two scalars) shared by a batch. Both depend only on
    the model's shape, not on how the program computes the estimate.
    """
    p, m, d = pre.n_pairs, pre.model.observation_dim, pre.model.signal_dim
    flops = p * (m * m + 2 * d * m + 4 * m + 3 * d + 7)
    per_pair_params = m + m * m + d * m + d + 2
    nbytes = 8 * (m + d + 2 * p) + 8 * p * per_pair_params / batch_rows
    return flops, nbytes


def active_pair_ratio(pre: gm.PrecomputedEstimator, batch: np.ndarray) -> float:
    """Mean effective number of pairs, exp(entropy of the responsibilities), over pairs."""
    alpha = pre.responsibilities(batch).reshape(pre.n_pairs, -1)
    logs = np.log(alpha, out=np.zeros_like(alpha), where=alpha > 0)
    effective = np.exp(-np.sum(alpha * logs, axis=0))
    return float(np.mean(effective)) / pre.n_pairs


def estimator_layers(est: EstimatorInputs, seconds: float, result: Result) -> None:
    """Per-layer estimator metrics; the kernel sub-steps by subtraction of public calls.

    Takes about ``seconds``: a fifth for the kernel split, the rest for the
    two single-call loops.
    """
    pre, m = est.pre, result.metrics
    batch = est.observations[:est.kernel_rows]
    rows = len(batch)
    lop, resp, full = [], [], []
    deadline = time.perf_counter() + 0.2 * seconds
    while len(lop) < MICRO_REPEATS or time.perf_counter() < deadline:
        lop.append(timed(pre.log_observation_pdfs, batch)[0])
        resp.append(timed(pre.responsibilities, batch)[0])
        full.append(timed(pre.estimate, batch)[0])
    lop_s, resp_s, full_s = (statistics.median(v) for v in (lop, resp, full))
    m["estimators.log_observation_pdfs_ns_per_obs"] = lop_s / rows * 1e9
    m["estimators.softmax_ns_per_obs"] = (resp_s - lop_s) / rows * 1e9
    m["estimators.gain_ns_per_obs"] = (full_s - resp_s) / rows * 1e9

    pool = est.observations[:POOL_ROWS]
    single, posterior = Loop(pre.estimate, pool), Loop(posterior_call(pre), pool)
    single.run(0.4 * seconds, MIN_CALLS)
    posterior.run(0.4 * seconds, MIN_CALLS)
    m["estimators.single_call_overhead_us"] = np.median(single.latencies) * 1e-3 - full_s / rows * 1e6
    m["estimators.estimate_p99_us"] = np.percentile(single.latencies, 99) * 1e-3
    m["estimators.posterior_p99_us"] = np.percentile(posterior.latencies, 99) * 1e-3
    result.notes.append(f"p99 latencies from {single.calls} estimate and {posterior.calls} posterior calls")

    m["estimators.lmmse_estimate_ns_per_obs"] = median_time(est.lmmse.estimate, batch) / rows * 1e9
    m["estimators.active_pair_ratio"] = active_pair_ratio(pre, batch)
    flops, nbytes = closed_form_counts(pre, rows)
    m["estimators.flops_per_obs_computed"] = flops
    m["estimators.bytes_per_obs_computed"] = nbytes
    m["estimators.gflops_achieved"] = flops * rows / full_s * 1e-9


def end_to_end(job, est: EstimatorInputs, seconds: float, result: Result) -> None:
    """Rounds of the workload's job, each followed by interleaved estimator loops.

    ``job`` runs the workload's fixed job once, checks it, and returns its
    ``job_s``. After each job, short windows of the single-call ``estimate``
    loop, the ``posterior`` loop and one batch call take turns for
    ROUND_LOOP_S. Rounds repeat until ``seconds`` is spent, at least
    MIN_ROUNDS.

    The machine these figures come from is shared, and other tenants slow
    it by up to 2x for stretches of seconds to minutes. So the run reports
    the fastest round's ``job_s``, and for the loops the QUIET_QUANTILE of
    the window medians: the speed of the program when the machine was
    quiet.
    """
    pool = est.observations[:POOL_ROWS]
    single, posterior = Loop(est.pre.estimate, pool), Loop(posterior_call(est.pre), pool)
    batch = Loop(est.pre.estimate, batches(est.observations))
    job_s = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        gc.collect()
        job_s.append(job())
        loops_end = time.perf_counter() + ROUND_LOOP_S
        while time.perf_counter() < loops_end:
            single.run(WINDOW_S)
            posterior.run(WINDOW_S)
            batch.run(0.0)
        now = time.perf_counter()
        if len(job_s) >= MIN_ROUNDS and (now - start) + (now - round_start) > seconds:
            break
    m = result.metrics
    m["job_s"] = min(job_s)
    m["estimate_p50_us"] = single.quiet_median() * 1e-3
    m["posterior_p50_us"] = posterior.quiet_median() * 1e-3
    m["batch_obs_per_s"] = BATCH_ROWS / batch.quiet_median() * 1e9
    result.notes.append(
        f"job_s: fastest of {len(job_s)} rounds; p50 latencies from {single.calls} estimate and "
        f"{posterior.calls} posterior calls in {len(single.window_medians)} windows each; "
        f"throughput from {batch.calls} batches; loops report the {QUIET_QUANTILE:g} quantile "
        "of their window medians")


def traced_job(result: Result, job):
    """Run ``job`` once with every layer traced, under a root span named ``job``."""
    result.tracer = Tracer()
    with result.tracer.patched(LAYERS), result.tracer.span("job"):
        return job()


def per_call(summary, name: str, scale: float) -> float:
    entry = summary[name]
    return entry["total_s"] / entry["calls"] * scale if entry["calls"] else 0.0


# -- figure1 ------------------------------------------------------------------


@dataclass
class SweepRun:
    points: list
    csv: str
    sweep_s: float  # run_sweep alone
    total_s: float  # run_sweep plus CSV and SVG render


def sweep_job(config: gm.SweepConfig, workers: int) -> SweepRun:
    start = time.perf_counter()
    points = gm.run_sweep(config, workers=workers)
    swept = time.perf_counter()
    csv = gm.render_sweep_csv(config, points)
    gm.render_sweep_svg(points)
    return SweepRun(points, csv, swept - start, time.perf_counter() - start)


def check_sweeps(serial: SweepRun, parallel: SweepRun, checks: Checks, sha256: str | None) -> None:
    """Serial and 2-worker CSVs agree, match ``sha256`` when given, and every point is sound."""
    checks.record(serial.csv == parallel.csv, "serial and 2-worker CSVs byte-identical")
    if sha256 is not None:
        digest = hashlib.sha256(serial.csv.encode()).hexdigest()
        checks.record(digest == sha256, f"CSV sha256 {digest} matches the reference")
    checks.record(
        [p.error is None and p.lower is not None and 0.0 < p.lower <= p.upper for p in serial.points],
        "sweep point error-free with 0 < lower <= upper",
    )


def figure1_setup(seed: int):
    run = gm.load_config(gm.packaged_config("figure1.config"))
    config = run.sweep_config()
    scaled, _ = gm.calibrate_noise_scale(run.model, FIGURE1_LOOP_SNR_DB)
    observations = inputs.draw_observations(
        inputs.make_rng(seed, "figure1-observations"), params_of(scaled), SWEEP_BATCH_ROWS
    )
    est = EstimatorInputs(gm.PrecomputedEstimator(scaled), gm.LmmseEstimator(scaled),
                          observations, SWEEP_BATCH_ROWS)
    return config, est


def figure1(setup, seconds: float, trace: bool, result: Result) -> None:
    config, est = setup
    m = result.metrics
    check_estimator(est, result.checks)

    first_csv = []

    def job():
        # The 2-worker sweep runs once per run, for the byte-identity check.
        serial = sweep_job(config, 1)
        if first_csv:
            result.checks.record(serial.csv == first_csv[0], "repeated serial CSV byte-identical")
        else:
            check_sweeps(serial, sweep_job(config, SWEEP_WORKERS), result.checks, FIGURE1_CSV_SHA256)
            first_csv.append(serial.csv)
        return serial.total_s

    if not trace:
        result.notes.append("job: serial run_sweep + CSV + SVG render")
        end_to_end(job, est, seconds, result)
        return

    result.tracer = Tracer()
    serial, traced, parallel = sweep_layers(config, FIGURE1_REDUCTION_POINTS, result)
    check_sweeps(serial, parallel, result.checks, FIGURE1_CSV_SHA256)
    sweep = result.tracer.summary("sweep")
    points = len(serial.points)
    m["estimators.precompute_ms"] = sweep["estimators.precompute"]["total_s"] / points * 1e3
    m["bounds.genie_lower_bound_us"] = per_call(sweep, "bounds.genie_lower_bound", 1e6)
    m["bounds.lmmse_upper_bound_us"] = per_call(sweep, "bounds.lmmse_upper_bound", 1e6)
    m["config.load_config_ms"] = median_time(gm.load_config, gm.packaged_config("figure1.config")) * 1e3
    m["trace.overhead_ratio"] = traced.total_s / serial.total_s

    # The quadrature oracle takes 1-D models only. Figure 1 has H = I and
    # diagonal covariances, so the first coordinate of its 20 dB model is a
    # 1-D model of its own; the oracle runs on that, at the oracle1d grid.
    model = est.pre.model
    first = gm.BayesianLinearModel([[1.0]], gm.marginal(model.x_prior, slice(0, 1)),
                                   gm.marginal(model.noise, slice(0, 1)))
    with result.tracer.patched(LAYERS), result.tracer.span("quadrature"):
        gm.quad_posterior_mean(first, est.observations[:ORACLE_POINTS, 0], QUADRATURE)
        gm.quad_mse(first, QUADRATURE)
    quadrature_layers(result.tracer.summary("quadrature"), m)
    estimator_layers(est, 0.3 * seconds, result)


def sweep_layers(config: gm.SweepConfig, reduction_points, result: Result):
    """Per-layer metrics of one sweep; returns its untraced serial, traced and 2-worker runs.

    The serial sweep runs untraced, then traced under the root span
    ``sweep``; ``estimate_mse`` then runs traced on ``reduction_points``
    under ``reduction``, to split out the reduction.
    """
    m, tracer = result.metrics, result.tracer
    serial = sweep_job(config, 1)
    with tracer.patched(LAYERS), tracer.span("sweep"):
        traced = sweep_job(config, 1)
    parallel = sweep_job(config, SWEEP_WORKERS)
    result.checks.record(traced.csv == serial.csv, "traced sweep CSV equals the untraced one")
    with tracer.patched(LAYERS), tracer.span("reduction"):
        for index in reduction_points:
            scaled, _ = gm.calibrate_noise_scale(config.model, config.snr_db_grid[index])
            gm.estimate_mse(scaled, config.trials, gm.derive_seed(config.seed, "point", index), "mmse")
    sweep, red = tracer.summary("sweep"), tracer.summary("reduction")
    points = len(serial.points)
    m["mixture.sample_ms"] = sweep["mixture.sample"]["total_s"] / points * 1e3
    m["mixture.sample_rows"] = sweep["mixture.sample"]["rows"] / points
    m["model.calibrate_noise_scale_ms"] = sweep["model.calibrate_noise_scale"]["total_s"] / points * 1e3
    m["montecarlo.point_ms"] = serial.sweep_s / points * 1e3
    # estimate_mse minus its traced children (sampling, precompute, estimate)
    mse = red["montecarlo.estimate_mse"]
    m["montecarlo.reduce_ms"] = mse["self_s"] / mse["calls"] * 1e3
    m["montecarlo.sweep_parallel_s"] = parallel.total_s
    m["montecarlo.parallel_efficiency"] = serial.sweep_s / (SWEEP_WORKERS * parallel.sweep_s)
    m["sweepio.render_sweep_csv_ms"] = median_time(gm.render_sweep_csv, config, serial.points) * 1e3
    m["svg.render_sweep_svg_ms"] = median_time(gm.render_sweep_svg, serial.points) * 1e3
    return serial, traced, parallel


def quadrature_layers(summary, metrics: dict) -> None:
    for name in ("quadrature.quad_posterior_mean", "quadrature.quad_mse"):
        metrics[f"{name}_ms"] = summary[name]["total_s"] * 1e3
    metrics["mixture.log_density_ms"] = summary["mixture.log_density"]["total_s"] * 1e3
    metrics["mixture.log_density_rows"] = summary["mixture.log_density"]["rows"]


# -- manypairs ----------------------------------------------------------------


@dataclass
class ManyPairs:
    model: gm.BayesianLinearModel  # unit-scale noise, before calibration
    params: inputs.LinearModelParams  # at the target SNR, for the reference
    est: EstimatorInputs


def manypairs_setup(seed: int) -> ManyPairs:
    unit, scale = inputs.manypairs_model(seed)
    params = inputs.with_noise_scale(unit, scale)
    observations = inputs.draw_observations(
        inputs.make_rng(seed, "manypairs-observations"), params, inputs.MANYPAIRS_OBSERVATIONS
    )
    model = model_of(unit)
    scaled, factor = gm.calibrate_noise_scale(model, inputs.MANYPAIRS_SNR_DB)
    if not math.isclose(factor, scale, rel_tol=1e-12):
        raise RuntimeError(f"calibrated noise scale {factor!r} != generated {scale!r}")
    est = EstimatorInputs(gm.PrecomputedEstimator(scaled), gm.LmmseEstimator(scaled),
                          observations, BATCH_ROWS)
    return ManyPairs(model, params, est)


def estimate_all(pre: gm.PrecomputedEstimator, y: np.ndarray) -> np.ndarray:
    out = np.empty((len(y), pre.model.signal_dim))
    for start in range(0, len(y), BATCH_ROWS):
        out[start:start + BATCH_ROWS] = pre.estimate(y[start:start + BATCH_ROWS])
    return out


def check_manypairs(mp: ManyPairs, estimates: np.ndarray, checks: Checks) -> None:
    checks.record(np.all(np.isfinite(estimates), axis=1), "manypairs estimates finite")
    rows = np.linspace(0, len(estimates) - 1, REFERENCE_ROWS).astype(int)
    reference = inputs.reference_posterior_mean(mp.params, mp.est.observations[rows])
    checks.record(close_rows(estimates[rows], reference, REFERENCE_RTOL),
                  "estimate matches the numpy.linalg.solve reference")


def manypairs(mp: ManyPairs, seconds: float, trace: bool, result: Result) -> None:
    m, est = result.metrics, mp.est
    check_estimator(est, result.checks)

    def job():
        job_s, estimates = timed(estimate_all, est.pre, est.observations)
        check_manypairs(mp, estimates, result.checks)
        return job_s

    if not trace:
        result.notes.append(f"job: {len(est.observations)} observations in {BATCH_ROWS}-row batches")
        end_to_end(job, est, seconds, result)
        return

    untraced_s = job()
    traced_s = traced_job(result, job)
    m["model.calibrate_noise_scale_ms"] = median_time(
        gm.calibrate_noise_scale, mp.model, inputs.MANYPAIRS_SNR_DB) * 1e3
    m["estimators.precompute_ms"] = median_time(
        gm.PrecomputedEstimator, est.pre.model) * 1e3
    m["trace.overhead_ratio"] = traced_s / untraced_s
    estimator_layers(est, 0.6 * seconds, result)


# -- oracle1d -----------------------------------------------------------------


def oracle1d_setup(seed: int):
    model = gm.load_config(gm.packaged_config("oracle1d.config")).model
    observations = inputs.draw_observations(
        inputs.make_rng(seed, "oracle1d-observations"), params_of(model), 4 * BATCH_ROWS
    )
    return EstimatorInputs(gm.PrecomputedEstimator(model), gm.LmmseEstimator(model),
                           observations, BATCH_ROWS)


def oracle_check(checks: Checks) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(ORACLE_ARGS)
    checks.record(code == 0 and "PASS" in out.getvalue().split(),
                  f"oracle-check exits 0 and prints PASS (exit {code})")


def oracle1d(est: EstimatorInputs, seconds: float, trace: bool, result: Result) -> None:
    m = result.metrics
    check_estimator(est, result.checks)

    def job():
        return timed(oracle_check, result.checks)[0]

    if not trace:
        result.notes.append(f"job: cli.main({' '.join(ORACLE_ARGS)})")
        end_to_end(job, est, seconds, result)
        return

    untraced_s = job()
    traced_s = traced_job(result, job)
    summary = result.tracer.summary("job")
    m["estimators.precompute_ms"] = summary["estimators.precompute"]["total_s"] * 1e3
    m["bounds.genie_lower_bound_us"] = per_call(summary, "bounds.genie_lower_bound", 1e6)
    m["bounds.lmmse_upper_bound_us"] = per_call(summary, "bounds.lmmse_upper_bound", 1e6)
    m["config.load_config_ms"] = summary["config.load_config"]["total_s"] * 1e3
    m["trace.overhead_ratio"] = traced_s / untraced_s
    quadrature_layers(summary, m)
    # oracle-check runs no sweep; the config's own small sweep measures the sweep layers.
    config = gm.load_config(gm.packaged_config("oracle1d.config")).sweep_config()
    serial, _, parallel = sweep_layers(config, range(len(config.snr_db_grid)), result)
    check_sweeps(serial, parallel, result.checks, None)
    estimator_layers(est, 0.6 * seconds, result)


# -- entry point --------------------------------------------------------------

RUNNERS = {
    "figure1": (figure1_setup, figure1),
    "manypairs": (manypairs_setup, manypairs),
    "oracle1d": (oracle1d_setup, oracle1d),
}


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """One benchmark run. Per-layer metrics a workload does not reach read 0."""
    make, measure = RUNNERS[workload]
    result = Result()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t, setup = timed(make, seed)
        setup_times.append(t)
    measure(setup, seconds, trace, result)
    if trace:
        result.metrics = {name: result.metrics.get(name, 0.0) for name in PER_LAYER}
    else:
        result.metrics["setup_s"] = import_s + statistics.median(setup_times)
        result.notes.append(f"setup_s: median import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups")
        result.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.metrics = {name: result.metrics[name] for name in END_TO_END}
    return result
