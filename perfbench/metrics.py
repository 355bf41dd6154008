"""Metric names, units, and for each layer metric the end-to-end metric it should move.

``BENCHMARK.json`` lists the same names and units. End-to-end metrics are
printed by untraced runs (``--trace 0``), per-layer metrics by traced runs
(``--trace 1``). Every workload prints every metric of its kind. The traced
runs of the gated workloads reach every layer; on ``manypairs``, a layer
its run never calls reads 0.
"""

# The first two are the workloads BENCHMARK.json gates; manypairs runs on request.
WORKLOADS = ("figure1", "oracle1d", "manypairs")

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "estimate_p50_us": "us",
    "posterior_p50_us": "us",
    "batch_obs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name: (unit, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "mixture.sample_ms": ("ms", "job_s and montecarlo.sweep_parallel_s on figure1; per point"),
    "mixture.sample_rows": ("count", "job_s on figure1; rows drawn per point"),
    "mixture.log_density_ms": ("ms", "job_s on oracle1d"),
    "mixture.log_density_rows": ("count", "job_s on oracle1d"),
    "model.calibrate_noise_scale_ms": ("ms", "job_s on figure1 (per point); setup_s on manypairs"),
    "estimators.precompute_ms": ("ms", "job_s on figure1 (per point); setup_s on manypairs"),
    "estimators.log_observation_pdfs_ns_per_obs": ("ns/obs", "batch_obs_per_s on manypairs; job_s on figure1"),
    "estimators.softmax_ns_per_obs": ("ns/obs", "batch_obs_per_s on manypairs; job_s on figure1"),
    "estimators.gain_ns_per_obs": ("ns/obs", "batch_obs_per_s on manypairs; job_s on figure1"),
    "estimators.single_call_overhead_us": ("us", "estimate_p50_us on every workload"),
    "estimators.estimate_p99_us": ("us", "reported only"),
    "estimators.posterior_p99_us": ("us", "reported only"),
    "estimators.lmmse_estimate_ns_per_obs": ("ns/obs", "job_s on figure1"),
    "estimators.active_pair_ratio": ("ratio", "useful-to-attempted ratio of the kernel; reported only"),
    "estimators.flops_per_obs_computed": ("flop/obs", "batch_obs_per_s; a count from the model's shape"),
    "estimators.bytes_per_obs_computed": ("B/obs", "batch_obs_per_s; a count from the model's shape"),
    "estimators.gflops_achieved": ("GFLOP/s", "batch_obs_per_s"),
    "montecarlo.point_ms": ("ms", "job_s on figure1"),
    "montecarlo.reduce_ms": ("ms", "job_s on figure1; per point"),
    "montecarlo.sweep_parallel_s": ("s", "the 2-worker figure1 sweep + render; reported only"),
    "montecarlo.parallel_efficiency": ("ratio", "montecarlo.sweep_parallel_s on figure1"),
    "bounds.genie_lower_bound_us": ("us", "job_s on figure1 and oracle1d"),
    "bounds.lmmse_upper_bound_us": ("us", "job_s on figure1 and oracle1d"),
    "sweepio.render_sweep_csv_ms": ("ms", "job_s on figure1"),
    "svg.render_sweep_svg_ms": ("ms", "job_s on figure1"),
    "quadrature.quad_posterior_mean_ms": ("ms", "job_s on oracle1d"),
    "quadrature.quad_mse_ms": ("ms", "job_s on oracle1d"),
    "config.load_config_ms": ("ms", "setup_s on figure1 and oracle1d; job_s on oracle1d"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time of the job"),
}


def unit(name: str) -> str:
    return END_TO_END[name] if name in END_TO_END else PER_LAYER[name][0]
