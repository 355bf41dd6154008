"""Tests of the benchmark's own parts. Run with ``python3 -m pytest perfbench``."""

import json
import time
from pathlib import Path

import numpy as np

import inputs
from metrics import END_TO_END, PER_LAYER
from tracing import Tracer


def _arrays(params: inputs.LinearModelParams):
    return [params.H, *(getattr(mix, f) for mix in (params.x, params.noise)
                        for f in ("weights", "means", "covariances"))]


def test_same_seed_gives_identical_model_and_observations():
    runs = []
    for _ in range(2):
        params, scale = inputs.manypairs_model(7)
        y = inputs.draw_observations(inputs.make_rng(7, "obs"), inputs.with_noise_scale(params, scale), 500)
        runs.append((params, scale, y))
    (p1, s1, y1), (p2, s2, y2) = runs
    assert s1 == s2
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(p1), _arrays(p2)))
    assert np.array_equal(y1, y2)


def test_other_seed_gives_other_inputs():
    p1, _ = inputs.manypairs_model(7)
    p2, _ = inputs.manypairs_model(8)
    assert not np.array_equal(p1.x.means, p2.x.means)
    y1 = inputs.draw_observations(inputs.make_rng(7, "obs"), p1, 10)
    y2 = inputs.draw_observations(inputs.make_rng(8, "obs"), p1, 10)
    assert not np.array_equal(y1, y2)


def test_manypairs_shape_and_snr():
    params, scale = inputs.manypairs_model(3)
    assert params.H.shape == (8, 8)
    assert params.x.means.shape == (16, 8) and params.noise.covariances.shape == (4, 8, 8)
    noise = params.noise.scaled(scale)
    snr_db = 10 * np.log10(params.x.second_moment_trace() / noise.second_moment_trace())
    assert abs(snr_db - inputs.MANYPAIRS_SNR_DB) < 1e-9


def test_reference_matches_single_gaussian_wiener_estimate():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((3, 2))
    cx, cn = np.diag([2.0, 0.5]), 0.3 * np.eye(3)
    ux, un = np.array([1.0, -1.0]), np.array([0.1, 0.0, -0.2])
    params = inputs.LinearModelParams(
        H,
        inputs.MixtureParams(np.array([1.0]), ux[None], cx[None]),
        inputs.MixtureParams(np.array([1.0]), un[None], cn[None]),
    )
    y = rng.standard_normal((5, 3))
    gain = cx @ H.T @ np.linalg.inv(H @ cx @ H.T + cn)
    expected = ux + (y - (H @ ux + un)) @ gain.T
    np.testing.assert_allclose(inputs.reference_posterior_mean(params, y), expected, rtol=1e-12)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("outer", rows=3):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.02)
    summary = tracer.summary("job")
    outer, inner = summary["outer"], summary["inner"]
    assert outer["calls"] == inner["calls"] == 1 and outer["rows"] == 3
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert summary["never called"]["calls"] == 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == ["figure1", "oracle1d"]
