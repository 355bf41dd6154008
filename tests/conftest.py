"""Shared generators for randomized models and inputs used across the test suite."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scipy.linalg import block_diag, solve_triangular

import gmbayes.montecarlo
from gmbayes import BayesianLinearModel, GaussianMixture, PrecomputedEstimator, ValidationError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def suite(monkeypatch):
    """The benchmark's ``perfbench/suite.py`` module, imported as the benchmark
    imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("suite")


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues O(scale)."""
    a = rng.normal(size=(dim, dim))
    m = (a @ a.T) * (0.3 * scale / dim) + scale * np.eye(dim)
    return 0.5 * (m + m.T)


def random_mixture(
    rng: np.random.Generator,
    dim: int,
    components: int,
    mean_scale: float = 2.0,
    cov_scale: float = 1.0,
    zero_weight: bool = False,
) -> GaussianMixture:
    """A random mixture; ``zero_weight`` sets one weight of a multi-component
    mixture to zero."""
    weights = rng.dirichlet(np.ones(components))
    if zero_weight and components > 1:
        weights[rng.integers(components)] = 0.0
        weights /= weights.sum()
    means = [rng.normal(scale=mean_scale, size=dim) for _ in range(components)]
    covs = [random_spd(rng, dim, cov_scale) for _ in range(components)]
    return GaussianMixture.from_parameters(weights, means, covs)


def random_model(
    rng: np.random.Generator,
    signal_dim: int,
    observation_dim: int,
    signal_components: int,
    noise_components: int,
    mean_scale: float = 2.0,
    zero_weight: bool = False,
) -> BayesianLinearModel:
    h = rng.normal(size=(observation_dim, signal_dim))
    return BayesianLinearModel(
        h,
        random_mixture(rng, signal_dim, signal_components, mean_scale=mean_scale,
                       zero_weight=zero_weight),
        random_mixture(rng, observation_dim, noise_components, mean_scale=0.5,
                       zero_weight=zero_weight),
    )


def scalar_wiener_model() -> BayesianLinearModel:
    """``y = x + n`` with standard normal signal and noise: the scalar Wiener case."""
    std = GaussianMixture.single(np.zeros(1), np.eye(1))
    return BayesianLinearModel(np.array([[1.0]]), std, std)


def fail_mmse_estimate_at(monkeypatch, snr_db: float) -> None:
    """Make the MMSE estimator of the sweep point at ``snr_db`` raise
    ``ValidationError("estimate broke")`` in the point's finish stage; every
    other point runs as before."""
    prepare, estimate = gmbayes.montecarlo._prepare, PrecomputedEstimator.estimate
    broken = []

    def spy_prepare(config, index):
        point, job = prepare(config, index)
        if point.snr_db == snr_db:
            broken.append(job.arms["mmse"])
        return point, job

    def spy_estimate(self, y):
        if any(self is arm for arm in broken):
            raise ValidationError("estimate broke")
        return estimate(self, y)

    monkeypatch.setattr(gmbayes.montecarlo, "_prepare", spy_prepare)
    monkeypatch.setattr(PrecomputedEstimator, "estimate", spy_estimate)


def oracle_equivalence_models() -> list[BayesianLinearModel]:
    """The 20 random 1-D models of acceptance criterion 2, with two or three
    signal and noise components each."""
    rng = np.random.default_rng(42)
    return [random_model(rng, 1, 1, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for _ in range(20)]


def asymptotics_model() -> BayesianLinearModel:
    """Random model with invertible H, built to stay numerically meaningful
    at +/-120 dB: clustered signal means and small component covariances keep
    the deviation terms far below the 1e-6 tolerances."""
    rng = np.random.default_rng(2024)
    d = 3
    H = 2.0 * np.eye(d) + 0.2 * rng.standard_normal((d, d))
    base = rng.standard_normal(d)
    base *= 6.0 / np.linalg.norm(base)
    means = [base + 0.8 * rng.standard_normal(d) for _ in range(3)]
    covs = [random_spd(rng, d, s) for s in (0.01, 0.02, 0.03)]
    x = GaussianMixture.from_parameters((0.5, 0.3, 0.2), means, covs)
    noise_means = [0.02 * rng.standard_normal(d) for _ in range(2)]
    noise_covs = [random_spd(rng, d, s) for s in (1.0, 0.7)]
    noise = GaussianMixture.from_parameters((0.6, 0.4), noise_means, noise_covs)
    return BayesianLinearModel(H, x, noise)


def parts(mixture: GaussianMixture):
    """The ``(weight, mean, covariance)`` triples of a mixture, in order."""
    return zip(mixture.weights, mixture.means, mixture.covariances)


def _symmetric(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def per_component(components) -> tuple[np.ndarray, ...]:
    """Stacked ``(weights, means, covariances, chols)`` built one component at a time.

    ``components`` yields ``(weight, mean, covariance)`` triples, and each
    Cholesky factor is its own ``np.linalg.cholesky`` call: the
    component-by-component construction that the stacked mixture operations
    replace, kept as their bit-exact reference.
    """
    weights, means, covs = zip(*components)
    chols = [np.linalg.cholesky(c) for c in covs]
    return np.array(weights), np.stack(means), np.stack(covs), np.stack(chols)


def reference_affine(mixture, transform, offset):
    return per_component(
        (w, transform @ m + offset, _symmetric(transform @ c @ transform.T))
        for w, m, c in parts(mixture)
    )


def reference_join(first, second):
    return per_component(
        (wa * wb, np.concatenate([ma, mb]), block_diag(ca, cb))
        for wa, ma, ca in parts(first)
        for wb, mb, cb in parts(second)
    )


def reference_marginal(mixture, keep: slice):
    return per_component((w, m[keep], c[keep, keep]) for w, m, c in parts(mixture))


def reference_observation(model):
    H = model.H
    return per_component(
        (p * q, H @ mx + mn, _symmetric(H @ cx @ H.T) + cn)
        for p, mx, cx in parts(model.x_prior)
        for q, mn, cn in parts(model.noise)
    )


def reference_inv_chols(chols: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factors, one ``solve_triangular`` per component: the
    bit-exact reference for the mixture's one batched solve."""
    eye = np.eye(chols.shape[-1])
    return np.stack([solve_triangular(chol, eye, lower=True) for chol in chols])


def reference_mixture_covariance(weights, means, covariances) -> np.ndarray:
    """``sum w (C + m m^T) - u u^T``, symmetrized, written out as the mixture
    and the posterior covariance each wrote it before they shared one formula."""
    u = weights @ means
    out = np.einsum("p,pij->ij", weights, covariances)
    out += np.einsum("p,pi,pj->ij", weights, means, means)
    out -= np.outer(u, u)
    return 0.5 * (out + out.T)


def reference_log_sum_exp(logs: np.ndarray) -> np.ndarray:
    """``log(sum(exp(logs), axis=0))`` as the mixture wrote it before its
    underflowing terms were flushed: every shifted term goes through ``exp``,
    subnormal results included. The reference for ``mixture._log_sum_exp``."""
    peak = np.max(logs, axis=0)
    rest = np.exp(logs - np.where(np.isfinite(peak), peak, 0.0))
    at_peak = logs == peak
    rest -= at_peak
    with np.errstate(divide="ignore"):
        return peak + np.log1p(np.sum(rest, axis=0) + (np.count_nonzero(at_peak, axis=0) - 1))


def assert_mixture_equal(mixture: GaussianMixture, reference) -> None:
    """Bit-exact equality of the stacked arrays with a :func:`per_component` reference."""
    stacked = (mixture.weights, mixture.means, mixture.covariances, mixture.chols)
    for got, want in zip(stacked, reference, strict=True):
        np.testing.assert_array_equal(got, want)


_FINITE = st.floats(-1e3, 1e3)

def _finite_arrays(shape):
    return st.one_of(
        arrays(np.float64, shape, elements=_FINITE),
        arrays(np.int64, shape, elements=st.integers(-1000, 1000)),
    )


@st.composite
def point_inputs(draw, dim: int):
    """``(kind, value)`` pairs for the input contract of a density or an estimator.

    ``kind`` is ``"scalar"`` (a Python float), ``"single"`` (shape ``(dim,)``),
    ``"batch"`` (``(n, dim)``), ``"rank"`` (three or four dimensions) or
    ``"nonfinite"`` (a single point or a batch with one NaN or infinite entry).
    Float and integer arrays are both drawn.
    """
    kind = draw(st.sampled_from(["scalar", "single", "batch", "rank", "nonfinite"]))
    if kind == "scalar":
        return kind, draw(_FINITE)
    if kind == "single":
        return kind, draw(_finite_arrays((dim,)))
    if kind == "batch":
        return kind, draw(_finite_arrays((draw(st.integers(1, 5)), dim)))
    if kind == "rank":
        return kind, draw(_finite_arrays(array_shapes(min_dims=3, max_dims=4, max_side=3)))
    value = draw(arrays(np.float64, draw(st.sampled_from([(dim,), (3, dim)])), elements=_FINITE))
    value.flat[draw(st.integers(0, value.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return kind, value


def rejected_input(kind: str, dim: int) -> bool:
    """Whether an input of this :func:`point_inputs` kind must raise ``ValidationError``;
    a scalar is one point only where the dimension is 1."""
    return kind in ("rank", "nonfinite") or (kind == "scalar" and dim != 1)
