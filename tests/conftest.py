"""Shared generators for randomized models and inputs used across the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gmbayes import BayesianLinearModel, GaussianMixture


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
) -> GaussianMixture:
    weights = rng.dirichlet(np.ones(components))
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
) -> BayesianLinearModel:
    h = rng.normal(size=(observation_dim, signal_dim))
    return BayesianLinearModel(
        h,
        random_mixture(rng, signal_dim, signal_components, mean_scale=mean_scale),
        random_mixture(rng, observation_dim, noise_components, mean_scale=0.5),
    )


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
