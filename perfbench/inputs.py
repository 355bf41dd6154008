"""Seeded workload inputs and an independent reference estimator.

Everything here uses its own ``numpy.random.Generator`` (PCG64) and plain
numpy linear algebra. Nothing calls into ``gmbayes``, so a change to the
program's sampler, kernel or calibration leaves the inputs, and the
reference they are checked against, unchanged.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

MANYPAIRS_SIGNAL_COMPONENTS = 16
MANYPAIRS_NOISE_COMPONENTS = 4
MANYPAIRS_DIM = 8
MANYPAIRS_SNR_DB = 10.0
MANYPAIRS_OBSERVATIONS = 200_000
# Spread of the signal component means, in units of the component standard
# deviation; chosen so that about 3.3 component pairs carry responsibility
# per observation at 10 dB.
MANYPAIRS_MEAN_SPREAD = 3.5


def make_rng(seed: int, label: str) -> np.random.Generator:
    """A PCG64 generator keyed by the workload seed and a stream label."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))


@dataclass(frozen=True)
class MixtureParams:
    """Plain arrays of one Gaussian mixture: weights (K,), means (K, d), covariances (K, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def second_moment_trace(self) -> float:
        """E||v||^2 = sum_k w_k (tr C_k + ||u_k||^2)."""
        per_component = np.trace(self.covariances, axis1=1, axis2=2) + np.sum(self.means**2, axis=1)
        return float(self.weights @ per_component)

    def scaled(self, factor: float) -> "MixtureParams":
        """The mixture of ``factor * v``."""
        return MixtureParams(self.weights, factor * self.means, factor**2 * self.covariances)


@dataclass(frozen=True)
class LinearModelParams:
    """Parameters of ``y = H x + n`` as plain arrays."""

    H: np.ndarray
    x: MixtureParams
    noise: MixtureParams


def _random_covariance(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    cov = scale * (a @ a.T / dim + 0.5 * np.eye(dim))
    return 0.5 * (cov + cov.T)


def _random_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, count)
    return w / w.sum()


def manypairs_model(seed: int) -> tuple[LinearModelParams, float]:
    """The manypairs model with unit-scale noise, and the noise scale for ``MANYPAIRS_SNR_DB``.

    K = 16 signal and L = 4 noise components with full covariances, a dense
    H, and noise with nonzero means. Scaling the noise by
    ``a = sqrt(E||x||^2 / (snr * E||n||^2))`` (see :func:`with_noise_scale`)
    puts the model at the target SNR.
    """
    rng = make_rng(seed, "manypairs-model")
    d = m = MANYPAIRS_DIM
    H = rng.standard_normal((m, d)) / math.sqrt(d) + np.eye(m)
    x = MixtureParams(
        _random_weights(rng, MANYPAIRS_SIGNAL_COMPONENTS),
        MANYPAIRS_MEAN_SPREAD * rng.standard_normal((MANYPAIRS_SIGNAL_COMPONENTS, d)),
        np.stack([_random_covariance(rng, d, 1.0) for _ in range(MANYPAIRS_SIGNAL_COMPONENTS)]),
    )
    unit_noise = MixtureParams(
        _random_weights(rng, MANYPAIRS_NOISE_COMPONENTS),
        0.5 * rng.standard_normal((MANYPAIRS_NOISE_COMPONENTS, m)),
        np.stack([_random_covariance(rng, m, 1.0) for _ in range(MANYPAIRS_NOISE_COMPONENTS)]),
    )
    snr = 10.0 ** (MANYPAIRS_SNR_DB / 10.0)
    scale = math.sqrt(x.second_moment_trace() / (snr * unit_noise.second_moment_trace()))
    return LinearModelParams(H, x, unit_noise), scale


def with_noise_scale(params: LinearModelParams, scale: float) -> LinearModelParams:
    """The same model with noise ``scale * n``."""
    return LinearModelParams(params.H, params.x, params.noise.scaled(scale))


def draw(rng: np.random.Generator, mixture: MixtureParams, count: int) -> np.ndarray:
    """``count`` draws from a mixture: categorical pick, then mean + chol @ z."""
    idx = rng.choice(mixture.weights.size, size=count, p=mixture.weights)
    z = rng.standard_normal((count, mixture.means.shape[1]))
    out = np.empty_like(z)
    for k, cov in enumerate(mixture.covariances):
        rows = idx == k
        out[rows] = mixture.means[k] + z[rows] @ np.linalg.cholesky(cov).T
    return out


def draw_observations(rng: np.random.Generator, params: LinearModelParams, count: int) -> np.ndarray:
    """Observations ``y = H x + n`` with independent signal and noise draws, shape (count, m)."""
    x = draw(rng, params.x, count)
    return x @ params.H.T + draw(rng, params.noise, count)


def reference_posterior_mean(params: LinearModelParams, y: np.ndarray) -> np.ndarray:
    """Closed-form MMSE estimate of ``x`` for each row of ``y``, by ``numpy.linalg.solve``.

    A direct transcription of Bayes' rule for Gaussian mixtures, one
    component pair at a time, sharing no code with the program.
    """
    y = np.atleast_2d(y)
    m = y.shape[1]
    log_w, means = [], []
    for wk, uk, ck in zip(params.x.weights, params.x.means, params.x.covariances):
        cross = ck @ params.H.T  # C_x H^T, (d, m)
        for wl, ul, cl in zip(params.noise.weights, params.noise.means, params.noise.covariances):
            s = params.H @ cross + cl
            dev = y - (params.H @ uk + ul)
            sol = np.linalg.solve(s, dev.T)  # S^-1 (y - mu), (m, n)
            logdet = np.linalg.slogdet(s)[1]
            quad = np.sum(dev.T * sol, axis=0)
            log_w.append(math.log(wk * wl) - 0.5 * (quad + logdet + m * math.log(2 * math.pi)))
            means.append(uk + (cross @ sol).T)
    log_w = np.array(log_w)
    alpha = np.exp(log_w - log_w.max(axis=0))
    alpha /= alpha.sum(axis=0)
    return np.einsum("pn,pnd->nd", alpha, np.stack(means))
