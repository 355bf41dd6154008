"""The Bayesian linear model ``y = H x + n`` with Gaussian mixture priors.

Both the signal ``x`` and the noise ``n`` carry finite Gaussian mixture
distributions and are mutually independent. This module derives the
observation mixture, does SNR accounting via full second moments, and
calibrates a scalar noise scale for SNR sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from .mixture import (
    GaussianMixture,
    ValidationError,
    _mapped_moments,
    affine_transform,
)

__all__ = [
    "BayesianLinearModel",
    "observation_mixture",
    "snr",
    "snr_db",
    "scale_noise",
    "calibrate_noise_scale",
]

_TINY = np.finfo(float).tiny  # the smallest normal double


class BayesianLinearModel:
    """Problem instance: observation matrix plus signal and noise mixtures.

    Parameters
    ----------
    observation_matrix : array_like, shape (m, d)
        The known matrix ``H`` mapping signal space to observation space.
    x_prior : GaussianMixture
        Prior mixture of the d-dimensional signal.
    noise : GaussianMixture
        Mixture of the m-dimensional additive noise, independent of the
        signal.
    """

    __slots__ = ("H", "x_prior", "noise")

    def __init__(self, observation_matrix, x_prior: GaussianMixture, noise: GaussianMixture):
        H = np.atleast_2d(np.asarray(observation_matrix, dtype=float))
        if not np.all(np.isfinite(H)):
            raise ValidationError("observation matrix has non-finite entries")
        if H.shape[1] != x_prior.dim:
            raise ValidationError(
                f"observation matrix has {H.shape[1]} columns, signal dimension is {x_prior.dim}"
            )
        if H.shape[0] != noise.dim:
            raise ValidationError(
                f"observation matrix has {H.shape[0]} rows, noise dimension is {noise.dim}"
            )
        H.setflags(write=False)
        self.H = H
        self.x_prior = x_prior
        self.noise = noise

    @property
    def signal_dim(self) -> int:
        return self.H.shape[1]

    @property
    def observation_dim(self) -> int:
        return self.H.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BayesianLinearModel(m={self.observation_dim}, d={self.signal_dim}, "
            f"K={len(self.x_prior)}, L={len(self.noise)})"
        )


def observation_mixture(model: BayesianLinearModel) -> GaussianMixture:
    """The mixture of the observation ``y``.

    One component per signal/noise component pair, in row-major order
    (signal index outer, noise index inner): weight ``p_k q_l``, mean
    ``H u_x^(k) + u_n^(l)``, covariance ``H C_x^(k) H^T + C_n^(l)``. A pair
    whose covariance is not numerically positive definite is rejected as
    ``component (k,l)``.
    """
    x, noise = model.x_prior, model.noise
    h_means, h_covariances = _mapped_moments(x, model.H)
    return GaussianMixture(
        np.outer(x.weights, noise.weights),
        h_means[:, None] + noise.means[None],
        h_covariances[:, None] + noise.covariances[None],
        renormalize=False,
    )


def _second_moments(model: BayesianLinearModel) -> tuple[float, float]:
    """``E||x||^2`` and ``E||n||^2``, each checked positive: a mixture of
    subnormal covariances passes the constructor, yet its weighted moment can
    round to zero."""
    moments = model.x_prior.second_moment_trace(), model.noise.second_moment_trace()
    for name, value in zip(("signal", "noise"), moments):
        if not value > 0.0:
            raise ValidationError(f"{name} second moment {value:.6g} is not positive")
    return moments


def snr(model: BayesianLinearModel) -> float:
    """Signal-to-noise ratio ``E||x||^2 / E||n||^2`` (linear scale).

    Second moments include the mixture means: ``trace(C) + ||u||^2``.
    """
    signal, noise = _second_moments(model)
    return signal / noise


def _log10_snr(model: BayesianLinearModel) -> float:
    """``log10`` of :func:`snr`, as the difference of the two second moments'
    logarithms, so it stays finite where the linear ratio overflows a double."""
    signal, noise = _second_moments(model)
    return math.log10(signal) - math.log10(noise)


def snr_db(model: BayesianLinearModel) -> float:
    """:func:`snr` in dB, finite wherever the model is valid."""
    return 10.0 * _log10_snr(model)


def scale_noise(model: BayesianLinearModel, factor: float) -> BayesianLinearModel:
    """Replace the noise with ``factor * n``: means scale by ``factor``,
    covariances by ``factor**2``. ``factor`` must be positive and finite."""
    factor = float(factor)
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValidationError(f"noise scale {factor} must be positive and finite")
    scaled = affine_transform(model.noise, factor * np.eye(model.noise.dim))
    return BayesianLinearModel(model.H, model.x_prior, scaled)


def calibrate_noise_scale(model: BayesianLinearModel, target_snr_db: float) -> tuple[BayesianLinearModel, float]:
    """Scale the noise so the model hits ``target_snr_db``.

    Returns ``(scaled_model, a)`` where the noise of the scaled model is
    ``a * n``. Since both the noise mean and covariance scale with ``a``,
    ``E||a n||^2 = a^2 E||n||^2`` and the calibration is exact:
    ``a = sqrt(E||x||^2 / (snr_linear * E||n||^2))``.
    """
    if not math.isfinite(target_snr_db):
        raise ValidationError(f"target SNR {target_snr_db} dB is not finite")
    # a = sqrt(E||x||^2 / E||n||^2) * 10^(-snr_db/20), computed in log10 to
    # survive extreme targets. The scaled noise must be a valid mixture whose
    # variances are normal doubles: a subnormal one has lost the precision the
    # calibration relies on. A scale whose noise overflows is this error too,
    # so numpy's overflow warnings are off.
    log10_factor = 0.5 * _log10_snr(model) - target_snr_db / 20.0
    try:
        factor = 10.0 ** log10_factor
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = scale_noise(model, factor)
    except (OverflowError, ValidationError):
        scaled = None
    if scaled is None or np.diagonal(scaled.noise.covariances, axis1=1, axis2=2).min() < _TINY:
        raise ValidationError(
            f"target SNR {target_snr_db} dB gives unusable noise scale 10^{log10_factor:.6g}"
        )
    return scaled, factor
