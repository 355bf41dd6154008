"""Posterior inference and the MMSE / LMMSE estimators.

Given the linear model ``y = H x + n`` with mixture-distributed ``x`` and
``n``, the posterior of ``x`` given ``y`` is again a Gaussian mixture: one
component per (signal component k, noise component l) pair, with data-
dependent weights (the responsibilities) and data-independent component
covariances. The posterior mean is the MMSE estimate.

Everything that does not depend on ``y`` is computed once in
:class:`PrecomputedEstimator`: per-pair gain matrices, Cholesky factors of
the observation covariances, log prior weights, and component posterior
covariances. The per-pair observation covariance is never inverted
explicitly; all applications go through triangular solves against the
cached Cholesky factor, which keeps the high-SNR (ill-conditioned) regime
accurate. Responsibilities are evaluated as a softmax of log weights plus
Gaussian log-densities, so they are well-defined even when every component
likelihood underflows a double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import logsumexp

from .mixture import LOG_2PI, GaussianMixture, ValidationError
from .model import BayesianLinearModel

__all__ = [
    "PrecomputedEstimator",
    "PosteriorGM",
    "LmmseEstimator",
    "precompute",
    "responsibilities",
    "mmse_estimate",
    "posterior",
    "posterior_covariance",
    "lmmse_estimate",
]


def _observation_batch(y, dim: int) -> tuple[np.ndarray, bool]:
    """Observations as an ``(n, dim)`` batch, plus whether ``y`` was a single one.

    A single observation is ``(dim,)``, or a scalar when ``dim`` is 1; a
    batch is ``(n, dim)``. Wrong shapes and non-finite entries raise
    :class:`ValidationError`.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = y.reshape(1)
    if y.ndim not in (1, 2):
        raise ValidationError(f"observation must be a vector or a batch, got shape {y.shape}")
    single = y.ndim == 1
    batch = np.atleast_2d(y)
    if batch.shape[1] != dim:
        raise ValidationError(f"observation dimension {batch.shape[1]} != model dimension {dim}")
    if not np.all(np.isfinite(batch)):
        raise ValidationError("observation has non-finite entries")
    return batch, single


class PrecomputedEstimator:
    """Reusable MMSE inference engine for one model.

    All arrays are stacked over the flat pair index ``k * L + l`` (signal
    component outer, noise component inner), matching the ordering of
    :func:`gmbayes.model.observation_mixture`. Instances are immutable and
    safe for concurrent use; every estimate call works on local scratch.

    Attributes
    ----------
    model : BayesianLinearModel
    n_pairs : int
        ``K * L``.
    log_prior : (n_pairs,) array
        ``log(p_k q_l)``; ``-inf`` for zero-weight pairs, which then carry
        exactly zero responsibility but stay in all sums.
    obs_means : (n_pairs, m) array
        Per-pair observation means ``H u_x^(k) + u_n^(l)``.
    obs_chols : (n_pairs, m, m) array
        Lower Cholesky factors of ``H C_x^(k) H^T + C_n^(l)``.
    gains : (n_pairs, d, m) array
        ``C_x^(k) H^T (H C_x^(k) H^T + C_n^(l))^-1``.
    comp_post_covs : (n_pairs, d, d) array
        Component posterior covariances; independent of the observation.
    x_means : (n_pairs, d) array
        Signal component means, repeated across noise components.
    """

    __slots__ = (
        "model",
        "n_signal",
        "n_noise",
        "n_pairs",
        "log_prior",
        "obs_means",
        "obs_chols",
        "gains",
        "comp_post_covs",
        "x_means",
        "_log_norms",
    )

    def __init__(self, model: BayesianLinearModel):
        H = model.H
        m = model.observation_dim
        log_prior, obs_means, obs_chols, gains, post_covs, x_means, log_norms = (
            [], [], [], [], [], [], []
        )
        with np.errstate(divide="ignore"):
            log_px = np.log(model.x_prior.weights)
            log_qn = np.log(model.noise.weights)
        for k, cx in enumerate(model.x_prior.components):
            h_cov = H @ cx.covariance  # rows of C_yx = H C_x^(k)
            h_mean = H @ cx.mean
            base = h_cov @ H.T
            base = 0.5 * (base + base.T)
            for l, cn in enumerate(model.noise.components):
                cov_yy = base + cn.covariance
                try:
                    chol = np.linalg.cholesky(cov_yy)
                except np.linalg.LinAlgError:
                    raise ValidationError(
                        f"observation covariance for pair (k={k}, l={l}) "
                        "not positive definite"
                    ) from None
                gain = cho_solve((chol, True), h_cov).T
                post_cov = cx.covariance - gain @ h_cov
                post_cov = 0.5 * (post_cov + post_cov.T)
                log_prior.append(log_px[k] + log_qn[l])
                obs_means.append(h_mean + cn.mean)
                obs_chols.append(chol)
                gains.append(gain)
                post_covs.append(post_cov)
                x_means.append(cx.mean)
                log_norms.append(
                    -0.5 * m * LOG_2PI - float(np.sum(np.log(np.diag(chol))))
                )

        self.model = model
        self.n_signal = len(model.x_prior)
        self.n_noise = len(model.noise)
        self.n_pairs = self.n_signal * self.n_noise
        self.log_prior = np.array(log_prior)
        self.obs_means = np.stack(obs_means)
        self.obs_chols = np.stack(obs_chols)
        self.gains = np.stack(gains)
        self.comp_post_covs = np.stack(post_covs)
        self.x_means = np.stack(x_means)
        self._log_norms = np.array(log_norms)
        for name in ("log_prior", "obs_means", "obs_chols", "gains", "comp_post_covs", "x_means"):
            getattr(self, name).setflags(write=False)

    # -- log-domain machinery ----------------------------------------------

    def log_observation_pdfs(self, batch: np.ndarray) -> np.ndarray:
        """Per-pair Gaussian log-densities of ``(n, m)`` observations, shape ``(n_pairs, n)``."""
        out = np.empty((self.n_pairs, batch.shape[0]))
        for i in range(self.n_pairs):
            dev = batch - self.obs_means[i]
            z = solve_triangular(self.obs_chols[i], dev.T, lower=True)
            out[i] = self._log_norms[i] - 0.5 * np.sum(z * z, axis=0)
        return out

    def _responsibilities_flat(self, batch: np.ndarray) -> np.ndarray:
        logp = self.log_prior[:, None] + self.log_observation_pdfs(batch)
        alpha = np.exp(logp - logsumexp(logp, axis=0, keepdims=True))
        return alpha / np.sum(alpha, axis=0, keepdims=True)

    def _component_means(self, batch: np.ndarray) -> np.ndarray:
        """Per-pair posterior means, shape ``(n_pairs, n, d)``."""
        innov = batch[None, :, :] - self.obs_means[:, None, :]
        return self.x_means[:, None, :] + np.einsum("pdm,pnm->pnd", self.gains, innov)

    # -- public inference ----------------------------------------------------

    def responsibilities(self, y) -> np.ndarray:
        """Posterior pair probabilities given ``y``.

        Returns a ``(K, L)`` table for a single observation (row-major in
        the flat pair order) or ``(K, L, n)`` for a batch; entries are
        nonnegative and sum to 1 over the pairs.
        """
        batch, single = _observation_batch(y, self.model.observation_dim)
        alpha = self._responsibilities_flat(batch)
        shape = (self.n_signal, self.n_noise)
        return alpha[:, 0].reshape(shape) if single else alpha.reshape(shape + (-1,))

    def estimate(self, y) -> np.ndarray:
        """MMSE estimate (posterior mean) for one observation or a batch.

        Accepts shape ``(m,)`` returning ``(d,)``, or ``(n, m)`` returning
        ``(n, d)``; a scalar counts as one observation of a model with
        ``m = 1``. Non-finite observations raise :class:`ValidationError`.
        """
        batch, single = _observation_batch(y, self.model.observation_dim)
        alpha = self._responsibilities_flat(batch)
        comp_means = self._component_means(batch)
        if single:
            return alpha[:, 0] @ comp_means[:, 0, :]
        return np.einsum("pn,pnd->nd", alpha, comp_means)

    def posterior(self, y) -> "PosteriorGM":
        """The full posterior mixture of the signal given a single ``y``."""
        batch, single = _observation_batch(y, self.model.observation_dim)
        if not single:
            raise ValidationError("posterior expects a single observation vector")
        alpha = self._responsibilities_flat(batch)[:, 0]
        comp_means = self._component_means(batch)[:, 0, :]
        shape = (self.n_signal, self.n_noise)
        d = self.model.signal_dim
        return PosteriorGM(
            responsibilities=alpha.reshape(shape),
            component_means=comp_means.reshape(shape + (d,)),
            component_covariances=self.comp_post_covs.reshape(shape + (d, d)),
        )


@dataclass(frozen=True)
class PosteriorGM:
    """Posterior mixture of the signal at one observation.

    The component covariances are shared with the precomputed estimator
    (they do not depend on the observation); only the responsibilities and
    component means are data dependent. Not a :class:`GaussianMixture`: at
    extreme SNR the component covariances are merely positive semidefinite
    and responsibilities may underflow to exact zeros.
    """

    responsibilities: np.ndarray  # (K, L)
    component_means: np.ndarray  # (K, L, d)
    component_covariances: np.ndarray  # (K, L, d, d)

    def mean(self) -> np.ndarray:
        """Posterior mean; identical to the MMSE estimate at this observation."""
        d = self.component_means.shape[-1]
        return self.responsibilities.reshape(-1) @ self.component_means.reshape(-1, d)

    def covariance(self) -> np.ndarray:
        """Posterior covariance.

        Mixture-covariance formula over the posterior components:
        ``sum alpha (C + m m^T) - mu mu^T`` with ``mu`` the posterior mean.
        Zero-responsibility components contribute nothing but stay in the sum.
        """
        d = self.component_means.shape[-1]
        alpha = self.responsibilities.reshape(-1)
        means = self.component_means.reshape(-1, d)
        covs = self.component_covariances.reshape(-1, d, d)
        mu = self.mean()
        out = np.einsum("p,pij->ij", alpha, covs)
        out += np.einsum("p,pi,pj->ij", alpha, means, means)
        out -= np.outer(mu, mu)
        return 0.5 * (out + out.T)


class LmmseEstimator:
    """Best affine estimator, from full mixture first and second moments.

    The gain is ``C_xx H^T S^-1`` with ``S = H C_xx H^T + C_nn`` the
    innovation covariance, applied through a Cholesky solve. Its exact MSE
    (``mse``) equals the trace of the error covariance and upper-bounds the
    MMSE estimator's error.
    """

    __slots__ = ("gain", "x_mean", "predicted_obs", "mse")

    def __init__(self, model: BayesianLinearModel):
        H = model.H
        x_mean = model.x_prior.mean()
        x_cov = model.x_prior.covariance()
        n_mean = model.noise.mean()
        n_cov = model.noise.covariance()
        innovation = H @ x_cov @ H.T + n_cov
        innovation = 0.5 * (innovation + innovation.T)
        try:
            chol = np.linalg.cholesky(innovation)
        except np.linalg.LinAlgError:
            raise ValidationError("innovation covariance not positive definite") from None
        cross = H @ x_cov  # C_yx
        self.gain = cho_solve((chol, True), cross).T
        self.x_mean = x_mean
        self.predicted_obs = H @ x_mean + n_mean
        # trace(C_xx) - sum_j g_j' S^-1 g_j over the columns g_j of H C_xx
        half = solve_triangular(chol, cross, lower=True)
        self.mse = float(np.trace(x_cov) - np.sum(half * half))

    def estimate(self, y) -> np.ndarray:
        batch, single = _observation_batch(y, self.predicted_obs.shape[0])
        est = self.x_mean + (batch - self.predicted_obs) @ self.gain.T
        return est[0] if single else est


# -- functional surface ------------------------------------------------------


def precompute(model: BayesianLinearModel) -> PrecomputedEstimator:
    """Build the reusable per-pair inference engine for ``model``."""
    return PrecomputedEstimator(model)


def responsibilities(pre: PrecomputedEstimator, y) -> np.ndarray:
    """Posterior pair-probability table ``(K, L)`` at observation ``y``."""
    return pre.responsibilities(y)


def mmse_estimate(pre: PrecomputedEstimator, y) -> np.ndarray:
    """MMSE estimate (posterior mean) at ``y``; batch-capable."""
    return pre.estimate(y)


def posterior(pre: PrecomputedEstimator, y) -> PosteriorGM:
    """Full posterior mixture at a single observation ``y``."""
    return pre.posterior(y)


def posterior_covariance(post: PosteriorGM) -> np.ndarray:
    """Covariance of a posterior mixture (see :meth:`PosteriorGM.covariance`)."""
    return post.covariance()


def lmmse_estimate(model: BayesianLinearModel, y) -> np.ndarray:
    """LMMSE estimate at ``y``. For repeated use build :class:`LmmseEstimator` once."""
    return LmmseEstimator(model).estimate(y)
