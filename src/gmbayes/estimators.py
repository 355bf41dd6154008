"""Posterior inference and the MMSE / LMMSE estimators.

Given the linear model ``y = H x + n`` with mixture-distributed ``x`` and
``n``, the posterior of ``x`` given ``y`` is again a Gaussian mixture: one
component per (signal component k, noise component l) pair, with data-
dependent weights (the responsibilities) and data-independent component
covariances. The posterior mean is the MMSE estimate.

Everything that does not depend on ``y`` is computed once in
:class:`PrecomputedEstimator`. The per-pair observation densities are the
components of the observation mixture (:func:`gmbayes.model.observation_mixture`),
so their means, Cholesky factors and log-densities come from that mixture
and its stacked whitening kernel. The per-pair gains and component posterior
covariances are formed from the same Cholesky factors by one batched
Cholesky solve over all pairs; no observation covariance is ever inverted
explicitly, which keeps the high-SNR (ill-conditioned) regime accurate.
An estimate forms the ``(pairs, m, n)`` block of deviations ``y - mu_y``
once per batch; the whitening and the gains both read it, the gains as one
batched matrix product, and the responsibility-weighted reduction runs over
the resulting ``(pairs, d, n)`` per-pair means.
Responsibilities are a softmax of log weights plus Gaussian log-densities,
well-defined even when every component likelihood underflows a double. Both
of its exponentials follow the one rule of :mod:`gmbayes.mixture`: a lane a
double cannot hold (below ``log(tiny)``, ``tiny`` the smallest normal
double; ``-inf``; or ``nan`` from an overflow in the whitening) is exactly 0
and never reaches ``exp``. An observation with only such lanes has zero
density under every pair and raises :class:`ValidationError`. A pair of zero
responsibility adds nothing to a posterior mean or covariance, even where its
own mean is not finite.

:class:`LmmseEstimator` is the :class:`PrecomputedEstimator` of the
moment-matched Gaussian model, for which MMSE and LMMSE coincide; its estimate
is the gain step of its one pair, whose responsibility is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .mixture import (
    GaussianMixture,
    ValidationError,
    _as_batch,
    _exp_flushed,
    _frozen,
    _log_sum_exp,
    _mixture_covariance,
    _stacked_product,
)
from .model import BayesianLinearModel, observation_mixture

__all__ = [
    "PrecomputedEstimator",
    "PosteriorGM",
    "LmmseEstimator",
]

_MEAN_OVERFLOW = "observation {} has a posterior mean that overflows a double"


class PrecomputedEstimator:
    """Reusable MMSE inference engine for one model.

    All arrays are stacked over the flat pair index ``k * L + l`` (signal
    component outer, noise component inner), the component order of the
    observation mixture. Instances are immutable and safe for concurrent
    use; every estimate call works on its own local arrays.

    Attributes
    ----------
    model : BayesianLinearModel
    obs : GaussianMixture
        The observation mixture: per pair, weight ``p_k q_l``, mean
        ``H u_x^(k) + u_n^(l)`` and covariance ``H C_x^(k) H^T + C_n^(l)``
        with its lower Cholesky factor. Zero-weight pairs carry ``-inf`` log
        weight and so exactly zero responsibility, but stay in all sums.
    n_pairs : int
        ``K * L``.
    gains : (n_pairs, d, m) array
        ``C_x^(k) H^T (H C_x^(k) H^T + C_n^(l))^-1``, by one batched
        Cholesky solve against the observation mixture's factors.
    comp_post_covs : (n_pairs, d, d) array
        Component posterior covariances; independent of the observation.
    x_means : (n_pairs, d) array
        Signal component means, repeated across noise components.
    """

    __slots__ = (
        "model",
        "obs",
        "n_pairs",
        "gains",
        "comp_post_covs",
        "x_means",
    )

    def __init__(self, model: BayesianLinearModel):
        obs = observation_mixture(model)
        n_noise = len(model.noise)
        x_covs = np.repeat(model.x_prior.covariances, n_noise, axis=0)
        h_covs = model.H @ x_covs  # rows of C_yx = H C_x^(k), per pair
        gains = np.swapaxes(cho_solve((obs.chols, True), h_covs), 1, 2)
        post_covs = x_covs - gains @ h_covs

        self.model = model
        self.obs = obs
        self.n_pairs = len(obs)
        # C order: each pair's gain is one contiguous block for the batched product.
        self.gains = _frozen(np.ascontiguousarray(gains))
        self.comp_post_covs = _frozen(0.5 * (post_covs + np.swapaxes(post_covs, 1, 2)))
        self.x_means = _frozen(np.repeat(model.x_prior.means, n_noise, axis=0))

    # -- log-domain machinery ----------------------------------------------

    def log_observation_pdfs(self, batch) -> np.ndarray:
        """Per-pair Gaussian log-densities of ``(n, m)`` observations, shape ``(n_pairs, n)``,
        with the input rules of :meth:`GaussianMixture.component_log_pdfs`."""
        return self.obs.component_log_pdfs(batch)

    def _softmax(self, log_pdfs: np.ndarray) -> np.ndarray:
        """Responsibilities ``(n_pairs, n)`` from per-pair log-densities, in place.

        Overwrites ``log_pdfs``: adds the log weights, subtracts their
        log-sum-exp, exponentiates by :func:`_exp_flushed` and divides by the
        sum. An observation with zero density under every pair (log-sum-exp
        ``-inf``) has no responsibilities and raises :class:`ValidationError`.
        """
        log_pdfs += self.obs.log_weights[:, None]
        total = _log_sum_exp(log_pdfs)
        zero = np.isneginf(total)
        if zero.any():
            raise ValidationError(f"observation {zero.argmax()} has zero density under every component pair")
        log_pdfs -= total
        alpha = _exp_flushed(log_pdfs)
        alpha /= alpha.sum(axis=0, keepdims=True)
        return alpha

    def _posterior_terms(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Responsibilities ``(n_pairs, n)`` and per-pair posterior means ``(n_pairs, d, n)``.

        One deviation block ``y - mu_y`` serves both the whitening and the
        gain step, :meth:`_pair_means`.
        """
        dev = self.obs._deviations(batch)
        alpha = self._softmax(self.obs._whitened_log_pdfs(dev))
        return alpha, self._pair_means(dev)

    def _pair_means(self, dev: np.ndarray) -> np.ndarray:
        """The gain step: per-pair posterior means ``x_means + gains (y - mu_y)``,
        ``(n_pairs, d, n)``, from a ``(n_pairs, m, n)`` deviation block, by one
        batched matrix product over the pairs."""
        means = _stacked_product(self.gains, dev)
        means += self.x_means[:, :, None]
        return means

    # -- public inference ----------------------------------------------------

    def responsibilities(self, y) -> np.ndarray:
        """Posterior pair probabilities given ``y``.

        Returns a ``(K, L)`` table for a single observation (row-major in
        the flat pair order) or ``(K, L, n)`` for a batch; entries are
        nonnegative and sum to 1 over the pairs.
        """
        batch, single = _as_batch(y, self.model.observation_dim, "observation")
        alpha = self._softmax(self.obs._whitened_log_pdfs(self.obs._deviations(batch)))
        shape = (len(self.model.x_prior), len(self.model.noise))
        return alpha[:, 0].reshape(shape) if single else alpha.reshape(shape + (-1,))

    def estimate(self, y) -> np.ndarray:
        """MMSE estimate (posterior mean) for one observation or a batch.

        Accepts shape ``(m,)`` returning ``(d,)``, or ``(n, m)`` returning
        ``(n, d)``; a scalar counts as one observation of a model with
        ``m = 1``. Non-finite observations, and observations with zero
        density under every pair, raise :class:`ValidationError`.
        """
        batch, single = _as_batch(y, self.model.observation_dim, "observation")
        alpha, comp_means = self._posterior_terms(batch)
        if single:
            return _live_pairs(np.matmul, alpha[:, 0], comp_means[:, :, 0],
                               error=_MEAN_OVERFLOW.format(0))
        means = np.einsum("pn,pdn->nd", alpha, comp_means)
        if not np.isfinite(means).all():
            for i in np.flatnonzero(~np.isfinite(means).all(axis=1)):
                means[i] = _live_pairs(np.matmul, alpha[:, i], comp_means[:, :, i],
                                       error=_MEAN_OVERFLOW.format(i))
        return means

    def posterior(self, y) -> "PosteriorGM":
        """The full posterior mixture of the signal given a single ``y``."""
        batch, single = _as_batch(y, self.model.observation_dim, "observation")
        if not single:
            raise ValidationError("posterior expects a single observation vector")
        alpha, comp_means = self._posterior_terms(batch)
        shape = (len(self.model.x_prior), len(self.model.noise))
        d = self.model.signal_dim
        return PosteriorGM(
            responsibilities=alpha[:, 0].reshape(shape),
            component_means=comp_means[:, :, 0].reshape(shape + (d,)),
            component_covariances=self.comp_post_covs.reshape(shape + (d, d)),
        )


def _live_pairs(reduce, alpha: np.ndarray, *per_pair: np.ndarray, error: str) -> np.ndarray:
    """``reduce(alpha, *per_pair)`` over one observation's pairs, with idle pairs adding nothing.

    ``alpha`` holds the ``(n_pairs,)`` responsibilities and each of
    ``per_pair`` stacks one array per pair along its first axis. A pair of
    zero responsibility may still carry a non-finite mean (its gain meets an
    overflowed deviation), which the reduction turns into ``0 * nan``. Only a
    result that is not finite is reduced again, over the pairs of nonzero
    responsibility; one that is still not finite raises
    :class:`ValidationError` with the message ``error``.
    """
    out = reduce(alpha, *per_pair)
    if not np.isfinite(out).all():
        live = alpha > 0.0
        out = reduce(alpha[live], *(a[live] for a in per_pair))
        if not np.isfinite(out).all():
            raise ValidationError(error)
    return out


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
        return _live_pairs(np.matmul, self.responsibilities.reshape(-1),
                           self.component_means.reshape(-1, d), error=_MEAN_OVERFLOW.format(0))

    def covariance(self) -> np.ndarray:
        """Posterior covariance: the mixture covariance of the posterior components.

        Idle pairs add nothing. Raises :class:`ValidationError` where it overflows
        a double (its second moments do once a live component mean nears the
        largest double).
        """
        d = self.component_means.shape[-1]
        return _live_pairs(_mixture_covariance, self.responsibilities.reshape(-1),
                           self.component_means.reshape(-1, d),
                           self.component_covariances.reshape(-1, d, d),
                           error="posterior covariance overflows a double")


class LmmseEstimator(PrecomputedEstimator):
    """Best affine estimator: the :class:`PrecomputedEstimator` of the moment-matched model.

    MMSE and LMMSE coincide for Gaussian signal and noise. ``model`` replaces
    each mixture by one Gaussian of its mean and covariance, and its one-pair
    ``obs`` validates the factor of ``S = H C_xx H^T + C_nn``. The inherited
    :meth:`responsibilities` and :meth:`posterior` describe that model. The
    exact MSE, an upper bound for the MMSE error, is :func:`~gmbayes.bounds.lmmse_upper_bound`.
    """

    __slots__ = ()

    def __init__(self, model: BayesianLinearModel):
        x, noise = model.x_prior, model.noise
        super().__init__(BayesianLinearModel(
            model.H,
            GaussianMixture.single(x.mean(), x.covariance()),
            GaussianMixture.single(noise.mean(), noise.covariance()),
        ))

    def estimate(self, y) -> np.ndarray:
        """LMMSE estimate ``E[x] + G (y - E[y])``: the one pair's gain step, with no softmax.

        Takes the shapes of :meth:`PrecomputedEstimator.estimate`: ``(m,)``
        returns ``(d,)``, ``(n, m)`` returns ``(n, d)``, and a scalar is one
        observation when ``m = 1``. Non-finite entries, and estimates that
        overflow a double, raise :class:`ValidationError`.
        """
        batch, single = _as_batch(y, self.model.observation_dim, "observation")
        try:
            with np.errstate(over="raise", invalid="raise"):
                est = self._pair_means(self.obs._deviations(batch))[0].T
        except FloatingPointError:  # only now look for the first row that overflows
            with np.errstate(over="ignore", invalid="ignore"):
                est = self._pair_means(self.obs._deviations(batch))[0].T
            finite = np.isfinite(est).all(axis=1)
            if not finite.all():
                raise ValidationError(_MEAN_OVERFLOW.format(finite.argmin())) from None
        return est[0] if single else est
