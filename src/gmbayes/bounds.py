"""Analytic MSE bounds for the mixture MMSE estimator.

The estimator's Bayesian MSE has no closed form, but it is sandwiched:

* below by the genie-aided error — the error a two-stage estimator would
  make if an oracle revealed which signal and noise components generated
  each observation, equal to the prior-weighted trace of the component
  posterior covariances;
* above by the exact MSE of the LMMSE estimator, which uses only the full
  mixture first and second moments, and which never exceeds the prior
  trace ``tr C_x``: the MMSE error of the moment-matched Gaussian model.

Both formulas live here. Each reads the precompute of an estimator that a
sweep point has already built: the lower bound a :class:`PrecomputedEstimator`,
the upper bound an :class:`LmmseEstimator`'s one pair. Both are on the linear
scale; any dB conversion happens at presentation time.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .estimators import LmmseEstimator, PrecomputedEstimator

__all__ = [
    "genie_lower_bound",
    "lmmse_upper_bound",
]


def genie_lower_bound(pre: PrecomputedEstimator) -> float:
    """Prior-weighted trace of the component posterior covariances.

    The weights are the observation mixture's pair weights ``p_k q_l``;
    zero-weight pairs drop out. Nonnegative; coincides with the upper bound
    in the single-Gaussian case.
    """
    traces = np.trace(pre.comp_post_covs, axis1=1, axis2=2)
    return float(pre.obs.weights @ traces)


def lmmse_upper_bound(lmmse: LmmseEstimator) -> float:
    """Exact MSE of the LMMSE estimator, an upper bound for the MMSE error:
    ``tr C_xx - sum_j g_j^T S^-1 g_j`` over the columns ``g_j`` of ``H C_xx``,
    from the pair's signal covariance and its factor of ``S``."""
    pair = lmmse.pair
    x_cov = pair.model.x_prior.covariances[0]
    half = solve_triangular(pair.obs.chols[0], pair.model.H @ x_cov, lower=True)
    return float(np.trace(x_cov) - np.sum(half * half))
