"""
MMSE estimation in the Bayesian linear model
============================================

Set up y = H x + n with mixture-distributed signal and noise, inspect the
posterior at an observation, and compare the closed-form MMSE estimator
with the affine LMMSE estimator.
"""

import numpy as np

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    lmmse_upper_bound,
)

# Signal prior: two well-separated clusters in 2-D.
x_prior = GaussianMixture.from_parameters(
    weights=[0.5, 0.5],
    means=[[-4.0, 0.0], [4.0, 1.0]],
    covariances=[np.eye(2) * 0.5, np.eye(2) * 0.8],
)
# Noise: mostly tight, occasionally wide (a heavy-tailed "contaminated"
# noise model, which a plain Gaussian assumption would mishandle).
noise = GaussianMixture.from_parameters(
    weights=[0.9, 0.1],
    means=[[0.0, 0.0], [0.0, 0.0]],
    covariances=[np.eye(2) * 0.3, np.eye(2) * 3.0],
)
model = BayesianLinearModel([[1.0, 0.2], [-0.1, 1.0]], x_prior, noise)
print("model:", model)

# Everything y-independent (gains, Cholesky factors, posterior component
# covariances) is computed once; reuse `pre` for every observation.
pre = PrecomputedEstimator(model)

y = np.array([3.5, 1.2])
post = pre.posterior(y)
print("y =", y)
print("responsibilities alpha(k,l) =\n", post.responsibilities)
print("posterior mean =", post.mean())
print("posterior covariance =\n", post.covariance())

# The MMSE estimate is exactly the posterior mean.
assert np.array_equal(pre.estimate(y), post.mean())

# The LMMSE estimator uses only the overall first/second moments, so it
# cannot react to which cluster the observation favors.
lin = LmmseEstimator(model)
print("MMSE  estimate =", pre.estimate(y))
print("LMMSE estimate =", lin.estimate(y))
print("exact LMMSE MSE =", lmmse_upper_bound(lin))

# An ambiguous observation between the clusters: the MMSE estimator hedges
# across components (responsibilities near 50/50) instead of committing.
y_mid = np.array([0.0, 0.5])
post_mid = pre.posterior(y_mid)
print("ambiguous y =", y_mid,
      "-> component mass per signal cluster:",
      post_mid.responsibilities.sum(axis=1))

# Batched evaluation: pass an (n, m) array, get an (n, d) array back.
ys = np.array([[3.5, 1.2], [0.0, 0.5], [-4.2, -0.3]])
print("batched estimates:\n", pre.estimate(ys))
