"""
MSE bounds and the extreme-SNR regimes
======================================

The Bayesian MSE of the MMSE estimator is not available in closed form for
mixtures, but it is sandwiched by two computable bounds:

* genie lower bound: the MSE if an oracle revealed which (signal, noise)
  component pair generated each observation,
* LMMSE upper bound: the exact MSE of the best affine estimator.

At extreme SNR the MMSE estimator collapses to simple limits: H^-1 y at
high SNR, the prior mean at low SNR. The sandwich closes only at high SNR,
and only because this model's noise has one component: at low SNR the MMSE
tends to tr C_x, the LMMSE bound's limit, while the genie bound tends to
sum_k p_k tr C_k, which is smaller whenever the signal means differ.
"""

import numpy as np

from gmbayes import (
    BayesianLinearModel,
    GaussianMixture,
    LmmseEstimator,
    PrecomputedEstimator,
    calibrate_noise_scale,
    genie_lower_bound,
    lmmse_upper_bound,
    snr_db,
)

x_prior = GaussianMixture.from_parameters(
    weights=[0.25, 0.75],
    means=[[-3.0, 1.0], [2.0, -1.0]],
    covariances=[np.eye(2) * 0.4, np.eye(2) * 0.9],
)
noise = GaussianMixture.single(mean=[0.0, 0.0], covariance=np.eye(2))
model = BayesianLinearModel(np.eye(2), x_prior, noise)
print(f"prior SNR = {snr_db(model):.2f} dB")

# The genie lower bound reads the precomputed estimator, the LMMSE upper
# bound the LMMSE estimator; lower <= upper <= tr C_x always holds.
lower = genie_lower_bound(PrecomputedEstimator(model))
upper = lmmse_upper_bound(LmmseEstimator(model))
print(f"bounds: lower = {lower:.6f}, upper = {upper:.6f}, "
      f"tr C_x = {np.trace(model.x_prior.covariance()):.6f}")

# Rescaling the noise sweeps the SNR; both bounds grow with the noise. The
# gap between them closes at high SNR and widens towards low SNR, where the
# genie bound tends to sum_k p_k tr C_k = 1.55 and the LMMSE bound to
# tr C_x = 6.99.
print(f"\n{'snr_db':>8} {'genie lower':>12} {'lmmse upper':>12} {'gap':>10}")
for target_db in (-20, -10, 0, 10, 20, 40):
    scaled, _ = calibrate_noise_scale(model, target_db)
    lower = genie_lower_bound(PrecomputedEstimator(scaled))
    upper = lmmse_upper_bound(LmmseEstimator(scaled))
    print(f"{target_db:8.1f} {lower:12.6f} {upper:12.6f} {upper - lower:10.2e}")

# High SNR: the observation pins x down, and the estimate approaches
# H^-1 y regardless of the prior.
high, _ = calibrate_noise_scale(model, 100.0)
pre = PrecomputedEstimator(high)
y = high.x_prior.sample(1, seed=5)[0] @ high.H.T + high.noise.sample(1, seed=6)[0]
print("\n+100 dB: estimate          =", pre.estimate(y))
print("         H^-1 y            =", np.linalg.solve(high.H, y))

# Low SNR: the observation is useless, and the estimate falls back to the
# prior mean.
low, _ = calibrate_noise_scale(model, -100.0)
pre_low = PrecomputedEstimator(low)
y_low = low.x_prior.sample(1, seed=5)[0] @ low.H.T + low.noise.sample(1, seed=6)[0]
print("-100 dB: estimate          =", pre_low.estimate(y_low))
print("         prior mean        =", model.x_prior.mean())

# In both regimes the MMSE and LMMSE estimates coincide (the problem
# becomes effectively Gaussian), so the MMSE tends to the LMMSE bound at
# both ends. The genie bound meets it only at high SNR: there the gap is the
# spread of the noise means mapped through H^-1, zero for this model's one
# noise component. At low SNR the gap is the spread of the signal means,
# which the genie knows and a useless observation does not reveal.
lin = LmmseEstimator(high)
print("+100 dB: |MMSE - LMMSE|    =",
      float(np.linalg.norm(pre.estimate(y) - lin.estimate(y))))
