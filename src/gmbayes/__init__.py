"""MMSE estimation for Bayesian linear models with Gaussian mixture priors.

The observation model is ``y = H x + n`` with known ``H`` and independent
finite Gaussian mixtures on the signal ``x`` and the noise ``n``. The
posterior of ``x`` given ``y`` is again a Gaussian mixture, so the MMSE
estimator (the posterior mean) has a closed form: a responsibility-weighted
sum of per-component Wiener estimates. This package provides

* the mixture toolkit (:mod:`gmbayes.mixture`): one stacked representation
  of a mixture (weights, means, covariances, Cholesky factors), validated
  once at construction; densities, moments, sampling, characteristic
  function, and affine transforms, independent joins and marginals as
  array operations;
* the model layer (:mod:`gmbayes.model`): observation/joint mixtures, SNR,
  noise-scale calibration;
* the estimators (:mod:`gmbayes.estimators`): precomputed MMSE estimator,
  full mixture posterior, LMMSE baseline;
* analytic MSE bounds (:mod:`gmbayes.bounds`): ``genie_lower_bound`` of a
  precomputed estimator and ``lmmse_upper_bound`` of an LMMSE estimator;
* a Monte Carlo SNR sweep harness (:mod:`gmbayes.montecarlo`) with
  deterministic seeding and CSV/SVG output (:mod:`gmbayes.sweepio`,
  :mod:`gmbayes.svg`);
* a brute-force 1-D quadrature oracle (:mod:`gmbayes.quadrature`);
* a command line (``gmbayes validate | estimate | sweep | oracle-check``).
"""

from .bounds import genie_lower_bound, lmmse_upper_bound
from .config import ConfigError, RunConfig, load_config, packaged_config, parse_config
from .estimators import (
    LmmseEstimator,
    PosteriorGM,
    PrecomputedEstimator,
)
from .mixture import (
    GaussianMixture,
    ValidationError,
    affine_transform,
    independent_join,
    marginal,
)
from .model import (
    BayesianLinearModel,
    calibrate_noise_scale,
    joint_xy_mixture,
    observation_mixture,
    scale_noise,
    snr,
    snr_db,
)
from .montecarlo import SweepConfig, SweepPoint, derive_seed, estimate_mse, run_sweep
from .quadrature import QuadratureSpec, quad_mse, quad_posterior_mean
from .svg import render_sweep_svg, write_sweep_svg
from .sweepio import (
    SWEEP_CSV_HEADER,
    CsvRow,
    parse_sweep_csv,
    read_sweep_csv,
    render_sweep_csv,
    to_db,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianLinearModel",
    "ConfigError",
    "CsvRow",
    "GaussianMixture",
    "LmmseEstimator",
    "PosteriorGM",
    "PrecomputedEstimator",
    "QuadratureSpec",
    "RunConfig",
    "SWEEP_CSV_HEADER",
    "SweepConfig",
    "SweepPoint",
    "ValidationError",
    "affine_transform",
    "calibrate_noise_scale",
    "derive_seed",
    "estimate_mse",
    "genie_lower_bound",
    "independent_join",
    "joint_xy_mixture",
    "lmmse_upper_bound",
    "load_config",
    "marginal",
    "observation_mixture",
    "packaged_config",
    "parse_config",
    "parse_sweep_csv",
    "quad_mse",
    "quad_posterior_mean",
    "read_sweep_csv",
    "render_sweep_csv",
    "render_sweep_svg",
    "run_sweep",
    "scale_noise",
    "snr",
    "snr_db",
    "to_db",
    "write_sweep_csv",
    "write_sweep_svg",
    "__version__",
]
