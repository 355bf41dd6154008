"""Brute-force quadrature oracle for scalar (1-D signal, 1-D observation) models.

Everything here evaluates Bayes' rule directly on a dense grid, with no use
of the closed-form mixture algebra, so it can serve as an independent check
of the analytic estimator: posterior density proportional to
``prior(x) * noise_density(y - H x)``, integrated with the trapezoid rule.

The x grid spans every prior component mean by ``SPAN_SIGMAS`` = 12 component
standard deviations, which puts the truncated tail mass below 1e-30. A row
is one y value, and its weights on the x grid are factored: they are its
exact posterior times one constant, which cancels in the moment ratios.
:func:`_moments` turns a block of rows into their posterior means,
variances and absolute log-masses, with the three trapezoid sums (mass,
first and second moment) as one matrix product. Two paths factor the
weights:

- Per row (:func:`_row_moments`, any y): cell ``(l, j)`` is
  ``q_l N_l(y - H x_j) prior(x_j)``, from the per-component noise
  log-densities with no log-sum-exp, shifted by the row's peak
  (``mixture._peak``, as in every log-domain normalisation) and
  exponentiated once, so the ratios stay well conditioned even when the
  absolute posterior scale underflows. :func:`quad_posterior_mean` is this
  path.
- On a residual lattice (:func:`quad_mse`'s y grid, when one fits): the y
  spacing is an integer multiple of ``|H| dx``, so every residual
  ``y_i - H x_j`` is a node of one 1-D lattice and the noise density is
  evaluated once per node instead of once per (y, x) pair. A block of rows
  is a strided window onto the exponentiated lattice
  (``sliding_window_view``) times the exponentiated prior, each factor
  shifted by its own peak. Where no lattice fits (a small ``|H|``, or low
  SNR), ``quad_mse`` takes the per-row path on the plain support grid, so
  every ``|H|`` works, down to 0; its docstring gives the test.

Both paths form every row's posterior mean, variance and absolute
log-mass (``_posterior_rows``). ``quad_mse`` integrates the variances,
and ``oracle-check`` takes that integral and compares the analytic
estimator with the posterior means at 101 of the same rows, so one pass
serves both checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mixture import GaussianMixture, ValidationError, _integer, _peak
from .model import BayesianLinearModel, observation_mixture

__all__ = ["SPAN_SIGMAS", "QuadratureSpec", "quad_posterior_mean", "quad_mse", "support_grid"]

# Half-width of the x and y grids in component standard deviations.
SPAN_SIGMAS = 12.0

# Absolute posterior mass below this is treated as "no numerical support".
_SUPPORT_FLOOR = 1e-300
_LOG_SUPPORT_FLOOR = math.log(_SUPPORT_FLOOR)

# quad_mse's lattice spans at most _CHUNK_ROWS x grids.
_CHUNK_ROWS = 64
# A lattice block holds at most _BLOCK_CELLS cells, 1 MB, so it stays in a
# per-core L2 cache: 32 rows at 4001 points, and never more than
# _CHUNK_ROWS rows.
_BLOCK_CELLS = 1 << 17
# quad_mse's largest arrays, each noise component's array over a lattice
# of at most _CHUNK_ROWS G nodes, take 512 G bytes: this cap on G keeps
# each near 51 MB.
_MAX_GRID_POINTS = 100_001
# The per-row blocks evaluate the noise density at every residual of a
# block, so they are sized by residual count: about 32k residuals keep
# each noise component's array at 256 KB whatever the grid size.
_RESIDUALS_PER_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution: an odd point count from 1001 to 100 001.

    The cap bounds the oracle's largest arrays: each noise component's
    array over ``quad_mse``'s lattice of at most 64 grids takes 512 bytes
    per grid point, about 51 MB at the cap.
    """

    grid_points: int = 20001

    def __post_init__(self):
        object.__setattr__(self, "grid_points", _integer("grid_points", self.grid_points))
        if not 1001 <= self.grid_points <= _MAX_GRID_POINTS or self.grid_points % 2 == 0:
            raise ValidationError(
                f"grid_points {self.grid_points} must be odd and from 1001 to {_MAX_GRID_POINTS}"
            )


def _x_grid(model: BayesianLinearModel, spec: QuadratureSpec):
    """The x grid of a 1-D model, the log prior on it and its moment weights."""
    if model.signal_dim != 1 or model.observation_dim != 1:
        raise ValidationError(
            "quadrature oracle supports 1-D models only; got signal dim "
            f"{model.signal_dim}, observation dim {model.observation_dim}"
        )
    grid = support_grid(model.x_prior, SPAN_SIGMAS, spec.grid_points)
    return grid, model.x_prior.log_density(grid[:, None]), _moment_weights(grid)


def _support_interval(mixture: GaussianMixture, span_sigmas: float) -> tuple[float, float]:
    centers = mixture.means[:, 0]
    sigmas = np.sqrt(mixture.covariances[:, 0, 0])
    return (
        float(np.min(centers - span_sigmas * sigmas)),
        float(np.max(centers + span_sigmas * sigmas)),
    )


def support_grid(mixture: GaussianMixture, span_sigmas: float, points: int) -> np.ndarray:
    """``points`` evenly spaced values covering every component mean of a 1-D
    mixture by ``span_sigmas`` component standard deviations."""
    return np.linspace(*_support_interval(mixture, span_sigmas), points)


def _moment_weights(grid: np.ndarray) -> np.ndarray:
    """``(G, 3)`` trapezoid weights for the integrals of ``f``, ``x f`` and ``x^2 f``."""
    half = 0.5 * np.diff(grid)
    weights = np.zeros_like(grid)
    weights[:-1] += half
    weights[1:] += half
    return np.column_stack([weights, weights * grid, weights * grid**2])


def _moments(weights: np.ndarray, matrix: np.ndarray, log_scale):
    """Each row's posterior mean, posterior variance and absolute log-mass
    from a ``(rows, G)`` block of factored weights, ``log_scale`` being the
    log of the factor taken out of each row's weights.

    The mass, first and second moment sums are one product against the
    ``(G, 3)`` ``matrix``; the variance is ``E[x^2|y] - E[x|y]^2`` from raw
    moments, so it loses about ``eps * E[x^2|y] / Var[x|y]`` relative to
    cancellation. A row whose mass is 0 has mean ``nan``, variance 0 and
    log-mass ``-inf``.
    """
    mass, first, second = (weights @ matrix).T
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = first / mass
        return mean, np.where(mass > 0.0, second / mass - mean**2, 0.0), log_scale + np.log(mass)


def _row_moments(model: BayesianLinearModel, y: np.ndarray, grid, log_prior, moment_weights):
    """:func:`_moments` of every value of the 1-D ``y``, in blocks of about
    ``_RESIDUALS_PER_BLOCK`` residuals ``y - H x``.

    A block's weights are factored by noise component: cell ``(l, j)`` of a
    row is ``q_l N_l(y - H x_j) prior(x_j)``, with the per-component noise
    log-densities from the stacked kernel and no log-sum-exp. Each row is
    shifted by the :func:`_peak` of its ``L x G`` cells, every cell is
    exponentiated once, and the cells are summed over components. The
    log-mass is then the shift plus the log of the row's mass: the log of
    the unnormalized posterior mass, the denominator of Bayes' rule before
    normalization by the y density.
    """
    noise = model.noise
    h_grid = model.H[0, 0] * grid
    # log q_l + log prior(x_j): each cell's terms other than its noise density.
    table = noise.log_weights[:, None, None] + log_prior[None, None, :]
    mean, variance, log_mass = np.empty((3, y.size))
    block_rows = max(1, _RESIDUALS_PER_BLOCK // grid.size)
    for start in range(0, y.size, block_rows):
        rows = slice(start, start + block_rows)
        residual = y[rows, None] - h_grid[None, :]
        logs = noise.component_log_pdfs(residual.reshape(-1, 1)).reshape((len(noise),) + residual.shape)
        logs += table
        shift = _peak(logs, axis=(0, 2))
        logs -= shift[:, None]
        weights = np.exp(logs, out=logs).sum(axis=0)
        mean[rows], variance[rows], log_mass[rows] = _moments(weights, moment_weights, shift)
    return mean, variance, log_mass


def _require_support(y: np.ndarray, log_mass: np.ndarray) -> None:
    """Raise :class:`ValidationError` at the first ``y`` whose absolute
    log-mass is not above the support floor (``nan`` included)."""
    outside = ~(log_mass >= _LOG_SUPPORT_FLOOR)
    if np.any(outside):
        raise ValidationError(f"y = {y[outside][0]:.6g} outside numerical support of the grid")


def quad_posterior_mean(
    model: BayesianLinearModel,
    y,
    spec: QuadratureSpec = QuadratureSpec(),
):
    """Posterior mean E[x | y] by direct numerical integration.

    ``y`` may be a scalar or a 1-D array of observation values; the return
    matches (float or 1-D array). The noise density is evaluated per
    component at every residual ``y - H x`` of the grid, and each query's
    weights are its ``L x G`` cells ``q_l N_l(y - H x_j) prior(x_j)``,
    shifted by their peak and exponentiated once. Raises
    :class:`ValidationError` when the posterior mass at some requested
    ``y`` underflows the support floor, i.e. the observation lies outside
    the grid's numerical support.
    """
    grid, log_prior, moment_weights = _x_grid(model, spec)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if y_arr.ndim != 1:
        raise ValidationError(f"y must be scalar or 1-D, got shape {np.shape(y)}")
    if not np.all(np.isfinite(y_arr)):
        raise ValidationError("y has non-finite entries")
    mean, _, log_mass = _row_moments(model, y_arr, grid, log_prior, moment_weights)
    _require_support(y_arr, log_mass)
    return mean if np.ndim(y) else float(mean[0])


class _Rows(NamedTuple):
    """Bayes' rule on every row of :func:`quad_mse`'s y grid: the observation
    mixture, the grid, and each row's posterior mean, posterior variance and
    absolute log-mass (the log of its unnormalized posterior mass)."""

    obs: GaussianMixture
    y: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    log_mass: np.ndarray

    def mse(self) -> float:
        """The outer integral ``∫ f_y(y) Var[x | y] dy``, with ``f_y`` exact."""
        return float(np.trapezoid(np.exp(self.obs.log_density(self.y[:, None])) * self.variance, self.y))

    def means_inside(self, span_sigmas: float, points: int) -> tuple[np.ndarray, np.ndarray]:
        """``points`` rows spread evenly by index over the rows inside the
        observation mixture's ``span_sigmas`` support: their y and posterior
        means. Raises :class:`ValidationError` when a picked row lies below
        the support floor, as :func:`quad_posterior_mean` does.

        Every y grid has at least ``(G - 1) / 2`` rows over the 12-sigma
        support (a lattice is never coarser than that, as the observation
        support is never narrower than ``|H|`` times the prior's), so a
        6-sigma window, at least a third of it, holds about ``(G - 1) / 6``
        of them: 166 at 1001 points, more than the 101 that oracle-check
        picks."""
        low, high = _support_interval(self.obs, span_sigmas)
        inside = np.flatnonzero((self.y >= low) & (self.y <= high))
        picks = inside[np.arange(points) * (inside.size - 1) // (points - 1)]
        _require_support(self.y[picks], self.log_mass[picks])
        return self.y[picks], self.mean[picks]


def _posterior_rows(model: BayesianLinearModel, spec: QuadratureSpec) -> _Rows:
    """The posterior rows that :func:`quad_mse` integrates; see there for the y grid.

    Both paths end in :func:`_moments`: on the lattice path a row's log
    scale is the sum of the two factors' peaks, on the per-row path it is
    :func:`_row_moments`' shift.
    """
    x_grid, log_prior, moment_weights = _x_grid(model, spec)
    h = float(model.H[0, 0])
    size = x_grid.size
    step = abs(h) * ((x_grid[-1] - x_grid[0]) / (size - 1))
    obs = observation_mixture(model)
    low, high = _support_interval(obs, SPAN_SIGMAS)
    if not (0.0 < step < math.inf and high - low <= (_CHUNK_ROWS - 1) * size * step):
        y_grid = support_grid(obs, SPAN_SIGMAS, size)
        return _Rows(obs, y_grid, *_row_moments(model, y_grid, x_grid, log_prior, moment_weights))

    stride = max(1, math.ceil((high - low) / ((size - 1) * step)))
    y_count = min(size, math.ceil((high - low) / (stride * step)) + 1)
    y_grid = low + stride * np.arange(y_count) * step
    # Residual (i, j) is lattice node stride i - sign(H) j; node 0 is
    # residual (0, 0). The lattice runs from node 0 up, or from the top
    # node stride (y_count - 1) down when H > 0, so that every row reads
    # its window forward (the rows' windows are then taken in reverse).
    top = stride * (y_count - 1)
    reach = np.arange(top + size)
    nodes = top - reach if h > 0.0 else reach
    lattice = model.noise.log_density((low - h * x_grid[0]) + nodes[:, None] * step)
    noise_peak, prior_peak = _peak(lattice, axis=0), _peak(log_prior, axis=0)
    noise = np.exp(lattice - noise_peak)
    windows = sliding_window_view(noise, size)[::-stride if h > 0.0 else stride]
    # The prior factor of every cell, shifted by its peak, times the moment weights.
    prior_weights = np.exp(log_prior - prior_peak)[:, None] * moment_weights
    mean, variance, log_mass = np.empty((3, y_count))
    block_rows = min(_CHUNK_ROWS, _BLOCK_CELLS // size)
    noise_block = np.empty((block_rows, size))
    for start in range(0, y_count, block_rows):
        rows = slice(start, min(start + block_rows, y_count))
        block = noise_block[: rows.stop - start]
        np.copyto(block, windows[rows])
        mean[rows], variance[rows], log_mass[rows] = _moments(block, prior_weights, noise_peak + prior_peak)
    return _Rows(obs, y_grid, mean, variance, log_mass)


def quad_mse(model: BayesianLinearModel, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Bayesian MSE of the exact posterior mean by double quadrature.

    Integrates the posterior variance against the observation density:
    ``mse = ∫ f_y(y) Var[x | y] dy``, with the inner posterior moments on an
    x grid of ``spec.grid_points`` = ``G`` nodes and the outer integral on a
    y grid built from the observation mixture. The observation density
    itself is evaluated exactly.

    One floating-point test picks the path before any lattice exists: the
    lattice iff ``q = |H| dx`` is positive and finite and the observation
    mixture's ``SPAN_SIGMAS`` support spans at most ``(_CHUNK_ROWS - 1) G``
    steps ``q``. The y grid is then a residual lattice whose spacing is the
    smallest integer multiple ``s`` of ``q`` that covers that support with
    at most ``G`` nodes. Then ``y_i - H x_j = r0 + (s i - sign(H) j) q``, and
    each block of y rows reads the noise lattice as a strided window, rows
    stepping ``s`` nodes. The lattice runs from its top node down when
    ``H > 0``, so the columns of a row read it forward, one node a column,
    whatever the sign of ``H``. A block is one copy of its window into a
    reused ``(rows, G)`` buffer, with ``rows = min(_CHUNK_ROWS,
    _BLOCK_CELLS // G)`` so that it stays in L2 cache, and one matrix
    product against the prior's ``(G, 3)`` matrix ``exp(log_prior - peak) *
    moment weights``. The integral's last bits follow the BLAS kernel that
    a block's row count selects, which is why the tests' mirror copies this
    block rule. A row whose factored mass underflows to exactly 0
    contributes 0: where the grid resolves the noise density, its
    observation density is then below the last bit of the integral.

    Otherwise (a small ``|H|``, low SNR, or ``q`` underflowing to 0) the y
    grid is the plain ``G``-point :func:`support_grid` of the observation
    mixture, and its rows are :func:`quad_posterior_mean`'s per-row blocks,
    which form no lattice index.
    """
    return _posterior_rows(model, spec).mse()
